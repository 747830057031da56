"""Acknowledgement worms.

After a worm fully reaches its destination, an acknowledgement is sent back
to the source "immediately afterwards" (trial-and-failure protocol,
Section 1.3). Acks travel the reversed path on the reserved ack band, so
they never contend with forward messages (Section 2 reserves ``B``
wavelengths for each direction).

The protocol's default ``ack_mode="ideal"`` assumes acks always arrive --
this matches the paper's proof simplification of folding acknowledgement
congestion into a doubled path congestion. ``ack_mode="simulated"`` builds
the worms below and routes them on a dedicated ack engine for ablation
E-AB3.
"""

from __future__ import annotations

from typing import Sequence

from repro.worms.worm import Worm

__all__ = ["ack_worm", "ack_worms"]


def ack_worm(worm: Worm, ack_length: int = 1, uid_offset: int = 0) -> Worm:
    """The acknowledgement worm for ``worm``: reversed path, short payload.

    ``uid_offset`` shifts the ack uid so forward and backward worms can
    coexist in one bookkeeping namespace.
    """
    if ack_length <= 0:
        raise ValueError(f"ack length must be positive, got {ack_length}")
    return Worm(
        uid=worm.uid + uid_offset,
        path=tuple(reversed(worm.path)),
        length=ack_length,
    )


def ack_worms(worms: Sequence[Worm], ack_length: int = 1) -> list[Worm]:
    """Acknowledgement worms for ``worms``, each keeping its forward uid.

    Acks route on their own engine, so sharing the forward uid cannot
    collide, and uids stay unique however many worms are added later.
    """
    return [ack_worm(w, ack_length=ack_length) for w in worms]

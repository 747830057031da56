"""The round kernel's temporaries reuse heap pages from round to round."""

import os

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, run_protocol_batch
from repro.experiments.workloads import mesh_random_function


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap slack is a glibc setting")
def test_partitioned_rounds_do_not_refault_the_heap():
    import resource

    # 16 lockstep trials on a 16x16 mesh: every forward round is
    # partitioned and allocates a few MB of numpy temporaries. When glibc
    # handed them back to the OS, every repeat of the call took ~400
    # minor page faults; with the heap slack, once the heap has grown
    # (two calls), a repeat takes a few dozen at most.
    coll = mesh_random_function(16, 2, rng=np.random.default_rng(0))
    cfg = ProtocolConfig(bandwidth=2)
    seeds = list(range(16))
    for _ in range(2):
        run_protocol_batch(coll, cfg, seeds)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(2):
        run_protocol_batch(coll, cfg, seeds)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 150

"""Tests for acknowledgement worms."""

import pytest

from repro.worms.ack import ack_worm, ack_worms
from repro.worms.worm import Worm, make_worms


class TestAckWorm:
    def test_reversed_path(self):
        w = Worm(uid=0, path=("a", "b", "c"), length=4)
        ack = ack_worm(w)
        assert ack.path == ("c", "b", "a")
        assert ack.source == w.destination
        assert ack.destination == w.source

    def test_default_length_one(self):
        assert ack_worm(Worm(uid=0, path=("a", "b"), length=8)).length == 1

    def test_uid_offset(self):
        w = Worm(uid=3, path=("a", "b"), length=2)
        assert ack_worm(w, uid_offset=100).uid == 103

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError):
            ack_worm(Worm(uid=0, path=("a", "b"), length=2), ack_length=0)

    def test_custom_length(self):
        assert ack_worm(Worm(uid=0, path=("a", "b"), length=2), ack_length=3).length == 3


class TestAckWorms:
    def test_keeps_forward_uids(self):
        worms = make_worms([("a", "b"), ("b", "c")], length=2)
        acks = ack_worms(worms)
        assert [a.uid for a in acks] == [0, 1]
        # A later batch of worms never reuses an earlier ack's uid.
        more = [Worm(uid=2, path=("c", "d"), length=2)]
        assert [a.uid for a in acks + ack_worms(more)] == [0, 1, 2]

    def test_paths_all_reversed(self):
        worms = make_worms([("a", "b", "c"), ("x", "y")], length=2)
        acks = ack_worms(worms)
        assert acks[0].path == ("c", "b", "a")
        assert acks[1].path == ("y", "x")

"""Unit tests of the small substrate modules: clock, messages, status,
locations, envelope keys."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro import mp
from repro.mp.clock import CostModel, VirtualClock
from repro.mp.envelopeutil import envelope_key_str, parse_envelope_key
from repro.mp import locutil
from repro.mp.datatypes import SourceLocation
from repro.mp.locutil import caller_location, is_infrastructure_file
from repro.mp.message import Envelope, Message, copy_payload, payload_size


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            VirtualClock().advance(-1.0)

    def test_advance_to_only_forward(self):
        clock = VirtualClock(now=10.0)
        assert clock.advance_to(5.0) == 10.0  # never backwards
        assert clock.advance_to(15.0) == 15.0

    def test_checkpoint_history(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.checkpoint()
        clock.advance(2.0)
        clock.checkpoint()
        assert clock.history == (1.0, 3.0)


class TestCostModel:
    def test_transfer_time_components(self):
        cm = CostModel(latency=10.0, byte_cost=0.5)
        assert cm.transfer_time(0) == 10.0
        assert cm.transfer_time(4) == 12.0

    def test_defaults_positive(self):
        cm = CostModel()
        assert cm.latency > 0 and cm.send_overhead > 0
        assert cm.call_overhead < cm.send_overhead  # calls cheaper than msgs


class TestPayloads:
    def test_payload_size_kinds(self):
        assert payload_size(None) == 0
        assert payload_size(np.zeros((3, 4))) == 12
        assert payload_size("hello") == 5
        assert payload_size(b"ab") == 2
        assert payload_size([1, 2, 3]) == 3
        assert payload_size({"a": 1}) == 1
        assert payload_size(42) == 1
        assert payload_size(object()) == 1

    def test_copy_payload_arrays_independent(self):
        a = np.arange(3)
        c = copy_payload(a)
        a[0] = 99
        assert c[0] == 0

    def test_copy_payload_immutables_pass_through(self):
        s = "immutable"
        assert copy_payload(s) is s
        assert copy_payload(7) == 7
        t = (np.zeros(2), "x")
        ct = copy_payload(t)
        t[0][0] = 5.0
        assert ct[0][0] == 0.0  # tuple elements deep-copied

    def test_copy_payload_containers_deep(self):
        d = {"xs": [1, 2]}
        c = copy_payload(d)
        d["xs"].append(3)
        assert c["xs"] == [1, 2]


class TestEnvelopes:
    def test_matches_wildcards(self):
        msg = Message(envelope=Envelope(2, 0, 5, 0), payload=None)
        assert msg.matches(mp.ANY_SOURCE, mp.ANY_TAG)
        assert msg.matches(2, 5)
        assert not msg.matches(1, 5)
        assert not msg.matches(2, 6)

    def test_key_roundtrip(self):
        env = Envelope(src=3, dst=1, tag=42, seq=7)
        assert parse_envelope_key(envelope_key_str(env)) == env

    def test_msg_ids_unique(self):
        a = Message(envelope=Envelope(0, 1, 0, 0), payload=None)
        b = Message(envelope=Envelope(0, 1, 0, 1), payload=None)
        assert a.msg_id != b.msg_id


class TestLocUtil:
    def test_infrastructure_detection(self):
        assert is_infrastructure_file(
            os.path.join("x", "repro", "mp", "comm.py")
        )
        assert is_infrastructure_file(
            os.path.join("x", "repro", "debugger", "session.py")
        )
        assert not is_infrastructure_file(
            os.path.join("x", "repro", "apps", "strassen.py")
        )
        assert not is_infrastructure_file("user_code.py")

    def test_caller_location_points_here(self):
        loc = caller_location(skip=0)
        assert loc.filename.endswith("test_units.py")
        assert loc.function == "test_caller_location_points_here"

    # -- the memoised walk agrees with an uncached one ---------------
    @staticmethod
    def _uncached_walk(frame, max_depth: int) -> SourceLocation:
        """The walk with the substring test redone on every frame."""
        depth = 0
        while frame is not None and depth < max_depth:
            filename = frame.f_code.co_filename
            if not any(frag in filename for frag in locutil._INFRA_FRAGMENTS):
                return SourceLocation(filename, frame.f_lineno, frame.f_code.co_name)
            frame = frame.f_back
            depth += 1
        return SourceLocation.unknown()

    def _infra_probe(self):
        """``probe(max_depth)`` and ``nested(max_depth)`` compiled as if
        they lived in ``repro/mp``: each returns (cached, uncached)
        locations taken from the same frame."""
        src = (
            "def probe(max_depth=30):\n"
            "    return (caller_location(skip=0, max_depth=max_depth),\n"
            "            uncached(sys._getframe(0), max_depth))\n"
            "def nested(max_depth):\n"
            "    return probe(max_depth)\n"
        )
        path = os.path.join(os.sep, "x", "repro", "mp", "probe_module.py")
        ns = {"caller_location": caller_location, "uncached": self._uncached_walk, "sys": sys}
        exec(compile(src, path, "exec"), ns)
        return ns["probe"], ns["nested"]

    def test_cached_walk_matches_uncached_for_a_user_frame(self):
        probe, _ = self._infra_probe()
        for _ in range(2):  # second pass is served from the cache
            cached, uncached = probe()
            assert cached == uncached
            assert cached.function == "test_cached_walk_matches_uncached_for_a_user_frame"
            assert cached.filename.endswith("test_units.py")

    def test_cached_walk_matches_uncached_for_exec_string(self):
        probe, _ = self._infra_probe()
        for _ in range(2):
            ns = {"probe": probe}
            exec("pad = 0\nresult = probe()\n", ns)
            cached, uncached = ns["result"]
            assert cached == uncached
            assert (cached.filename, cached.lineno, cached.function) == (
                "<string>", 2, "<module>"
            )

    def test_all_infrastructure_stack_is_unknown(self):
        _, nested = self._infra_probe()
        for _ in range(2):
            # Both frames inside the walk window are infrastructure.
            cached, uncached = nested(2)
            assert cached == uncached == SourceLocation.unknown()

    def test_cache_bounded_by_file_names(self):
        probe, _ = self._infra_probe()
        exec(compile("probe()\n", "<string>", "exec"), {"probe": probe})
        size = len(locutil._verdicts)
        for i in range(50):
            # Fresh code objects every time, one shared file name.
            program = f"def main_{i}():\n    return probe()\nmain_{i}()\n"
            exec(compile(program, "<string>", "exec"), {"probe": probe})
        assert len(locutil._verdicts) == size
        assert locutil._verdicts["<string>"] is False


class TestStatus:
    def test_accessors(self):
        st = mp.Status(source=2, tag=3, count=4)
        assert st.get_source() == 2
        assert st.get_tag() == 3
        assert st.get_count() == 4
        assert st.is_cancelled() is False

    def test_set_from(self):
        a = mp.Status()
        a.set_from(mp.Status(source=1, tag=2, count=3, cancelled=True))
        assert (a.source, a.tag, a.count, a.cancelled) == (1, 2, 3, True)


class TestWaitInfoDisplay:
    def test_str(self):
        w = mp.WaitInfo(3, mp.WaitKind.RECV, 1, 9)
        text = str(w)
        assert "proc 3" in text and "recv" in text and "peer=1" in text

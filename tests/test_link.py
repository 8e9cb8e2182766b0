"""Link protocol: recovery timing, losslessness, window sufficiency."""

import itertools

import pytest

from cellswitch.errors import ConfigError
from cellswitch.link import (
    DuplexLink,
    FaultSchedule,
    LinkEndpoint,
    frame_error_probability,
    run_point_to_point,
)


def kind_runs(kinds, kind):
    """(start, length) of each maximal run of ``kind`` in the timeline."""
    out, start = [], None
    for i, k in enumerate(list(kinds) + ["\0"]):
        if k == kind and start is None:
            start = i
        elif k != kind and start is not None:
            out.append((start, i - start))
            start = None
    return out


def exact_prefix(seq):
    return list(seq) == list(range(len(seq)))


def limited_source(n):
    count = [0]

    def pull():
        if count[0] < n:
            count[0] += 1
            return count[0] - 1
        return None

    return pull


class TestFrameErrorProbability:
    def test_matches_per_bit_independence(self):
        p = frame_error_probability(1e-7)
        # 2112 bits per frame; small-p regime is very nearly linear
        assert p == pytest.approx(2.112e-4, rel=5e-4)
        assert p < 2.112e-4
        assert frame_error_probability(0.0) == 0.0
        assert frame_error_probability(1e-7, frame_bits=1) == \
            pytest.approx(1e-7)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            frame_error_probability(-0.1)
        with pytest.raises(ConfigError):
            frame_error_probability(1.0)


class TestEndpointBasics:
    def test_delay_bounds(self):
        with pytest.raises(ConfigError):
            LinkEndpoint(0)
        with pytest.raises(ConfigError):
            LinkEndpoint(64)
        e = LinkEndpoint(8)
        assert e.window == 18
        assert e.cycle_lead_in == 22

    def test_flow_control_preempts_data_and_shares_sequence_space(self):
        e = LinkEndpoint(2)
        e.queue_flow_control("fc0")
        first = e.emit(lambda: "cell0")
        second = e.emit(lambda: "cell1")
        assert (first.kind, first.seq, first.payload) == ("flowctl", 0, "fc0")
        assert (second.kind, second.seq, second.payload) == ("data", 1, "cell1")
        assert len(e.replay) == 2

    def test_idle_when_no_payload(self):
        e = LinkEndpoint(2)
        frame = e.emit(lambda: None)
        assert frame.kind == "idle"
        assert e.next_seq == 0

    def test_requesting_preempts_everything_but_cycles(self):
        from cellswitch.link import Frame

        e = LinkEndpoint(2)
        e.requesting = True
        e.queue_flow_control("fc0")
        assert e.emit(lambda: "cell").kind == "rereq"
        e.cycle_queue.append(Frame("ctrl"))
        assert e.emit(lambda: "cell").kind == "ctrl"

    def test_peer_requesting_freezes_admissions(self):
        e = LinkEndpoint(2)
        e.peer_requesting = True
        e.queue_flow_control("fc0")
        frame = e.emit(lambda: "cell")
        assert frame.kind == "idle"
        assert e.next_seq == 0 and len(e.pending_fc) == 1
        e.peer_requesting = False
        assert e.emit(lambda: "cell").kind == "flowctl"

    def test_cycle_contents(self):
        e = LinkEndpoint(2)
        e.queue_flow_control("fc0")
        e.emit(lambda: None)
        e.emit(lambda: "cell1")
        e._start_cycle()
        kinds = [f.kind for f in e.cycle_queue]
        assert kinds == ["ctrl"] * 4 + ["flowctl", "data"]
        assert [f.cycle_end for f in e.cycle_queue] == \
            [False] * 5 + [True]
        # replay buffer itself is untouched by the cycle-end copy
        assert all(not f.cycle_end for f in e.replay)

    def test_in_order_delivery_and_dedup(self):
        e = LinkEndpoint(2)
        peer = LinkEndpoint(2)
        frames = [peer.emit(lambda i=i: f"p{i}") for i in range(4)]
        assert e.receive(frames[0], False) == ["p0"]
        assert e.receive(frames[0], False) == []  # duplicate dropped
        assert e.receive(frames[2], False) == []  # gap: held out
        assert e.requesting
        assert e.receive(frames[1], False) == ["p1"]
        assert not e.requesting
        assert e.receive(frames[2], False) == ["p2"]
        assert e.dups_dropped == 1


@pytest.fixture(scope="module")
def result():
    return run_point_to_point(
        4, slots=120, faults=FaultSchedule(b_to_a=frozenset({50})),
        record_kinds=True)


class TestSingleErrorRecovery:
    """One corrupted frame on a saturated duplex link, delay 4.

    Fault at slot 50 (the frame with sequence 50).  Derived timeline:
    requester sees it at 54, sends request frames during slots 55-74
    (exactly 5D = 20 slots with no data), the retransmitter emits its
    3D-2 = 10 control frames at 60-69 and its full 2D+2 = 10 frame
    replay window at 70-79, so its own new-data pause is also exactly
    20 slots and the cycle completes 7D+1 = 29 slots after the fault.
    The lost frame is redelivered at slot 74 = fault + 6D.
    """

    def test_requester_pause_is_exactly_five_delays(self, result):
        assert kind_runs(result.kinds_a, "rereq") == [(55, 20)]
        assert result.kinds_a[54] == "data"
        assert result.kinds_a[75] == "data"

    def test_retransmitter_cycle_layout(self, result):
        assert kind_runs(result.kinds_b, "ctrl") == [(60, 10)]
        assert kind_runs(result.kinds_b, "replay") == [(70, 10)]
        assert result.kinds_b[59] == "data"
        assert result.kinds_b[80] == "data"

    def test_exactly_once_in_order_both_directions(self, result):
        assert exact_prefix(result.delivered_at_a)
        assert exact_prefix(result.delivered_at_b)
        assert len(result.delivered_at_a) == 96
        assert len(result.delivered_at_b) == 96

    def test_single_cycle(self, result):
        assert (result.cycles_a, result.cycles_b) == (0, 1)

    @pytest.mark.parametrize("delay", [1, 2, 3, 8, 12])
    def test_timing_scales_with_delay(self, delay):
        fault = 10 * delay
        r = run_point_to_point(
            delay, slots=30 * delay + 60,
            faults=FaultSchedule(b_to_a=frozenset({fault})),
            record_kinds=True)
        (start, length), = kind_runs(r.kinds_a, "rereq")
        assert length == 5 * delay
        assert start == fault + delay + 1
        (cstart, clen), = kind_runs(r.kinds_b, "ctrl")
        (rstart, rlen), = kind_runs(r.kinds_b, "replay")
        assert clen == 3 * delay - 2
        assert rlen == 2 * delay + 2
        assert rstart == cstart + clen
        # cycle completes 3.5 round trips (+1 slot) after the fault
        assert rstart + rlen - 1 - fault == 7 * delay + 1
        assert exact_prefix(r.delivered_at_a)
        assert exact_prefix(r.delivered_at_b)


class TestQuietLinkRecovery:
    def test_corrupted_idle_resolves_without_sequenced_traffic(self):
        """A corrupted frame on a drained link triggers a volley and
        an all-control cycle; the cycle-end mark clears the requester
        even though nothing was actually lost.  The volley outlives
        the short first cycle by one round trip, so exactly one more
        (harmless) cycle absorbs its tail."""
        link = DuplexLink(4, faults=FaultSchedule(b_to_a=frozenset({30})))
        src_a, src_b = limited_source(5), limited_source(0)
        got_a, got_b = [], []
        for _ in range(120):
            to_a, to_b = link.step(src_a, src_b)
            got_a.extend(to_a)
            got_b.extend(to_b)
        assert got_b == [0, 1, 2, 3, 4]
        assert got_a == []
        assert not link.a.requesting
        assert link.b.cycles_started == 2
        assert link.a.emitted["rereq"] == 19

    def test_stale_replays_are_deduplicated(self):
        link = DuplexLink(3, faults=FaultSchedule(b_to_a=frozenset({40})))
        src_a, src_b = limited_source(0), limited_source(3)
        for _ in range(120):
            link.step(src_a, src_b)
        assert link.a.delivered == 3
        assert link.a.dups_dropped == 6  # three stale frames, two cycles
        assert not link.a.requesting


class TestAdversarialCorruption:
    @pytest.mark.parametrize("delay", [1, 2, 4, 8])
    def test_corrupted_first_request_cannot_evict_the_victim(self, delay):
        """Corrupt a data frame AND the first request it provokes: the
        freeze rule must keep the victim inside the replay window."""
        fault = 12 * delay
        faults = FaultSchedule(a_to_b=frozenset({fault + delay + 1}),
                               b_to_a=frozenset({fault}))
        r = run_point_to_point(delay, slots=40 * delay + 80, faults=faults)
        assert exact_prefix(r.delivered_at_a)
        assert exact_prefix(r.delivered_at_b)
        assert len(r.delivered_at_a) > 20 * delay

    @pytest.mark.parametrize("delay", [2, 4])
    def test_simultaneous_bidirectional_faults_all_offsets(self, delay):
        base = 10 * delay
        for offset in range(3 * delay + 4):
            faults = FaultSchedule(
                a_to_b=frozenset({base}),
                b_to_a=frozenset({base + offset}))
            r = run_point_to_point(delay, slots=60 * delay + 100,
                                   faults=faults)
            assert exact_prefix(r.delivered_at_a), offset
            assert exact_prefix(r.delivered_at_b), offset
            assert len(r.delivered_at_a) > 30 * delay, offset
            assert len(r.delivered_at_b) > 30 * delay, offset

    def test_heavy_corruption_soak_conserves_every_payload(self):
        link = DuplexLink(6, ber=1e-5, seed=7)
        sent = {"a": 0, "b": 0}
        sources = {"a": itertools.count(), "b": itertools.count()}

        def make(side):
            def pull():
                sent[side] += 1
                return next(sources[side])
            return pull

        pull_a, pull_b = make("a"), make("b")
        got_a, got_b = [], []
        for _ in range(40_000):
            to_a, to_b = link.step(pull_a, pull_b)
            got_a.extend(to_a)
            got_b.extend(to_b)
        assert link.a.corrupted_seen + link.b.corrupted_seen > 500
        link.p_frame = 0.0  # stop injecting errors and drain
        for _ in range(4_000):
            to_a, to_b = link.step(None, None)
            got_a.extend(to_a)
            got_b.extend(to_b)
        assert got_a == list(range(sent["b"]))
        assert got_b == list(range(sent["a"]))


class TestOfferedLoadGoodput:
    def test_queued_source_absorbs_recovery_pauses(self):
        base = run_point_to_point(8, slots=150_000, ber=0.0,
                                  load=0.9, seed=42)
        hit = run_point_to_point(8, slots=150_000, ber=1e-7,
                                 load=0.9, seed=42)
        assert base.goodput("ab") == pytest.approx(0.9, abs=0.005)
        assert hit.goodput("ab") / base.goodput("ab") >= 0.99
        assert exact_prefix(hit.delivered_at_b)

    def test_load_validation(self):
        with pytest.raises(ConfigError):
            run_point_to_point(2, slots=10, load=1.5)

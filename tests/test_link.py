"""Link protocol: recovery timing, losslessness, window sufficiency."""

import dataclasses
import hashlib
import itertools
from collections import deque

import pytest

from cellswitch.codec import SEQ_MODULUS
from cellswitch.errors import ConfigError, SimInvariantError
from cellswitch.link import (
    DuplexLink,
    FaultSchedule,
    LinkEndpoint,
    PointToPointResult,
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

    @pytest.mark.parametrize("ber", [1e-12, 1e-11])
    def test_tiny_rates_keep_full_precision(self, ber):
        n = 2112
        # The next term, n^3 ber^3 / 6, is below 1e-17 of the first.
        two_terms = n * ber - n * (n - 1) / 2 * ber ** 2
        assert frame_error_probability(ber) == \
            pytest.approx(two_terms, rel=1e-9, abs=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            frame_error_probability(-0.1)
        with pytest.raises(ConfigError):
            frame_error_probability(1.0)


class TestEndpointBasics:
    def test_delay_bounds(self):
        with pytest.raises(ConfigError):
            LinkEndpoint(0)
        assert 2 * LinkEndpoint(31).window == SEQ_MODULUS
        with pytest.raises(ConfigError):
            LinkEndpoint(32)
        with pytest.raises(ConfigError):
            LinkEndpoint(64)
        e = LinkEndpoint(8)
        assert e.window == 18
        assert e.cycle_lead_in == 22

    def test_idle_when_no_payload(self):
        e = LinkEndpoint(2)
        frame = e.emit(lambda: None)
        assert frame.kind == "idle"
        assert e.next_seq == 0

    def test_requesting_preempts_everything_but_cycles(self):
        from cellswitch.link import Frame

        e = LinkEndpoint(2)
        e.requesting = True
        assert e.emit(lambda: "cell").kind == "rereq"
        assert e.next_seq == 0
        e.cycle_queue.append(Frame("ctrl"))
        assert e.emit(lambda: "cell").kind == "ctrl"
        assert e.last_kind == "ctrl"

    def test_peer_requesting_freezes_admissions(self):
        e = LinkEndpoint(2)
        e.peer_requesting = True
        frame = e.emit(lambda: "cell")
        assert frame.kind == "idle"
        assert e.next_seq == 0 and not e.replay
        e.peer_requesting = False
        frame = e.emit(lambda: "cell")
        assert (frame.kind, frame.seq, frame.payload) == ("data", 0, "cell")

    def test_cycle_contents(self):
        e = LinkEndpoint(2)
        e.emit(lambda: "cell0")
        e.emit(lambda: None)
        e.emit(lambda: "cell1")
        e._start_cycle()
        kinds = [f.kind for f in e.cycle_queue]
        assert kinds == ["ctrl"] * 4 + ["data", "data"]
        assert [f.seq for f in e.cycle_queue][4:] == [0, 1]
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


def test_verify_flags_doctored_results(result):
    result.verify()
    got = result.delivered_at_b
    for doctored in (
            dataclasses.replace(result, delivered_at_b=[got[1], got[0],
                                                        *got[2:]]),
            dataclasses.replace(result, delivered_at_b=got[:-1] + got[-2:-1]),
            dataclasses.replace(result, sent_a=len(got) - 1),
            dataclasses.replace(result, delivered_at_a=list(
                range(result.sent_b + 1)))):
        with pytest.raises(SimInvariantError):
            doctored.verify()


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
        requests = 0
        for _ in range(120):
            to_a, to_b = link.step(src_a, src_b)
            got_a.extend(to_a)
            got_b.extend(to_b)
            requests += link.a.last_kind == "rereq"
        assert got_b == [0, 1, 2, 3, 4]
        assert got_a == []
        assert not link.a.requesting
        assert link.b.cycles_started == 2
        assert requests == 19

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

    def test_seq_offsets_fit_the_sequence_field(self, monkeypatch):
        """Clean data arrivals carry seqs from one window below the
        receiver's expected seq to one window minus one above it.  Under
        paired faults at every phase offset at the largest delay, those
        2 * window values exactly fill the 7-bit sequence field."""
        delay = 31
        receive = LinkEndpoint.receive
        offsets = set()

        def recording(self, frame, corrupted, peer_flag=False):
            if not corrupted and frame.kind == "data":
                offsets.add(frame.seq - self.expected)
            return receive(self, frame, corrupted, peer_flag)

        monkeypatch.setattr(LinkEndpoint, "receive", recording)
        fault = 4 * delay
        for offset in range(7 * delay + 2):
            run_point_to_point(delay, slots=30 * delay, faults=FaultSchedule(
                a_to_b=frozenset({fault + offset}),
                b_to_a=frozenset({fault})))
        window = 2 * delay + 2
        assert (min(offsets), max(offsets)) == (-window, window - 1)
        assert max(offsets) - min(offsets) + 1 == 2 * window <= SEQ_MODULUS

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
        assert base.goodput() == pytest.approx(0.9, abs=0.005)
        assert hit.goodput() / base.goodput() >= 0.99
        assert exact_prefix(hit.delivered_at_b)

    def test_load_validation(self):
        with pytest.raises(ConfigError):
            run_point_to_point(2, slots=10, load=1.5)
        with pytest.raises(ConfigError):
            run_point_to_point(2, slots=0)


class TestByteIdentity:
    """Pins every field of a grid of link runs and the counters of
    both endpoints, so a change meant to keep the link's results
    identical is checked to do so."""

    DIGEST = "b4d5872c1dfca11be3ab11c4dd41fa0aae7999a9eb4cc538328e121f7f0c1da8"
    SLOTS = 800
    FAULTS = (None, FaultSchedule(b_to_a=frozenset({40})),
              FaultSchedule(a_to_b=frozenset({40, 250}),
                            b_to_a=frozenset({43, 400})))

    def test_grid_digest_unchanged(self):
        digest = hashlib.sha256()
        grid = itertools.product((1, 4, 7), (0.0, 1e-6, 1e-4), (0.5, 1.0),
                                 self.FAULTS)
        for seed, (delay, ber, load, faults) in enumerate(grid):
            result = run_point_to_point(delay, self.SLOTS, ber=ber,
                                        load=load, seed=seed, faults=faults,
                                        record_kinds=True)
            digest.update(repr(dataclasses.astuple(result)).encode())
            quiet = run_point_to_point(delay, self.SLOTS, ber=ber,
                                       load=load, seed=seed, faults=faults)
            assert quiet.kinds_a == quiet.kinds_b == []
            assert quiet.delivered_at_a == result.delivered_at_a
            assert quiet.delivered_at_b == result.delivered_at_b

            link = DuplexLink(delay, ber=ber, seed=seed, faults=faults)
            pull_a = itertools.count().__next__
            pull_b = limited_source(int(load * self.SLOTS) // 2)
            for _ in range(self.SLOTS):
                link.step(pull_a, pull_b)
            digest.update(repr([
                (e.next_seq, e.expected, e.delivered, e.dups_dropped,
                 e.replays_emitted, e.cycles_started, e.corrupted_seen)
                for e in (link.a, link.b)]).encode())
        assert digest.hexdigest() == self.DIGEST


def test_link_calls_the_class_hooks(monkeypatch):
    """The benchmark's tracer times a link run by replacing these
    class methods, and collects endpoints through a positional-only
    ``__init__``; each must still be called, and the results must
    not change."""
    def run():
        return run_point_to_point(4, slots=2000, ber=1e-4, seed=3)

    expected = run()
    calls = {}

    def counting(cls, name):
        fn = cls.__dict__[name]
        calls[name] = 0

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(cls, name, wrapped)

    counting(DuplexLink, "step")
    counting(LinkEndpoint, "emit")
    counting(LinkEndpoint, "receive")
    endpoints = []
    init = LinkEndpoint.__dict__["__init__"]

    def recording_init(self, *args):
        init(self, *args)
        endpoints.append(self)
    monkeypatch.setattr(LinkEndpoint, "__init__", recording_init)
    assert run() == expected
    assert all(calls.values()), calls
    assert len(endpoints) == 2


def record_instances(monkeypatch, cls):
    """Collect every instance of ``cls`` built from now on, through a
    recording ``__init__`` like the one the benchmark tracer installs
    on LinkEndpoint."""
    made = []
    init = cls.__dict__["__init__"]

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(cls, "__init__", recording_init)
    return made


def endpoint_state(e):
    return {name: list(value) if isinstance(value, deque) else value
            for name, value in vars(e).items()}


def link_state(link):
    return (link.slot, link.rng.getstate(), list(link._pipe_ab),
            list(link._pipe_ba))


class TestSaturatedFastPath:
    """At load 1, run_point_to_point covers clean stretches without
    calling DuplexLink.step per slot; it must end exactly where
    stepping every slot ends."""

    SLOTS = (1, 3, 17, 2000)
    FAULTS = (None, FaultSchedule(a_to_b=frozenset({5, 300})),
              FaultSchedule(a_to_b=frozenset({120}),
                            b_to_a=frozenset({120})))

    def stepped(self, delay, ber, seed, faults):
        """Step a plain link with saturated counters; yield the
        expected result and link state at each of SLOTS."""
        link = DuplexLink(delay, ber=ber, seed=seed, faults=faults)
        sent = [0, 0]

        def counter(side):
            def pull():
                sent[side] += 1
                return sent[side] - 1
            return pull

        pull_a, pull_b = counter(0), counter(1)
        got_a, got_b, kinds_a, kinds_b = [], [], [], []
        for slot in range(1, self.SLOTS[-1] + 1):
            to_a, to_b = link.step(pull_a, pull_b)
            got_a.extend(to_a)
            got_b.extend(to_b)
            kinds_a.append(link.a.last_kind)
            kinds_b.append(link.b.last_kind)
            if slot in self.SLOTS:
                yield slot, PointToPointResult(
                    slot, sent[0], sent[1], list(got_b), list(got_a),
                    list(kinds_a), list(kinds_b),
                    link.a.cycles_started, link.b.cycles_started,
                ), link_state(link), [endpoint_state(link.a),
                                      endpoint_state(link.b)]

    def test_matches_stepping_every_slot(self, monkeypatch):
        grid = list(itertools.product(
            (1, 2, 5, 7, 13), (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3),
            (1, 2, 3), self.FAULTS))
        # Reference links are built before the recorders go in.
        expected = [list(self.stepped(*point)) for point in grid]
        links = record_instances(monkeypatch, DuplexLink)
        endpoints = record_instances(monkeypatch, LinkEndpoint)
        for (delay, ber, seed, faults), runs in zip(grid, expected):
            for slots, want, state, ends in runs:
                for record_kinds in (True, False):
                    got = run_point_to_point(
                        delay, slots, ber=ber, seed=seed, faults=faults,
                        record_kinds=record_kinds)
                    if not record_kinds:
                        want = dataclasses.replace(want, kinds_a=[],
                                                   kinds_b=[])
                    point = (delay, ber, seed, faults, slots, record_kinds)
                    assert got == want, point
                    assert link_state(links[-1]) == state, point
                    assert [endpoint_state(e) for e in endpoints[-2:]] \
                        == ends, point

    def test_clean_stretches_skip_the_step(self, monkeypatch):
        calls = [0]
        step = DuplexLink.__dict__["step"]

        def counting(*args):
            calls[0] += 1
            return step(*args)
        monkeypatch.setattr(DuplexLink, "step", counting)
        run_point_to_point(7, slots=10_000)
        assert calls[0] < 100
        calls[0] = 0
        run_point_to_point(7, slots=10_000, ber=1e-5, seed=1)
        assert calls[0] > 1000

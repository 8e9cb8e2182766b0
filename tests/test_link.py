"""Link protocol: recovery timing, losslessness, window sufficiency."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import pytest

from cellswitch.checks import CHECKS
from cellswitch.codec import SEQ_MODULUS
from cellswitch.errors import ConfigError, SimInvariantError
from cellswitch.link import (
    _CTRL,
    _IDLE,
    MAX_ONE_WAY_DELAY,
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


def sent_kinds(link):
    """The kinds of the frames a and b sent in the slot just stepped:
    the newest entry of each one's outbound pipe."""
    return link._pipe_ab[-1][0][0], link._pipe_ba[-1][0][0]


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
        kind, _, _ = e.emit()
        assert kind == "idle"
        assert e.next_seq == 0
        e.offered = 1
        assert e.emit()[0] == "data"
        assert e.emit()[0] == "idle"
        assert e.next_seq == 1

    def test_requesting_preempts_everything_but_cycles(self):
        e = LinkEndpoint(2)
        e.offered = math.inf
        e.requesting = True
        assert e.emit()[0] == "rereq"
        assert e.next_seq == 0
        e._start_cycle()
        assert e.emit()[0] == "ctrl"

    def test_peer_requesting_freezes_admissions(self):
        e = LinkEndpoint(2)
        e.offered = 1
        e.peer_requesting = True
        kind, _, _ = e.emit()
        assert kind == "idle"
        # no seq assigned, so the replay buffer is still empty
        assert e.next_seq == 0
        e.peer_requesting = False
        kind, seq, _ = e.emit()
        assert (kind, seq) == ("data", 0)

    @staticmethod
    def cycle(e):
        """Start a cycle on ``e`` and return the frames it emits."""
        e._start_cycle()
        frames = [e.emit() for _ in range(e.cycle_left)]
        assert e.cycle_left == 0
        return frames

    def test_cycle_contents(self):
        e = LinkEndpoint(2)
        # With nothing to replay, the cycle ends on a flagged control.
        assert self.cycle(e) == [_CTRL] * 3 + [("ctrl", None, True)]
        e.offered = 1
        e.emit()
        e.emit()
        e.offered = 2
        e.emit()
        assert self.cycle(e) == \
            [_CTRL] * 4 + [("replay", 0, False), ("replay", 1, True)]
        assert e.replays_emitted == 2 and e.next_seq == 2
        # A second cycle flags only its own last frame.
        e.offered = 3
        assert e.emit() == ("data", 2, False)
        assert self.cycle(e) == [_CTRL] * 4 + [
            ("replay", 0, False), ("replay", 1, False), ("replay", 2, True)]
        assert e.emit() == _IDLE
        # Past one window, a cycle replays the last window seqs only.
        e.offered = 3 + e.window
        for _ in range(e.window):
            e.emit()
        assert self.cycle(e) == [_CTRL] * 4 + [
            ("replay", seq, seq == 8) for seq in range(3, 9)]

    def test_in_order_delivery_and_dedup(self):
        e = LinkEndpoint(2)
        peer = LinkEndpoint(2)
        peer.offered = 4
        frames = [peer.emit() for _ in range(4)]
        assert e.receive(frames[0], False) == (0,)
        assert e.receive(frames[0], False) == ()  # duplicate dropped
        assert e.receive(frames[2], False) == ()  # gap: held out
        assert e.requesting
        assert e.receive(frames[1], False) == (1,)
        assert not e.requesting
        assert e.receive(frames[2], False) == (2,)
        assert e.dups_dropped == 1


@pytest.fixture(scope="module")
def result():
    return run_point_to_point(
        4, slots=120, faults=FaultSchedule(b_to_a=frozenset({50})),
        record_kinds=True)


def test_verify_flags_doctored_results(result):
    result.verify()
    for doctored in (
            dataclasses.replace(result,
                                sent_a=len(result.delivered_at_b) - 1),
            dataclasses.replace(result,
                                delivered_at_a=range(result.sent_b + 1))):
        with pytest.raises(SimInvariantError):
            doctored.verify()


def hold_back_5(payloads, held):
    """Hand payload 5 over after payload 6."""
    if payloads == (5,):
        held.append(5)
        return ()
    return payloads + tuple(held) if payloads == (6,) else payloads


def repeat_5(payloads, held):
    """Hand payload 5 over twice."""
    return payloads * 2 if payloads == (5,) else payloads


@pytest.mark.parametrize("doctor", [hold_back_5, repeat_5])
def test_bad_delivery_raises_on_arrival(monkeypatch, doctor):
    """A payload handed over out of order or twice stops the run in
    the slot it arrives, not after the run."""
    receive = LinkEndpoint.receive
    held = {}
    doctored = []  # per receive call: whether its payloads were changed

    def doctoring(self, frame, corrupted, peer_flag=False):
        got = receive(self, frame, corrupted, peer_flag)
        out = doctor(got, held.setdefault(self, []))
        doctored.append(out != got)
        return out

    monkeypatch.setattr(LinkEndpoint, "receive", doctoring)
    with pytest.raises(SimInvariantError, match="exactly-once in order"):
        run_point_to_point(4, slots=2000, load=0.9, seed=1)
    # At most the other endpoint's receive of that slot follows it.
    last = len(doctored) - 1 - doctored[::-1].index(True)
    assert len(doctored) - 1 - last <= 1


def test_clean_run_keeps_no_per_payload_record():
    tracemalloc.start()
    try:
        result = run_point_to_point(7, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert result.delivered_at_a == range(200_000 - 7)


def test_endpoint_state_does_not_grow_with_delay(monkeypatch):
    """An endpoint keeps counts, not frames: after a recovery-heavy
    run at the largest delay, every attribute of both endpoints is a
    scalar."""
    endpoints = record_instances(monkeypatch, LinkEndpoint)
    result = run_point_to_point(MAX_ONE_WAY_DELAY, 20_000, ber=1e-4,
                                faults=FaultSchedule(b_to_a=frozenset({500})))
    assert result.cycles_a + result.cycles_b > 10
    assert len(endpoints) == 2
    for e in endpoints:
        for name, value in vars(e).items():
            assert type(value) in (int, float, bool, str), name


@pytest.mark.parametrize("delay", [3, 7, 31])
def test_endpoint_keeps_one_field_per_fact(delay):
    """No two numbers an endpoint stores move in lockstep through a
    recovery-heavy run, so none of them is a copy of another.  Side a
    is saturated and side b is fed a payload every third slot, so the
    two sides differ in what they send."""
    link = DuplexLink(delay, ber=1e-4, seed=delay,
                      faults=FaultSchedule(b_to_a=frozenset({10 * delay})))
    link.a.offered = math.inf
    samples = {link.a: [], link.b: []}
    for slot in range(3000):
        link.b.offered += slot % 3 == 0
        link.step()
        for e, seen in samples.items():
            seen.append({name: value for name, value in vars(e).items()
                         if type(value) in (int, float)})
    assert link.a.cycles_started and link.b.cycles_started
    for seen in samples.values():
        moving = [name for name in seen[0]
                  if any(s[name] != seen[0][name] for s in seen)]
        twins = [(x, y) for x, y in itertools.combinations(moving, 2)
                 if all(s[x] == s[y] for s in seen)]
        assert twins == []


def test_kind_timeline_is_what_was_sent(monkeypatch):
    """``record_kinds`` reports the kind of each frame a side put on
    the wire, a replay included."""
    endpoints = record_instances(monkeypatch, LinkEndpoint)
    emit = LinkEndpoint.emit
    sent = {}

    def recording(self):
        frame = emit(self)
        sent.setdefault(self, []).append(frame[0])
        return frame
    monkeypatch.setattr(LinkEndpoint, "emit", recording)
    result = run_point_to_point(4, 400, load=0.9, seed=1,
                                faults=FaultSchedule(b_to_a=frozenset({50})),
                                record_kinds=True)
    a, b = endpoints
    assert "replay" in result.kinds_b
    assert result.kinds_a == sent[a]
    assert result.kinds_b == sent[b]


def test_frame_lost_from_the_replay_window_raises(monkeypatch):
    """With replay buffers of D + 2 frames, short of the 2D + 2 a
    recovery can need, a frame can leave the buffer undelivered and
    stall the link for good; the run and the check must say so."""
    init = LinkEndpoint.__dict__["__init__"]

    def shrunk(self, one_way_delay):
        init(self, one_way_delay)
        self.window = one_way_delay + 2
    monkeypatch.setattr(LinkEndpoint, "__init__", shrunk)
    with pytest.raises(SimInvariantError, match="replay window"):
        run_point_to_point(7, 50_000, ber=1e-5)
    with pytest.raises(SimInvariantError, match="replay window"):
        CHECKS["bidirectional-faults"](7)


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
        assert result.delivered_at_a == result.delivered_at_b == range(96)

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
        link.a.offered = 5
        got_a, got_b = [], []
        requests = 0
        for _ in range(120):
            to_a, to_b = link.step()
            got_a.extend(to_a)
            got_b.extend(to_b)
            requests += sent_kinds(link)[0] == "rereq"
        assert got_b == [0, 1, 2, 3, 4]
        assert got_a == []
        assert not link.a.requesting
        assert link.b.cycles_started == 2
        assert requests == 19

    def test_stale_replays_are_deduplicated(self):
        link = DuplexLink(3, faults=FaultSchedule(b_to_a=frozenset({40})))
        link.b.offered = 3
        for _ in range(120):
            link.step()
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
            if not corrupted and frame[1] is not None:
                offsets.add(frame[1] - self.delivered)
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
        link.a.offered = link.b.offered = math.inf
        # Sends are tallied from the kind of each slot's frame, not
        # read back from the endpoints' own sequence counters.
        sent_a = sent_b = 0
        got_a, got_b = [], []
        for _ in range(40_000):
            to_a, to_b = link.step()
            got_a.extend(to_a)
            got_b.extend(to_b)
            kind_a, kind_b = sent_kinds(link)
            sent_a += kind_a == "data"
            sent_b += kind_b == "data"
        assert link.a.corrupted_seen + link.b.corrupted_seen > 500
        # Stop injecting errors, send nothing new, and drain.
        link.p_frame = 0.0
        link.a.offered = link.b.offered = 0
        for _ in range(4_000):
            to_a, to_b = link.step()
            got_a.extend(to_a)
            got_b.extend(to_b)
        assert got_a == list(range(sent_b))
        assert got_b == list(range(sent_a))


class TestGoodputOracle:
    """On a saturated link, each forced fault spaced at least 12D from
    the next costs one replay cycle and exactly 5D payloads in each
    direction: the 2.5 round trips of the requester's pause, and the
    3D-2 control plus 2D+2 replay frames of the retransmitter's cycle.
    So with k such faults, each side delivers slots - D - 5Dk payloads
    (the first D slots fill the pipe)."""

    FAULTS = 3

    @pytest.mark.parametrize("delay", range(1, MAX_ONE_WAY_DELAY + 1))
    def test_each_fault_costs_five_delays(self, delay):
        for gap in (12 * delay, 13 * delay + 5, 20 * delay):
            times = [12 * delay + i * gap for i in range(self.FAULTS)]
            for faults in (FaultSchedule(a_to_b=frozenset(times)),
                           FaultSchedule(b_to_a=frozenset(times)),
                           FaultSchedule(a_to_b=frozenset(times[::2]),
                                         b_to_a=frozenset(times[1::2]))):
                slots = times[-1] + 20 * delay
                r = run_point_to_point(delay, slots, faults=faults)
                want = slots - delay - 5 * delay * self.FAULTS
                assert r.cycles_a + r.cycles_b == self.FAULTS
                assert len(r.delivered_at_a) == want
                assert len(r.delivered_at_b) == want


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

    @pytest.mark.parametrize("delay, slots, named", [
        (None, 10, "one_way_delay"), (4.0, 10, "one_way_delay"),
        (4, None, "slots"), (4, 10.0, "slots")])
    def test_counts_must_be_ints(self, delay, slots, named):
        with pytest.raises(ConfigError, match=f"^{named} .*: not an int$"):
            run_point_to_point(delay, slots)


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
            # Digested as lists, the form the delivered fields had
            # when DIGEST was recorded.
            digest.update(repr(dataclasses.astuple(dataclasses.replace(
                result, delivered_at_b=list(result.delivered_at_b),
                delivered_at_a=list(result.delivered_at_a)))).encode())
            quiet = run_point_to_point(delay, self.SLOTS, ber=ber,
                                       load=load, seed=seed, faults=faults)
            assert quiet.kinds_a == quiet.kinds_b == []
            assert quiet.delivered_at_a == result.delivered_at_a
            assert quiet.delivered_at_b == result.delivered_at_b

            link = DuplexLink(delay, ber=ber, seed=seed, faults=faults)
            link.a.offered = math.inf
            link.b.offered = int(load * self.SLOTS) // 2
            for _ in range(self.SLOTS):
                link.step()
            # ``delivered`` twice: the first stands where the receiver's
            # expected seq stood when the digests were recorded, a
            # separate field then and always equal to it.
            digest.update(repr([
                (e.next_seq, e.delivered, e.delivered, e.dups_dropped,
                 e.replays_emitted, e.cycles_started, e.corrupted_seen)
                for e in (link.a, link.b)]).encode())
        assert digest.hexdigest() == self.DIGEST

    RECOVERY_DIGEST = (
        "28cfab80581fd242c0cf4ab39b552dac38d9f201be8c739e1390d575928bbc5f")

    def test_recovery_grid_digest_unchanged(self, monkeypatch):
        """Long runs where recovery does most of the work: long delays,
        high error rates, a forced fault, both load regimes."""
        endpoints = record_instances(monkeypatch, LinkEndpoint)
        digest = hashlib.sha256()
        grid = itertools.product(
            (7, 31), (1e-5, 1e-4, 1e-3), (1.0, 0.9),
            (None, FaultSchedule(b_to_a=frozenset({500}))), (1, 2))
        for delay, ber, load, faults, seed in grid:
            result = run_point_to_point(delay, 20_000, ber=ber, load=load,
                                        seed=seed, faults=faults,
                                        record_kinds=True)
            digest.update(repr(dataclasses.astuple(result)).encode())
            digest.update(repr([
                (e.next_seq, e.delivered, e.delivered, e.dups_dropped,
                 e.replays_emitted, e.cycles_started, e.corrupted_seen)
                for e in endpoints[-2:]]).encode())
        assert digest.hexdigest() == self.RECOVERY_DIGEST


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
    return dict(vars(e))


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
        """Step a plain saturated link; yield the expected result and
        link state at each of SLOTS."""
        link = DuplexLink(delay, ber=ber, seed=seed, faults=faults)
        link.a.offered = link.b.offered = math.inf
        got_a, got_b, kinds_a, kinds_b = [], [], [], []
        for slot in range(1, self.SLOTS[-1] + 1):
            to_a, to_b = link.step()
            got_a.extend(to_a)
            got_b.extend(to_b)
            kind_a, kind_b = sent_kinds(link)
            kinds_a.append(kind_a)
            kinds_b.append(kind_b)
            if slot in self.SLOTS:
                assert exact_prefix(got_a) and exact_prefix(got_b)
                yield slot, PointToPointResult(
                    slot, link.a.next_seq, link.b.next_seq, range(len(got_b)),
                    range(len(got_a)),
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

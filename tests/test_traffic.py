"""Traffic sources: process statistics, packing, volume exactness."""

import hashlib
import itertools
import math
import random
import statistics
from collections import Counter
from types import SimpleNamespace

import pytest

from cellswitch.codec import CELL_PAYLOAD_BYTES
from cellswitch.config import TrafficSpec
from cellswitch.errors import ConfigError
from cellswitch.traffic import CHUNK, SourceProcess


# Fields of a source's cell record (src, dst, flow_seq, valid_bytes, eop).
SRC, DST, FLOW_SEQ, VALID, EOP = range(5)


def per_slot(source):
    """The source's arrivals slot by slot: each poll's record, or one
    None for every slot of an idle count (forever once spent)."""
    while True:
        got = source.poll()
        if got.__class__ is tuple:
            yield got
        else:
            assert got >= 1, got
            idle = got
            while idle > 0:
                idle -= 1
                yield None


def drain(source, max_slots):
    """Poll until the source returns ``math.inf`` or ``max_slots`` have
    passed; the records it returned and the slots that passed."""
    cells, slots = [], 0
    while slots < max_slots:
        got = source.poll()
        if got.__class__ is tuple:
            cells.append(got)
            slots += 1
        elif got == math.inf:
            break
        else:
            slots += got
    return cells, slots


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrafficSpec(mode="fractal")
        with pytest.raises(ConfigError):
            TrafficSpec(size_mode="jumbo")
        with pytest.raises(ConfigError):
            TrafficSpec(load=0.0)
        with pytest.raises(ConfigError):
            TrafficSpec(load=1.2)
        with pytest.raises(ConfigError, match="1e-17"):
            TrafficSpec(load=1e-17)  # 1.0 - 1e-17 == 1.0
        TrafficSpec(load=2**-53)  # 1.0 - 2**-53 < 1.0
        with pytest.raises(ConfigError):
            TrafficSpec(volume_bytes=0)
        with pytest.raises(ConfigError):
            TrafficSpec(min_packet_bytes=100, max_packet_bytes=64)
        for mean in (0.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="mean burst length"):
                TrafficSpec(burst_mean_cells=mean)


class TestRouting:
    def test_records_address_every_other_port(self):
        n = 8
        for src in range(n):
            source = SourceProcess(TrafficSpec(load=1.0), src, n, seed=1)
            arrivals = per_slot(source)
            seen = set()
            for _ in range(500):
                cell = next(arrivals)
                assert cell[SRC] == src
                seen.add(cell[DST])
            assert seen == set(range(n)) - {src}


class TestPacketStructure:
    def test_packets_cut_into_full_cells_then_remainder(self):
        for size, valid in ((600, [256, 256, 88]), (512, [256, 256])):
            source = SourceProcess(
                TrafficSpec(size_mode="variable", load=1.0,
                            min_packet_bytes=size, max_packet_bytes=size),
                0, 4, seed=5)
            arrivals = per_slot(source)
            cells = [next(arrivals) for _ in valid]
            assert [c[VALID] for c in cells] == valid
            assert [c[EOP] for c in cells] == \
                [False] * (len(valid) - 1) + [True]
            assert len({c[DST] for c in cells}) == 1
        source = SourceProcess(
            TrafficSpec(size_mode="variable", load=1.0), 0, 4, seed=5)
        arrivals = per_slot(source)
        current = []
        for _ in range(50_000):
            cell = next(arrivals)
            current.append(cell)
            if not cell[EOP]:
                assert cell[VALID] == 256
                continue
            size = sum(c[VALID] for c in current)
            assert 64 <= size <= 2048
            assert len(current) == -(-size // 256)
            assert len({c[DST] for c in current}) == 1
            assert [c[EOP] for c in current] == \
                [False] * (len(current) - 1) + [True]
            current = []

    def test_flow_sequence_is_contiguous_per_flow(self):
        source = SourceProcess(
            TrafficSpec(mode="bursty", size_mode="variable", load=0.7),
            2, 8, seed=3)
        arrivals = per_slot(source)
        next_seq = Counter()
        for _ in range(60_000):
            cell = next(arrivals)
            if cell is None:
                continue
            assert cell[SRC] == 2
            assert cell[FLOW_SEQ] == next_seq[cell[DST]]
            next_seq[cell[DST]] += 1


class TestBernoulliProcess:
    @pytest.mark.parametrize("size_mode", ["fixed", "variable"])
    @pytest.mark.parametrize("load", [0.1, 0.5, 0.9])
    def test_occupancy_tracks_load(self, load, size_mode):
        # Each slot is an independent coin, so the hits over N slots
        # are Binomial(N, load): within 5 standard deviations of N*load.
        # The flows are unbounded (an infinite budget).
        slots = 200_000
        source = SourceProcess(TrafficSpec(load=load, size_mode=size_mode),
                               3, 16, seed=9)
        arrivals = per_slot(source)
        hits = sum(next(arrivals) is not None for _ in range(slots))
        mean = slots * load
        assert abs(hits - mean) <= 5 * math.sqrt(mean * (1 - load))

    def test_destinations_uniform(self):
        source = SourceProcess(TrafficSpec(load=1.0), 0, 8, seed=4)
        arrivals = per_slot(source)
        counts = Counter(next(arrivals)[DST] for _ in range(70_000))
        for dst in range(1, 8):
            assert counts[dst] == pytest.approx(10_000, rel=0.1)

    def test_variable_size_statistics(self):
        source = SourceProcess(
            TrafficSpec(size_mode="variable", load=1.0), 0, 4, seed=5)
        arrivals = per_slot(source)
        sizes, cells_per, cur_bytes, cur_cells = [], [], 0, 0
        for _ in range(200_000):
            cell = next(arrivals)
            cur_bytes += cell[VALID]
            cur_cells += 1
            if cell[EOP]:
                sizes.append(cur_bytes)
                cells_per.append(cur_cells)
                cur_bytes = cur_cells = 0
        # uniform over [64, 2048]: mean 1056 bytes, 9153/1985 cells
        assert statistics.mean(sizes) == pytest.approx(1056, rel=0.02)
        assert statistics.mean(cells_per) == pytest.approx(4.611, rel=0.02)


class TestBurstyProcess:
    @staticmethod
    def run_lengths(flags):
        busy, idle = [], []
        kind, length = flags[0], 1
        for f in flags[1:]:
            if f == kind:
                length += 1
            else:
                (busy if kind else idle).append(length)
                kind, length = f, 1
        return busy, idle

    @pytest.mark.parametrize("load,busy_mean,idle_mean", [
        # abutting bursts merge: observed busy run = 4 / P(gap > 0),
        # observed idle run = 1 + nominal gap mean
        (0.5, 5.0, 5.0),
        (0.8, 8.0, 2.0),
    ])
    def test_run_length_statistics(self, load, busy_mean, idle_mean):
        source = SourceProcess(
            TrafficSpec(mode="bursty", load=load), 0, 4, seed=11)
        arrivals = per_slot(source)
        flags = [next(arrivals) is not None for _ in range(400_000)]
        busy, idle = self.run_lengths(flags)
        assert statistics.mean(busy) == pytest.approx(busy_mean, rel=0.06)
        assert statistics.mean(idle) == pytest.approx(idle_mean, rel=0.06)
        assert sum(flags) / len(flags) == pytest.approx(load, rel=0.02)

    def test_saturated_burst_source_never_idles(self):
        source = SourceProcess(
            TrafficSpec(mode="bursty", load=1.0), 1, 4, seed=2)
        assert all(source.poll().__class__ is tuple for _ in range(10_000))

    def test_variable_round_up_inflates_occupancy(self):
        # bursts extend to whole packets, so measured load runs high;
        # the simulator reports measured offered load for this reason
        source = SourceProcess(
            TrafficSpec(mode="bursty", size_mode="variable", load=0.6),
            0, 4, seed=21)
        arrivals = per_slot(source)
        occ = sum(next(arrivals) is not None
                  for _ in range(300_000)) / 300_000
        assert 0.62 < occ < 0.8


class TestVolumeBudget:
    def test_fixed_mode_exact_cell_count(self):
        source = SourceProcess(
            TrafficSpec(load=1.0, volume_bytes=2560), 1, 4, seed=7)
        cells, slots = drain(source, 10_000)
        counts = Counter(c[DST] for c in cells)
        assert counts == {0: 10, 2: 10, 3: 10}
        assert source.poll() == source.poll() == math.inf

    def test_variable_mode_exact_byte_total(self):
        source = SourceProcess(
            TrafficSpec(size_mode="variable", load=1.0,
                        volume_bytes=50_000), 0, 4, seed=13)
        cells, _ = drain(source, 100_000)
        by_flow = Counter()
        for c in cells:
            by_flow[c[DST]] += c[VALID]
        assert by_flow == {1: 50_000, 2: 50_000, 3: 50_000}

    def test_bursty_volume_conserved(self):
        source = SourceProcess(
            TrafficSpec(mode="bursty", load=0.9, volume_bytes=25_600),
            2, 4, seed=17)
        cells, _ = drain(source, 100_000)
        counts = Counter(c[DST] for c in cells)
        assert counts == {0: 100, 1: 100, 3: 100}
        assert sum(c[VALID] for c in cells) == 3 * 25_600


class TestDeterminism:
    def test_same_seed_same_stream(self):
        def stream(seed, port):
            s = SourceProcess(
                TrafficSpec(mode="bursty", size_mode="variable", load=0.6),
                port, 8, seed)
            arrivals = per_slot(s)
            out = []
            for _ in range(5_000):
                c = next(arrivals)
                out.append(None if c is None else c[DST:])
            return out

        assert stream(42, 3) == stream(42, 3)
        assert stream(42, 3) != stream(43, 3)
        assert stream(42, 3) != stream(42, 4)

    # Recorded on the sources that built each packet as a cell list.
    STREAM_DIGEST = (
        "894d811014badd34286ea830ce53c87203762cecd52be577481702aa53613d5f")

    def test_record_streams_unchanged(self):
        # Finite flows, so each stream runs into exhaustion as well.
        digest = hashlib.sha256()
        for mode, size_mode, load, port in itertools.product(
                ("bernoulli", "bursty"), ("fixed", "variable"),
                (0.3, 1.0), (0, 5)):
            source = SourceProcess(
                TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                            volume_bytes=20_000), port, 8, seed=7)
            arrivals = per_slot(source)
            stream = [next(arrivals) for _ in range(3_000)]
            digest.update(repr((stream, source.poll() == math.inf)).encode())
        assert digest.hexdigest() == self.STREAM_DIGEST


def _geometric_from_one(rng, mean):
    """Geometric on {1, 2, ...} with the given mean (>= 1)."""
    p = 1.0 / mean
    count = 1
    while rng.random() >= p:
        count += 1
    return count


def _geometric_from_zero(rng, mean):
    """Geometric on {0, 1, ...} with the given mean (>= 0)."""
    if mean <= 0.0:
        return 0
    p = 1.0 / (1.0 + mean)
    count = 0
    while rng.random() >= p:
        count += 1
    return count


class ReferenceSource:
    """The per-slot state machine the generators replaced, kept as the
    reference they must reproduce: one poll per slot, None for a slot
    without an arrival, the same draws in the same order.  It draws
    with its own copies of the samplers the sources had when it was
    kept, so a change to the sources' sampler shows here."""

    def __init__(self, spec, port, n_ports, seed):
        self.spec = spec
        self.port = port
        self.rng = random.Random(seed * 1_000_003 + port)
        self.budget = {dst: spec.volume_bytes
                       for dst in range(n_ports) if dst != port}
        self.flow_cells = {dst: 0 for dst in self.budget}
        self._dst = -1
        self._left = 0
        self._burst_dst = -1
        self._burst_cells_left = 0
        self._idle_left = 0
        self._open = list(self.budget)
        self._rand = self.rng.random
        self._fixed = spec.size_mode == "fixed"
        self._gap_scale = None
        self._gap = 0
        self.drained_mid_burst = 0
        if spec.mode == "bernoulli" and spec.load < 1.0:
            self._gap_scale = 1.0 / math.log(1.0 - spec.load)
            self._gap = int(math.log(1.0 - self._rand()) * self._gap_scale)
        self.poll = (self._poll_bernoulli if spec.mode == "bernoulli"
                     else self._poll_bursty)

    @property
    def exhausted(self):
        return not self._left and not self._open

    def _draw_packet_bytes(self, dst):
        if self._fixed:
            size = CELL_PAYLOAD_BYTES
        else:
            spec = self.spec
            size = spec.min_packet_bytes + int(self._rand() * (
                spec.max_packet_bytes - spec.min_packet_bytes + 1))
        remaining = self.budget[dst]
        if remaining is not None:
            size = min(size, remaining)
            self.budget[dst] = remaining - size
            if size == remaining:
                self._open.remove(dst)
        return size

    def _next_cell(self):
        dst, left = self._dst, self._left
        seq = self.flow_cells[dst]
        self.flow_cells[dst] = seq + 1
        if left > CELL_PAYLOAD_BYTES:
            self._left = left - CELL_PAYLOAD_BYTES
            return (self.port, dst, seq, CELL_PAYLOAD_BYTES, False)
        self._left = 0
        return (self.port, dst, seq, left, True)

    def _poll_bernoulli(self):
        if self._gap:
            self._gap -= 1
            return None
        if not self._left:
            flows = self._open
            if not flows:
                return None
            self._dst = dst = flows[int(self._rand() * len(flows))]
            self._left = self._draw_packet_bytes(dst)
        scale = self._gap_scale
        if scale is not None:
            self._gap = int(math.log(1.0 - self._rand()) * scale)
        return self._next_cell()

    def _poll_bursty(self):
        spec = self.spec
        if self._idle_left > 0:
            self._idle_left -= 1
            return None
        if not self._left and self._burst_cells_left <= 0:
            flows = self._open
            if not flows:
                return None
            if spec.load < 1.0:
                idle_mean = spec.burst_mean_cells * (1.0 - spec.load) \
                    / spec.load
                self._idle_left = _geometric_from_zero(self.rng, idle_mean)
            self._burst_dst = flows[int(self._rand() * len(flows))]
            self._burst_cells_left = _geometric_from_one(
                self.rng, spec.burst_mean_cells)
            if self._idle_left > 0:
                self._idle_left -= 1
                return None
        if not self._left:
            dst = self._burst_dst
            if self.budget[dst] == 0:
                self._burst_cells_left = 0
                self.drained_mid_burst += 1
                return self._poll_bursty()
            self._dst = dst
            self._left = self._draw_packet_bytes(dst)
        self._burst_cells_left -= 1
        return self._next_cell()


class TestMatchesReference:
    def test_same_stream_and_exhaustion_every_slot(self):
        # 3,000 bytes per flow ends bursts early when a flow drains
        # (asserted below); 1 byte per flow is a one-cell flow; 2,560
        # bytes is ten full cells, so a fixed-size flow's last cell
        # leaves at exactly CELL_PAYLOAD_BYTES of budget.
        drained_mid_burst = 0
        for mode, size_mode, load, volume, n_ports, seed in \
                itertools.product(
                    ("bernoulli", "bursty"), ("fixed", "variable"),
                    (0.05, 0.3, 0.9, 1.0), (None, 3_000, 1, 2_560),
                    (2, 3, 8), (1, 2, 3)):
            spec = TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                               volume_bytes=volume)
            port = seed % n_ports
            source = SourceProcess(spec, port, n_ports, seed)
            reference = ReferenceSource(spec, port, n_ports, seed)
            arrivals = per_slot(source)
            for slot in range(1_500 if volume is None else 40_000):
                assert next(arrivals) == reference.poll(), (spec, slot)
                if reference.exhausted:
                    # spent with its last record: it draws nothing more
                    assert source.poll() == math.inf, (spec, slot)
                    break
            assert reference.exhausted == (volume is not None)
            drained_mid_burst += reference.drained_mid_burst
        assert drained_mid_burst > 100


class TestChunkedDraws:
    """A Bernoulli source draws a list of its stream at a time: its rng
    may run ahead of the per-slot reference, never by more than one
    list, and stops where the reference's last record left it.  A
    bursty source draws nothing ahead of its records."""

    @staticmethod
    def draws_past(state, behind, most):
        """How many draws ``state`` lies past ``behind``, if at most
        ``most``; None otherwise, a state behind ``behind`` included."""
        rng = random.Random()
        rng.setstate(behind)
        for draws in range(most + 1):
            if rng.getstate() == state:
                return draws
            rng.random()
        return None

    @pytest.mark.parametrize("size_mode", ["fixed", "variable"])
    @pytest.mark.parametrize("load", [0.3, 1.0])
    @pytest.mark.parametrize("volume", [1, 2_560, 3_000])
    def test_at_most_one_chunk_ahead_and_nothing_after_the_last_record(
            self, size_mode, load, volume):
        spec = TrafficSpec(size_mode=size_mode, load=load,
                           volume_bytes=volume)
        source = SourceProcess(spec, 1, 8, seed=4)
        reference = ReferenceSource(spec, 1, 8, seed=4)
        # One list's draws: a destination and a gap per fixed-size
        # cell, or a destination, a size and a gap per cell of one
        # variable-size packet.
        most = (2 * CHUNK if size_mode == "fixed" else
                2 + -(-spec.max_packet_bytes // CELL_PAYLOAD_BYTES))
        leads = []
        while (got := source.poll()) != math.inf:
            if got.__class__ is tuple:
                assert reference.poll() == got
            else:
                assert [reference.poll() for _ in range(got)] == [None] * got
            if not reference.exhausted:  # the last record is below
                leads.append(self.draws_past(source.rng.getstate(),
                                             reference.rng.getstate(), most))
                assert leads[-1] is not None, len(leads)
        assert reference.exhausted
        # The reference draws a gap with every record, its last one
        # included; the source draws nothing after its last record.
        assert self.draws_past(reference.rng.getstate(),
                               source.rng.getstate(), 1) == (load < 1.0)
        if size_mode == "fixed":
            assert max(leads) > 0  # a list of several cells ran ahead

    @pytest.mark.parametrize("size_mode", ["fixed", "variable"])
    @pytest.mark.parametrize("load", [0.3, 1.0])
    @pytest.mark.parametrize("volume", [1, 2_560, 3_000])
    def test_bursty_draws_nothing_ahead_and_nothing_after_the_last_record(
            self, size_mode, load, volume):
        spec = TrafficSpec(mode="bursty", size_mode=size_mode, load=load,
                           volume_bytes=volume)
        source = SourceProcess(spec, 1, 8, seed=4)
        reference = ReferenceSource(spec, 1, 8, seed=4)
        polls = 0
        while (got := source.poll()) != math.inf:
            if got.__class__ is tuple:
                assert reference.poll() == got
            else:
                assert [reference.poll() for _ in range(got)] == [None] * got
            polls += 1
            # a lead of exactly 0 draws, after the last record included
            assert source.rng.getstate() == reference.rng.getstate(), polls
        assert reference.exhausted
        assert source.rng.getstate() == reference.rng.getstate()


class TestIdleGaps:
    @pytest.mark.parametrize("idle_mean", [0.0, 1e-17, 0.44, 4.0, 36.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bursty_idle_gap_matches_the_reference_draw_for_draw(
            self, idle_mean, seed):
        """``_bursty`` draws each idle gap with the one geometric
        sampler, shifted by one: over 1,000 bursts every gap equals the
        reference's geometric draw on {0, 1, ...} and leaves the rng
        where that draw does.  At load 0.5 the idle mean is exactly the
        burst mean, so an unchecked spec sets it directly (below one
        cell too); full load has idle mean 0 and draws no gap.  Two
        ports give one flow of one-cell packets, so a burst draws its
        gap, its destination and its length, and nothing else."""
        load, mean = (1.0, 4.0) if idle_mean == 0.0 else (0.5, idle_mean)
        spec = SimpleNamespace(mode="bursty", size_mode="fixed", load=load,
                               volume_bytes=None, burst_mean_cells=mean)
        source = SourceProcess(spec, 0, 2, seed)
        reference = random.Random()
        reference.setstate(source.rng.getstate())
        for burst in range(1_000):
            idle = _geometric_from_zero(reference, idle_mean)
            reference.random()  # the burst's destination
            length = _geometric_from_one(reference, mean)
            got = source.poll()  # the burst's draws, then its first item
            assert source.rng.getstate() == reference.getstate(), burst
            if idle:
                assert got == idle, burst
                got = source.poll()
            cells = [got] + [source.poll() for _ in range(length - 1)]
            assert [cell[DST] for cell in cells] == [1] * length, burst

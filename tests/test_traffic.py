"""Traffic sources: process statistics, packing, volume exactness."""

import hashlib
import itertools
import statistics
from collections import Counter

import pytest

from cellswitch.errors import ConfigError
from cellswitch.traffic import SourceProcess, TrafficSpec, make_sources


# Fields of a source's cell record (src, dst, flow_seq, valid_bytes, eop).
SRC, DST, FLOW_SEQ, VALID, EOP = range(5)


def drain(source, max_slots):
    cells, slots = [], 0
    while not source.exhausted and slots < max_slots:
        cell = source.poll()
        slots += 1
        if cell is not None:
            cells.append(cell)
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
        with pytest.raises(ConfigError):
            TrafficSpec(volume_bytes=0)
        with pytest.raises(ConfigError):
            TrafficSpec(min_packet_bytes=100, max_packet_bytes=64)
        with pytest.raises(ConfigError):
            TrafficSpec(burst_mean_cells=0.5)

    def test_source_validation(self):
        with pytest.raises(ConfigError):
            SourceProcess(TrafficSpec(), port=4, n_ports=4, seed=0)
        with pytest.raises(ConfigError):
            SourceProcess(TrafficSpec(), port=0, n_ports=1, seed=0)


class TestRouting:
    def test_records_address_every_other_port(self):
        n = 8
        for src in range(n):
            source = SourceProcess(TrafficSpec(load=1.0), src, n, seed=1)
            seen = set()
            for _ in range(500):
                cell = source.poll()
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
            cells = [source.poll() for _ in valid]
            assert [c[VALID] for c in cells] == valid
            assert [c[EOP] for c in cells] == \
                [False] * (len(valid) - 1) + [True]
            assert len({c[DST] for c in cells}) == 1
        source = SourceProcess(
            TrafficSpec(size_mode="variable", load=1.0), 0, 4, seed=5)
        current = []
        for _ in range(50_000):
            cell = source.poll()
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
        next_seq = Counter()
        for _ in range(60_000):
            cell = source.poll()
            if cell is None:
                continue
            assert cell[SRC] == 2
            assert cell[FLOW_SEQ] == next_seq[cell[DST]]
            next_seq[cell[DST]] += 1


class TestBernoulliProcess:
    def test_occupancy_tracks_load(self):
        source = SourceProcess(TrafficSpec(load=0.5), 3, 16, seed=9)
        hits = sum(source.poll() is not None for _ in range(200_000))
        assert hits == pytest.approx(100_000, rel=0.015)

    def test_destinations_uniform(self):
        source = SourceProcess(TrafficSpec(load=1.0), 0, 8, seed=4)
        counts = Counter(source.poll()[DST] for _ in range(70_000))
        for dst in range(1, 8):
            assert counts[dst] == pytest.approx(10_000, rel=0.1)

    def test_variable_size_statistics(self):
        source = SourceProcess(
            TrafficSpec(size_mode="variable", load=1.0), 0, 4, seed=5)
        sizes, cells_per, cur_bytes, cur_cells = [], [], 0, 0
        for _ in range(200_000):
            cell = source.poll()
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
        flags = [source.poll() is not None for _ in range(400_000)]
        busy, idle = self.run_lengths(flags)
        assert statistics.mean(busy) == pytest.approx(busy_mean, rel=0.06)
        assert statistics.mean(idle) == pytest.approx(idle_mean, rel=0.06)
        assert sum(flags) / len(flags) == pytest.approx(load, rel=0.02)

    def test_saturated_burst_source_never_idles(self):
        source = SourceProcess(
            TrafficSpec(mode="bursty", load=1.0), 1, 4, seed=2)
        assert all(source.poll() is not None for _ in range(10_000))

    def test_variable_round_up_inflates_occupancy(self):
        # bursts extend to whole packets, so measured load runs high;
        # the simulator reports measured offered load for this reason
        source = SourceProcess(
            TrafficSpec(mode="bursty", size_mode="variable", load=0.6),
            0, 4, seed=21)
        occ = sum(source.poll() is not None
                  for _ in range(300_000)) / 300_000
        assert 0.62 < occ < 0.8


class TestVolumeBudget:
    def test_fixed_mode_exact_cell_count(self):
        source = SourceProcess(
            TrafficSpec(load=1.0, volume_bytes=2560), 1, 4, seed=7)
        cells, slots = drain(source, 10_000)
        counts = Counter(c[DST] for c in cells)
        assert counts == {0: 10, 2: 10, 3: 10}
        assert source.exhausted
        assert source.poll() is None

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
            out = []
            for _ in range(5_000):
                c = s.poll()
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
            stream = [source.poll() for _ in range(3_000)]
            digest.update(repr((stream, source.exhausted)).encode())
        assert digest.hexdigest() == self.STREAM_DIGEST

    def test_make_sources_covers_all_ports(self):
        sources = make_sources(TrafficSpec(), 8, seed=1)
        assert [s.port for s in sources] == list(range(8))

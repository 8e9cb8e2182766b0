"""Star-network engine: floor, conservation, determinism, metrics."""

import ast
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import statistics
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

from cellswitch import engine
from cellswitch.codec import (
    CELL_PAYLOAD_BYTES,
    FRAME_BYTES,
    MAX_ONE_WAY_DELAY,
    MAX_SWITCH_PORTS,
)
from cellswitch.config import (
    BERNOULLI,
    BURSTY,
    ISLIP,
    SAFC,
    EngineConfig,
    TrafficSpec,
)
from cellswitch.engine import MetricsReport, StarNetwork, run_star
from cellswitch.errors import ConfigError, SimInvariantError
from cellswitch.fabric import CHECK_INTERVAL
from cellswitch.scheduler import SafcScheduler
from cellswitch.voq import VOQBank


def small_run(n_ports=8, load=0.5, volume=20_000, scheduler=ISLIP, **kw):
    config = EngineConfig(n_ports=n_ports, scheduler=scheduler, **kw)
    traffic = TrafficSpec(mode="bernoulli", size_mode="fixed", load=load,
                          volume_bytes=volume)
    return run_star(config, traffic)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=1)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, scheduler="maximal")
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, on_threshold=5, off_threshold=5)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, on_threshold=5, off_threshold=-1)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, on_threshold=3, off_threshold=4)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, channel_buffer=0)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, uplink_delay=0)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, egress_delay=-1)
        for iterations in (0, -1):
            with pytest.raises(ConfigError, match="grant/accept round"):
                EngineConfig(n_ports=8, scheduler=SAFC,
                             islip_iterations=iterations)
        for max_slots in (0, -5):
            with pytest.raises(ConfigError, match="max_slots"):
                EngineConfig(n_ports=8, max_slots=max_slots)
        EngineConfig(n_ports=8, max_slots=1)

    @pytest.mark.parametrize("name, low, what", [
        ("uplink_delay", 1, "link delays"),
        ("downlink_delay", 1, "link delays"),
        ("egress_delay", 0, "egress delay")])
    def test_delays_bounded_by_the_sequence_field(self, name, low, what):
        """A link's 7-bit sequence field bounds its delay to 31 slots,
        and the egress stages take the same bound.  A delay outside it
        is refused when the config is built, before the engine sizes a
        slot ring by it."""
        assert MAX_ONE_WAY_DELAY == 31
        for good in (low, MAX_ONE_WAY_DELAY):
            assert getattr(EngineConfig(n_ports=8, **{name: good}),
                           name) == good
        for bad in (low - 1, MAX_ONE_WAY_DELAY + 1, 100_000_000):
            with pytest.raises(ConfigError,
                               match=f"^{what} must be {low}..31 slots$"):
                EngineConfig(n_ports=8, **{name: bad})

    @pytest.mark.parametrize("cls, name, optional", [
        (EngineConfig, "n_ports", False), (EngineConfig, "seed", False),
        (EngineConfig, "on_threshold", False),
        (EngineConfig, "off_threshold", False),
        (EngineConfig, "channel_buffer", True),
        (EngineConfig, "islip_iterations", False),
        (EngineConfig, "uplink_delay", False),
        (EngineConfig, "downlink_delay", False),
        (EngineConfig, "egress_delay", False),
        (EngineConfig, "max_slots", True),
        (TrafficSpec, "volume_bytes", True),
        (TrafficSpec, "min_packet_bytes", False),
        (TrafficSpec, "max_packet_bytes", False),
    ])
    def test_int_fields_hold_ints(self, cls, name, optional):
        """An int field refuses a float, and a None unless its type
        allows None, with a ConfigError that names it."""
        build = functools.partial(cls, n_ports=8) if cls is EngineConfig \
            else cls
        with pytest.raises(ConfigError, match=f"^{name} 7.0: not an int$"):
            build(**{name: 7.0})
        if optional:
            assert getattr(build(**{name: None}), name) is None
        else:
            with pytest.raises(ConfigError,
                               match=f"^{name} None: not an int$"):
                build(**{name: None})

    def test_port_count_bounded_by_selector_width(self):
        # Selector 255 is broadcast, so unicast selectors 0..254
        # address at most 256 ports.  Only the config is built here.
        assert MAX_SWITCH_PORTS == 256
        EngineConfig(n_ports=256)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=257)

    def test_derived_quantities(self):
        config = EngineConfig(n_ports=8)
        assert config.pause_exposure() == 13
        assert config.voq_capacity() == 24
        assert config.latency_floor() == 18
        assert (config.on_threshold, config.off_threshold) == (10, 7)

    def test_custom_delays(self):
        config = EngineConfig(n_ports=4, uplink_delay=3, downlink_delay=2,
                              egress_delay=0, on_threshold=5,
                              off_threshold=2)
        assert config.pause_exposure() == 4
        assert config.voq_capacity() == 10  # 5 + 1 + 4
        assert config.latency_floor() == 6

    def test_only_star_network_builds_components(self):
        # The components do not re-check what EngineConfig and
        # TrafficSpec check, which is sound only while StarNetwork,
        # building them from a checked config, is their one caller.
        root = Path(__file__).resolve().parent.parent
        components = {"IslipScheduler", "SafcScheduler", "SortRouteFabric",
                      "VOQBank", "SourceProcess"}
        calls = []
        for path in sorted([*(root / "src" / "cellswitch").glob("*.py"),
                            *(root / "bench").glob("*.py")]):
            if path.name == "engine.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in components:
                        calls.append(f"{path.name}:{node.lineno} {name}")
        assert not calls, f"components built outside engine: {calls}"


def one_cell(src, dst):
    """A one-cell packet as a traffic cell record."""
    return (src, dst, 0, CELL_PAYLOAD_BYTES, True)


class ScriptSource:
    """Deterministic source emitting a prescribed cell per poll, then
    reporting no arrival ever again."""

    def __init__(self, cells):
        self._cells = deque(cells)

    def poll(self):
        return self._cells.popleft() if self._cells else math.inf


class TestLatencyFloor:
    def test_conflict_free_slot_all_land_on_floor(self):
        # Four inputs, four distinct outputs, one cell each, same slot:
        # one matching round resolves them all at exactly the floor.
        n = 4
        config = EngineConfig(n_ports=n)
        net = StarNetwork(config, TrafficSpec())
        net.sources = [ScriptSource([one_cell(i, (i + 1) % n)])
                       for i in range(n)]
        report = net.run()
        report.verify()
        assert report.drained
        assert report.latency_hist == {config.latency_floor(): n}
        assert report.last_delivery == report.first_generation + 18

    def test_quiet_network_min_is_floor(self):
        report = small_run(n_ports=2, load=0.2, volume=5_000)
        assert min(report.latency_hist) == 18
        assert report.percentile(1) == 18

    def test_floor_holds_under_load(self):
        report = small_run(n_ports=8, load=0.9, volume=20_000)
        assert min(report.latency_hist) >= 18

    def test_custom_pipeline_floor(self):
        config = EngineConfig(n_ports=4, uplink_delay=3, downlink_delay=2,
                              egress_delay=0, on_threshold=5,
                              off_threshold=2)
        traffic = TrafficSpec(load=0.3, volume_bytes=5_000)
        report = run_star(config, traffic)
        assert min(report.latency_hist) == config.latency_floor() == 6


class TestConservationAndIntegrity:
    def test_drains_and_conserves(self):
        report = small_run(n_ports=8, load=0.6, volume=30_000)
        assert report.drained
        assert (report.generated_cells == report.injected_cells
                == report.delivered_cells > 0)
        assert sum(report.latency_hist.values()) == report.delivered_cells

    def test_fixed_cells_account_full_frames(self):
        # A volume that is a whole number of payloads leaves no
        # partial tail cell, so every delivered frame is full-size.
        report = small_run(n_ports=4, load=0.5, volume=10_240)
        assert report.delivered_wire_bytes == \
            report.delivered_cells * FRAME_BYTES

    def test_every_pause_is_released(self):
        report = small_run(n_ports=8, load=1.0, volume=30_000)
        assert report.pauses > 0
        assert report.pauses == report.unpauses

    def test_occupancy_crosses_on_but_never_capacity(self):
        config = EngineConfig(n_ports=8)
        report = small_run(n_ports=8, load=1.0, volume=30_000)
        assert config.on_threshold < report.peak_voq_occupancy \
            <= config.voq_capacity()

    @pytest.mark.parametrize("on", [1, 5, 20])
    @pytest.mark.parametrize("up,down", [(1, 1), (3, 2), (1, 5)])
    def test_capacity_is_the_exact_pause_headroom(self, up, down, on):
        # A pause fires at depth on + 1 and up + down - 1 more cells
        # can still land, so saturated queues reach the capacity and
        # never pass it.
        peaks = []
        for scheduler, mode in itertools.product((ISLIP, SAFC),
                                                 ("bernoulli", "bursty")):
            config = EngineConfig(n_ports=8, scheduler=scheduler, seed=2,
                                  uplink_delay=up, downlink_delay=down,
                                  egress_delay=0, on_threshold=on,
                                  off_threshold=0)
            report = run_star(config, TrafficSpec(mode=mode, load=1.0,
                                                  volume_bytes=20_000))
            assert report.peak_voq_occupancy <= config.voq_capacity()
            peaks.append(report.peak_voq_occupancy)
        assert max(peaks) == config.voq_capacity() == on + up + down

    @pytest.mark.parametrize("seqs", [(0, 2), (0, 0)],
                             ids=["gap", "repeat"])
    def test_sink_raises_at_first_out_of_sequence_cell(self, seqs):
        net = StarNetwork(EngineConfig(n_ports=2), TrafficSpec())
        net.sources = [
            ScriptSource([(0, 1, seq, CELL_PAYLOAD_BYTES, True)
                          for seq in seqs]),
            ScriptSource([])]
        with pytest.raises(SimInvariantError,
                           match=f"cell {seqs[1]} of flow 0->1"):
            net.run()

    def test_verify_flags_doctored_reports(self):
        report = small_run(n_ports=4, load=0.4, volume=5_000)
        report.peak_voq_occupancy = report.config.voq_capacity() + 1
        with pytest.raises(SimInvariantError):
            report.verify()
        report.peak_voq_occupancy = 0
        report.delivered_cells -= 1
        with pytest.raises(SimInvariantError):
            report.verify()
        # a run cut short still has every cell accounted for
        report = StarNetwork(EngineConfig(n_ports=8, max_slots=400),
                             TrafficSpec(load=1.0,
                                         volume_bytes=1_000_000)).run()
        assert report.staged_cells and report.in_flight_cells
        report.verify()
        report.in_flight_cells -= 1
        with pytest.raises(SimInvariantError):
            report.verify()
        report.in_flight_cells += 1
        report.staged_cells += 1
        with pytest.raises(SimInvariantError):
            report.verify()

    @pytest.mark.parametrize("mode", [BERNOULLI, BURSTY])
    def test_run_without_generated_cells_reports_no_load(self, mode):
        """Cut short before its first generated cell, a run has no
        generation window, so it claims no measured load."""
        report = run_star(EngineConfig(n_ports=4, max_slots=1),
                          TrafficSpec(mode=mode, load=0.01, volume_bytes=1000))
        report.verify()
        assert report.generated_cells == 0
        assert report.offered_load_pct is None
        assert report.to_dict()["offered_load_pct"] is None

    def test_max_slots_cuts_run_short(self):
        config = EngineConfig(n_ports=8, max_slots=400)
        traffic = TrafficSpec(load=1.0, volume_bytes=1_000_000)
        report = StarNetwork(config, traffic).run()
        report.verify()  # conservation counts staged and in-flight cells
        assert not report.drained
        assert report.slots_run == 400

    def test_queued_cells_without_a_request_bit_raise(self, monkeypatch):
        """A bank that clears its input's bit one cell early leaves
        that cell where no arbiter looks; the run must raise at the
        stall instead of idling until max_slots."""
        dequeue = VOQBank.dequeue

        def clears_early(self, channel):
            taken = dequeue(self, channel)
            if len(self.queues[channel]) == 1:
                self.requests[channel] &= ~self.bit
            return taken
        monkeypatch.setattr(VOQBank, "dequeue", clears_early)
        network = StarNetwork(
            EngineConfig(n_ports=4, scheduler=SAFC, max_slots=50_000),
            TrafficSpec(load=0.9, volume_bytes=20_000))
        with pytest.raises(SimInvariantError,
                           match="cells queued with no request bit set"):
            network.run()

    def test_channel_buffer_one_still_lossless(self):
        report = small_run(n_ports=4, load=0.8, volume=10_000,
                           channel_buffer=1)
        assert report.drained
        assert report.generated_cells == report.delivered_cells

    @pytest.mark.parametrize("size_mode", ["fixed", "variable"])
    @pytest.mark.parametrize("mode", ["bernoulli", "bursty"])
    def test_drained_run_ends_the_slot_after_its_last_delivery(
            self, mode, size_mode):
        # A spent source polls math.inf in the slot after its last
        # record, so the drain test holds as the last cell lands; a
        # source that drew a gap after its last record would hold the
        # run open for that gap.
        for load, scheduler, seed in itertools.product(
                (0.05, 0.1, 0.5, 1.0), (ISLIP, SAFC), (1, 2, 3)):
            report = run_star(
                EngineConfig(n_ports=4, scheduler=scheduler, seed=seed),
                TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                            volume_bytes=3_000))
            assert report.drained
            assert report.slots_run == report.last_delivery + 1, (
                load, scheduler, seed)

    def test_sources_cover_all_ports(self):
        network = StarNetwork(EngineConfig(n_ports=8), TrafficSpec())
        assert [s.port for s in network.sources] == list(range(8))


class TestSchedulers:
    def test_safc_runs_clean(self):
        report = small_run(n_ports=8, load=0.9, volume=20_000,
                           scheduler=SAFC)
        assert report.drained
        assert min(report.latency_hist) == 18
        assert report.fabric_checks == 0  # output-queued path, no fabric

    def test_islip_fabric_is_exercised(self):
        report = small_run(n_ports=8, load=0.9, volume=20_000,
                           scheduler=ISLIP)
        assert report.fabric_checks > 0

    def test_safc_beats_islip_tail_at_saturation(self):
        islip = small_run(n_ports=8, load=1.0, volume=50_000,
                          scheduler=ISLIP)
        safc = small_run(n_ports=8, load=1.0, volume=50_000,
                         scheduler=SAFC)
        assert safc.percentile(99) < islip.percentile(99)


class TestWorstCaseLatency:
    # iSLIP is left out: a granted input may still accept another
    # output, so this form does not bound it (saturated iSLIP runs at
    # 3-8 ports broke it by up to 1.42x); it needs a bound of its own.
    @pytest.mark.parametrize("delays", [
        {}, dict(uplink_delay=1, downlink_delay=1, egress_delay=0)],
        ids=["default-delays", "short-delays"])
    @pytest.mark.parametrize("mode", [BERNOULLI, BURSTY])
    @pytest.mark.parametrize("n_ports", [3, 4, 8])
    def test_safc_latency_bound(self, n_ports, mode, delays):
        """An SAFC output serves a requesting input within n - 2 slots
        (each of the n - 2 other inputs at most once before it), then
        at least once every n - 1 slots.  A cell that lands at depth
        d <= voq_capacity() in its VOQ is therefore matched at most
        (n - 2) + (d - 1)(n - 1) slots after it lands, so no cell takes
        more than latency_floor() + (n - 1) * voq_capacity() - 1."""
        config = EngineConfig(n_ports=n_ports, scheduler=SAFC, **delays)
        report = run_star(config, TrafficSpec(mode=mode, load=1.0,
                                              volume_bytes=20_000))
        bound = (config.latency_floor()
                 + (n_ports - 1) * config.voq_capacity() - 1)
        assert max(report.latency_hist) <= bound

    def test_verify_asserts_the_safc_bound(self, monkeypatch):
        """Every SAFC run checks the bound: an output pointer that never
        moves past the input it served starves the inputs behind it."""
        match = SafcScheduler.match

        def stalled(self, out_requests):
            pointer = self.pointer[:]
            pairs = match(self, out_requests)
            self.pointer[:] = pointer
            return pairs

        monkeypatch.setattr(SafcScheduler, "match", stalled)
        with pytest.raises(SimInvariantError, match="SAFC latency"):
            run_star(EngineConfig(n_ports=8, scheduler=SAFC),
                     TrafficSpec(load=1.0, volume_bytes=20_000))

    @pytest.mark.parametrize("scheduler", [SAFC, ISLIP])
    def test_verify_safc_bound_is_exact(self, scheduler):
        """A SAFC cell may take the bound but not one slot more; iSLIP
        has no bound of this form, so its reports pass either way."""
        config = EngineConfig(n_ports=4, scheduler=scheduler)
        bound = config.latency_floor() + 3 * config.voq_capacity() - 1
        at, over = (dataclasses.replace(report_with({latency: 1}),
                                        config=config)
                    for latency in (bound, bound + 1))
        at.verify()
        if scheduler == ISLIP:
            over.verify()
        else:
            with pytest.raises(SimInvariantError, match="SAFC latency"):
                over.verify()


class TestDeterminism:
    def test_same_seed_same_report(self):
        kw = dict(n_ports=8, load=0.7, volume=20_000, seed=11)
        first = small_run(**kw)
        second = small_run(**kw)
        assert first.to_dict() == second.to_dict()
        assert first.latency_hist == second.latency_hist

    def test_seed_changes_the_run(self):
        first = small_run(n_ports=8, load=0.7, volume=20_000, seed=1)
        second = small_run(n_ports=8, load=0.7, volume=20_000, seed=2)
        assert first.latency_hist != second.latency_hist


def report_with(hist):
    delivered = sum(hist.values())
    return MetricsReport(
        config=EngineConfig(n_ports=2), traffic=TrafficSpec(),
        slots_run=1, drained=True, generated_cells=delivered,
        injected_cells=delivered, delivered_cells=delivered,
        staged_cells=0, in_flight_cells=0,
        delivered_wire_bytes=delivered * FRAME_BYTES,
        last_delivery=max(hist), first_generation=0, last_generation=0,
        pauses=0, unpauses=0, peak_voq_occupancy=0,
        fabric_checks=0, latency_hist=hist)


class TestPercentiles:
    def test_single_sample(self):
        report = report_with({18: 1})
        for p in (0, 1, 50, 75, 90, 95, 99, 100):
            assert report.percentile(p) == 18

    def test_nearest_rank_examples(self):
        assert report_with({k: 1 for k in range(1, 101)}).percentile(99) \
            == 99
        assert report_with({k: 1 for k in range(1, 1001)}).percentile(75) \
            == 750

    def test_matches_sorted_list_oracle(self):
        rng = random.Random(2024)
        for _ in range(50):
            samples = [rng.randrange(18, 700)
                       for _ in range(rng.randrange(1, 400))]
            hist = {}
            for s in samples:
                hist[s] = hist.get(s, 0) + 1
            report = report_with(hist)
            ordered = sorted(samples)
            for p in (0, 1, 10, 25, 50, 75, 90, 95, 99, 100):
                # ceil, 1-based, so p = 0 reads the minimum
                rank = max(1, -(-p * len(samples) // 100))
                assert report.percentile(p) == ordered[rank - 1], \
                    f"p{p} of {len(samples)} samples"

    def test_summary_is_monotone(self):
        report = small_run(n_ports=8, load=0.9, volume=20_000)
        summary = report.to_dict()["latency_min_p50_p75_p90_p95_p99_max"]
        assert list(summary) == sorted(summary)
        assert summary[0] == 18
        assert summary[-1] == max(report.latency_hist)

    def test_p_outside_0_to_100_refuses(self):
        report = report_with({18: 1, 20: 3})
        assert report.percentile(0) == 18
        assert report.percentile(100) == 20
        for p in (-5, 101, math.nan):
            with pytest.raises(ValueError, match=f"p = {p} outside"):
                report.percentile(p)

    def test_empty_distribution_refuses(self):
        report = report_with({18: 1})
        report.delivered_cells = 0
        with pytest.raises(SimInvariantError):
            report.percentile(50)

    def test_mean_between_min_and_max(self):
        report = small_run(n_ports=4, load=0.6, volume=10_000)
        assert min(report.latency_hist) <= report.mean_latency() \
            <= max(report.latency_hist)


class TestBandwidthAccounting:
    def test_offered_load_tracks_nominal(self):
        report = small_run(n_ports=8, load=0.5, volume=50_000)
        assert abs(report.offered_load_pct - 50.0) < 2.0

    def test_utilization_bounded_and_positive(self):
        report = small_run(n_ports=8, load=0.5, volume=50_000)
        assert 0 < report.utilization_pct <= 100.0

    def test_light_load_passes_through(self):
        # Far from saturation nothing queues, so the delivered rate
        # over the delivery window matches the offered rate closely.
        report = small_run(n_ports=8, load=0.3, volume=50_000)
        assert abs(report.utilization_pct - report.offered_load_pct) < 2.0

    def test_to_dict_round_trip_fields(self):
        report = small_run(n_ports=4, load=0.4, volume=5_000)
        data = report.to_dict()
        assert data["n_ports"] == 4
        assert data["drained"] is True
        assert data["delivered_cells"] == report.delivered_cells
        summary = data["latency_min_p50_p75_p90_p95_p99_max"]
        assert summary[1:-1] == tuple(
            report.percentile(p) for p in (50, 75, 90, 95, 99))
        assert (summary[0], summary[-1]) == (min(report.latency_hist),
                                             max(report.latency_hist))


def output_queued_runs(load):
    """The oracles' 16 runs at one load: 32-port SAFC with one-cell
    Bernoulli packets, seeds 1-8, an unbounded volume cut at 3,000
    slots.  Each run's report comes with its output backlogs: the
    cells queued for each output, summed over the inputs, counted
    over the outputs and slots after a 200-slot warm-up.

    A backlog is kept by wrapping every bank's enqueue and dequeue and
    sampled at each ``match`` call, after the slot's arrivals and
    before its service.  The calls do not name their slot, but a call
    follows its slot's enqueues or, without them, a backlog left by
    the previous slot's call: so its slot is the later of the previous
    call's slot plus one and the slot of the latest enqueue.  A slot
    without a call must have every backlog at 0, so it counts 32
    zeros; a run of such slots after a call that left cells queued is
    counted as ``skipped`` instead, an arbitration the engine left
    out."""
    runs = []
    for seed in range(1, 9):
        network = StarNetwork(
            EngineConfig(n_ports=32, scheduler=SAFC, seed=seed,
                         max_slots=3_000),
            TrafficSpec(load=load, volume_bytes=None))
        up_delay = network.config.uplink_delay
        warm_up = 200
        backlog = [0] * 32
        counts = [0] * 33  # output-slots per backlog, 32 and over last
        arrival = slot = -1  # the latest enqueue's slot and call's slot
        fresh = skipped = 0  # enqueues since the last call; see above

        def counted(enqueue, dequeue):
            def counted_enqueue(channel, item):
                nonlocal arrival, fresh
                backlog[channel] += 1
                fresh += 1
                arrival = item[0] + up_delay  # it left up_delay ago
                return enqueue(channel, item)

            def counted_dequeue(channel):
                backlog[channel] -= 1
                return dequeue(channel)
            return counted_enqueue, counted_dequeue

        def sampled(out_requests, match=network.scheduler.match):
            nonlocal slot, fresh, skipped
            previous, slot = slot, max(slot + 1, arrival)
            if slot > previous + 1 and sum(backlog) > fresh:
                skipped += 1  # the previous call left cells queued
            elif slot >= warm_up:
                counts[0] += 32 * (slot - max(previous + 1, warm_up))
            fresh = 0
            if slot >= warm_up:
                for b in backlog:
                    counts[min(b, 32)] += 1
            return match(out_requests)

        for bank in network.banks:
            bank.enqueue, bank.dequeue = counted(bank.enqueue, bank.dequeue)
        network.scheduler.match = sampled
        report = network.run()
        report.verify()
        assert backlog == [sum(len(bank.queues[j]) for bank in network.banks)
                           for j in range(32)]
        if report.slots_run > slot + 1 and any(backlog):
            skipped += 1
        elif report.slots_run > warm_up:
            counts[0] += 32 * (report.slots_run - max(slot + 1, warm_up))
        runs.append((report, counts, skipped))
    return runs


def queue_chain_law(m, load, size=100):
    """Stationary law of B' = max(B - 1, 0) + A, A ~ Binomial(m,
    load/m), on 0..size, by iterating the chain from B = 0."""
    p = load / m
    arrivals = [math.comb(m, k) * p**k * (1 - p)**(m - k)
                for k in range(m + 1)]
    law = [1.0] + [0.0] * size
    for _ in range(10_000):
        served = [law[0] + law[1], *law[2:], 0.0]
        new = [0.0] * (size + 1)
        for b, weight in enumerate(served):
            for k, a in enumerate(arrivals[:size + 1 - b]):
                new[b + k] += weight * a
        done = max(abs(x - y) for x, y in zip(new, law)) < 1e-15
        law = new
        if done:
            return law
    raise AssertionError("the chain did not settle")


class TestAnalyticalOracle:
    """With one-cell Bernoulli packets and no pause, SAFC is an
    output-queued switch: each output takes Binomial(M, p/M) arrivals
    a slot from the M = n - 1 other ports and serves one (Karol,
    Hluchyj and Morgan, IEEE Trans. Commun. 35(12), 1987).  An
    unbounded volume cut at max_slots keeps the end-of-run drain,
    which piles load onto the last open flows, out of it."""

    runs = staticmethod(functools.cache(output_queued_runs))

    @pytest.mark.parametrize("load", [0.3, 0.6])
    def test_safc_mean_latency_is_output_queued(self, load):
        """A cell waits (M - 1)/M * p / (2(1 - p)) slots on average."""
        means = []
        for report, _, _ in self.runs(load):
            assert report.pauses == 0  # flow control would break the model
            means.append(report.mean_latency())
        config = report.config
        m = config.n_ports - 1
        closed_form = (config.latency_floor()
                       + (m - 1) / m * load / (2 * (1 - load)))
        stderr = statistics.stdev(means) / math.sqrt(len(means))
        assert abs(statistics.fmean(means) - closed_form) <= 4 * stderr

    @pytest.mark.parametrize("load", [0.3, 0.6])
    def test_safc_output_backlog_follows_the_queue_chain(self, load):
        """An output's backlog does not depend on the order it serves
        its inputs in: it follows B' = max(B - 1, 0) + A.  Each seed's
        shares of backlog 0, 1, 2 and 3 or more lie within 4 standard
        errors of that chain's stationary law, and no slot that held
        cells went without arbitration."""
        runs = self.runs(load)
        shares = []
        for report, counts, _ in runs:
            assert report.pauses == 0
            total = sum(counts)
            shares.append([counts[0] / total, counts[1] / total,
                           counts[2] / total, sum(counts[3:]) / total])
        law = queue_chain_law(31, load)
        expected = [law[0], law[1], law[2], sum(law[3:])]
        for k, want in enumerate(expected):
            column = [share[k] for share in shares]
            stderr = statistics.stdev(column) / math.sqrt(len(column))
            assert abs(statistics.fmean(column) - want) <= 4 * stderr, \
                (k, statistics.fmean(column), want, stderr)
        assert [skipped for _, _, skipped in runs] == [0] * len(runs)


class TestByteIdentity:
    """Pins every reported figure of a grid of small runs, so a change
    meant to keep results identical is checked to do so.  DIGEST and
    PORT32_DIGEST hash first_generation twice: they were recorded when
    the report also kept the slot of its first transmission, which
    always equals it."""

    DIGEST = "79bf0d401b53c768284a37cbc1b98ec6b1c981e5d733bf907aba5dc1b5314808"

    def test_grid_digest_unchanged(self):
        digest = hashlib.sha256()
        for scheduler, mode, size_mode, load, buffer in itertools.product(
                (ISLIP, SAFC), ("bernoulli", "bursty"), ("fixed", "variable"),
                (0.1, 0.5, 0.9, 1.0), (None, 2)):
            report = run_star(
                EngineConfig(n_ports=8, scheduler=scheduler, seed=3,
                             channel_buffer=buffer),
                TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                            volume_bytes=6_000))
            digest.update(json.dumps([
                report.to_dict(), sorted(report.latency_hist.items()),
                report.delivered_wire_bytes, report.first_generation,
                report.last_generation, report.first_generation,
                report.last_delivery]).encode())
        assert digest.hexdigest() == self.DIGEST

    # Recorded when EngineConfig.islip_iterations became 3 in place of
    # None, its automatic count: the previous digest with that one
    # config value mapped from None to 3.
    WIDE_DIGEST = (
        "156d366e7156c8b79e0c4a87e65a81b2fb01715fc9de0623006240d8be075847")

    def test_truncated_and_custom_delay_digest_unchanged(self):
        # Every report field, staged and in-flight counts included, of
        # runs cut short at several points and of links and egress
        # stages of unequal depth (egress 0 among them).
        digest = hashlib.sha256()
        for delays, scheduler, mode, size_mode, load, max_slots in \
                itertools.product(
                    ((7, 7, 3), (3, 2, 0), (9, 1, 0), (1, 5, 4)),
                    (ISLIP, SAFC), ("bernoulli", "bursty"),
                    ("fixed", "variable"), (0.5, 1.0), (None, 37, 400)):
            up, down, egress = delays
            report = StarNetwork(
                EngineConfig(n_ports=6, scheduler=scheduler, seed=5,
                             uplink_delay=up, downlink_delay=down,
                             egress_delay=egress, on_threshold=5,
                             off_threshold=2, max_slots=max_slots,
                             channel_buffer=1 if load == 1.0 else None),
                TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                            volume_bytes=3_000)).run()
            report.verify()
            fields = dataclasses.asdict(report)
            fields["latency_hist"] = sorted(report.latency_hist.items())
            digest.update(json.dumps([fields, report.to_dict()],
                                     sort_keys=True).encode())
        assert digest.hexdigest() == self.WIDE_DIGEST

    # Recorded on the engine whose iSLIP accept step was a second pass.
    PORT32_DIGEST = (
        "670452b179c6ca013b8e685ebe7b3942b372bedf9f58da98ffe6e22a39f3c1db")

    def test_32_port_digest_unchanged(self):
        # At 32 ports the request masks pass bit 29, so the arbiters'
        # picks span more than one 30-bit digit of a Python int; the
        # grids above stop at 8 ports.
        digest = hashlib.sha256()
        for scheduler, mode, size_mode, load in itertools.product(
                (ISLIP, SAFC), ("bernoulli", "bursty"), ("fixed", "variable"),
                (0.3, 1.0)):
            report = run_star(
                EngineConfig(n_ports=32, scheduler=scheduler),
                TrafficSpec(mode=mode, size_mode=size_mode, load=load,
                            volume_bytes=1_500))
            digest.update(json.dumps([
                report.to_dict(), sorted(report.latency_hist.items()),
                report.delivered_wire_bytes, report.first_generation,
                report.last_generation, report.first_generation,
                report.last_delivery]).encode())
        assert digest.hexdigest() == self.PORT32_DIGEST


def test_engine_calls_the_instance_hooks():
    """The benchmark's tracer times a run by replacing these instance
    callables; each must still be called, and the results must not
    change."""
    def build():
        return StarNetwork(EngineConfig(n_ports=6, scheduler=ISLIP),
                           TrafficSpec(load=0.9, volume_bytes=8_000))

    calls = {}

    def counting(name, fn):
        calls[name] = 0

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    network = build()
    for source in network.sources:
        source.poll = counting("poll", source.poll)
    for bank in network.banks:
        bank.enqueue = counting("enqueue", bank.enqueue)
        bank.dequeue = counting("dequeue", bank.dequeue)
    network.scheduler.match = counting("match", network.scheduler.match)
    network.fabric.route = counting("route", network.fabric.route)
    report = network.run()
    assert all(calls.values()), calls
    assert report.to_dict() == build().run().to_dict()


@pytest.mark.parametrize("scheduler,n_ports,volume", [
    (ISLIP, 8, 20_000), (ISLIP, 32, 5_000), (SAFC, 8, 20_000)])
def test_every_matching_is_conflict_free(scheduler, n_ports, volume):
    """The fabric replays the arbiter's pairs only every
    CHECK_INTERVAL slots, so check every slot's pairs here: distinct
    outputs from both arbiters, and distinct inputs from iSLIP, whose
    matching must cross the fabric."""
    def build():
        return StarNetwork(EngineConfig(n_ports=n_ports, scheduler=scheduler),
                           TrafficSpec(load=1.0, volume_bytes=volume))

    network = build()
    match = network.scheduler.match
    slots = 0

    def checked(out_requests):
        nonlocal slots
        pairs = match(out_requests)
        outputs = [j for _, j in pairs]
        assert len(set(outputs)) == len(outputs), pairs
        if scheduler == ISLIP:
            inputs = [i for i, _ in pairs]
            assert len(set(inputs)) == len(inputs), pairs
        slots += 1
        return pairs

    network.scheduler.match = checked
    report = network.run()
    report.verify()
    assert report.drained and slots > 2 * CHECK_INTERVAL
    assert report.to_dict() == build().run().to_dict()


@pytest.mark.parametrize("scheduler,n_ports,volume", [
    (ISLIP, 8, 20_000), (ISLIP, 32, 12_000), (SAFC, 8, 20_000)])
def test_no_result_depends_on_the_order_of_a_matching(scheduler, n_ports,
                                                      volume):
    """A matching is a set of pairs: the engine dequeues, routes and
    delivers them in whatever order ``match`` lists them, so a run
    whose arbiter lists every matching reversed reports the same
    figures.  Saturated load makes the banks post pauses and unpauses
    too, in the order of the pairs that cause them."""
    def build():
        return StarNetwork(EngineConfig(n_ports=n_ports, scheduler=scheduler),
                           TrafficSpec(load=1.0, volume_bytes=volume))

    network = build()
    match = network.scheduler.match
    network.scheduler.match = lambda out_requests: match(out_requests)[::-1]
    reversed_run = network.run()
    reversed_run.verify()
    plain = build().run()
    assert plain.pauses and plain.unpauses
    assert reversed_run.to_dict() == plain.to_dict()
    assert reversed_run.latency_hist == plain.latency_hist


@pytest.mark.parametrize("scheduler,n_ports,mode,size_mode,volume", [
    (ISLIP, 32, "bernoulli", "fixed", 12_000),
    (SAFC, 8, "bursty", "variable", 20_000)])
def test_request_masks_and_peak_match_the_banks(scheduler, n_ports, mode,
                                                size_mode, volume):
    """The banks keep the arbiter's request masks and their own peaks,
    so recount both from the queues: every slot's ``out_requests``
    must have bit i of output j set exactly while input i queues a
    cell for j, and ``peak_voq_occupancy`` must be the deepest queue
    any enqueue left.  A lost bit can leave a queue unserved for ever,
    so max_slots turns that into an undrained run."""
    def build():
        return StarNetwork(EngineConfig(n_ports=n_ports, scheduler=scheduler,
                                        max_slots=20_000),
                           TrafficSpec(mode=mode, size_mode=size_mode,
                                       load=1.0, volume_bytes=volume))

    network = build()
    banks = network.banks
    match = network.scheduler.match
    slots = deepest = 0

    def checked(out_requests):
        nonlocal slots
        assert list(out_requests) == [
            sum(1 << i for i, bank in enumerate(banks) if bank.queues[j])
            for j in range(n_ports)]
        slots += 1
        return match(out_requests)

    def recording(bank, enqueue):
        def wrapped(channel, item):
            nonlocal deepest
            paused = enqueue(channel, item)
            deepest = max(deepest, len(bank.queues[channel]))
            return paused
        return wrapped

    network.scheduler.match = checked
    for bank in banks:
        bank.enqueue = recording(bank, bank.enqueue)
    report = network.run()
    report.verify()
    assert report.drained and report.pauses and slots > CHECK_INTERVAL
    assert report.peak_voq_occupancy == deepest
    assert report.to_dict() == build().run().to_dict()


def test_idle_hosts_do_not_poll():
    """At 10 % load most port-slots lie inside an idle stretch that a
    source reports in advance, so the host skips them; polling every
    port every slot would make ``n_ports * slots_run`` calls."""
    network = StarNetwork(
        EngineConfig(n_ports=8, scheduler=SAFC),
        TrafficSpec(mode="bursty", size_mode="variable", load=0.1,
                    volume_bytes=20_000))
    polls = 0

    def counting(poll):
        def wrapped():
            nonlocal polls
            polls += 1
            return poll()
        return wrapped

    for source in network.sources:
        source.poll = counting(source.poll)
    report = network.run()
    report.verify()
    assert report.drained
    assert report.generated_cells < polls < 0.3 * 8 * report.slots_run


@pytest.mark.parametrize("scheduler", [ISLIP, SAFC])
@pytest.mark.parametrize("n_ports,volume", [(8, 20_000), (32, 12_000)])
@pytest.mark.parametrize("channel_buffer", [None, 1, 2])
def test_every_arbitration_has_a_request_and_matches_one(scheduler, n_ports,
                                                          volume,
                                                          channel_buffer):
    """The slot loop arbitrates exactly while its count of queued cells
    is positive, and takes an empty matching for a stall.  Both rest on
    the count agreeing with the request masks, and on either arbiter
    pairing at least one output that has a request.  Check both on
    every call, in drained runs and in runs cut at half their length."""
    def build(max_slots=None):
        return StarNetwork(
            EngineConfig(n_ports=n_ports, scheduler=scheduler,
                         channel_buffer=channel_buffer, max_slots=max_slots),
            TrafficSpec(load=1.0, volume_bytes=volume))

    def run(network):
        match = network.scheduler.match
        calls = 0

        def checked(out_requests):
            nonlocal calls
            assert any(out_requests)
            pairs = match(out_requests)
            assert pairs
            calls += 1
            return pairs
        network.scheduler.match = checked
        report = network.run()
        report.verify()
        assert calls > CHECK_INTERVAL
        return report

    drained = run(build())
    assert drained.drained and drained.pauses
    cut = run(build(drained.slots_run // 2))
    assert not cut.drained and cut.in_flight_cells


def test_a_capped_host_polls_on_a_hand_derived_schedule():
    """A 2-port star with ``channel_buffer`` = 1.  Host 0 has a cell for
    output 1 at every poll.  Host 1 reports one idle slot at every poll,
    so it polls every slot, after host 0: its poll count at host 0's
    poll is the slot number.  Bank 0 posts a pause at its first enqueue
    (slot 7), which lands at slot 14, and an unpause at its 14th
    dequeue (slot 20, the last cell in flight), which lands at slot 28.

    Host 0 sends each cell in the slot it polls until slot 14.  It
    stages the cell of slot 14 behind the pause; the cell of slot 15
    overfills the channel, so host 0 stops polling.  Slot 28's send
    takes the cell of slot 14 and brings the channel back to the cap,
    and from slot 29 host 0 polls, and sends, every slot."""
    network = StarNetwork(
        EngineConfig(n_ports=2, scheduler=SAFC, channel_buffer=1,
                     max_slots=40),
        TrafficSpec())
    clock = 0
    polled = []
    seqs = itertools.count()

    def cells():
        polled.append(clock)
        return (0, 1, next(seqs), CELL_PAYLOAD_BYTES, True)

    def ticks():
        nonlocal clock
        clock += 1
        return 1

    bank = network.banks[0]
    enqueue, dequeue = bank.enqueue, bank.dequeue
    counts = {"enqueue": 0, "dequeue": 0}

    def pausing(channel, item):
        counts["enqueue"] += 1
        if counts["enqueue"] == 1:
            network.posted.append((0, 1, True))
        return enqueue(channel, item)

    def unpausing(channel):
        counts["dequeue"] += 1
        if counts["dequeue"] == 14:
            network.posted.append((0, 1, False))
        return dequeue(channel)

    network.sources[0].poll = cells
    network.sources[1].poll = ticks
    bank.enqueue, bank.dequeue = pausing, unpausing
    report = network.run()
    report.verify()
    assert polled == [*range(16), *range(29, 40)]
    # the cell of slot 39 waits in its channel behind the one of slot 38
    assert report.staged_cells == 1


@pytest.mark.parametrize("scheduler,max_slots,digest", [
    (ISLIP, None,
     "f426793cf38a5babd45049a93f6c81d7cfd2184fe8b4101c1c4190699e1c450e"),
    (SAFC, None,
     "29a00e6aa95353c02170077d1dedb232d83a42686a82aab216a581a0416ecdb0"),
    (ISLIP, 30_000,
     "c8fe59665a5295959d6e95959bfbccc7e2ae27733491e55731905b7b2b4478b3"),
    (SAFC, 30_000,
     "7b9eebec281fb7d668cab9bea0f9440fda4496c93c917bc0d663ceea75b4750b"),
])
def test_empty_network_skips_to_its_next_arrival(monkeypatch, scheduler,
                                                 max_slots, digest):
    """At load 1e-4 the network is empty with no source due for most of
    the run, and the slot loop jumps to the next arrival instead of
    passing each such slot; a run cut short stops at ``max_slots``,
    which falls in such a stretch.  The jump's check of the control
    ring is the engine's only call of ``any``, made once per pass over
    an empty network, so counting those calls bounds such passes.
    The report is the one recorded when every slot was passed."""
    calls = 0

    def counting(iterable):
        nonlocal calls
        calls += 1
        return any(iterable)
    monkeypatch.setattr(engine, "any", counting, raising=False)
    report = run_star(
        EngineConfig(n_ports=4, scheduler=scheduler, max_slots=max_slots),
        TrafficSpec(load=1e-4, volume_bytes=512))
    assert report.slots_run == (max_slots or 67_288)
    assert calls < report.slots_run // 50
    assert hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True)
                          .encode()).hexdigest() == digest


class TestMemory:
    """A star run holds its cells, not its port pairs: each of the 2n²
    VOQs and staging channels starts as an empty list, so neither the
    built network nor a saturated run pays a fixed block per pair."""

    CONFIG = EngineConfig(n_ports=32)
    TRAFFIC = TrafficSpec(load=1.0, volume_bytes=4_000)

    def test_a_built_32_port_network_is_small(self):
        tracemalloc.start()
        try:
            network = StarNetwork(self.CONFIG, self.TRAFFIC)
            built, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(network.banks) == 32
        assert built < 400_000

    def test_a_saturated_32_port_run_peaks_under_a_megabyte(self):
        tracemalloc.start()
        try:
            report = run_star(self.CONFIG, self.TRAFFIC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.drained and report.delivered_cells == 32 * 31 * 16
        assert peak < 1_000_000

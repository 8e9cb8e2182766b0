"""Star-network engine: floor, conservation, determinism, metrics."""

import dataclasses
import hashlib
import itertools
import json
import random
from collections import deque

import pytest

from cellswitch.codec import CELL_PAYLOAD_BYTES, FRAME_BYTES, MAX_SWITCH_PORTS
from cellswitch.engine import (
    DEFAULT_OFF_THRESHOLD,
    DEFAULT_ON_THRESHOLD,
    ISLIP,
    SAFC,
    EngineConfig,
    MetricsReport,
    StarNetwork,
    run_star,
)
from cellswitch.errors import ConfigError, SimInvariantError
from cellswitch.traffic import TrafficSpec


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
            EngineConfig(n_ports=8, channel_buffer=0)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, uplink_delay=0)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, egress_delay=-1)

    def test_port_count_bounded_by_selector_width(self):
        # Selector 255 is broadcast, so unicast selectors 0..254
        # address at most 256 ports.  Only the config is built here.
        assert MAX_SWITCH_PORTS == 256
        EngineConfig(n_ports=256)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=257)

    def test_pause_headroom_guard(self):
        # With 7-slot links a pause fires at depth on+1 and 13 more
        # cells can land; capacity 24 admits on <= 10 and nothing more.
        EngineConfig(n_ports=8, on_threshold=10, off_threshold=1)
        with pytest.raises(ConfigError):
            EngineConfig(n_ports=8, on_threshold=11, off_threshold=1)

    def test_derived_quantities(self):
        config = EngineConfig(n_ports=8)
        assert config.fc_rtt() == 16
        assert config.pause_exposure() == 13
        assert config.voq_capacity() == 24
        assert config.latency_floor() == 18
        assert (config.on_threshold, config.off_threshold) == (
            DEFAULT_ON_THRESHOLD, DEFAULT_OFF_THRESHOLD)

    def test_custom_delays(self):
        config = EngineConfig(n_ports=4, uplink_delay=3, downlink_delay=2,
                              egress_delay=0, on_threshold=5,
                              off_threshold=2)
        assert config.fc_rtt() == 7
        assert config.pause_exposure() == 4
        assert config.voq_capacity() == 11
        assert config.latency_floor() == 6


def one_cell(src, dst):
    """A one-cell packet as a traffic cell record."""
    return (src, dst, 0, CELL_PAYLOAD_BYTES, True)


class ScriptSource:
    """Deterministic source emitting a prescribed cell per poll."""

    def __init__(self, cells):
        self._cells = deque(cells)

    @property
    def exhausted(self):
        return not self._cells

    def poll(self):
        return self._cells.popleft() if self._cells else None


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
        assert report.last_delivery == report.first_injection + 18

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
        assert report.order_violations == 0
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

    def test_verify_flags_doctored_reports(self):
        report = small_run(n_ports=4, load=0.4, volume=5_000)
        report.order_violations = 1
        with pytest.raises(SimInvariantError):
            report.verify()
        report.order_violations = 0
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

    def test_max_slots_cuts_run_short(self):
        config = EngineConfig(n_ports=8, max_slots=400)
        traffic = TrafficSpec(load=1.0, volume_bytes=1_000_000)
        report = StarNetwork(config, traffic).run()
        report.verify()  # conservation counts staged and in-flight cells
        assert not report.drained
        assert report.slots_run == 400

    def test_channel_buffer_one_still_lossless(self):
        report = small_run(n_ports=4, load=0.8, volume=10_000,
                           channel_buffer=1)
        assert report.drained
        assert report.generated_cells == report.delivered_cells
        assert report.order_violations == 0


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
        delivered_wire_bytes=delivered * FRAME_BYTES, first_injection=0,
        last_delivery=max(hist), first_generation=0, last_generation=0,
        pauses=0, unpauses=0, peak_voq_occupancy=0, order_violations=0,
        fabric_checks=0, latency_hist=hist)


class TestPercentiles:
    def test_single_sample(self):
        report = report_with({18: 1})
        for p in (1, 50, 75, 90, 95, 99, 100):
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
            for p in (1, 10, 25, 50, 75, 90, 95, 99, 100):
                rank = -(-p * len(samples) // 100)  # ceil, 1-based
                assert report.percentile(p) == ordered[rank - 1], \
                    f"p{p} of {len(samples)} samples"

    def test_summary_is_monotone(self):
        report = small_run(n_ports=8, load=0.9, volume=20_000)
        summary = report.latency_summary()
        assert list(summary) == sorted(summary)
        assert summary[0] == 18

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
        assert data["latency_min_p50_p75_p90_p95_p99_max"] == \
            report.latency_summary()


class TestByteIdentity:
    """Pins every reported figure of a grid of small runs, so a change
    meant to keep results identical is checked to do so."""

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
                report.last_generation, report.first_injection,
                report.last_delivery]).encode())
        assert digest.hexdigest() == self.DIGEST

    # Recorded on the engine with per-port link rings and deques.
    WIDE_DIGEST = (
        "518950b09201e3aaaa1546dfc6d61cb1fc687f2f3c7d12b3a1e45caf27801137")

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

"""Fabric network: sorter correctness, routing equivalence, detection."""

import itertools
import random

import pytest

from cellswitch.errors import ConfigError, SimInvariantError
from cellswitch.fabric import (
    CHECK_INTERVAL,
    SortRouteFabric,
    omega_shuffle,
    sorter_stages,
)


def apply_sort(stages, values):
    arr = list(values)
    for stage in stages:
        for lo, hi, asc in stage:
            if (arr[lo] > arr[hi]) == asc:
                arr[lo], arr[hi] = arr[hi], arr[lo]
    return arr


def partial_maps(n):
    """Every assignment of distinct outputs to a subset of inputs."""
    for m in range(n + 1):
        for ins in itertools.combinations(range(n), m):
            for outs in itertools.permutations(range(n), m):
                d = [None] * n
                for i, o in zip(ins, outs):
                    d[i] = o
                yield d


class TestSorterNetwork:
    @pytest.mark.parametrize("width,n_stages", [(2, 1), (4, 3), (8, 6),
                                                (16, 10), (32, 15)])
    def test_stage_and_comparator_counts(self, width, n_stages):
        stages = sorter_stages(width)
        assert len(stages) == n_stages
        assert all(len(s) == width // 2 for s in stages)
        for stage in stages:
            touched = [p for comp in stage for p in comp[:2]]
            assert len(set(touched)) == len(touched)  # parallel-safe

    @pytest.mark.parametrize("width", [2, 4, 8, 16, 32])
    def test_sorts_random_inputs(self, width):
        rng = random.Random(width)
        stages = sorter_stages(width)
        for _ in range(200):
            vals = [rng.randrange(8) for _ in range(width)]
            assert apply_sort(stages, vals) == sorted(vals)

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            sorter_stages(6)
        with pytest.raises(ConfigError):
            sorter_stages(1)


class TestShuffle:
    def test_width_eight_rotation(self):
        assert omega_shuffle(8) == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_is_permutation(self):
        for width in (2, 4, 16, 64):
            assert sorted(omega_shuffle(width)) == list(range(width))


class TestStructuralRouting:
    def test_identity_and_reversal(self):
        f = SortRouteFabric(8)
        ident = list(range(8))
        assert f.route_structural(ident) == ident
        rev = list(reversed(range(8)))
        assert f.route_structural(rev) == rev  # out[j]=i with i=7-j

    def test_single_cell(self):
        f = SortRouteFabric(8)
        dests = [None] * 8
        dests[3] = 6
        out = f.route_structural(dests)
        assert out == [None, None, None, None, None, None, 3, None]

    def test_exhaustive_equivalence_width_four(self):
        f = SortRouteFabric(4)
        count = 0
        for dests in partial_maps(4):
            assert f.route_structural(dests) == f.route_crossbar(dests)
            count += 1
        assert count == 209

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_random_equivalence(self, n):
        rng = random.Random(0xFAB + n)
        f = SortRouteFabric(n)
        for _ in range(1500):
            outs = list(range(n))
            rng.shuffle(outs)
            m = rng.randrange(n + 1)
            dests = [None] * n
            for i in sorted(rng.sample(range(n), m)):
                dests[i] = outs.pop()
            assert f.route_structural(dests) == f.route_crossbar(dests)

    def test_non_power_of_two_port_count(self):
        f = SortRouteFabric(6)
        assert f.width == 8
        dests = [5, None, 0, 1, None, 3]
        assert f.route_structural(dests) == [2, 3, None, 5, None, 0]

    def test_duplicate_destination_detected_both_paths(self):
        f = SortRouteFabric(4)
        with pytest.raises(SimInvariantError):
            f.route_structural([2, None, 2, None])
        with pytest.raises(SimInvariantError):
            f.route_crossbar([2, None, 2, None])

    def test_out_of_range_destination(self):
        f = SortRouteFabric(4)
        with pytest.raises(ConfigError):
            f.route_structural([0, 4, None, None])


class TestCheckedMode:
    def test_structural_replay_every_interval(self):
        f = SortRouteFabric(8)
        for _ in range(3 * CHECK_INTERVAL - 1):
            f.route([3, 1, None, 7, None, None, 0, 5])
        assert f.structural_checks == 2
        f.route([3, 1, None, 7, None, None, 0, 5])
        assert f.slots_routed == 3 * CHECK_INTERVAL
        assert f.structural_checks == 3

    def test_divergence_raises(self, monkeypatch):
        f = SortRouteFabric(4)
        monkeypatch.setattr(f, "route_structural",
                            lambda dests: [None] * 4)
        for _ in range(CHECK_INTERVAL - 1):
            f.route([1, 0, None, None])
        with pytest.raises(SimInvariantError):
            f.route([1, 0, None, None])

    def test_mode_validation(self):
        for n_ports in (0, 1):
            with pytest.raises(ConfigError):
                SortRouteFabric(n_ports)
        f = SortRouteFabric(32)
        assert (f.slots_routed, f.structural_checks) == (0, 0)
        # The report's fabric_checks counts replays at this fixed cadence.
        assert CHECK_INTERVAL == 256

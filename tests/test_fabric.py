"""Fabric network: sorter correctness, routing equivalence, detection."""

import itertools
import random

import pytest

from cellswitch.errors import SimInvariantError
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
    """Every matching of a subset of inputs to distinct outputs, as the
    (input, output) pairs an arbiter returns."""
    for m in range(n + 1):
        for ins in itertools.combinations(range(n), m):
            for outs in itertools.permutations(range(n), m):
                yield list(zip(ins, outs))


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
        assert f.route_structural(list(zip(ident, ident))) == ident
        rev = list(reversed(range(8)))
        # out[j]=i with i=7-j
        assert f.route_structural(list(zip(ident, rev))) == rev

    def test_single_cell(self):
        f = SortRouteFabric(8)
        out = f.route_structural([(3, 6)])
        assert out == [None, None, None, None, None, None, 3, None]

    def test_exhaustive_equivalence_width_four(self):
        f = SortRouteFabric(4)
        count = 0
        for pairs in partial_maps(4):
            assert f.route_structural(pairs) == f.route_crossbar(pairs)
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
            pairs = [(i, outs.pop()) for i in sorted(rng.sample(range(n), m))]
            assert f.route_structural(pairs) == f.route_crossbar(pairs)

    def test_pair_order_does_not_matter(self):
        f = SortRouteFabric(8)
        pairs = [(0, 3), (2, 7), (5, 0), (6, 1)]
        out = f.route_crossbar(pairs)
        assert f.route_structural(pairs[::-1]) == out
        assert f.route_crossbar(pairs[::-1]) == out

    def test_non_power_of_two_port_count(self):
        f = SortRouteFabric(6)
        assert f.width == 8
        pairs = [(0, 5), (2, 0), (3, 1), (5, 3)]
        assert f.route_structural(pairs) == [2, 3, None, 5, None, 0]

    @pytest.mark.parametrize("n, pairs, stage, element", [
        (4, [(0, 2), (2, 2)], 1, 1),
        (8, [(0, 5), (1, 5)], 2, 2),
        (32, [(3, 17), (30, 17), (4, 1)], 4, 8),
    ])
    def test_duplicate_destination_detected_both_paths(self, n, pairs,
                                                       stage, element):
        # Here the two cells for one output meet in the last steering
        # stage, in the element that holds both lanes of that output.
        f = SortRouteFabric(n)
        with pytest.raises(SimInvariantError, match=(
                f"^element collision at steering stage {stage}, "
                f"element {element}$")):
            f.route_structural(pairs)
        with pytest.raises(SimInvariantError):
            f.route_crossbar(pairs)

    def test_duplicate_input_detected(self):
        # An arbiter whose outputs pull independently (SAFC) may pair
        # one input with two outputs; one input line cannot carry both
        # cells.  The oracle refuses such a matching, so a replay does.
        f = SortRouteFabric(4)
        with pytest.raises(SimInvariantError):
            f.route_crossbar([(1, 0), (1, 3)])
        f.slots_routed = CHECK_INTERVAL - 1
        with pytest.raises(SimInvariantError):
            f.route([(1, 0), (1, 3)])


class TestCheckedMode:
    PAIRS = [(0, 3), (1, 1), (3, 7), (6, 0), (7, 5)]

    def test_structural_replay_every_interval(self):
        f = SortRouteFabric(8)
        for _ in range(3 * CHECK_INTERVAL - 1):
            assert f.route(self.PAIRS) is None
        assert f.structural_checks == 2
        f.route(self.PAIRS)
        assert f.slots_routed == 3 * CHECK_INTERVAL
        assert f.structural_checks == 3

    def test_divergence_raises(self, monkeypatch):
        f = SortRouteFabric(4)
        monkeypatch.setattr(f, "route_structural",
                            lambda pairs: [None] * 4)
        for _ in range(CHECK_INTERVAL - 1):
            f.route([(0, 1), (1, 0)])
        with pytest.raises(SimInvariantError):
            f.route([(0, 1), (1, 0)])

    def test_only_replay_slots_route(self):
        # Off the cadence a slot is only counted, even a bad matching;
        # the arbiters' own tests guarantee the matchings.
        f = SortRouteFabric(4)
        for _ in range(CHECK_INTERVAL - 1):
            f.route([(0, 2), (2, 2)])
        with pytest.raises(SimInvariantError):
            f.route([(0, 2), (2, 2)])

    def test_mode_validation(self):
        f = SortRouteFabric(32)
        assert (f.slots_routed, f.structural_checks) == (0, 0)
        # The report's fabric_checks counts replays at this fixed cadence.
        assert CHECK_INTERVAL == 256

"""Arbiter behavior: round-robin picks, matching validity, desync,
and agreement with a two-pass reference iSLIP and a per-output scan
reference SAFC."""

import itertools
import random
from fractions import Fraction

import pytest

from cellswitch.config import EngineConfig, TrafficSpec
from cellswitch.engine import StarNetwork
from cellswitch.scheduler import IslipScheduler, SafcScheduler


def brute_force_pick(mask: int, start: int, n: int) -> int:
    for off in range(n):
        idx = (start + off) % n
        if mask >> idx & 1:
            return idx
    raise AssertionError("empty mask")


def reference_islip_match(out_requests, n, iterations, grant_ptr,
                          accept_ptr):
    """The textbook two-pass iSLIP round: every unmatched output grants,
    then every granted input accepts from its set of granting outputs.
    Moves ``grant_ptr`` and ``accept_ptr`` in place, as the scheduler
    does."""
    grant_buf = [0] * n
    unmatched_in = (1 << n) - 1
    cand_mask = 0
    for j in range(n):
        if out_requests[j]:
            cand_mask |= 1 << j
    pairs = []
    for iteration in range(iterations):
        granted = 0  # inputs holding at least one grant
        m = cand_mask
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            req = out_requests[j] & unmatched_in
            if req:
                start = grant_ptr[j]
                hi = req >> start
                if hi:
                    i = start + (hi & -hi).bit_length() - 1
                else:
                    i = (req & -req).bit_length() - 1
                grant_buf[i] |= low
                granted |= 1 << i
        if not granted:
            break
        while granted:
            ibit = granted & -granted
            granted ^= ibit
            i = ibit.bit_length() - 1
            omask = grant_buf[i]
            grant_buf[i] = 0
            start = accept_ptr[i]
            hi = omask >> start
            if hi:
                j = start + (hi & -hi).bit_length() - 1
            else:
                j = (omask & -omask).bit_length() - 1
            pairs.append((i, j))
            unmatched_in &= ~ibit
            cand_mask &= ~(1 << j)
            if iteration == 0:
                grant_ptr[j] = (i + 1) % n
                accept_ptr[i] = (j + 1) % n
    return pairs


def reference_safc_match(out_requests, n, pointer):
    """Every requesting output, in ascending order, serves the first
    requesting input at or after its pointer, which then moves one past
    that input.  Moves ``pointer`` in place, as the scheduler does."""
    pairs = []
    for j in range(n):
        if out_requests[j]:
            i = brute_force_pick(out_requests[j], pointer[j], n)
            pairs.append((i, j))
            pointer[j] = (i + 1) % n
    return pairs


class TestIslipMatchesReference:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 31, 32, 33, 64, 65, 256])
    def test_same_pairs_and_pointers_over_random_sequences(self, n):
        """The same set of pairs, and the same pointers, after every
        call of a sequence that carries the pointer state from call to
        call.  A matching promises no pair order, so the pairs are
        compared sorted, which also catches a repeated pair."""
        rng = random.Random(0x151 + n)
        calls = max(12, 2400 // n)
        for iterations in (1, 2, 3, 4):
            s = IslipScheduler(n, iterations)
            grant_ptr = [rng.randrange(n) for _ in range(n)]
            accept_ptr = [rng.randrange(n) for _ in range(n)]
            s.grant_ptr[:] = grant_ptr
            s.accept_ptr[:] = accept_ptr
            for call in range(calls):
                density = rng.choice([0.05, 0.2, 0.5, 0.8, 1.0])
                reqs = [
                    sum(1 << i for i in range(n) if rng.random() < density)
                    for _ in range(n)
                ]
                expected = reference_islip_match(reqs, n, iterations,
                                                 grant_ptr, accept_ptr)
                assert sorted(s.match(reqs)) == sorted(expected), \
                    (iterations, call)
                assert s.grant_ptr == grant_ptr, (iterations, call)
                assert s.accept_ptr == accept_ptr, (iterations, call)


class TestIslipExamples:
    def test_single_request(self):
        s = IslipScheduler(8, 3)
        out_req = [0] * 8
        out_req[7] = 0b100  # input 2 wants output 7
        assert s.match(out_req) == [(2, 7)]
        assert s.grant_ptr[7] == 3
        assert s.accept_ptr[2] == 0  # (7 + 1) % 8

    def test_diagonal_all_matched_first_round(self):
        s = IslipScheduler(4, 3)
        out_req = [1 << i for i in range(4)]
        assert sorted(s.match(out_req)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert s.grant_ptr == [1, 2, 3, 0]
        assert s.accept_ptr == [1, 2, 3, 0]

    def test_all_ones_single_iteration_ramps_up(self):
        s = IslipScheduler(4, iterations=1)
        reqs = [0b1111] * 4
        assert sorted(s.match(reqs)) == [(0, 0)]
        assert sorted(s.match(reqs)) == [(0, 1), (1, 0)]

    def test_all_ones_n_iterations_fills_immediately(self):
        s = IslipScheduler(4, iterations=4)
        pairs = s.match([0b1111] * 4)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        # only the first-iteration accept moved pointers
        assert s.grant_ptr == [1, 0, 0, 0]
        assert s.accept_ptr == [1, 0, 0, 0]

    def test_no_requests(self):
        s = IslipScheduler(4, 3)
        assert s.match([0, 0, 0, 0]) == []

    def test_config_validation(self):
        # One round count at every port count: the engine's default.
        for n in (32, 33, 64):
            config = EngineConfig(n_ports=n)
            assert config.islip_iterations == 3
            assert StarNetwork(config, TrafficSpec()).scheduler.iterations \
                == 3


class TestIslipFoldExits:
    """Hand-built matrices for the exits of the folded grant pass.  A
    pass visits only the outputs the previous pass saw refused, and a
    pass that refuses nothing is the last.  Each case checks the pairs
    and both pointer lists against the reference and lists the outputs
    each call reads the request mask of."""

    class Reads(list):
        """Request masks that log the outputs whose mask is read."""

        def __init__(self, masks):
            super().__init__(masks)
            self.log = []

        def __getitem__(self, j):
            self.log.append(j)
            return super().__getitem__(j)

    def check(self, n, requesters, accept_ptr, reads):
        """``requesters`` maps each output to the inputs requesting it;
        every grant pointer starts at 0."""
        reqs = [sum(1 << i for i in requesters.get(j, ())) for j in range(n)]
        s = IslipScheduler(n, iterations=3)
        s.accept_ptr[:] = accept_ptr
        grant_ptr, accept_ptr = [0] * n, list(accept_ptr)
        masks = self.Reads(reqs)
        pairs = s.match(masks)
        assert sorted(pairs) == sorted(
            reference_islip_match(reqs, n, 3, grant_ptr, accept_ptr))
        assert s.grant_ptr == grant_ptr
        assert s.accept_ptr == accept_ptr
        assert masks.log == reads
        return sorted(pairs)

    def test_a_pass_that_refuses_nothing_is_the_last(self):
        # Every grant is accepted in the first pass.
        assert self.check(4, {0: [0], 1: [1], 2: [2]}, [0] * 4,
                          [0, 1, 2]) == [(0, 0), (1, 1), (2, 2)]
        # Input 0 takes output 0 and refuses 1 and 2.  The second pass
        # finds output 1 without an unmatched requester and output 2
        # accepted, refuses nothing, and so is the last: output 1 is
        # not read a third time.
        assert self.check(3, {0: [0], 1: [0], 2: [0, 1]}, [0] * 3,
                          [0, 1, 2, 1, 2]) == [(0, 0), (1, 2)]

    def test_an_output_whose_requesters_were_taken_drops_out(self):
        # Input 0 takes output 0 and refuses 1, 2 and 3.  In the second
        # pass output 2, requested only by input 0, grants nothing, and
        # input 1 takes output 1 and refuses 3.  The third pass visits
        # output 3 alone: output 2 has dropped out.
        assert self.check(5, {0: [0], 1: [0, 1], 2: [0], 3: [0, 1]},
                          [0] * 5, [0, 1, 2, 3, 1, 2, 3, 3]) \
            == [(0, 0), (1, 1)]

    def test_a_switched_away_output_grants_again_in_order(self):
        # Input 0 holds output 0, input 1 refuses output 2, then input 0
        # switches to output 3 (its pointer) and refuses output 0, so
        # the second pass visits outputs 0 and 2 in ascending order,
        # both granting input 2, which keeps the lower one.  Output 2,
        # refused again, has no unmatched requester in the third pass.
        assert self.check(4, {0: [0, 2], 1: [1], 2: [1, 2], 3: [0]},
                          [3, 0, 0, 0], [0, 1, 2, 3, 0, 2, 2]) \
            == [(0, 3), (1, 1), (2, 0)]


class TestIslipMatchingValidity:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_random_matrices_give_conflict_free_requested_pairs(self, n):
        rng = random.Random(0x5EED + n)
        s = IslipScheduler(n, 3)
        for trial in range(300):
            density = rng.choice([0.05, 0.3, 0.7, 1.0])
            reqs = [
                sum(1 << i for i in range(n) if rng.random() < density)
                for _ in range(n)
            ]
            pairs = s.match(reqs)
            ins = [i for i, _ in pairs]
            outs = [j for _, j in pairs]
            assert len(set(ins)) == len(ins)
            assert len(set(outs)) == len(outs)
            for i, j in pairs:
                assert reqs[j] >> i & 1, (trial, i, j)

    @pytest.mark.parametrize("n", [4, 8])
    def test_n_iterations_yield_maximal_matching(self, n):
        rng = random.Random(0xACE + n)
        for trial in range(300):
            s = IslipScheduler(n, iterations=n)
            s.grant_ptr = [rng.randrange(n) for _ in range(n)]
            s.accept_ptr = [rng.randrange(n) for _ in range(n)]
            reqs = [rng.randrange(1 << n) for _ in range(n)]
            pairs = s.match(reqs)
            free_in = set(range(n)) - {i for i, _ in pairs}
            free_out = set(range(n)) - {j for _, j in pairs}
            for j in free_out:
                assert not any(reqs[j] >> i & 1 for i in free_in), \
                    "unmatched request between two free ports"

    def test_all_ones_maximal_for_every_pointer_state(self):
        n = 4
        reqs = [0b1111] * n
        for state in itertools.product(range(n), repeat=2 * n):
            s = IslipScheduler(n, iterations=n)
            s.grant_ptr = list(state[:n])
            s.accept_ptr = list(state[n:])
            assert len(s.match(reqs)) == n


class TestIslipDesynchronization:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_saturated_uniform_load_converges_to_tdm(self, n):
        """Single-iteration arbitration under all-ones load ramps up
        one extra match per slot, then serves every (input, output)
        pair exactly once per n slots."""
        s = IslipScheduler(n, iterations=1)
        reqs = [(1 << n) - 1] * n
        sizes = [len(s.match(reqs)) for _ in range(2 * n)]
        assert sizes[:n] == list(range(1, n + 1))
        assert sizes[n:] == [n] * n
        window = [s.match(reqs) for _ in range(3 * n)]
        assert all(len(p) == n for p in window)
        for k in range(2 * n):
            chunk = window[k:k + n]
            for i in range(n):
                outs = sorted(j for p in chunk for ii, j in p if ii == i)
                assert outs == list(range(n))


class TestSafc:
    @pytest.mark.parametrize("n", [2, 5, 32, 33])
    def test_same_pairs_and_pointers_over_random_sequences(self, n):
        rng = random.Random(0x5AFC + n)
        s = SafcScheduler(n)
        pointer = [rng.randrange(n) for _ in range(n)]
        s.pointer[:] = pointer
        for call in range(max(50, 3000 // n)):
            density = rng.choice([0.0, 0.05, 0.2, 0.5, 1.0])
            reqs = [sum(1 << i for i in range(n) if rng.random() < density)
                    for _ in range(n)]
            assert s.match(reqs) == reference_safc_match(reqs, n, pointer), \
                call
            assert s.pointer == pointer, call

    def test_pick_matches_wrapping_scan_exhaustively(self):
        # One output requesting: it serves the first requesting input
        # at or after its pointer, wrapping to the lowest one.
        n = 6
        for mask in range(1, 1 << n):
            for start in range(n):
                s = SafcScheduler(n)
                s.pointer[0] = start
                i = brute_force_pick(mask, start, n)
                assert s.match([mask] + [0] * (n - 1)) == [(i, 0)]
                assert s.pointer[0] == (i + 1) % n

    def test_contended_output_round_robins(self):
        s = SafcScheduler(4)
        req = [0, 0b1101, 0, 0]  # inputs 0, 2, 3 want output 1
        served = [s.match(req)[0][0] for _ in range(6)]
        assert served == [0, 2, 3, 0, 2, 3]

    def test_outputs_pull_same_input_concurrently(self):
        s = SafcScheduler(4)
        pairs = s.match([0b1111] * 4)
        assert pairs == [(0, 0), (0, 1), (0, 2), (0, 3)]
        pairs = s.match([0b1111] * 4)
        assert pairs == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_work_conserving_on_random_matrices(self):
        rng = random.Random(0xBEEF)
        for n in (4, 8, 16):
            s = SafcScheduler(n)
            for _ in range(200):
                reqs = [rng.randrange(1 << n) for _ in range(n)]
                pairs = s.match(reqs)
                outs = {j for _, j in pairs}
                assert len(pairs) == len(outs)
                for j in range(n):
                    assert (j in outs) == bool(reqs[j])
                for i, j in pairs:
                    assert reqs[j] >> i & 1


class TestExhaustiveThreePorts:
    """Every state a 3-port arbiter can reach from zero pointers.

    A state is the arbiter's pointers plus the request matrix over the
    six VOQs of a 3-port star (an input never queues for its own
    output).  From a state, ``match`` picks the pairs and moves the
    pointers; then any request bit may be set by an arrival, and a bit
    may clear only if its VOQ was just served (it stays set while the
    VOQ holds more cells).  The search checks, over every reachable
    state, how many consecutive slots VOQ (0, 1) can stay requested,
    counting the slot that serves it, and that no cycle of states
    leaves it requested for ever.
    """

    N = 3
    VOQS = sum(1 << 3 * j + i for j in range(3) for i in range(3) if i != j)
    WATCHED = 1 << 3 * 1 + 0    # input 0's VOQ for output 1

    @staticmethod
    def raised(base: int, free: int):
        """``base`` with every subset of the bits of ``free`` set."""
        extra = free
        while True:
            yield base | extra
            if not extra:
                return
            extra = (extra - 1) & free

    def search(self, scheduler, pointers):
        """Map every reachable (pointers, requests) state to its
        (pointers after, requests kept, requests served); requests bit
        3 * j + i is input i's VOQ for output j."""
        def step(state):
            scheduler.set_pointers(state[0])
            requests = state[1]
            pairs = scheduler.match([requests >> 3 * j & 7
                                     for j in range(self.N)])
            served = sum(1 << 3 * j + i for i, j in pairs)
            return scheduler.get_pointers(), requests & ~served, served

        moves = {}
        todo = [(pointers, 0)]
        while todo:
            state = todo.pop()
            if state in moves:
                continue
            moves[state] = after, kept, _ = step(state)
            todo.extend((after, requests) for requests
                        in self.raised(kept, self.VOQS & ~kept))
        return moves

    def longest_wait(self, moves) -> int:
        """The most consecutive slots VOQ (0, 1) stays requested,
        counting the slot that serves it; raises on a starvation
        cycle, a loop of states that never serves it."""
        waits: dict = {}
        path: set = set()

        def wait(state):
            if state in path:
                raise AssertionError(f"starvation cycle through {state}")
            if state not in waits:
                after, kept, served = moves[state]
                if served & self.WATCHED:
                    waits[state] = 1
                else:
                    path.add(state)
                    waits[state] = 1 + max(
                        wait((after, requests)) for requests
                        in self.raised(kept, self.VOQS & ~kept))
                    path.remove(state)
            return waits[state]

        return max(wait(state) for state in moves
                   if state[1] & self.WATCHED)

    class Islip(IslipScheduler):
        def set_pointers(self, pointers):
            self.grant_ptr[:] = pointers[:3]
            self.accept_ptr[:] = pointers[3:]

        def get_pointers(self):
            return (*self.grant_ptr, *self.accept_ptr)

    class Safc(SafcScheduler):
        def set_pointers(self, pointers):
            self.pointer[:] = pointers

        def get_pointers(self):
            return tuple(self.pointer)

    def test_safc_serves_a_requested_voq_within_n_minus_1_slots(self):
        moves = self.search(self.Safc(self.N), (0,) * 3)
        assert len(moves) == 768
        assert self.longest_wait(moves) == self.N - 1

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_islip_serves_a_requested_voq_within_n_minus_1_squared_slots(
            self, iterations):
        moves = self.search(self.Islip(self.N, iterations), (0,) * 6)
        assert len(moves) == 6_528
        assert self.longest_wait(moves) == (self.N - 1) ** 2


class TestIslipPointerMap:
    """iSLIP's pointer map under persistent requests, exhaustively.

    With every request bit held set, a slot's matching depends only on
    the 2n pointers, so ``match`` is a map on the n ** (2n) pointer
    states and every state runs into one of its limit cycles.  A
    cycle's throughput is its pairs per port-slot.  A star has no
    self-traffic, so its saturated request matrix has an empty
    diagonal, and then iSLIP's pointers need not desynchronize: some
    cycles stay below 1.  With the diagonal requested every cycle
    reaches 1.
    """

    @staticmethod
    def cycles(n, iterations, diagonal=False):
        """The throughput of every limit cycle of the pointer map, and
        of the one reached from zero pointers."""
        scheduler = IslipScheduler(n, iterations)
        full = (1 << n) - 1
        requests = [full if diagonal else full & ~(1 << j) for j in range(n)]
        states = list(itertools.product(range(n), repeat=2 * n))
        index = {state: k for k, state in enumerate(states)}
        after, pairs = [], []
        for state in states:
            scheduler.grant_ptr[:] = state[:n]
            scheduler.accept_ptr[:] = state[n:]
            pairs.append(len(scheduler.match(requests)))
            after.append(index[(*scheduler.grant_ptr, *scheduler.accept_ptr)])
        # Walk from each unvisited state; a walk that meets its own
        # trail has found a new cycle, and every state it passed leads
        # to the cycle it ends on.
        cycle_of = [None] * len(states)
        throughputs = []
        for start in range(len(states)):
            trail, on_trail = [], {}
            k = start
            while cycle_of[k] is None and k not in on_trail:
                on_trail[k] = len(trail)
                trail.append(k)
                k = after[k]
            if cycle_of[k] is None:  # a new cycle: trail[on_trail[k]:]
                loop = trail[on_trail[k]:]
                throughputs.append(Fraction(sum(pairs[m] for m in loop),
                                            n * len(loop)))
                for m in loop:
                    cycle_of[m] = len(throughputs) - 1
            for m in trail:
                if cycle_of[m] is None:
                    cycle_of[m] = cycle_of[k]
        return sorted(throughputs), throughputs[cycle_of[0]]

    @pytest.mark.parametrize("n, iterations, spectrum, from_zero", [
        (3, 1, [Fraction(2, 3)] * 2 + [1], Fraction(2, 3)),
        (3, 3, [Fraction(2, 3)] * 2 + [1], Fraction(2, 3)),
        (4, 1, [Fraction(3, 4)] * 5 + [1], Fraction(3, 4)),
        (4, 3, [Fraction(3, 4)] * 2 + [1] * 4, 1),
    ])
    def test_off_diagonal_limit_cycles(self, n, iterations, spectrum,
                                       from_zero):
        assert self.cycles(n, iterations) == (spectrum, from_zero)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_with_the_diagonal_every_cycle_is_full(self, n, iterations):
        spectrum, from_zero = self.cycles(n, iterations, diagonal=True)
        assert set(spectrum) == {1} and from_zero == 1

"""Virtual-output-queue bank: FIFO order, FC hysteresis, sizing."""

import random

import pytest

from cellswitch.codec import CELL_PAYLOAD_BYTES
from cellswitch.config import EngineConfig
from cellswitch.errors import SimInvariantError
from cellswitch.voq import VOQBank


def make_cell(tag: int) -> tuple:
    """A traffic cell record whose flow sequence number is ``tag``."""
    return (0, 1, tag, CELL_PAYLOAD_BYTES, True)


def make_bank(n_ports: int, capacity: int, on: int, off: int,
              port: int = 0, requests: list[int] | None = None) -> VOQBank:
    """A bank with its own request masks and control-word list."""
    return VOQBank(n_ports, capacity=capacity, on_threshold=on,
                   off_threshold=off,
                   requests=[0] * n_ports if requests is None else requests,
                   control=[], port=port)


def posted(bank: VOQBank, call, *args):
    """Run ``call(*args)`` on ``bank`` and return the control word it
    posted, or None; no call posts more than one."""
    before = len(bank.control)
    call(*args)
    words = bank.control[before:]
    assert len(words) <= 1, words
    return words[0] if words else None


class TestSizing:
    def test_reference_fabric_size(self):
        # 64 ports, 7/6-slot links: a pause fires at depth 10 + 1 and 12
        # more cells can land, so 23 = 10 + 1 + 12 cells per channel.
        config = EngineConfig(n_ports=64, uplink_delay=7, downlink_delay=6)
        assert config.pause_exposure() == 12
        per_channel = config.voq_capacity()
        per_port = per_channel * 63 * CELL_PAYLOAD_BYTES
        total = per_port * 64
        assert per_channel == 23
        assert per_port == 23 * 63 * 256 == 370_944
        assert total == 370_944 * 64 == 23_740_416
        assert 360 <= per_port / 1024 <= 365
        assert 22 <= total / 2**20 <= 24

    def test_capacity_is_pause_headroom(self):
        # on + 1 + exposure: 10 + 1 + 13 = 24 at the defaults, one less
        # per slot taken off a link, one more per step of the on
        # threshold.
        assert EngineConfig(n_ports=4).voq_capacity() == 24
        assert EngineConfig(n_ports=4, downlink_delay=6).voq_capacity() \
            == 23
        assert EngineConfig(n_ports=4, on_threshold=30).voq_capacity() \
            == 44


class TestFifoOrder:
    def test_cells_come_back_in_order(self):
        bank = make_bank(2, capacity=16, on=12, off=6)
        for tag in range(10):
            bank.enqueue(tag % 2, make_cell(tag))
        evens = [bank.dequeue(0)[2] for _ in range(5)]
        odds = [bank.dequeue(1)[2] for _ in range(5)]
        assert evens == [0, 2, 4, 6, 8]
        assert odds == [1, 3, 5, 7, 9]

    def test_dequeue_empty_raises(self):
        bank = make_bank(2, capacity=4, on=2, off=1)
        with pytest.raises(SimInvariantError):
            bank.dequeue(0)


PAUSE = (1, 0, True)     # the words port 1 posts for channel 0
UNPAUSE = (1, 0, False)


class TestFlowControlEvents:
    def setup_method(self):
        self.bank = make_bank(2, capacity=8, on=4, off=2, port=1)

    def fill(self, n):
        return [posted(self.bank, self.bank.enqueue, 0, make_cell(i))
                for i in range(n)]

    def drain(self, n):
        return [posted(self.bank, self.bank.dequeue, 0) for _ in range(n)]

    def test_pause_fires_only_on_upward_crossing(self):
        events = self.fill(8)
        assert events == [None] * 4 + [PAUSE] + [None] * 3
        # fifth enqueue, occupancy 5 > 4
        assert self.bank.paused_upstream[0]

    def test_unpause_fires_exactly_at_off_threshold(self):
        self.fill(8)
        events = self.drain(8)
        # occupancy 8 -> 2 on the sixth dequeue
        assert events == [None] * 5 + [UNPAUSE] + [None] * 2
        assert not self.bank.paused_upstream[0]

    def test_no_unpause_without_prior_pause(self):
        self.fill(3)  # never crosses on=4
        events = self.drain(3)
        assert events == [None, None, None]

    def test_repause_after_unpause(self):
        self.fill(5)
        self.drain(3)  # down to 2 -> unpause
        events = self.fill(3)  # 2 -> 5 crosses again
        assert events == [None, None, PAUSE]
        assert self.bank.control == [PAUSE, UNPAUSE, PAUSE]

    def test_no_second_pause_while_paused(self):
        self.fill(5)  # pause at 5
        self.bank.dequeue(0)  # 4, still paused (off=2 not reached)
        # back to 5
        assert posted(self.bank, self.bank.enqueue, 0, make_cell(99)) is None

    def test_overflow_raises(self):
        self.fill(8)
        with pytest.raises(SimInvariantError):
            self.bank.enqueue(0, make_cell(8))


class TestAlternationProperty:
    def test_events_alternate_and_match_shadow_model(self):
        """Random enqueue/dequeue mix against an independent FSM."""
        for seed in range(5):
            rng = random.Random(0xF0C + seed)
            bank = make_bank(6, capacity=12, on=6, off=3)
            occupancy = {0: 0, 2: 0, 5: 0}
            paused = {0: False, 2: False, 5: False}
            history = {0: [], 2: [], 5: []}
            tag = 0
            for _ in range(20_000):
                ch = rng.choice([0, 2, 5])
                can_enq = occupancy[ch] < 12
                do_enq = occupancy[ch] == 0 or (can_enq and rng.random() < 0.5)
                if do_enq:
                    word = posted(bank, bank.enqueue, ch, make_cell(tag))
                    tag += 1
                    occupancy[ch] += 1
                    expect = occupancy[ch] > 6 and not paused[ch]
                else:
                    word = posted(bank, bank.dequeue, ch)
                    occupancy[ch] -= 1
                    expect = occupancy[ch] == 3 and paused[ch]
                ev = word is not None
                assert ev is expect, (seed, ch, occupancy[ch])
                if ev:
                    assert word == (0, ch, do_enq)
                    paused[ch] = do_enq
                    history[ch].append(do_enq)
                assert len(bank.queues[ch]) == occupancy[ch]
            for ch, evs in history.items():
                assert evs, "scenario too quiet to exercise FC"
                assert evs[0] is True  # first event is always a pause
                for a, b in zip(evs, evs[1:]):
                    assert a != b  # strict alternation


class TestOccupancyFacts:
    def test_request_bits_and_peak_match_a_recount(self):
        """A seeded mix of enqueues, dequeues and refused overflows on
        one bank: after every call its bit in each shared request mask
        says whether that channel holds a cell, other inputs' bits are
        untouched, and its peak is the deepest recount seen."""
        rng = random.Random(0x50C)
        n, port, capacity = 6, 3, 5
        others = [rng.getrandbits(n) & ~(1 << port) for _ in range(n)]
        requests = list(others)
        bank = make_bank(n, capacity=capacity, on=3, off=1, port=port,
                         requests=requests)
        deepest = tag = 0
        for _ in range(5_000):
            ch = rng.randrange(n)
            depth = len(bank.queues[ch])
            if depth and rng.random() < 0.5:
                bank.dequeue(ch)
            elif depth == capacity:
                with pytest.raises(SimInvariantError, match="overflow"):
                    bank.enqueue(ch, make_cell(tag))
            else:
                bank.enqueue(ch, make_cell(tag))
                tag += 1
            deepest = max(deepest, *map(len, bank.queues))
            assert requests == [
                other | (bool(queue) << port)
                for other, queue in zip(others, bank.queues)]
            assert bank.peak == deepest
        assert deepest == capacity

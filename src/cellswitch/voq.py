"""Virtual output queues with on/off flow control.

Each switch input owns a bank of per-output-channel FIFO queues,
indexed by output port; the input's own slot is never used.  Crossing
the on-threshold on an enqueue asks the upstream device to pause that
one channel; draining back to the off-threshold asks it to resume.
Queues must never overflow: ``EngineConfig`` sizes them and checks
that the thresholds leave enough headroom for every cell already in
flight when the pause lands, so an overflow is a simulation bug and
aborts the run.  Queued items are opaque to the bank.
"""

from __future__ import annotations

from collections import deque

from .errors import ConfigError, SimInvariantError


class VOQBank:
    """Per-input bank of per-channel cell queues with FC hysteresis.

    Pause and unpause events strictly alternate per channel: a pause
    fires only on the upward crossing of the on-threshold while the
    channel is unpaused, an unpause only when a paused channel drains
    to exactly the off-threshold.
    """

    def __init__(self, n_ports: int, capacity: int,
                 on_threshold: int, off_threshold: int):
        if capacity < 1:
            raise ConfigError("capacity must be at least one cell")
        if not 0 <= off_threshold <= on_threshold < capacity:
            raise ConfigError(
                f"need 0 <= off <= on < capacity, got "
                f"{off_threshold}/{on_threshold}/{capacity}")
        self.capacity = capacity
        self.on_threshold = on_threshold
        self.off_threshold = off_threshold
        self.queues: list[deque] = [deque() for _ in range(n_ports)]
        self.paused_upstream = [False] * n_ports

    def enqueue(self, channel: int, cell) -> bool:
        """Queue ``cell`` on ``channel``; True when this enqueue pauses
        the channel."""
        q = self.queues[channel]
        depth = len(q)
        if depth >= self.capacity:
            raise SimInvariantError(
                f"VOQ overflow on channel {channel}: occupancy {depth} "
                f"at capacity {self.capacity}; upstream ignored a pause")
        q.append(cell)
        if depth >= self.on_threshold and not self.paused_upstream[channel]:
            self.paused_upstream[channel] = True
            return True
        return False

    def dequeue(self, channel: int) -> tuple[object, bool]:
        """Take the head cell of ``channel``; return it with True when
        this dequeue unpauses the channel."""
        q = self.queues[channel]
        try:
            cell = q.popleft()
        except IndexError:
            raise SimInvariantError(f"dequeue from empty channel {channel}")
        if self.paused_upstream[channel] and len(q) == self.off_threshold:
            self.paused_upstream[channel] = False
            return cell, True
        return cell, False

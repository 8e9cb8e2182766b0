"""Virtual output queues with on/off flow control.

Each switch input owns a bank of per-output-channel FIFO queues,
indexed by output port; the input's own slot is never used.  Crossing
the on-threshold on an enqueue asks the upstream device to pause that
one channel; draining back to the off-threshold asks it to resume.
Queues must never overflow: ``EngineConfig`` sizes them to exactly
the pause headroom -- the on-threshold, the enqueue that crosses it,
and every cell still in flight when the pause lands -- so an overflow
is a simulation bug and aborts the run.  Queued items are opaque to
the bank.  Each queue is a plain list, bounded by the capacity, so
taking its head shifts at most capacity - 1 entries, and an empty
queue costs only an empty list: a switch holds n² queues before any
cell moves.

A bank reports to the rest of the switch through two lists that the
banks of one switch share.  It posts each pause and resume request as
a ``(port, channel, pause)`` control word, pause False for a resume,
to a list the switch empties into its control path.  It keeps its
input's bit in the per-output request masks (set while that input's
queue for the output holds a cell, which is what an arbiter's
``match`` takes).  It also keeps the deepest any of its queues has
been.
"""

from __future__ import annotations

from .errors import SimInvariantError


class VOQBank:
    """Per-input bank of per-channel cell queues with FC hysteresis.

    Pause and unpause events strictly alternate per channel: a pause
    fires only on the upward crossing of the on-threshold while the
    channel is unpaused, an unpause only when a paused channel drains
    to exactly the off-threshold.  Each event is appended to
    ``control`` as the word ``(port, channel, pause)``.

    ``requests`` is the switch's shared list of per-output request
    masks: ``requests[channel]`` has bit ``port`` set exactly while
    channel ``channel`` is non-empty.  ``control`` is the switch's
    shared list of posted control words.  ``peak`` is the deepest any
    channel has been.
    """

    def __init__(self, n_ports: int, capacity: int,
                 on_threshold: int, off_threshold: int,
                 requests: list[int], control: list[tuple[int, int, bool]],
                 port: int):
        self.capacity = capacity
        self.on_threshold = on_threshold
        self.off_threshold = off_threshold
        self.queues: list[list] = [[] for _ in range(n_ports)]
        self.paused_upstream = [False] * n_ports
        self.requests = requests
        self.control = control
        self.port = port
        self.bit = 1 << port
        self.peak = 0

    def enqueue(self, channel: int, cell) -> None:
        """Queue ``cell`` on ``channel``, posting a pause when this
        enqueue crosses the on-threshold."""
        q = self.queues[channel]
        depth = len(q)
        if depth >= self.peak:  # the peak never passes the capacity
            if depth >= self.capacity:
                raise SimInvariantError(
                    f"VOQ overflow on channel {channel}: occupancy {depth} "
                    f"at capacity {self.capacity}; upstream ignored a pause")
            self.peak = depth + 1
        q.append(cell)
        if not depth:
            self.requests[channel] |= self.bit
        if depth >= self.on_threshold and not self.paused_upstream[channel]:
            self.paused_upstream[channel] = True
            self.control.append((self.port, channel, True))

    def dequeue(self, channel: int):
        """Take and return the head cell of ``channel``, posting an
        unpause when this dequeue drains a paused channel to the
        off-threshold."""
        q = self.queues[channel]
        try:
            cell = q.pop(0)
        except IndexError:
            raise SimInvariantError(f"dequeue from empty channel {channel}")
        if not q:
            self.requests[channel] &= ~self.bit
        if self.paused_upstream[channel] and len(q) == self.off_threshold:
            self.paused_upstream[channel] = False
            self.control.append((self.port, channel, False))
        return cell

"""Per-port traffic sources: slotted arrival processes over flows.

A source feeds one switch port and spreads its packets uniformly over
the other ports, one flow per (source, destination) pair.  Two
arrival processes are provided, both parameterized by the offered
wire occupancy (fraction of uplink slots carrying a cell):

* bernoulli: an independent coin per slot; a hit emits the next cell
  of the packet in progress, or starts a fresh packet (destination
  drawn per packet).
* bursty: alternating busy and idle periods.  Busy lengths are
  geometric with a configurable mean (in cells, rounded up to whole
  packets when sizes vary); one destination is drawn per burst.  Idle
  lengths are geometric on {0, 1, ...} with mean ``idle_mean =
  burst_mean_cells * (1 - load) / load``: the one geometric sampler,
  on {1, 2, ...} at mean ``1 + idle_mean``, less one.  That makes the
  long-run occupancy of a saturating source match the offered load
  only for fixed sizes: a burst finishes the packet that overruns it,
  so variable-size bursts run long.  An unbounded source (seed 1, 2M
  slots) occupies 10.02 / 49.84 / 89.94 % of its slots at 10 / 50 /
  90 % offered with fixed sizes, and 16.03 / 63.04 / 93.89 % with
  variable sizes (item 4 of ROADMAP.md).

Packet sizes are either one full cell of payload or uniform over a
byte range.  Each flow can carry an exact payload-byte budget; the
last packet of a flow is truncated so the budget is hit exactly.  A
flow without a volume has an infinite budget, so it never runs dry.
A source's per-flow budgets and cell counters are lists indexed by
destination port; its own port's entry is unused.

A source emits each cell as a plain tuple, the cell record that the
star engine carries from source to sink:

    (src, dst, flow_seq, valid_bytes, eop)

``src`` and ``dst`` are the flow's ports, ``flow_seq`` counts the
flow's cells from 0, ``valid_bytes`` is the payload the cell carries
and ``eop`` marks the last cell of a packet.  The star path never
serializes a cell, so it has no frame (``codec`` gives the frame's
layout).  Each process's loop makes a packet's records in place, by
one rule: once the packet's destination is drawn, draw its size
(variable sizes only); cap the size at the flow's budget, closing the
flow when it takes all that is left; then cut full
``CELL_PAYLOAD_BYTES`` cells, and the remainder with ``eop`` set.  An
exact multiple gets no padding cell, and a fixed-size flow's last cell
carries what is left of its budget.

Each arrival process is one generator, its state in locals, and both
share one poll protocol.  A generator yields iterables of records and
idle counts: an idle count alone, one packet (a Bernoulli one with its
gaps), or up to ``CHUNK`` fixed-size Bernoulli cells with theirs, then
an endless ``math.inf``.  ``poll()`` walks them in C through
``itertools.chain``, resuming the generator once per iterable, and
returns the record arriving at this slot, or the number of slots
before the next arrival: ``math.inf`` once the source is spent, since
it draws nothing after its last record.  A bursty source draws nothing
ahead of its records; a Bernoulli source draws at most one iterable
ahead.

``config.TrafficSpec`` describes the traffic: process, size mode, load,
volume and packet-size range.
"""

from __future__ import annotations

import math
import random
from itertools import chain, repeat

from .codec import CELL_PAYLOAD_BYTES
from .config import BERNOULLI, FIXED, TrafficSpec

# Cells per list of a fixed-size Bernoulli stream.
CHUNK = 32


def _geometric_from_one(rng: random.Random, mean: float) -> int:
    """Geometric on {1, 2, ...} with the given mean (>= 1)."""
    p = 1.0 / mean
    count = 1
    while rng.random() >= p:
        count += 1
    return count


class SourceProcess:
    """One port's traffic generator.

    poll() returns the record of the cell arriving at this slot, or an
    int ``k >= 1``: this slot and the next ``k - 1`` have no arrival.
    The process stands still between calls, so slots the caller skips
    are suspended rather than dropped (a closed-loop host that cannot
    accept a cell simply does not poll).  poll walks the generator's
    iterables in C, so budgets, and a Bernoulli source's rng, may run
    one iterable ahead of the records it has returned; a bursty source
    stores a flow's cell count when its burst ends.  A spent source
    draws nothing after its last record and returns ``math.inf``; an
    unbounded flow (``volume_bytes`` None) has an infinite budget.
    """

    def __init__(self, spec: TrafficSpec, port: int, n_ports: int, seed: int):
        self.spec = spec
        self.port = port
        self.rng = random.Random(seed * 1_000_003 + port)
        volume = math.inf if spec.volume_bytes is None else spec.volume_bytes
        self.budget: list[float] = [volume] * n_ports
        self.flow_cells = [0] * n_ports
        # The open-flow list changes only when a budget runs dry.
        self._open = [dst for dst in range(n_ports) if dst != port]
        process = self._bernoulli if spec.mode == BERNOULLI else self._bursty
        self.poll = chain.from_iterable(process()).__next__

    # -- arrival processes ---------------------------------------------------

    def _bernoulli(self):
        # A Bernoulli process is equivalently a geometric gap between
        # arrivals (P(gap = k) = load * (1 - load)^k), sampled by
        # inverse transform; this costs one random draw per arrival
        # instead of one per slot.  The initial gap is drawn the same
        # way so the first arrival matches the per-slot coin process.
        # Each yield is an iterable of records and gaps that poll()
        # walks in C: the first gap alone, then CHUNK one-cell packets
        # or one variable-size packet each, then an endless math.inf
        # once the flows run dry.  A gap is drawn after each cell, none
        # at full load nor after the last record.
        spec = self.spec
        rand = self.rng.random
        log = math.log
        budget = self.budget
        flow_cells = self.flow_cells
        flows = self._open
        port = self.port
        fixed = spec.size_mode == FIXED
        if not fixed:
            low = spec.min_packet_bytes
            span = spec.max_packet_bytes - low + 1
        scale = gap = 0
        if spec.load < 1.0:
            scale = 1.0 / log(1.0 - spec.load)
            gap = int(log(1.0 - rand()) * scale)
            if gap:
                yield (gap,)
        per_list = range(CHUNK if fixed else 1)
        n_open = len(flows)  # kept by hand: a len() call less per packet
        while flows:
            chunk = []
            for _ in per_list:
                dst = flows[int(rand() * n_open)]
                size = (CELL_PAYLOAD_BYTES if fixed
                        else low + int(rand() * span))
                remaining = budget[dst]
                if size >= remaining:
                    size = remaining
                    flows.remove(dst)
                    n_open -= 1
                budget[dst] = remaining - size
                seq = flow_cells[dst]
                while size > CELL_PAYLOAD_BYTES:
                    chunk.append((port, dst, seq, CELL_PAYLOAD_BYTES, False))
                    if scale and (gap := int(log(1.0 - rand()) * scale)):
                        chunk.append(gap)
                    seq += 1
                    size -= CELL_PAYLOAD_BYTES
                flow_cells[dst] = seq + 1
                chunk.append((port, dst, seq, size, True))
                if not flows:  # no gap after the last record
                    break
                if scale and (gap := int(log(1.0 - rand()) * scale)):
                    chunk.append(gap)
            yield chunk
        yield repeat(math.inf)

    def _bursty(self):
        # One destination and a geometric length per burst; a packet
        # that outruns the burst's cell count finishes, and a flow
        # that drains mid-burst ends the burst at once.  Each yield is
        # an idle count alone or one packet, drawn as poll() reaches it.
        spec = self.spec
        rng = self.rng
        rand = rng.random
        budget = self.budget
        flow_cells = self.flow_cells
        flows = self._open
        port = self.port
        fixed = spec.size_mode == FIXED
        if not fixed:  # a fixed-size spec need not have size fields
            low = spec.min_packet_bytes
            span = spec.max_packet_bytes - low + 1
        mean = spec.burst_mean_cells
        idle_mean = mean * (1.0 - spec.load) / spec.load
        packet = ()  # the full cells cut so far from the packet in hand
        while flows:
            # geometric on {0, 1, ...}; no draw at full load
            idle = (_geometric_from_one(rng, 1.0 + idle_mean) - 1
                    if idle_mean else 0)
            dst = flows[int(rand() * len(flows))]
            seq = flow_cells[dst]
            end = seq + _geometric_from_one(rng, mean)  # where the burst ends
            if idle:
                yield (idle,)
            while seq < end and budget[dst] != 0:
                size = (CELL_PAYLOAD_BYTES if fixed
                        else low + int(rand() * span))
                remaining = budget[dst]
                if size >= remaining:
                    size = remaining
                    flows.remove(dst)
                budget[dst] = remaining - size
                while size > CELL_PAYLOAD_BYTES:
                    packet += ((port, dst, seq, CELL_PAYLOAD_BYTES, False),)
                    seq += 1
                    size -= CELL_PAYLOAD_BYTES
                yield packet + ((port, dst, seq, size, True),)
                packet = ()
                seq += 1
            flow_cells[dst] = seq
        yield repeat(math.inf)

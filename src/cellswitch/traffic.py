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
layout).  ``SourceProcess._packet`` cuts packets: full
``CELL_PAYLOAD_BYTES`` cells, then the remainder with ``eop`` set; an
exact multiple gets no padding cell.  A fixed-size Bernoulli source
never cuts: each packet is one cell, so it keeps a second copy of
``_packet``'s one-cell case inline (the same budget, flow-removal and
sequence rule, with the same draws in the same order), and a flow's
last cell carries what is left of its budget.

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
    iterables in C, so budgets and flow counters may run one iterable
    ahead of the records it has returned; the rng does so only on the
    Bernoulli path.  A spent source draws nothing after its last record
    and returns ``math.inf``; an unbounded flow (``volume_bytes`` None)
    has an infinite budget.
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
        self._fixed = spec.size_mode == FIXED
        process = self._bernoulli if spec.mode == BERNOULLI else self._bursty
        self.poll = chain.from_iterable(process()).__next__

    # -- packet construction -------------------------------------------------

    def _packet(self, dst: int) -> tuple[tuple, ...]:
        """Draw the next packet for ``dst`` and cut it into its records."""
        if self._fixed:
            size = CELL_PAYLOAD_BYTES
        else:
            spec = self.spec
            size = spec.min_packet_bytes + int(self.rng.random() * (
                spec.max_packet_bytes - spec.min_packet_bytes + 1))
        remaining = self.budget[dst]
        if size >= remaining:
            size = remaining
            self._open.remove(dst)
        self.budget[dst] = remaining - size
        port = self.port
        seq = self.flow_cells[dst]
        full = (size - 1) // CELL_PAYLOAD_BYTES
        self.flow_cells[dst] = seq + full + 1
        last = (port, dst, seq + full, size - full * CELL_PAYLOAD_BYTES, True)
        if not full:
            return (last,)
        return (*[(port, dst, k, CELL_PAYLOAD_BYTES, False)
                  for k in range(seq, seq + full)], last)

    # -- arrival processes ---------------------------------------------------

    def _bernoulli(self):
        # A Bernoulli process is equivalently a geometric gap between
        # arrivals (P(gap = k) = load * (1 - load)^k), sampled by
        # inverse transform; this costs one random draw per arrival
        # instead of one per slot.  The initial gap is drawn the same
        # way so the first arrival matches the per-slot coin process.
        # Each yield is an iterable of records and gaps that poll()
        # walks in C: the first gap alone, then CHUNK cells or one
        # packet each, then an endless math.inf once the flows run dry.
        rand = self.rng.random
        log = math.log
        flows = self._open
        scale = gap = 0
        if self.spec.load < 1.0:
            scale = 1.0 / log(1.0 - self.spec.load)
            gap = int(log(1.0 - rand()) * scale)
            if gap:
                yield (gap,)
        if self._fixed:
            # Each packet is one cell: _packet's rule inlined, with the
            # same draws in the same order (destination, then gap).
            # tests/test_traffic.py::TestMatchesReference keeps this
            # copy in step with _packet, budgets of 2_560 bytes included.
            budget = self.budget
            flow_cells = self.flow_cells
            port = self.port
            per_list = range(CHUNK)
            while flows:
                chunk = []
                for _ in per_list:
                    dst = flows[int(rand() * len(flows))]
                    size = CELL_PAYLOAD_BYTES
                    remaining = budget[dst]
                    if remaining <= size:
                        size = remaining
                        flows.remove(dst)
                    budget[dst] = remaining - size
                    seq = flow_cells[dst]
                    flow_cells[dst] = seq + 1
                    chunk.append((port, dst, seq, size, True))
                    if not flows:  # no gap after the last record
                        break
                    if scale and (gap := int(log(1.0 - rand()) * scale)):
                        chunk.append(gap)
                yield chunk
        while flows:
            # one packet per list; no gap at full load, nor after the
            # final packet's eop cell
            packet = self._packet(flows[int(rand() * len(flows))])
            if not scale:
                yield packet
                continue
            chunk = []
            for cell in packet:
                chunk.append(cell)
                if (flows or not cell[4]) and (
                        gap := int(log(1.0 - rand()) * scale)):
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
        budget = self.budget
        flows = self._open
        mean = spec.burst_mean_cells
        idle_mean = mean * (1.0 - spec.load) / spec.load
        while flows:
            # geometric on {0, 1, ...}; no draw at full load
            idle = (_geometric_from_one(rng, 1.0 + idle_mean) - 1
                    if idle_mean else 0)
            dst = flows[int(rng.random() * len(flows))]
            burst = _geometric_from_one(rng, mean)
            if idle:
                yield (idle,)
            while burst > 0 and budget[dst] != 0:
                cells = self._packet(dst)
                burst -= len(cells)
                yield cells
        yield repeat(math.inf)

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
  lengths are geometric on {0, 1, ...} with mean chosen so the
  long-run occupancy of a saturating source matches the offered load.

Packet sizes are either one full cell of payload or uniform over a
byte range.  Each flow can carry an exact payload-byte budget; the
last packet of a flow is truncated so the budget is hit exactly, and
an exhausted source stops emitting.

A source emits each cell as a plain tuple, the cell record that the
star engine carries from source to sink:

    (src, dst, flow_seq, valid_bytes, eop)

``src`` and ``dst`` are the flow's ports, ``flow_seq`` counts the
flow's cells from 0, ``valid_bytes`` is the payload the cell carries
and ``eop`` marks the last cell of a packet.  The star path never
serializes a cell, so it has no frame (``codec`` gives the frame's
layout).  ``SourceProcess._packet`` is the one packet-cutting rule: full
``CELL_PAYLOAD_BYTES`` cells, then the remainder with ``eop`` set; an
exact multiple gets no padding cell.

Each arrival process is one generator, its state in locals, that
``poll()`` resumes: it returns the record arriving at this slot, or
the number of slots before the next arrival (``math.inf`` when none).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .codec import CELL_PAYLOAD_BYTES
from .errors import ConfigError

BERNOULLI = "bernoulli"
BURSTY = "bursty"
FIXED = "fixed"
VARIABLE = "variable"


@dataclass(frozen=True)
class TrafficSpec:
    mode: str = BERNOULLI
    size_mode: str = FIXED
    load: float = 1.0
    volume_bytes: int | None = None
    min_packet_bytes: int = 64
    max_packet_bytes: int = 2048
    burst_mean_cells: float = 4.0

    def __post_init__(self):
        if self.mode not in (BERNOULLI, BURSTY):
            raise ConfigError(f"unknown arrival process {self.mode!r}")
        if self.size_mode not in (FIXED, VARIABLE):
            raise ConfigError(f"unknown size mode {self.size_mode!r}")
        if not 0.0 < self.load <= 1.0:
            raise ConfigError("load must be in (0, 1]")
        if self.volume_bytes is not None and self.volume_bytes < 1:
            raise ConfigError("per-flow volume must be positive")
        if not 1 <= self.min_packet_bytes <= self.max_packet_bytes:
            raise ConfigError("bad packet size range")
        if not 1.0 <= self.burst_mean_cells < math.inf:
            raise ConfigError("mean burst length must be finite, >= 1 cell")


def _geometric_from_one(rng: random.Random, mean: float) -> int:
    """Geometric on {1, 2, ...} with the given mean (>= 1)."""
    p = 1.0 / mean
    count = 1
    while rng.random() >= p:
        count += 1
    return count


def _geometric_from_zero(rng: random.Random, mean: float) -> int:
    """Geometric on {0, 1, ...} with the given mean (>= 0)."""
    if mean <= 0.0:
        return 0
    p = 1.0 / (1.0 + mean)
    count = 0
    while rng.random() >= p:
        count += 1
    return count


class SourceProcess:
    """One port's traffic generator.

    poll() returns the record of the cell arriving at this slot, or an
    int ``k >= 1``: this slot and the next ``k - 1`` have no arrival.
    The process stands still between calls, so slots the caller skips
    are suspended rather than dropped (a closed-loop host that cannot
    accept a cell simply does not poll).  An exhausted source returns
    ``math.inf`` and draws nothing.
    """

    def __init__(self, spec: TrafficSpec, port: int, n_ports: int, seed: int):
        if not 0 <= port < n_ports:
            raise ConfigError("port out of range")
        if n_ports < 2:
            raise ConfigError("need at least two ports")
        self.spec = spec
        self.port = port
        self.rng = random.Random(seed * 1_000_003 + port)
        self.budget: dict[int, int | None] = {
            dst: spec.volume_bytes for dst in range(n_ports) if dst != port
        }
        self.flow_cells = {dst: 0 for dst in self.budget}
        self.exhausted = False  # every budget spent, last record out
        # The open-flow list changes only when a budget runs dry.
        self._open: list[int] = list(self.budget)
        self._fixed = spec.size_mode == FIXED
        self.poll = (self._bernoulli if spec.mode == BERNOULLI
                     else self._bursty)().__next__

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
        if remaining is not None:
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

    def _last(self, cells: tuple[tuple, ...]):
        """Yield the final packet, exhausted as its last record leaves."""
        yield from cells[:-1]
        self.exhausted = True
        yield cells[-1]

    # -- arrival processes ---------------------------------------------------

    def _bernoulli(self):
        # A Bernoulli process is equivalently a geometric gap between
        # arrivals (P(gap = k) = load * (1 - load)^k), sampled by
        # inverse transform; this costs one random draw per arrival
        # instead of one per slot.  The initial gap is drawn the same
        # way so the first arrival matches the per-slot coin process.
        rand = self.rng.random
        flows = self._open
        scale = gap = 0
        if self.spec.load < 1.0:
            scale = 1.0 / math.log(1.0 - self.spec.load)
            gap = int(math.log(1.0 - rand()) * scale)
            if gap:
                yield gap
        while flows:
            cells = self._packet(flows[int(rand() * len(flows))])
            if not flows:
                cells = self._last(cells)
            if not scale:  # full load: no gaps between arrivals
                yield from cells
                continue
            for cell in cells:
                gap = int(math.log(1.0 - rand()) * scale)
                yield cell
                if gap:
                    yield gap
        while True:
            yield math.inf

    def _bursty(self):
        # One destination and a geometric length per burst; a packet
        # that outruns the burst's cell count finishes, and a flow
        # that drains mid-burst ends the burst at once.
        spec = self.spec
        rng = self.rng
        budget = self.budget
        flows = self._open
        mean = spec.burst_mean_cells
        idle_mean = mean * (1.0 - spec.load) / spec.load
        while flows:
            idle = _geometric_from_zero(rng, idle_mean)  # 0 at full load
            dst = flows[int(rng.random() * len(flows))]
            burst = _geometric_from_one(rng, mean)
            if idle:
                yield idle
            while burst > 0 and budget[dst] != 0:
                cells = self._packet(dst)
                burst -= len(cells)
                yield from cells if flows else self._last(cells)
        while True:
            yield math.inf


def make_sources(spec: TrafficSpec, n_ports: int, seed: int
                 ) -> list[SourceProcess]:
    return [SourceProcess(spec, port, n_ports, seed)
            for port in range(n_ports)]

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
serializes a cell, so it has no frame; ``codec.Cell`` is the wire
format.  A packet in progress is only its destination and the payload
bytes it has left: each emitting poll cuts the next record from that.
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
        if self.burst_mean_cells < 1.0:
            raise ConfigError("mean burst length must be at least one cell")


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

    Call poll() at most once per slot: each call advances the arrival
    process by one slot, so skipping a slot suspends the process in
    time rather than dropping anything (a closed-loop host that cannot
    accept a cell simply does not poll).  An exhausted source returns
    None and draws nothing.
    """

    def __init__(self, spec: TrafficSpec, port: int, n_ports: int, seed: int):
        if not 0 <= port < n_ports:
            raise ConfigError("port out of range")
        if n_ports < 2:
            raise ConfigError("need at least two ports")
        self.spec = spec
        self.port = port
        self.n_ports = n_ports
        self.rng = random.Random(seed * 1_000_003 + port)
        self.budget: dict[int, int | None] = {
            dst: spec.volume_bytes for dst in range(n_ports) if dst != port
        }
        self.flow_cells = {dst: 0 for dst in self.budget}
        self._dst = -1      # packet in progress: destination,
        self._left = 0      # and payload bytes not yet emitted
        self._burst_dst = -1
        self._burst_cells_left = 0
        self._idle_left = 0
        # Hot-path caches: the open-flow list changes only when a
        # budget runs dry, and the size mode never changes.
        self._open: list[int] = list(self.budget)
        self._rand = self.rng.random
        self._fixed = spec.size_mode == FIXED
        # A Bernoulli process is equivalently a geometric gap between
        # arrivals (P(gap = k) = load * (1 - load)^k), sampled by
        # inverse transform; this costs one random draw per arrival
        # instead of one per slot.  The initial gap is drawn the same
        # way so the first arrival matches the per-slot coin process.
        self._gap_scale: float | None = None
        self._gap = 0
        if spec.mode == BERNOULLI and spec.load < 1.0:
            self._gap_scale = 1.0 / math.log(1.0 - spec.load)
            self._gap = int(math.log(1.0 - self._rand()) * self._gap_scale)
        self.poll = (self._poll_bernoulli if spec.mode == BERNOULLI
                     else self._poll_bursty)

    # -- flow bookkeeping ----------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every flow budget is spent and no packet is left."""
        return not self._left and not self._open

    # -- packet construction -------------------------------------------------

    def _draw_packet_bytes(self, dst: int) -> int:
        if self._fixed:
            size = CELL_PAYLOAD_BYTES
        else:
            spec = self.spec
            size = spec.min_packet_bytes + int(self._rand() * (
                spec.max_packet_bytes - spec.min_packet_bytes + 1))
        remaining = self.budget[dst]
        if remaining is not None:
            size = min(size, remaining)
            self.budget[dst] = remaining - size
            if size == remaining:
                self._open.remove(dst)
        return size

    def _next_cell(self) -> tuple:
        """The next record of the packet in progress (see the module
        doc)."""
        dst, left = self._dst, self._left
        seq = self.flow_cells[dst]
        self.flow_cells[dst] = seq + 1
        if left > CELL_PAYLOAD_BYTES:
            self._left = left - CELL_PAYLOAD_BYTES
            return (self.port, dst, seq, CELL_PAYLOAD_BYTES, False)
        self._left = 0
        return (self.port, dst, seq, left, True)

    # -- arrival processes ---------------------------------------------------
    # poll() is bound in __init__ to the method for the configured
    # arrival process; call it exactly once per slot.

    def _poll_bernoulli(self) -> tuple | None:
        if self._gap:
            self._gap -= 1
            return None
        if not self._left:
            flows = self._open
            if not flows:
                return None
            self._dst = dst = flows[int(self._rand() * len(flows))]
            self._left = self._draw_packet_bytes(dst)
        scale = self._gap_scale
        if scale is not None:
            self._gap = int(math.log(1.0 - self._rand()) * scale)
        return self._next_cell()

    def _poll_bursty(self) -> tuple | None:
        spec = self.spec
        if self._idle_left > 0:
            self._idle_left -= 1
            return None
        if not self._left and self._burst_cells_left <= 0:
            # burst boundary: draw the idle gap, then the next burst
            flows = self._open
            if not flows:
                return None
            if spec.load < 1.0:
                idle_mean = spec.burst_mean_cells * (1.0 - spec.load) \
                    / spec.load
                self._idle_left = _geometric_from_zero(self.rng, idle_mean)
            self._burst_dst = flows[int(self._rand() * len(flows))]
            self._burst_cells_left = _geometric_from_one(
                self.rng, spec.burst_mean_cells)
            if self._idle_left > 0:
                self._idle_left -= 1
                return None
        if not self._left:
            dst = self._burst_dst
            if self.budget[dst] == 0:
                # flow drained mid-burst: end the burst early
                self._burst_cells_left = 0
                return self._poll_bursty()
            self._dst = dst
            self._left = self._draw_packet_bytes(dst)
        self._burst_cells_left -= 1
        return self._next_cell()


def make_sources(spec: TrafficSpec, n_ports: int, seed: int
                 ) -> list[SourceProcess]:
    return [SourceProcess(spec, port, n_ports, seed)
            for port in range(n_ports)]

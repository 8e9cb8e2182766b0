"""Slotted simulation of a star network around one cell switch.

Endpoint i feeds switch input i over a fixed-delay uplink and gets
cells back over a matching downlink.  Inside the switch each input
owns a bank of virtual output queues, a per-slot arbiter picks which
queues to serve, and served cells cross a self-routing fabric into a
short egress pipeline ahead of the downlink.

Pause and unpause commands travel beside the data: every downlink
frame slot carries a small control word out-of-band of the 264-byte
cell budget (like the line checksum), so backpressure costs latency
but never data bandwidth.

Each fixed delay is a ring of per-slot lists shared by all ports: an
entry put ``delay`` slots ahead is taken when its slot comes round, so
only cells and control words that are due cost any work.  Both
arbiters give an output at most one cell per slot, so the egress
stages and the downlink form one fixed delay from match to sink.
Every slot runs the same phases, each over all ports before the next:

1. control words land and update the endpoints' paused-channel sets
2. cells reach sinks
3. uplink arrivals enter their input's virtual output queue,
   possibly firing a pause command
4. each endpoint generates at most one cell into its per-channel
   staging queues and sends one staged cell from an unpaused channel
5. while any queue holds a cell: arbitration and fabric traversal,
   possibly firing unpauses

No phase of one port reads another port's state within a slot, so
this order gives the results of running each port's phases in turn.

Each endpoint works in real time: the host produces at most one cell
per slot and deposits it in generation order into a per-channel
staging queue, and the adapter side round-robins over nonempty
unpaused channels, so one paused channel never blocks traffic for the
others.  An optional per-channel staging cap makes the host block --
suspending generation -- whenever the channel it must write next is
full, modeling endpoints that throttle themselves against sustained
backpressure instead of queueing behind it.

A cell's recorded latency runs from its uplink transmission to its
sink delivery and therefore excludes time spent queued inside the
source; an uncontended cell needs exactly ``latency_floor()`` slots.

Losslessness is enforced, not assumed: queue overflows and fabric
misroutes raise immediately, and every sink checks per-flow sequence
numbers so any drop, duplicate, or reorder is detected.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .codec import FRAME_BYTES, HEADER_BYTES, MAX_SWITCH_PORTS
from .errors import ConfigError, SimInvariantError
from .fabric import SortRouteFabric
from .scheduler import IslipScheduler, SafcScheduler
from .traffic import TrafficSpec, make_sources
from .voq import VOQBank

ISLIP = "islip"
SAFC = "safc"

# Link and pipeline depths, in slots.  The switch sits mid-rack, so
# both directions cost the same; the egress pipeline covers the output
# port's buffering and serialization stages.
UPLINK_DELAY = 7
DOWNLINK_DELAY = 7
EGRESS_DELAY = 3

# Queue depth at which a channel asks its source to pause, and the
# depth on which it unpauses.  The pause point is the deepest the
# headroom guard below admits -- worst-case in-flight cells exactly
# fill the queue -- and the release waits for a three-cell drain so
# commands are not emitted on every enqueue/dequeue flutter around
# one level.  Calibrated against the reference latency distributions
# of a saturated 32-port switch.
DEFAULT_ON_THRESHOLD = 10
DEFAULT_OFF_THRESHOLD = 7

# Per-channel staging depth at each endpoint, in cells; None leaves
# the staging unbounded.  With a finite depth the host blocks --
# suspending generation -- whenever the channel it must write next is
# full, so endpoints throttle themselves against sustained
# backpressure; unbounded staging instead lets the endpoint queue
# behind a paused channel and keep the uplink busy with other
# channels, which is the work-conserving behavior the bandwidth
# figures assume.
DEFAULT_CHANNEL_BUFFER = None

@dataclass(frozen=True)
class EngineConfig:
    """Static description of one star-network run."""

    n_ports: int
    scheduler: str = ISLIP
    seed: int = 1
    on_threshold: int = DEFAULT_ON_THRESHOLD
    off_threshold: int = DEFAULT_OFF_THRESHOLD
    channel_buffer: int | None = DEFAULT_CHANNEL_BUFFER
    islip_iterations: int | None = None
    uplink_delay: int = UPLINK_DELAY
    downlink_delay: int = DOWNLINK_DELAY
    egress_delay: int = EGRESS_DELAY
    max_slots: int | None = None

    def __post_init__(self):
        if not 2 <= self.n_ports <= MAX_SWITCH_PORTS:
            raise ConfigError(f"ports must be 2..{MAX_SWITCH_PORTS}")
        if self.scheduler not in (ISLIP, SAFC):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if not 0 <= self.off_threshold < self.on_threshold:
            raise ConfigError("need 0 <= off threshold < on threshold")
        if self.channel_buffer is not None and self.channel_buffer < 1:
            raise ConfigError("channel staging depth must hold a cell")
        if min(self.uplink_delay, self.downlink_delay) < 1:
            raise ConfigError("link delays must be at least one slot")
        if self.egress_delay < 0:
            raise ConfigError("egress delay cannot be negative")
        # A pause fires on the enqueue that crosses the on threshold,
        # i.e. at depth on + 1, and exposure more cells may still land.
        if self.on_threshold + 1 + self.pause_exposure() > self.voq_capacity():
            raise ConfigError(
                "pause threshold leaves too little headroom: cells in "
                "flight when a pause fires could overflow the queue")

    def fc_rtt(self) -> int:
        """Pause-loop round trip: both link delays plus a slot of
        transmit quantization margin at each end.  Cells already in
        flight when a pause fires keep arriving for up to one such
        round trip, so queue headroom is sized from this figure."""
        return self.uplink_delay + self.downlink_delay + 2

    def pause_exposure(self) -> int:
        """Worst-case cells that can still reach one queue after its
        pause command fires: everything already on the uplink plus
        everything sent before the command lands at the endpoint."""
        return self.uplink_delay + self.downlink_delay - 1

    def voq_capacity(self) -> int:
        """Per-channel queue depth, sized at one and a half pause-loop
        round trips."""
        return math.ceil(1.5 * self.fc_rtt())

    def latency_floor(self) -> int:
        """Slots an uncontended cell needs from uplink transmission to
        sink delivery: both links, one fabric slot, the egress stages."""
        return (self.uplink_delay + 1 + self.egress_delay
                + self.downlink_delay)


@dataclass
class MetricsReport:
    """Everything measured in one run, plus the integrity verdict."""

    config: EngineConfig
    traffic: TrafficSpec
    slots_run: int
    drained: bool
    generated_cells: int
    injected_cells: int
    delivered_cells: int
    staged_cells: int       # at exit: in endpoint staging, held included
    in_flight_cells: int    # at exit: on links, in egress, in VOQs
    delivered_wire_bytes: int
    first_injection: int
    last_delivery: int
    first_generation: int
    last_generation: int
    pauses: int
    unpauses: int
    peak_voq_occupancy: int
    order_violations: int
    fabric_checks: int
    latency_hist: dict[int, int] = field(repr=False)

    # -- latency -------------------------------------------------------------

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile of delivered-cell latency."""
        if not self.delivered_cells:
            raise SimInvariantError("no deliveries to take a percentile of")
        rank = math.ceil(p * self.delivered_cells / 100)
        cum = 0
        for latency in sorted(self.latency_hist):
            cum += self.latency_hist[latency]
            if cum >= rank:
                return latency
        raise AssertionError("histogram does not cover its own total")

    def latency_summary(self) -> tuple[int, int, int, int, int, int, int]:
        """(min, p50, p75, p90, p95, p99, max) of cell latency."""
        lo, hi = min(self.latency_hist), max(self.latency_hist)
        return (lo, self.percentile(50), self.percentile(75),
                self.percentile(90), self.percentile(95),
                self.percentile(99), hi)

    def mean_latency(self) -> float | None:
        """Mean delivered-cell latency; None before any delivery."""
        if not self.delivered_cells:
            return None
        total = sum(k * c for k, c in self.latency_hist.items())
        return total / self.delivered_cells

    # -- bandwidth -----------------------------------------------------------

    @property
    def delivery_window(self) -> int:
        """Slots from first uplink transmission to last delivery."""
        return self.last_delivery - self.first_injection + 1

    @property
    def utilization_pct(self) -> float | None:
        """Delivered header+payload bytes as a percentage of the raw
        capacity of all downlinks over the delivery window; None
        before any delivery, when the window is undefined."""
        if not self.delivered_cells:
            return None
        wire = FRAME_BYTES * self.config.n_ports * self.delivery_window
        return 100.0 * self.delivered_wire_bytes / wire

    @property
    def offered_load_pct(self) -> float:
        """Measured arrival intensity: generated cells per port-slot
        over the generation window."""
        window = self.last_generation - self.first_generation + 1
        return 100.0 * self.generated_cells / (self.config.n_ports * window)

    # -- integrity -----------------------------------------------------------

    def verify(self) -> None:
        """Raise unless the run was provably lossless and in order."""
        if self.order_violations:
            raise SimInvariantError(
                f"{self.order_violations} per-flow sequence violations")
        if self.peak_voq_occupancy > self.config.voq_capacity():
            raise SimInvariantError("queue exceeded its stated capacity")
        if (self.generated_cells != self.staged_cells + self.injected_cells
                or self.injected_cells
                != self.delivered_cells + self.in_flight_cells):
            raise SimInvariantError(
                f"cell conservation broken: generated {self.generated_cells}"
                f", staged {self.staged_cells}"
                f", injected {self.injected_cells}"
                f", in flight {self.in_flight_cells}"
                f", delivered {self.delivered_cells}")

    def to_dict(self) -> dict:
        """The report's figures; latency and utilization are None
        before any delivery."""
        delivered = self.delivered_cells
        summary = self.latency_summary() if delivered else None
        return {
            "n_ports": self.config.n_ports,
            "scheduler": self.config.scheduler,
            "mode": self.traffic.mode,
            "size_mode": self.traffic.size_mode,
            "nominal_load_pct": 100.0 * self.traffic.load,
            "offered_load_pct": round(self.offered_load_pct, 4),
            "utilization_pct":
                round(self.utilization_pct, 4) if delivered else None,
            "slots_run": self.slots_run,
            "drained": self.drained,
            "generated_cells": self.generated_cells,
            "delivered_cells": self.delivered_cells,
            "latency_min_p50_p75_p90_p95_p99_max": summary,
            "mean_latency":
                round(self.mean_latency(), 3) if delivered else None,
            "pauses": self.pauses,
            "unpauses": self.unpauses,
            "peak_voq_occupancy": self.peak_voq_occupancy,
            "voq_capacity": self.config.voq_capacity(),
            "fabric_checks": self.fabric_checks,
        }


class StarNetwork:
    """One switch, ``n_ports`` endpoints, and the links between them."""

    def __init__(self, config: EngineConfig, traffic: TrafficSpec):
        self.config = config
        self.traffic = traffic
        n = config.n_ports
        self.sources = make_sources(traffic, n, config.seed)
        self.banks = [VOQBank(n, config.voq_capacity(), config.on_threshold,
                              config.off_threshold) for _ in range(n)]
        if config.scheduler == ISLIP:
            self.scheduler = IslipScheduler(n, config.islip_iterations)
            # Only a conflict-free matching can cross the physical
            # sort-and-steer fabric, so the independent-output arbiter
            # models a switch with its own buffered data path instead.
            self.fabric = SortRouteFabric(n)
        else:
            self.scheduler = SafcScheduler(n)
            self.fabric = None

    def run(self) -> MetricsReport:
        config = self.config
        n = config.n_ports
        up_delay = config.uplink_delay
        down_delay = config.downlink_delay
        out_delay = config.egress_delay + 1 + down_delay  # match to sink
        max_slots = config.max_slots
        header_bytes = HEADER_BYTES

        # Bind the per-port callables once; the slot loop below is the
        # hot path and runs millions of times.
        sources = self.sources
        polls = [source.poll for source in sources]
        banks = self.banks
        bank_enqueue = [bank.enqueue for bank in banks]
        bank_dequeue = [bank.dequeue for bank in banks]
        bank_queues = [bank.queues for bank in banks]
        match = self.scheduler.match
        route = self.fabric.route if self.fabric is not None else None
        ports = range(n)

        src_chan = [[deque() for _ in ports] for _ in ports]
        src_mask = [0] * n                   # nonempty staging channels
        src_hold = [None] * n                # generated, staging full
        src_rr = [0] * n
        src_pause = [0] * n
        staging = (math.inf if config.channel_buffer is None
                   else config.channel_buffer)

        # Staging queues hold traffic cell records (src, dst, flow_seq,
        # valid_bytes, eop); from the uplink on, each record travels
        # paired with its transmit slot as (injected_at, record).  The
        # rings hold, per slot, (port, (injected_at, record)) uplink
        # arrivals, (out_port, (injected_at, record)) sink deliveries
        # and (port, channel, pause) control words, pause False for an
        # unpause; an entry put at ring[(slot + delay) % size] is taken
        # at slot + delay.
        size = max(up_delay, out_delay) + 1
        uplink = [[] for _ in range(size)]
        downlink = [[] for _ in range(size)]
        control = [[] for _ in range(size)]
        out_requests = [0] * n
        expected_seq = [[0] * n for _ in ports]

        latency_hist: dict[int, int] = {}
        generated = injected = delivered = 0
        delivered_bytes = 0
        first_generation = first_injection = -1
        last_generation = last_delivery = -1
        pauses = unpauses = 0
        peak_occupancy = 0
        order_violations = 0

        slot = 0
        while True:
            now = slot % size
            for i, channel, pause in control[now]:
                if pause:
                    src_pause[i] |= 1 << channel
                else:
                    src_pause[i] &= ~(1 << channel)
            control[now].clear()

            for out_port, (injected_at, record) in downlink[now]:
                src, dst, flow_seq, valid, _ = record
                latency = slot - injected_at
                latency_hist[latency] = latency_hist.get(latency, 0) + 1
                if dst != out_port or flow_seq != expected_seq[src][out_port]:
                    order_violations += 1
                expected_seq[src][out_port] = flow_seq + 1
                delivered += 1
                delivered_bytes += valid + header_bytes
                last_delivery = slot
            downlink[now].clear()

            for i, item in uplink[now]:
                out_port = item[1][1]  # the record's dst
                paused = bank_enqueue[i](out_port, item)
                depth = len(bank_queues[i][out_port])
                if depth == 1:
                    out_requests[out_port] |= 1 << i
                if depth > peak_occupancy:
                    peak_occupancy = depth
                if paused:
                    # departs with this slot's downlink frame
                    control[(slot + down_delay) % size].append(
                        (i, out_port, True))
                    pauses += 1
            uplink[now].clear()

            sent = uplink[(slot + up_delay) % size]
            for i in ports:
                # host step, closed-loop: retry the held cell, then
                # generate at most one new cell.  The host never runs
                # ahead of real time and blocks -- suspending
                # generation -- while staging is full, so staging holds
                # only the most recent slice of the arrival process.
                cell = src_hold[i]
                if cell is not None and \
                        len(src_chan[i][cell[1]]) < staging:
                    dst = cell[1]
                    src_chan[i][dst].append(cell)
                    src_mask[i] |= 1 << dst
                    src_hold[i] = cell = None
                if cell is None:
                    cell = polls[i]()
                    if cell is not None:
                        generated += 1
                        if first_generation < 0:
                            first_generation = slot
                        last_generation = slot
                        dst = cell[1]
                        if len(src_chan[i][dst]) < staging:
                            src_chan[i][dst].append(cell)
                            src_mask[i] |= 1 << dst
                        else:
                            src_hold[i] = cell

                # adapter transmit: round robin over unpaused channels
                eligible = src_mask[i] & ~src_pause[i]
                if eligible:
                    start = src_rr[i]
                    hi = eligible >> start
                    if hi:
                        dst = start + (hi & -hi).bit_length() - 1
                    else:
                        dst = (eligible & -eligible).bit_length() - 1
                    src_rr[i] = dst + 1 if dst + 1 < n else 0
                    queue = src_chan[i][dst]
                    sent.append((i, (slot, queue.popleft())))
                    if not queue:
                        src_mask[i] &= ~(1 << dst)
                    injected += 1
                    if first_injection < 0:
                        first_injection = slot

            # arbitration and fabric traversal, only while some queue
            # holds a cell: an empty match moves no arbiter pointer
            if any(out_requests):
                pairs = match(out_requests)
                if route is not None:
                    dests = [None] * n
                    for i, out_port in pairs:
                        dests[i] = out_port
                    route(dests)
                sink = downlink[(slot + out_delay) % size]
                fc = control[(slot + 1 + down_delay) % size]
                for i, out_port in pairs:
                    item, unpaused = bank_dequeue[i](out_port)
                    if not bank_queues[i][out_port]:
                        out_requests[out_port] &= ~(1 << i)
                    sink.append((out_port, item))
                    if unpaused:
                        # departs with the next downlink frame
                        fc.append((i, out_port, False))
                        unpauses += 1

            slot += 1
            if delivered == injected == generated and \
                    all(source.exhausted for source in sources):
                drained = True
                break
            if max_slots is not None and slot >= max_slots:
                drained = False
                break

        # Count the cells where they sit, independently of the running
        # counters, so verify() can check conservation on any run.
        staged = sum(map(len, (chan for chans in src_chan for chan in chans)))
        staged += sum(cell is not None for cell in src_hold)
        in_flight = sum(map(len, uplink)) + sum(map(len, downlink))
        in_flight += sum(len(queue) for queues in bank_queues
                         for queue in queues)
        return MetricsReport(
            config=config,
            traffic=self.traffic,
            slots_run=slot,
            drained=drained,
            generated_cells=generated,
            injected_cells=injected,
            delivered_cells=delivered,
            staged_cells=staged,
            in_flight_cells=in_flight,
            delivered_wire_bytes=delivered_bytes,
            first_injection=first_injection,
            last_delivery=last_delivery,
            first_generation=first_generation,
            last_generation=last_generation,
            pauses=pauses,
            unpauses=unpauses,
            peak_voq_occupancy=peak_occupancy,
            order_violations=order_violations,
            fabric_checks=(0 if self.fabric is None
                           else self.fabric.structural_checks),
            latency_hist=latency_hist,
        )


def run_star(config: EngineConfig, traffic: TrafficSpec) -> MetricsReport:
    """Build the network, run it to completion, and verify integrity."""
    report = StarNetwork(config, traffic).run()
    report.verify()
    return report

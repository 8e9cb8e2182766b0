"""Slotted simulation of a star network around one cell switch.

Endpoint i feeds switch input i over a fixed-delay uplink and gets
cells back over a matching downlink.  Inside the switch each input
owns a bank of virtual output queues, a per-slot arbiter picks which
queues to serve, and served cells cross a self-routing fabric into a
short egress pipeline ahead of the downlink.

Pause and unpause commands travel beside the data: every downlink
frame slot carries a small control word out-of-band of the 264-byte
cell budget, so backpressure costs latency but never data bandwidth.

Each fixed delay is a ring of per-slot entries shared by all ports:
an entry put ``delay`` slots ahead is taken when its slot comes round,
so only cells and control words that are due cost any work.  The
uplink ring holds bare cell records, since a record names its sending
port (``src``) and left exactly ``uplink_delay`` slots before it
lands; a record enters its queue paired with that transmit slot.  Both
arbiters give an output at most one cell per slot, so the egress
stages and the downlink form one fixed delay from match to sink, and
the downlink ring holds one entry per matched slot: its pairs, and
the cells dequeued for them in the same order.
Every slot runs the same phases, each over all ports before the next:

1. control words land and update the endpoints' paused-channel sets
2. cells reach sinks
3. uplink arrivals enter their input's virtual output queue as
   ``(injected_at, record)``; the bank keeps its input's bit in the
   shared per-output request masks that arbitration reads, and its
   own peak depth, and posts a pause command to the switch's shared
   list of control words, which then departs with this slot's
   downlink frame
4. each endpoint with an arrival due stages at most one new cell,
   and sends one staged cell from an unpaused channel
5. while the VOQs hold a cell: arbitration, fabric traversal and
   one dequeue per matched pair, whose banks may post unpause
   commands that depart with the next downlink frame; a matching is
   a set of pairs, and no result depends on the order ``match``
   lists them in; the iSLIP fabric takes the arbiter's pairs and
   replays them structurally every ``CHECK_INTERVAL`` matched slots

No phase of one port reads another port's state within a slot, so
this order gives the results of running each port's phases in turn.

Each endpoint works in real time: the host produces at most one cell
per slot and deposits it in generation order into a per-channel
staging list, and the adapter side round-robins over nonempty
unpaused channels, taking each one's head, so one paused channel
never blocks traffic for the others.  An optional per-channel staging
cap makes the host block -- suspending generation -- once a cell
overfills its channel, modeling endpoints that throttle themselves
against sustained backpressure instead of queueing behind it.  That
cell waits in the channel, behind at least a cap's worth of cells, and
the host stops polling; it polls again in the slot after its adapter's
send brings the channel back to the cap.

A cell's recorded latency runs from its uplink transmission to its
sink delivery and therefore excludes time spent queued inside the
source; an uncontended cell needs exactly ``latency_floor()`` slots.
The run counts deliveries in a list indexed by latency and reports
the latencies seen as a dict; the least and greatest latency are its
nearest-rank percentiles at p = 0 and p = 100.  The wire bytes of the
delivered cells are one formula, applied once at report time: their
payload (``valid_bytes``) plus ``HEADER_BYTES`` per cell.  Utilization
divides them by ``FRAME_BYTES`` per port-slot of the delivery window,
which starts at the first generated cell: nothing is staged or paused
yet, so its host sends it in the slot it is generated.  The run has
drained once every cell is delivered and every source's last poll
returned ``math.inf``, which a spent source does in the slot after its
last record.  While every cell is delivered, no control word is
pending and no source is due, no slot can change anything, so the run
jumps to the next slot a source is due (or to ``max_slots``).

Losslessness is enforced, not assumed: queue overflows raise
immediately, a fabric misroute at its structural replay, and every
sink checks per-flow sequence numbers and raises at the first
misrouted, dropped, duplicated or reordered cell.  The run also counts
the cells in the VOQs and raises at the first slot where some are
queued but arbitration matches none: either arbiter pairs an output
that has a request, so no request bit is set and the run would stall.

A run is described by ``config.EngineConfig`` and
``config.TrafficSpec``, which state its defaults and check its values.
``StarNetwork`` builds every source, bank, arbiter and fabric from
them, and the components do not check those values again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .codec import FRAME_BYTES, HEADER_BYTES
from .config import ISLIP, SAFC, EngineConfig, TrafficSpec
from .errors import SimInvariantError
from .scheduler import IslipScheduler, SafcScheduler
from .traffic import SourceProcess
from .voq import VOQBank


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
    staged_cells: int       # at exit: in endpoint staging
    in_flight_cells: int    # at exit: on links, in egress, in VOQs
    delivered_wire_bytes: int
    last_delivery: int
    first_generation: int
    last_generation: int
    pauses: int
    unpauses: int
    peak_voq_occupancy: int
    fabric_checks: int
    latency_hist: dict[int, int] = field(repr=False)

    # -- latency -------------------------------------------------------------

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile of delivered-cell latency: the
        latency at rank ceil(p * n / 100), at least 1, of the n sorted
        cells, so p = 0 is the minimum and p = 100 the maximum.  A p
        outside [0, 100], NaN included, is a ValueError."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile p = {p} outside [0, 100]")
        if not self.delivered_cells:
            raise SimInvariantError("no deliveries to take a percentile of")
        rank = math.ceil(p * self.delivered_cells / 100)
        cum = 0
        for latency in sorted(self.latency_hist):
            cum += self.latency_hist[latency]
            if cum >= rank:
                return latency
        raise AssertionError("histogram does not cover its own total")

    def mean_latency(self) -> float | None:
        """Mean delivered-cell latency; None before any delivery."""
        if not self.delivered_cells:
            return None
        total = sum(k * c for k, c in self.latency_hist.items())
        return total / self.delivered_cells

    # -- bandwidth -----------------------------------------------------------

    @property
    def delivery_window(self) -> int:
        """Slots from the first generated cell, which finds nothing
        staged or paused and so leaves in the slot it is generated, to
        the last delivery."""
        return self.last_delivery - self.first_generation + 1

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
    def offered_load_pct(self) -> float | None:
        """Measured arrival intensity: generated cells per port-slot
        over the generation window; None before any cell is generated,
        when the window is undefined."""
        window = self.last_generation - self.first_generation + 1
        return (100.0 * self.generated_cells / (self.config.n_ports * window)
                if self.generated_cells else None)

    # -- integrity -----------------------------------------------------------

    def verify(self) -> None:
        """Raise unless the run was provably lossless: no queue went
        past its capacity and every cell is accounted for.  Order needs
        no check here, since a sink raises during the run at the first
        misrouted, dropped, duplicated or reordered cell.  SAFC matches a
        cell within (n - 1) * voq_capacity() - 1 slots of landing; iSLIP
        has no such bound yet, as a granted input may accept another output."""
        config, cap = self.config, self.config.voq_capacity()
        if self.peak_voq_occupancy > cap:
            raise SimInvariantError("queue exceeded its stated capacity")
        above = max(self.latency_hist, default=0) - config.latency_floor()
        if config.scheduler == SAFC and above >= (config.n_ports - 1) * cap:
            raise SimInvariantError("SAFC latency exceeded its stated bound")
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
        before any delivery, the offered load before any generated cell."""
        delivered = self.delivered_cells
        summary = (tuple(map(self.percentile, (0, 50, 75, 90, 95, 99, 100)))
                   if delivered else None)
        load = self.offered_load_pct
        return {
            "n_ports": self.config.n_ports,
            "scheduler": self.config.scheduler,
            "mode": self.traffic.mode,
            "size_mode": self.traffic.size_mode,
            "nominal_load_pct": 100.0 * self.traffic.load,
            "offered_load_pct": None if load is None else round(load, 4),
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
        self.sources = [SourceProcess(traffic, port, n, config.seed)
                        for port in range(n)]
        # Per output, the bitmask of inputs holding a cell for it: the
        # banks keep their own bits and the arbiter reads the masks.
        # The banks also post their (port, channel, pause) control
        # words to one list, which the slot loop empties.
        self.out_requests = [0] * n
        self.posted = []
        self.banks = [VOQBank(n, config.voq_capacity(), config.on_threshold,
                              config.off_threshold, self.out_requests,
                              self.posted, i)
                      for i in range(n)]
        if config.scheduler == ISLIP:
            from .fabric import SortRouteFabric  # only iSLIP needs it
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
        max_slots = math.inf if config.max_slots is None else config.max_slots

        # Bind the per-port callables once; the slot loop below is the
        # hot path and runs millions of times.
        bank_enqueue = [bank.enqueue for bank in self.banks]
        bank_dequeue = [bank.dequeue for bank in self.banks]
        match = self.scheduler.match
        route = self.fabric.route if self.fabric is not None else None
        ports = range(n)

        # Per host, one staging list per destination, taken from the
        # head.  Unbounded staging stays shallow: at full scale (500 kB
        # per flow, seed 1, full load) the deepest channel holds 373
        # cells for bursty variable-size iSLIP, 291 for bursty
        # fixed-size SAFC and 114 for Bernoulli fixed-size iSLIP.
        src_chan = [[[] for _ in ports] for _ in ports]
        src_mask = [0] * n                   # nonempty staging channels
        src_rr = [0] * n
        src_pause = [0] * n
        due = [0] * n                        # slot of the next poll
        succ = [*range(1, n), 0]             # (k + 1) % n
        hosts = list(zip(ports, [s.poll for s in self.sources], src_chan))
        # an int bound: no list reaches it, and an int compares faster
        staging = (sys.maxsize if config.channel_buffer is None
                   else config.channel_buffer)

        # The staging lists, where a cell that overfills its channel
        # waits too, and the uplink hold traffic cell records (src, dst,
        # flow_seq, valid_bytes, eop): a record's src is the port that
        # sent it, and it left uplink_delay slots before it lands.  From
        # the VOQ on, each record travels paired with its transmit slot
        # as (injected_at, record), and the VOQs are lists too.  The
        # uplink and control rings hold, per slot, a list of the records
        # landing on the uplinks and of the (port, channel, pause)
        # control words, pause False for an unpause.  The downlink ring
        # holds, per slot, None or the one matched slot due at the
        # sinks: (pairs, cells), the matching and the (injected_at,
        # record) dequeued for each of its pairs.  An entry put at
        # ring[(slot + delay) % size] is taken at slot + delay.
        size = max(up_delay, out_delay) + 1
        uplink = [[] for _ in range(size)]
        downlink = [None] * size
        control = [[] for _ in range(size)]
        out_requests = self.out_requests
        posted = self.posted
        expected_seq = [[0] * n for _ in ports]

        # Delivered cells per latency, indexed by latency and grown on
        # demand; the report gets it as a dict of the latencies seen.
        latency_counts = [0] * (config.latency_floor() + 1)
        generated = injected = delivered = 0
        queued = 0                           # cells in the VOQs
        delivered_payload = 0                # valid bytes of delivered cells
        first_generation = -1
        last_generation = last_delivery = -1
        pauses = unpauses = 0

        slot = 0
        while True:
            now = slot % size
            for i, channel, pause in control[now]:
                if pause:
                    src_pause[i] |= 1 << channel
                else:
                    src_pause[i] &= ~(1 << channel)
            control[now].clear()

            arrivals = downlink[now]
            if arrivals is not None:
                downlink[now] = None
                matched, cells = arrivals
                for (_, out_port), \
                        (injected_at, (src, dst, flow_seq, valid, _)) \
                        in zip(matched, cells):
                    try:
                        latency_counts[slot - injected_at] += 1
                    except IndexError:  # longer than any latency so far
                        latency_counts += [0] * (
                            slot - injected_at + 1 - len(latency_counts))
                        latency_counts[slot - injected_at] += 1
                    seqs = expected_seq[src]
                    if dst != out_port or flow_seq != seqs[out_port]:
                        raise SimInvariantError(
                            f"output {out_port} got cell {flow_seq} of flow "
                            f"{src}->{dst}; flow {src}->{out_port} expected "
                            f"cell {seqs[out_port]}")
                    seqs[out_port] = flow_seq + 1
                    delivered_payload += valid
                delivered += len(cells)
                last_delivery = slot

            injected_at = slot - up_delay
            landing = uplink[now]
            for record in landing:
                bank_enqueue[record[0]](record[1], (injected_at, record))
            queued += len(landing)
            landing.clear()
            if posted:
                # pauses depart with this slot's downlink frame
                control[(slot + down_delay) % size] += posted
                pauses += len(posted)
                posted.clear()

            sent = uplink[(slot + up_delay) % size]
            generated_before = generated
            for i, poll, chans in hosts:
                # host step, closed-loop: generate at most one new cell,
                # polling only when an arrival may be due.  A cell that
                # overfills its channel blocks the host -- suspending
                # generation -- until the send below brings that channel
                # back to the cap.  A blocked host has a staged cell, so
                # neither the drain test nor the empty-network jump
                # below takes its math.inf for a spent source.
                if due[i] <= slot:
                    cell = poll()
                    if cell.__class__ is not tuple:
                        due[i] = slot + cell  # idle slots ahead
                    else:
                        generated += 1
                        dst = cell[1]
                        paused = src_pause[i]
                        if not (src_mask[i] & ~paused or paused >> dst & 1):
                            # the only sendable cell, for an empty
                            # channel: the round robin would send it
                            src_rr[i] = succ[dst]
                            sent.append(cell)
                            continue
                        queue = chans[dst]
                        queue.append(cell)
                        src_mask[i] |= 1 << dst
                        if len(queue) > staging:
                            due[i] = math.inf  # blocked

                # adapter transmit: round robin over unpaused channels
                mask = src_mask[i]
                if mask and (eligible := mask & ~src_pause[i]):
                    start = src_rr[i]
                    hi = eligible >> start
                    if hi:
                        dst = start + (hi & -hi).bit_length() - 1
                    else:
                        dst = (eligible & -eligible).bit_length() - 1
                    src_rr[i] = succ[dst]
                    queue = chans[dst]
                    sent.append(queue.pop(0))
                    if not queue:
                        src_mask[i] &= ~(1 << dst)
                    elif len(queue) == staging:
                        # back at the cap, which only a blocking cell
                        # passes: the host polls again next slot
                        due[i] = slot + 1
            injected += len(sent)
            if generated != generated_before:
                last_generation = slot
                if first_generation < 0:
                    first_generation = slot

            # arbitration and fabric traversal, only while the VOQs hold
            # a cell: either arbiter pairs an output that has a request
            if queued:
                pairs = match(out_requests)
                if not pairs:
                    # queued cells that no arbiter will ever see
                    raise SimInvariantError(
                        f"{queued} cells queued with no request bit set")
                if route is not None:
                    route(pairs)
                downlink[(slot + out_delay) % size] = (
                    pairs, [bank_dequeue[i](j) for i, j in pairs])
                queued -= len(pairs)
                if posted:
                    # unpauses depart with the next downlink frame
                    control[(slot + 1 + down_delay) % size] += posted
                    unpauses += len(posted)
                    posted.clear()

            slot += 1
            if delivered == injected == generated:
                if (wake := min(due)) == math.inf:
                    drained = True
                    break
                if wake > slot and not any(control):
                    # an empty network: nothing happens before the wake
                    slot = min(wake, max_slots)
            if slot >= max_slots:
                drained = False
                break

        # Count the cells where they sit, independently of the running
        # counters, so verify() can check conservation on any run.
        staged = sum(map(len, (chan for chans in src_chan for chan in chans)))
        in_flight = sum(map(len, uplink))
        in_flight += sum(len(entry[1]) for entry in downlink if entry)
        in_flight += sum(len(queue) for bank in self.banks
                         for queue in bank.queues)
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
            delivered_wire_bytes=delivered_payload + HEADER_BYTES * delivered,
            last_delivery=last_delivery,
            first_generation=first_generation,
            last_generation=last_generation,
            pauses=pauses,
            unpauses=unpauses,
            peak_voq_occupancy=max(bank.peak for bank in self.banks),
            fabric_checks=(0 if self.fabric is None
                           else self.fabric.structural_checks),
            latency_hist={latency: count for latency, count
                          in enumerate(latency_counts) if count},
        )


def run_star(config: EngineConfig, traffic: TrafficSpec) -> MetricsReport:
    """Build the network, run it to completion, and verify integrity."""
    report = StarNetwork(config, traffic).run()
    report.verify()
    return report

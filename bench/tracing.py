"""The traced run: host time per layer, timed around each layer's calls.

The benchmark builds every point itself and wraps the callables the
simulator calls on its hot path: for the star, the instance callables
``StarNetwork.run`` binds when it starts (``source.poll``,
``bank.enqueue``/``dequeue``, ``scheduler.match``, ``fabric.route``);
for the link, the ``DuplexLink.step`` and ``LinkEndpoint.emit``/
``receive`` methods.  Wrapping costs time on every call, so each
traced pass is paired with an untraced pass of the same points; the
ratio of their walls is the tracing overhead, and nothing here feeds
an end-to-end metric.

Calls number in the millions, so spans are aggregated in memory per
callable (calls and inclusive time).  Time inside the outermost
wrapped calls is kept apart from nested calls (``emit`` and
``receive`` run inside ``step``), so the traced wall splits exactly
into wrapped time plus the self time of the loop that calls them:
``StarNetwork.run`` for the star, ``run_point_to_point`` for the link.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

# Per-layer metrics: name -> (unit, better).  Every traced run reports
# all of them; a layer the workload does not run reads 0.
LAYER_METRICS = {
    "engine.self_s": ("s", "lower"),
    "engine.self_share": ("share", "lower"),
    "engine.busy_port_share": ("share", "higher"),
    "engine.slots": ("slots", "lower"),
    "traffic.poll.calls": ("count", "lower"),
    "traffic.poll.us_per_call": ("us", "lower"),
    "traffic.poll.share": ("share", "lower"),
    "traffic.cells_per_poll": ("cells/call", "higher"),
    "voq.enqueue.us_per_call": ("us", "lower"),
    "voq.dequeue.us_per_call": ("us", "lower"),
    "voq.share": ("share", "lower"),
    "voq.pauses": ("count", "lower"),
    "voq.peak_occupancy": ("cells", "lower"),
    "scheduler.match.calls": ("count", "lower"),
    "scheduler.match.us_per_call": ("us", "lower"),
    "scheduler.match.share": ("share", "lower"),
    "scheduler.pairs_per_match": ("pairs/call", "higher"),
    "fabric.route.us_per_call": ("us", "lower"),
    "fabric.route.share": ("share", "lower"),
    "fabric.structural_checks": ("count", "higher"),
    "link.step.us_per_call": ("us", "lower"),
    "link.emit.us_per_call": ("us", "lower"),
    "link.receive.us_per_call": ("us", "lower"),
    "link.retx_cycles": ("count", "lower"),
    "link.replays_per_delivered": ("ratio", "lower"),
    "link.dups_dropped": ("count", "lower"),
    "cli.points_s_sum": ("s", "lower"),
    "cli.points_s_max": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.wrapped_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


class Tracer:
    """Calls and inclusive host time per wrapped callable."""

    def __init__(self):
        self.calls: dict[str, list] = {}   # name -> [calls, seconds]
        self.outer_s = 0.0                 # inside outermost wrapped calls
        self.depth = 0

    def wrap(self, name: str, fn):
        stat = self.calls.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        tracer = self

        def traced(*args):
            tracer.depth += 1
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                tracer.depth -= 1
                stat[0] += 1
                stat[1] += elapsed
                if not tracer.depth:
                    tracer.outer_s += elapsed

        return traced

    def count(self, name: str) -> int:
        return self.calls.get(name, (0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.calls.get(name, (0, 0.0))[1]


def instrument_star(network, tracer: Tracer) -> None:
    """Wrap the callables ``StarNetwork.run`` binds when it starts."""
    for source in network.sources:
        source.poll = tracer.wrap("traffic.poll", source.poll)
    for bank in network.banks:
        bank.enqueue = tracer.wrap("voq.enqueue", bank.enqueue)
        bank.dequeue = tracer.wrap("voq.dequeue", bank.dequeue)
    network.scheduler.match = tracer.wrap("scheduler.match",
                                          network.scheduler.match)
    if network.fabric is not None:
        network.fabric.route = tracer.wrap("fabric.route",
                                           network.fabric.route)


@contextmanager
def instrument_link(tracer: Tracer, endpoints: list):
    """Wrap the link's methods for the duration of the block, and
    collect every endpoint created meanwhile for its counters."""
    from cellswitch.link import DuplexLink, LinkEndpoint

    targets = [(DuplexLink, "step", "link.step"),
               (LinkEndpoint, "emit", "link.emit"),
               (LinkEndpoint, "receive", "link.receive")]
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr in
             [(DuplexLink, "step"), (LinkEndpoint, "emit"),
              (LinkEndpoint, "receive"), (LinkEndpoint, "__init__")]]
    init = LinkEndpoint.__init__

    def recording_init(self, *args):
        init(self, *args)
        endpoints.append(self)

    try:
        for cls, attr, name in targets:
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
        LinkEndpoint.__init__ = recording_init
        yield
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)


# -- one untraced and one traced pass over a workload's points -------------


def _star_pass(points, tracer: Tracer | None):
    """Run every star point; return (reports, per-point walls)."""
    from cellswitch.engine import StarNetwork

    reports, walls = [], []
    for config, traffic in points:
        network = StarNetwork(config, traffic)
        if tracer is not None:
            instrument_star(network, tracer)
        start = time.perf_counter()
        report = network.run()
        walls.append(time.perf_counter() - start)
        report.verify()
        reports.append(report)
    return reports, walls


def _link_pass(points, tracer: Tracer | None, endpoints: list):
    """Run every link point; return (results, per-point walls)."""
    from cellswitch.link import run_point_to_point

    results, walls = [], []
    for point in points:
        with (nullcontext() if tracer is None
              else instrument_link(tracer, endpoints)):
            start = time.perf_counter()
            results.append(run_point_to_point(**point))
            walls.append(time.perf_counter() - start)
    return results, walls


def traced_run(setup, is_link: bool, seconds: float) -> dict:
    """Pairs of untraced and traced passes until ``seconds`` are used
    (at least one pair).  Returns per-layer metrics per pass, the
    operation counts, and the coarse spans for the trace file."""
    tracer = Tracer()
    endpoints: list = []
    spans: list[dict] = []
    plain_walls: list[list[float]] = []    # per pair, per point
    traced_walls: list[list[float]] = []
    attempted = failed = pairs = 0
    outputs = None
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        if is_link:
            plain, walls = _link_pass(setup.points, None, endpoints)
            traced, t_walls = _link_pass(setup.points, tracer, endpoints)
            same = [a == b for a, b in zip(plain, traced)]
        else:
            plain, walls = _star_pass(setup.points, None)
            traced, t_walls = _star_pass(setup.points, tracer)
            same = [a.to_dict() == b.to_dict() for a, b in zip(plain, traced)]
        pairs += 1
        attempted += len(setup.points)
        failed += same.count(False)
        plain_walls.append(walls)
        traced_walls.append(t_walls)
        outputs = traced
        spans.append({"name": f"pair{pairs}", "start": pair_start - begin,
                      "end": time.perf_counter() - begin, "parent": None,
                      "untraced_point_s": walls, "traced_point_s": t_walls})
        now = time.perf_counter()
        if now - begin + (now - pair_start) > seconds:
            break

    plain_s = sum(map(sum, plain_walls))
    traced_s = sum(map(sum, traced_walls))
    wall = traced_s / pairs
    metrics = dict.fromkeys(LAYER_METRICS, 0)

    def per_call(name):
        calls = tracer.count(name)
        return 1e6 * tracer.seconds(name) / calls if calls else 0.0

    def share(*names):
        return sum(tracer.seconds(n) for n in names) / pairs / wall

    metrics.update({
        "engine.self_s": wall - tracer.outer_s / pairs,
        "engine.self_share": 1.0 - tracer.outer_s / pairs / wall,
        "cli.points_s_sum": plain_s / pairs,
        "cli.points_s_max": max(map(sum, zip(*plain_walls))) / pairs,
        "trace.wall_s": wall,
        "trace.wrapped_s": tracer.outer_s / pairs,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    })
    if is_link:
        # Every endpoint of every traced pass; counters repeat exactly.
        delivered = sum(e.delivered for e in endpoints)
        metrics.update({
            "link.step.us_per_call": per_call("link.step"),
            "link.emit.us_per_call": per_call("link.emit"),
            "link.receive.us_per_call": per_call("link.receive"),
            "link.retx_cycles": sum(r.cycles_a + r.cycles_b
                                    for r in outputs),
            "link.replays_per_delivered":
                sum(e.replays_emitted for e in endpoints) / delivered,
            "link.dups_dropped": sum(e.dups_dropped for e in endpoints)
                // pairs,
        })
    else:
        polls = tracer.count("traffic.poll") // pairs
        metrics.update({
            "engine.busy_port_share": sum(r.injected_cells for r in outputs)
                / sum(r.config.n_ports * r.slots_run for r in outputs),
            "engine.slots": sum(r.slots_run for r in outputs),
            "traffic.poll.calls": polls,
            "traffic.poll.us_per_call": per_call("traffic.poll"),
            "traffic.poll.share": share("traffic.poll"),
            "traffic.cells_per_poll":
                sum(r.generated_cells for r in outputs) / polls,
            "voq.enqueue.us_per_call": per_call("voq.enqueue"),
            "voq.dequeue.us_per_call": per_call("voq.dequeue"),
            "voq.share": share("voq.enqueue", "voq.dequeue"),
            "voq.pauses": sum(r.pauses for r in outputs),
            "voq.peak_occupancy": max(r.peak_voq_occupancy for r in outputs),
            "scheduler.match.calls": tracer.count("scheduler.match") // pairs,
            "scheduler.match.us_per_call": per_call("scheduler.match"),
            "scheduler.match.share": share("scheduler.match"),
            "scheduler.pairs_per_match":
                tracer.count("voq.dequeue") / tracer.count("scheduler.match"),
            "fabric.route.us_per_call": per_call("fabric.route"),
            "fabric.route.share": share("fabric.route"),
            "fabric.structural_checks": sum(r.fabric_checks for r in outputs),
        })
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "runs": pairs,
        "spans": spans,
        "calls": {name: {"calls": c // pairs, "seconds": s / pairs}
                  for name, (c, s) in tracer.calls.items()},
    }

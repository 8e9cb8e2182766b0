"""Experiment runner: presets, sweeps, CSV reports, and comparisons.

Subcommands
-----------
``run``
    Execute an experiment described by an INI file (``--spec PATH``)
    or by a shipped preset (``--preset NAME``).  Each sweep point
    becomes one CSV row, written in spec order; a human-readable
    summary lands next to the CSV.  ``--seed`` may be given repeatedly
    to produce one report per seed.
``compare``
    Check a produced CSV against a reference CSV cell by cell, under
    per-metric tolerances, and emit a machine-readable verdict table.
``presets``
    List the shipped presets.

Experiment file schema (INI; lists are space-separated)::

    [experiment]
    name = bandwidth-bernoulli-fixed-islip
    kind = sweep              ; sweep | ber-sweep | protocol-checks

    [topology]                ; kind = sweep
    ports = 32
    scheduler = islip         ; islip | safc | several, space-separated
    islip_iterations =        ; blank = automatic
    uplink_delay = 7
    downlink_delay = 7
    egress_delay = 3
    on_threshold = 10
    off_threshold = 7
    channel_buffer =          ; blank = unbounded staging
    max_slots =               ; blank = run until drained

    [traffic]                 ; kind = sweep
    pattern = bernoulli       ; bernoulli | bursty | both, space-separated
    size_mode = fixed         ; fixed | variable
    volume_bytes = 500000     ; bytes per device pair
    min_packet_bytes = 64
    max_packet_bytes = 2048
    burst_mean_cells = 4.0
    workloads = 10 20 30 40 50 60 70 80 90 100   ; percent

    [link]                    ; kind = ber-sweep | protocol-checks
    one_way_delay = 7
    slots = 1000000
    bers = 0 1e-12 1e-11 1e-10 1e-9 1e-8 1e-7 1e-6 1e-5
    load = 1.0

    [checks]                  ; kind = protocol-checks
    max_ports = 16
    round_trip_ports = 8

    [run]
    seeds = 1

Sweep rows multiply ``pattern`` x ``workloads`` x ``scheduler``, in
that nesting order.  CSV columns (stable, documented): pattern,
size_mode, scheduler, nominal_load_pct, measured_load_pct,
utilization_pct, p1, p50, p75, p90, p95, p99, p100, retx, fc_events,
seed.  Percentiles are cell latencies in cell times; fields that do
not apply to a row kind are left empty, as are utilization and
percentiles of a run cut short before its first delivery.  Lines
starting with ``#`` in any CSV are comments.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation
invariant violation or any other internal error (the traceback is
written to ``cellswitch-error.txt`` in the current directory).
``compare --strict`` treats an out-of-tolerance verdict as a
configuration-style failure (exit 1).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .codec import (
    CELL_PAYLOAD_BYTES,
    Cell,
    L1Meta,
    L2Header,
    RouteKind,
    route_lookup,
    rotate_header,
    selector_for,
    source_address,
)
from .engine import (
    DEFAULT_CHANNEL_BUFFER,
    DEFAULT_OFF_THRESHOLD,
    DEFAULT_ON_THRESHOLD,
    DOWNLINK_DELAY,
    EGRESS_DELAY,
    ISLIP,
    SAFC,
    UPLINK_DELAY,
    EngineConfig,
    run_star,
)
from .errors import ConfigError, SimInvariantError
from .link import FaultSchedule, run_point_to_point
from .traffic import BERNOULLI, BURSTY, TrafficSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTERNAL = 2

LATENCY_COLUMNS = ["p1", "p50", "p75", "p90", "p95", "p99", "p100"]

CSV_COLUMNS = [
    "pattern", "size_mode", "scheduler", "nominal_load_pct",
    "measured_load_pct", "utilization_pct", *LATENCY_COLUMNS,
    "retx", "fc_events", "seed",
]

CHECK_COLUMNS = ["check", "status", "detail"]

KIND_SWEEP = "sweep"
KIND_BER = "ber-sweep"
KIND_CHECKS = "protocol-checks"


# -- experiment description ----------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment file, fully parsed and validated.

    The sweep fields default to the engine's and the traffic source's
    own defaults; only the per-flow volume has one of its own.
    """

    name: str
    kind: str = KIND_SWEEP
    seeds: tuple[int, ...] = (1,)
    # kind = sweep
    ports: int = 32
    schedulers: tuple[str, ...] = (ISLIP,)
    islip_iterations: int | None = None
    uplink_delay: int = UPLINK_DELAY
    downlink_delay: int = DOWNLINK_DELAY
    egress_delay: int = EGRESS_DELAY
    on_threshold: int = DEFAULT_ON_THRESHOLD
    off_threshold: int = DEFAULT_OFF_THRESHOLD
    channel_buffer: int | None = DEFAULT_CHANNEL_BUFFER
    max_slots: int | None = None
    patterns: tuple[str, ...] = (BERNOULLI,)
    size_mode: str = TrafficSpec.size_mode
    volume_bytes: int = 500_000
    min_packet_bytes: int = TrafficSpec.min_packet_bytes
    max_packet_bytes: int = TrafficSpec.max_packet_bytes
    burst_mean_cells: float = TrafficSpec.burst_mean_cells
    workloads: tuple[float, ...] = ()
    # kind = ber-sweep / protocol-checks
    one_way_delay: int = 7
    slots: int = 1_000_000
    bers: tuple[float, ...] = ()
    link_load: float = 1.0
    max_ports: int = 16
    round_trip_ports: int = 8


def _get(parser, section, option):
    """The option's text, or None when it is absent or blank."""
    if not parser.has_option(section, option):
        return None
    return parser.get(section, option).strip() or None


def _words(convert):
    return lambda raw: tuple(convert(part) for part in raw.split())


# (section, option, ExperimentSpec field, parser).  An option absent
# from the file, or blank, leaves its field at the default.
_OPTIONS = (
    ("experiment", "kind", "kind", str),
    ("run", "seeds", "seeds", _words(int)),
    ("topology", "ports", "ports", int),
    ("topology", "scheduler", "schedulers", _words(str)),
    ("topology", "islip_iterations", "islip_iterations", int),
    ("topology", "uplink_delay", "uplink_delay", int),
    ("topology", "downlink_delay", "downlink_delay", int),
    ("topology", "egress_delay", "egress_delay", int),
    ("topology", "on_threshold", "on_threshold", int),
    ("topology", "off_threshold", "off_threshold", int),
    ("topology", "channel_buffer", "channel_buffer", int),
    ("topology", "max_slots", "max_slots", int),
    ("traffic", "pattern", "patterns", _words(str)),
    ("traffic", "size_mode", "size_mode", str),
    ("traffic", "volume_bytes", "volume_bytes", int),
    ("traffic", "min_packet_bytes", "min_packet_bytes", int),
    ("traffic", "max_packet_bytes", "max_packet_bytes", int),
    ("traffic", "burst_mean_cells", "burst_mean_cells", float),
    ("traffic", "workloads", "workloads", _words(float)),
    ("link", "one_way_delay", "one_way_delay", int),
    ("link", "slots", "slots", int),
    ("link", "bers", "bers", _words(float)),
    ("link", "load", "link_load", float),
    ("checks", "max_ports", "max_ports", int),
    ("checks", "round_trip_ports", "round_trip_ports", int),
)


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate the INI form of an experiment."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed experiment file: {exc}") from None
    if not parser.has_section("experiment"):
        raise ConfigError("experiment file needs an [experiment] section")
    name = _get(parser, "experiment", "name")
    if not name:
        raise ConfigError("[experiment] name is required")
    present = {}
    for section, option, attr, convert in _OPTIONS:
        raw = _get(parser, section, option)
        if raw is None:
            continue
        try:
            present[attr] = convert(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {option}: cannot parse "
                              f"{raw!r}") from None
    spec = ExperimentSpec(name=name, **present)
    if spec.kind not in (KIND_SWEEP, KIND_BER, KIND_CHECKS):
        raise ConfigError(f"unknown experiment kind {spec.kind!r}")
    if spec.kind == KIND_SWEEP:
        if not spec.workloads:
            raise ConfigError("[traffic] workloads is required for sweeps")
        for load in spec.workloads:
            if not 0 < load <= 100:
                raise ConfigError(f"workload {load} outside (0, 100]")
        for scheduler in spec.schedulers:
            if scheduler not in (ISLIP, SAFC):
                raise ConfigError(f"unknown scheduler {scheduler!r}")
        for pattern in spec.patterns:
            if pattern not in (BERNOULLI, BURSTY):
                raise ConfigError(f"unknown pattern {pattern!r}")
    if spec.kind == KIND_BER and not spec.bers:
        raise ConfigError("[link] bers is required for a ber sweep")
    return spec


def load_preset(name: str) -> str:
    """Return the INI text of a shipped preset."""
    path = resources.files(__package__).joinpath("presets", f"{name}.ini")
    if not path.is_file():
        raise ConfigError(
            f"unknown preset {name!r} (try the `presets` subcommand)")
    return path.read_text()


def preset_names() -> list[str]:
    root = resources.files(__package__).joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir()
                  if p.name.endswith(".ini"))


# -- sweep-point execution -------------------------------------------------


def _sweep_points(spec: ExperimentSpec, seed: int) -> list[dict]:
    points = []
    for pattern in spec.patterns:
        for load in spec.workloads:
            for scheduler in spec.schedulers:
                points.append({
                    "kind": KIND_SWEEP, "spec": spec, "seed": seed,
                    "pattern": pattern, "load": load,
                    "scheduler": scheduler,
                })
    return points


def _points_for(spec: ExperimentSpec, seed: int) -> list[dict]:
    if spec.kind == KIND_SWEEP:
        return _sweep_points(spec, seed)
    if spec.kind == KIND_BER:
        return [{"kind": KIND_BER, "spec": spec, "seed": seed, "ber": ber}
                for ber in spec.bers]
    return [{"kind": KIND_CHECKS, "spec": spec, "seed": seed,
             "check": check} for check in CHECKS]


def _run_sweep_point(point: dict) -> dict:
    spec: ExperimentSpec = point["spec"]
    config = EngineConfig(
        n_ports=spec.ports,
        scheduler=point["scheduler"],
        seed=point["seed"],
        on_threshold=spec.on_threshold,
        off_threshold=spec.off_threshold,
        channel_buffer=spec.channel_buffer,
        islip_iterations=spec.islip_iterations,
        uplink_delay=spec.uplink_delay,
        downlink_delay=spec.downlink_delay,
        egress_delay=spec.egress_delay,
        max_slots=spec.max_slots,
    )
    traffic = TrafficSpec(
        mode=point["pattern"],
        size_mode=spec.size_mode,
        load=point["load"] / 100.0,
        volume_bytes=spec.volume_bytes,
        min_packet_bytes=spec.min_packet_bytes,
        max_packet_bytes=spec.max_packet_bytes,
        burst_mean_cells=spec.burst_mean_cells,
    )
    report = run_star(config, traffic)
    # A run cut short before its first delivery has no latencies and
    # no delivery window: those fields stay empty.
    utilization = ""
    latencies = dict.fromkeys(LATENCY_COLUMNS, "")
    if report.delivered_cells:
        utilization = f"{report.utilization_pct:.2f}"
        summary = report.latency_summary()
        latencies = dict(zip(LATENCY_COLUMNS,
                             (report.percentile(1), *summary[1:])))
    return {
        "pattern": point["pattern"],
        "size_mode": spec.size_mode,
        "scheduler": point["scheduler"],
        "nominal_load_pct": _fmt(point["load"]),
        "measured_load_pct": f"{report.offered_load_pct:.2f}",
        "utilization_pct": utilization,
        **latencies,
        "retx": 0,
        "fc_events": report.pauses + report.unpauses,
        "seed": point["seed"],
    }


def _run_ber_point(point: dict) -> dict:
    spec: ExperimentSpec = point["spec"]
    result = run_point_to_point(spec.one_way_delay, spec.slots,
                                ber=point["ber"], load=spec.link_load,
                                seed=point["seed"])
    for delivered, sent in ((result.delivered_at_b, result.sent_a),
                            (result.delivered_at_a, result.sent_b)):
        if delivered != list(range(len(delivered))):
            raise SimInvariantError(
                "link delivery was not exactly-once in order")
        if len(delivered) > sent:
            raise SimInvariantError("delivered more than was sent")
    return {
        "pattern": f"p2p-ber-{point['ber']:g}",
        "size_mode": "fixed",
        "scheduler": "",
        "nominal_load_pct": _fmt(spec.link_load * 100),
        "measured_load_pct": f"{100 * result.sent_a / spec.slots:.2f}",
        "utilization_pct": f"{100 * result.goodput():.4f}",
        **dict.fromkeys(LATENCY_COLUMNS, ""),
        "retx": result.cycles_a + result.cycles_b,
        "fc_events": 0,
        "seed": point["seed"],
    }


# -- protocol checks -------------------------------------------------------


def _check_selector_algebra(spec: ExperimentSpec, seed: int) -> str:
    """Relative addressing is a bijection and inverts cleanly."""
    for n in range(2, spec.max_ports + 1):
        for ingress in range(n):
            seen = set()
            for egress in range(n):
                if egress == ingress:
                    continue
                sel = selector_for(ingress, egress, n)
                decision = route_lookup(
                    ingress,
                    L2Header(total_hops=1, remain_hops=1,
                             dst_ports=[sel, 0, 0, 0, 0]),
                    n)
                if decision.kind is not RouteKind.UNICAST \
                        or decision.egress != egress:
                    raise SimInvariantError(
                        f"selector does not invert at n={n} "
                        f"{ingress}->{egress}")
                seen.add(sel)
            if seen != set(range(n - 1)):
                raise SimInvariantError(
                    f"selectors not a bijection at n={n} ingress {ingress}")
    return f"ports 2..{spec.max_ports} exhaustive"


def _route_one_hop(cell: Cell, ingress: int, n_ports: int) -> int:
    decision = route_lookup(ingress, cell.l2, n_ports)
    if decision.kind is not RouteKind.UNICAST:
        raise SimInvariantError(f"expected a unicast hop, got {decision}")
    rotate_header(cell, ingress, decision.egress, n_ports)
    return decision.egress


def _check_round_trip(spec: ExperimentSpec, seed: int) -> str:
    """Two chained switches: there and back again for all port pairs.

    Switch A port ``n-1`` is cabled to switch B port 0.  An endpoint
    on A sends to an endpoint on B through both hops; the delivered
    header's recorded trail must route a reply back to the sender.
    """
    n = spec.round_trip_ports
    trunk_a, trunk_b = n - 1, 0
    pairs = 0
    for src in range(n - 1):
        for dst in range(1, n):
            cell = Cell(
                l1=L1Meta(valid_bytes=CELL_PAYLOAD_BYTES, eop=True),
                l2=L2Header(total_hops=2, remain_hops=2, dst_ports=[
                    selector_for(src, trunk_a, n),
                    selector_for(trunk_b, dst, n),
                    0, 0, 0]),
                payload=bytes(CELL_PAYLOAD_BYTES),
            )
            if _route_one_hop(cell, src, n) != trunk_a:
                raise SimInvariantError("first hop left the trunk port")
            if _route_one_hop(cell, trunk_b, n) != dst:
                raise SimInvariantError(f"missed endpoint {dst}")
            if route_lookup(dst, cell.l2, n).kind is not RouteKind.DELIVER:
                raise SimInvariantError("route not spent on delivery")
            back = source_address(cell)
            reply = Cell(
                l1=L1Meta(valid_bytes=CELL_PAYLOAD_BYTES, eop=True),
                l2=L2Header(total_hops=2, remain_hops=2,
                            dst_ports=back + [0] * (5 - len(back))),
                payload=bytes(CELL_PAYLOAD_BYTES),
            )
            if _route_one_hop(reply, dst, n) != trunk_b:
                raise SimInvariantError("reply missed the trunk port")
            if _route_one_hop(reply, trunk_a, n) != src:
                raise SimInvariantError("reply missed the original sender")
            pairs += 1
    return f"{pairs} ordered pairs across two {n}-port switches"


def _check_recovery_timing(spec: ExperimentSpec, seed: int) -> str:
    """One corrupted frame: pause 2.5 RTT, correction 3.5 RTT (+1)."""
    delay = spec.one_way_delay
    rtt = 2 * delay
    fault = 10 * delay
    result = run_point_to_point(
        delay, slots=30 * delay + 60,
        faults=FaultSchedule(b_to_a=frozenset({fault})),
        record_kinds=True)
    pause = sum(kind == "rereq" for kind in result.kinds_a)
    if not abs(pause - 2.5 * rtt) <= 1:
        raise SimInvariantError(f"pause was {pause} slots, "
                                f"expected about {2.5 * rtt}")
    last_replay = max(i for i, kind in enumerate(result.kinds_b)
                      if kind == "replay")
    correction = last_replay - fault
    if not abs(correction - 3.5 * rtt) <= 1:
        raise SimInvariantError(f"correction took {correction} slots, "
                                f"expected about {3.5 * rtt}")
    return (f"pause {pause} slots, correction {correction} slots "
            f"at {rtt}-cell round trip")


def _check_bidirectional_faults(spec: ExperimentSpec, seed: int) -> str:
    """Simultaneous errors in both directions at every phase offset."""
    delay = spec.one_way_delay
    fault = 10 * delay
    offsets = range(0, 7 * delay + 2)
    for offset in offsets:
        result = run_point_to_point(
            delay, slots=40 * delay + 120,
            faults=FaultSchedule(a_to_b=frozenset({fault + offset}),
                                 b_to_a=frozenset({fault})))
        for delivered in (result.delivered_at_a, result.delivered_at_b):
            if delivered != list(range(len(delivered))):
                raise SimInvariantError(
                    f"loss or reorder at fault offset {offset}")
    return f"offsets 0..{offsets[-1]} recovered losslessly"


CHECKS = {
    "selector-algebra": _check_selector_algebra,
    "two-switch-round-trip": _check_round_trip,
    "recovery-timing": _check_recovery_timing,
    "bidirectional-faults": _check_bidirectional_faults,
}


def _run_check_point(point: dict) -> dict:
    detail = CHECKS[point["check"]](point["spec"], point["seed"])
    return {"check": point["check"], "status": "pass", "detail": detail}


def _run_point(point: dict) -> dict:
    if point["kind"] == KIND_SWEEP:
        return _run_sweep_point(point)
    if point["kind"] == KIND_BER:
        return _run_ber_point(point)
    return _run_check_point(point)


# -- report emission -------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:g}"


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: Path) -> list[dict]:
    """Read a report, skipping ``#`` comment lines."""
    with Path(path).open() as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _summary_lines(spec: ExperimentSpec, rows: list[dict],
                   elapsed: float) -> list[str]:
    lines = [f"experiment: {spec.name}", f"kind: {spec.kind}",
             f"rows: {len(rows)}", f"elapsed: {elapsed:.1f}s", ""]
    if spec.kind == KIND_CHECKS:
        for row in rows:
            lines.append(f"  {row['check']:<24} {row['status']:<6} "
                         f"{row['detail']}")
        return lines
    header = ("pattern", "size", "sched", "load%", "meas%", "util%",
              "p50", "p99", "max")
    lines.append("  " + " ".join(f"{h:>9}" for h in header))
    for row in rows:
        cells = (row["pattern"][:9], row["size_mode"], row["scheduler"],
                 row["nominal_load_pct"], row["measured_load_pct"],
                 row["utilization_pct"], str(row["p50"]), str(row["p99"]),
                 str(row["p100"]))
        lines.append("  " + " ".join(f"{c:>9}" for c in cells))
    return lines


def run_experiment(spec: ExperimentSpec, out_dir: Path, workers: int = 1,
                   verbose: bool = False) -> list[Path]:
    """Execute every point of the experiment; one CSV per seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = CHECK_COLUMNS if spec.kind == KIND_CHECKS else CSV_COLUMNS
    written = []
    for seed in spec.seeds:
        points = _points_for(spec, seed)
        start = time.monotonic()
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_point, points))
        else:
            rows = []
            for point in points:
                rows.append(_run_point(point))
                if verbose:
                    print(f"  done {rows[-1]}", file=sys.stderr)
        elapsed = time.monotonic() - start
        stem = (spec.name if len(spec.seeds) == 1
                else f"{spec.name}-seed{seed}")
        csv_path = out_dir / f"{stem}.csv"
        write_csv(csv_path, columns, rows)
        summary_path = out_dir / f"{stem}-summary.txt"
        summary_path.write_text(
            "\n".join(_summary_lines(spec, rows, elapsed)) + "\n")
        written.extend([csv_path, summary_path])
        if verbose:
            print(f"wrote {csv_path}", file=sys.stderr)
    return written


# -- comparison ------------------------------------------------------------

KEY_FIELDS = ("pattern", "size_mode", "scheduler", "nominal_load_pct")


def parse_tolerance(text: str) -> tuple[str, float]:
    """Parse ``abs:1.5`` or ``rel:20`` (percent)."""
    try:
        mode, _, raw = text.partition(":")
        value = float(raw)
    except ValueError:
        raise ConfigError(f"bad tolerance {text!r}") from None
    if mode not in ("abs", "rel") or value < 0:
        raise ConfigError(f"bad tolerance {text!r}")
    return mode, value


def _row_key(row: dict) -> tuple:
    key = []
    for field in KEY_FIELDS:
        value = (row.get(field) or "").strip()
        try:
            key.append(_fmt(float(value)))
        except ValueError:
            key.append(value)
    return tuple(key)


def compare_reports(measured: list[dict], reference: list[dict],
                    tolerances: dict[str, tuple[str, float]]) -> list[dict]:
    """Per-cell tolerance check of measured rows against a reference.

    Rows are matched on (pattern, size_mode, scheduler, nominal load);
    every tolerance-listed metric present on both sides of a matched
    row yields one verdict.  A reference row with no measured partner
    yields a single ``missing`` verdict, since silence must not pass.
    """
    index = {}
    for row in measured:
        index.setdefault(_row_key(row), row)
    verdicts = []
    for ref in reference:
        key = _row_key(ref)
        got_row = index.get(key)
        if got_row is None:
            verdicts.append({
                "pattern": ref.get("pattern", ""),
                "size_mode": ref.get("size_mode", ""),
                "scheduler": ref.get("scheduler", ""),
                "nominal_load_pct": ref.get("nominal_load_pct", ""),
                "metric": "", "measured": "", "reference": "",
                "tolerance": "", "status": "missing",
            })
            continue
        for metric, (mode, value) in sorted(tolerances.items()):
            want_raw = (ref.get(metric) or "").strip()
            got_raw = (got_row.get(metric) or "").strip()
            if not want_raw or not got_raw:
                continue
            want, got = float(want_raw), float(got_raw)
            allowed = value if mode == "abs" else abs(want) * value / 100.0
            verdicts.append({
                "pattern": ref.get("pattern", ""),
                "size_mode": ref.get("size_mode", ""),
                "scheduler": ref.get("scheduler", ""),
                "nominal_load_pct": ref.get("nominal_load_pct", ""),
                "metric": metric,
                "measured": got_raw,
                "reference": want_raw,
                "tolerance": f"{mode}:{_fmt(value)}",
                "status": "pass" if abs(got - want) <= allowed else "fail",
            })
    return verdicts


def reference_rows(name: str) -> list[dict]:
    """Load a vendored reference table (``bandwidth`` or ``latency``)."""
    path = resources.files(__package__).joinpath(
        "data", f"reference_{name}.csv")
    if not path.is_file():
        raise ConfigError(f"no reference table named {name!r}")
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


VERDICT_COLUMNS = ["pattern", "size_mode", "scheduler", "nominal_load_pct",
                   "metric", "measured", "reference", "tolerance", "status"]


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellswitch",
        description="Cell-switched network simulator experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", type=Path, help="experiment INI file")
    source.add_argument("--preset", help="name of a shipped preset")
    run.add_argument("--out", type=Path, default=Path("results"),
                     help="output directory (default: ./results)")
    run.add_argument("--seed", type=int, action="append", default=None,
                     help="override the spec's seeds; repeatable")
    run.add_argument("--workers", type=int, default=1,
                     help="sweep points run in this many processes")
    run.add_argument("-v", "--verbose", action="store_true")

    comp = sub.add_parser("compare", help="check a report against a "
                                          "reference table")
    comp.add_argument("--measured", type=Path, required=True)
    reference = comp.add_mutually_exclusive_group(required=True)
    reference.add_argument("--reference", type=Path,
                           help="reference CSV path")
    reference.add_argument("--builtin", choices=("bandwidth", "latency"),
                           help="a vendored reference table")
    comp.add_argument("--tolerance", action="append", default=[],
                      metavar="METRIC=MODE:VALUE",
                      help="e.g. utilization_pct=abs:1.5 or p99=rel:20; "
                           "repeatable")
    comp.add_argument("--out", type=Path, default=None,
                      help="write the verdict CSV here (default: stdout)")
    comp.add_argument("--strict", action="store_true",
                      help="exit 1 unless every verdict passes")

    sub.add_parser("presets", help="list shipped presets")
    return parser


def _cmd_run(args) -> int:
    text = (load_preset(args.preset) if args.preset
            else Path(args.spec).read_text())
    spec = parse_experiment(text)
    if args.seed:
        spec = replace(spec, seeds=tuple(args.seed))
    if args.workers < 1:
        raise ConfigError("need at least one worker")
    for path in run_experiment(spec, args.out, workers=args.workers,
                               verbose=args.verbose):
        print(path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    tolerances = {}
    for item in args.tolerance:
        metric, _, spec = item.partition("=")
        if not metric or not spec:
            raise ConfigError(f"bad --tolerance {item!r}")
        tolerances[metric.strip()] = parse_tolerance(spec.strip())
    if not tolerances:
        raise ConfigError("compare needs at least one --tolerance")
    measured = read_csv(args.measured)
    reference = (reference_rows(args.builtin) if args.builtin
                 else read_csv(args.reference))
    verdicts = compare_reports(measured, reference, tolerances)
    if args.out:
        write_csv(args.out, VERDICT_COLUMNS, verdicts)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=VERDICT_COLUMNS)
        writer.writeheader()
        writer.writerows(verdicts)
    failed = sum(v["status"] != "pass" for v in verdicts)
    print(f"# {len(verdicts) - failed} of {len(verdicts)} within tolerance",
          file=sys.stderr)
    if args.strict and failed:
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return EXIT_OK
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        trace_path = Path("cellswitch-error.txt")
        trace_path.write_text(traceback.format_exc())
        print(f"internal error: {exc} (trace: {trace_path})",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

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
    ports = 32                ; 2..256 (1-byte relative selectors)
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
    one_way_delay = 7         ; 1..31 (7-bit sequence field)
    slots = 1000000
    bers = 0 1e-12 1e-11 1e-10 1e-9 1e-8 1e-7 1e-6 1e-5
    load = 1.0

    [run]
    seeds = 1

Any other section or option is rejected as a configuration error, so
a misspelled name never falls back silently to a default, and so is
one the experiment kind does not read: the protocol checks (see
``checks``) read ``[link] one_way_delay`` and nothing else there.

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
import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

from .checks import CHECKS
from .engine import (
    DEFAULT_CHANNEL_BUFFER,
    DEFAULT_OFF_THRESHOLD,
    DEFAULT_ON_THRESHOLD,
    DOWNLINK_DELAY,
    EGRESS_DELAY,
    ISLIP,
    UPLINK_DELAY,
    EngineConfig,
    run_star,
)
from .errors import ConfigError
from .link import check_link, frame_error_probability, run_point_to_point
from .traffic import BERNOULLI, TrafficSpec

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


def _words(convert):
    return lambda raw: tuple(convert(part) for part in raw.split())


# The file schema of each experiment kind: section -> option ->
# parser.  Each option sets the ExperimentSpec field of its name, or
# the one _FIELDS gives; an option left blank keeps its field's default.
_COMMON = {"experiment": dict(name=str, kind=str),
           "run": dict(seeds=_words(int))}
_SCHEMAS = {
    KIND_SWEEP: {
        **_COMMON,
        "topology": dict(
            ports=int, scheduler=_words(str), islip_iterations=int,
            uplink_delay=int, downlink_delay=int, egress_delay=int,
            on_threshold=int, off_threshold=int, channel_buffer=int,
            max_slots=int),
        "traffic": dict(
            pattern=_words(str), size_mode=str, volume_bytes=int,
            min_packet_bytes=int, max_packet_bytes=int,
            burst_mean_cells=float, workloads=_words(float)),
    },
    KIND_BER: {**_COMMON, "link": dict(
        one_way_delay=int, slots=int, bers=_words(float), load=float)},
    KIND_CHECKS: {**_COMMON, "link": dict(one_way_delay=int)},
}
_FIELDS = {"scheduler": "schedulers", "pattern": "patterns",
           "load": "link_load"}


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate the INI form of an experiment."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed experiment file: {exc}") from None
    kind = parser.get("experiment", "kind", fallback="").strip() \
        or ExperimentSpec.kind
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    present = {}
    for section in parser.sections():
        options = schema.get(section)
        if options is None:
            raise ConfigError(f"[{section}]: unknown section for a {kind} "
                              "experiment")
        for option, raw in parser.items(section):
            if option not in options:
                raise ConfigError(f"[{section}] {option}: unknown option "
                                  f"for a {kind} experiment")
            raw = raw.strip()
            if not raw:
                continue
            try:
                present[_FIELDS.get(option, option)] = options[option](raw)
            except ValueError:
                raise ConfigError(f"[{section}] {option}: cannot parse "
                                  f"{raw!r}") from None
    if "name" not in present:
        raise ConfigError("[experiment] name is required")
    spec = ExperimentSpec(**present)
    if spec.name in (".", "..") or Path(spec.name).name != spec.name:
        raise ConfigError(f"[experiment] name {spec.name!r} names the "
                          "output files: it must be one path component")
    if spec.kind == KIND_SWEEP:
        if not spec.workloads:
            raise ConfigError("[traffic] workloads is required for sweeps")
        for load in spec.workloads:
            if not 0 < load <= 100:
                raise ConfigError(f"workload {load} outside (0, 100]")
    if spec.kind != KIND_SWEEP:
        check_link(spec.one_way_delay, spec.slots, spec.link_load)
    if spec.kind == KIND_BER:
        if not spec.bers:
            raise ConfigError("[link] bers is required for a ber sweep")
        for ber in spec.bers:
            frame_error_probability(ber)
    # Building the rows validates every engine and traffic value.
    _points_for(spec, spec.seeds[0])
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


# -- row calls -------------------------------------------------------------


def _points_for(spec: ExperimentSpec, seed: int) -> list[partial]:
    """One picklable call per CSV row, in row order."""
    if spec.kind == KIND_SWEEP:
        return [
            partial(_sweep_row, EngineConfig(
                n_ports=spec.ports, scheduler=scheduler, seed=seed,
                on_threshold=spec.on_threshold,
                off_threshold=spec.off_threshold,
                channel_buffer=spec.channel_buffer,
                islip_iterations=spec.islip_iterations,
                uplink_delay=spec.uplink_delay,
                downlink_delay=spec.downlink_delay,
                egress_delay=spec.egress_delay,
                max_slots=spec.max_slots,
            ), TrafficSpec(
                mode=pattern, size_mode=spec.size_mode, load=load / 100.0,
                volume_bytes=spec.volume_bytes,
                min_packet_bytes=spec.min_packet_bytes,
                max_packet_bytes=spec.max_packet_bytes,
                burst_mean_cells=spec.burst_mean_cells,
            ))
            for pattern in spec.patterns
            for load in spec.workloads
            for scheduler in spec.schedulers
        ]
    if spec.kind == KIND_BER:
        return [partial(_ber_row, spec.one_way_delay, spec.slots, ber,
                        spec.link_load, seed) for ber in spec.bers]
    return [partial(_check_row, check, spec.one_way_delay)
            for check in CHECKS]


def _sweep_row(config: EngineConfig, traffic: TrafficSpec) -> dict:
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
        "pattern": traffic.mode,
        "size_mode": traffic.size_mode,
        "scheduler": config.scheduler,
        "nominal_load_pct": _fmt(traffic.load * 100),
        "measured_load_pct": f"{report.offered_load_pct:.2f}",
        "utilization_pct": utilization,
        **latencies,
        "retx": 0,
        "fc_events": report.pauses + report.unpauses,
        "seed": config.seed,
    }


def _ber_row(one_way_delay: int, slots: int, ber: float, load: float,
             seed: int) -> dict:
    result = run_point_to_point(one_way_delay, slots, ber=ber, load=load,
                                seed=seed)
    return {
        "pattern": f"p2p-ber-{ber:g}",
        "size_mode": "fixed",
        "scheduler": "",
        "nominal_load_pct": _fmt(load * 100),
        "measured_load_pct": f"{100 * result.sent_a / slots:.2f}",
        "utilization_pct": f"{100 * result.goodput():.4f}",
        **dict.fromkeys(LATENCY_COLUMNS, ""),
        "retx": result.cycles_a + result.cycles_b,
        "fc_events": 0,
        "seed": seed,
    }


def _check_row(check: str, one_way_delay: int) -> dict:
    return {"check": check, "status": "pass",
            "detail": CHECKS[check](one_way_delay)}


def _call(row_call: partial) -> dict:
    return row_call()


# -- report emission -------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:g}"


def write_csv(path: Path | None, columns: list[str],
              rows: list[dict]) -> None:
    """Write a report to ``path``, or to stdout when it is None."""
    with (path.open("w", newline="") if path
          else nullcontext(sys.stdout)) as handle:
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
        calls = _points_for(spec, seed)
        # A pool starts all its workers at once: never more than rows.
        processes = min(workers, len(calls))
        start = time.monotonic()
        rows = []
        if processes > 1:
            # a 20-30 ms import that start-up and serial runs skip
            from concurrent.futures import ProcessPoolExecutor
        with (ProcessPoolExecutor(max_workers=processes) if processes > 1
              else nullcontext()) as pool:
            for row in (pool.map if pool else map)(_call, calls):
                rows.append(row)
                if verbose:
                    print(f"  done {row}", file=sys.stderr)
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
    if mode not in ("abs", "rel") or not math.isfinite(value) or value < 0:
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
        key_fields = {field: ref.get(field, "") for field in KEY_FIELDS}
        if got_row is None:
            verdicts.append({**key_fields, "metric": "", "measured": "",
                             "reference": "", "tolerance": "",
                             "status": "missing"})
            continue
        for metric, (mode, value) in sorted(tolerances.items()):
            want_raw = (ref.get(metric) or "").strip()
            got_raw = (got_row.get(metric) or "").strip()
            if not want_raw or not got_raw:
                continue
            try:
                want, got = float(want_raw), float(got_raw)
            except ValueError:
                raise ConfigError(
                    f"row {'/'.join(key)}: {metric} is not a number "
                    f"(measured {got_raw!r}, reference {want_raw!r})"
                ) from None
            allowed = value if mode == "abs" else abs(want) * value / 100.0
            verdicts.append({
                **key_fields,
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
    return read_csv(path)


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
                     help="run rows in at most this many processes")
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
    write_csv(args.out, VERDICT_COLUMNS, verdicts)
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

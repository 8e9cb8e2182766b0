"""Experiment runner: presets, sweeps, CSV reports, and comparisons.

Subcommands
-----------
``run``
    Execute an experiment described by an INI file (``--spec PATH``) or
    by a shipped preset (``--preset NAME``).  Each sweep point becomes
    one CSV row, written in spec order.  ``--seed`` may be given
    repeatedly to produce one report per seed, and ``--workers`` must be
    at least 1.  An experiment is checked when it is built, however it
    is built, before any row runs: a spec is checked by building its
    rows, and a kind without an entry, or a spec with no rows, is a
    configuration error (exit 1).  Beside each ``{stem}.csv`` a run
    record, ``{stem}-run.json``, holds one JSON object: ``seed``,
    ``rows`` (the CSV's row count), ``workers`` (the processes the rows
    ran in), ``wall_s`` (the run's wall time in seconds) and ``spec``
    (the experiment as run, with that one seed: ``name``, ``kind``,
    ``seeds`` and each field its kind reads, as the schema below lists
    them, and no other).
``compare``
    Check a produced CSV against a reference CSV cell by cell, under
    per-metric tolerances, and emit a machine-readable verdict table.
    A row key in either report or a tolerance metric given twice is
    an error, and so is a comparison that yields no verdict.  A
    reference row with no measured row, and a metric blank in the
    measured row where the reference has a value, yield a ``missing``
    verdict; a blank reference cell yields no verdict.
``presets``
    List the shipped presets.

Experiment file schema (UTF-8 INI; lists are space-separated, and name
each value once, since a repeat would write the same rows again)::

    [experiment]
    name = bandwidth-bernoulli-fixed-islip
    kind = sweep              ; sweep | ber-sweep | protocol-checks

    [topology]                ; kind = sweep
    ports = 32                ; 2..256 (1-byte relative selectors)
    scheduler = islip         ; islip | safc | several, space-separated
    islip_iterations = 3
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
    seeds = 1                 ; each 0 or more, each once

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
percentiles of a run cut short before its first delivery, and the
measured load of one cut short before its first generated cell.  Lines
starting with ``#`` in any CSV are comments.  Every file written is
UTF-8; the experiment name, which names the files, must be one path
component that the file system can encode.

Exit codes: 0 success (``--help`` included), 1 configuration or usage
error (a missing or malformed command-line argument included), 2
simulation invariant violation or any other internal error (the
traceback is written to ``cellswitch-error.txt`` in the current
directory).
``compare --strict`` treats an out-of-tolerance or ``missing`` verdict
as a configuration-style failure (exit 1).
"""

from __future__ import annotations

import configparser
import io
import math
import operator
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path

# The star engine, the link, the protocol checks, csv, json, argparse
# and traceback are imported in the functions that use them (the engine
# where a star row runs): every short run and pool worker pays its
# set-up, so a link run loads no star code and a star sweep no link code.
from .config import EngineConfig, TrafficSpec, check_numbers
from .errors import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTERNAL = 2

# Each latency column and the nearest-rank percentile it reports.
LATENCY_COLUMNS = {"p1": 1, "p50": 50, "p75": 75, "p90": 90, "p95": 95,
                   "p99": 99, "p100": 100}

CSV_COLUMNS = [
    "pattern", "size_mode", "scheduler", "nominal_load_pct",
    "measured_load_pct", "utilization_pct", *LATENCY_COLUMNS,
    "retx", "fc_events", "seed",
]


# -- experiment description ----------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, checked in full when built, however it is built.

    Each number field, and each element of a list of numbers, is first
    checked against its annotation, so a None where the spec allows none
    never reaches the engine or traffic description (a None volume there
    means unbounded flows).  Then a spec is checked by building its
    first seed's rows: a kind without an entry in ``_KINDS``, or a spec
    with no rows, is a configuration error.  The sweep fields default to the defaults of
    ``config.EngineConfig`` and ``config.TrafficSpec``, three iSLIP
    rounds at every port count among them; only the per-flow volume
    has one of its own.  Each sweep row passes them on by name,
    beside its sweep axes."""

    name: str
    kind: str = "sweep"
    seeds: tuple[int, ...] = (1,)
    ports: int = 32
    schedulers: tuple[str, ...] = (EngineConfig.scheduler,)
    islip_iterations: int = EngineConfig.islip_iterations
    uplink_delay: int = EngineConfig.uplink_delay
    downlink_delay: int = EngineConfig.downlink_delay
    egress_delay: int = EngineConfig.egress_delay
    on_threshold: int = EngineConfig.on_threshold
    off_threshold: int = EngineConfig.off_threshold
    channel_buffer: int | None = EngineConfig.channel_buffer
    max_slots: int | None = EngineConfig.max_slots
    patterns: tuple[str, ...] = (TrafficSpec.mode,)
    size_mode: str = TrafficSpec.size_mode
    volume_bytes: int = 500_000
    min_packet_bytes: int = TrafficSpec.min_packet_bytes
    max_packet_bytes: int = TrafficSpec.max_packet_bytes
    burst_mean_cells: float = TrafficSpec.burst_mean_cells
    workloads: tuple[float, ...] = ()
    one_way_delay: int = 7
    slots: int = 1_000_000
    bers: tuple[float, ...] = ()
    link_load: float = 1.0

    def __post_init__(self):
        check_numbers(self)
        for name in ("seeds", "schedulers", "patterns", "workloads", "bers"):
            values = getattr(self, name)
            # a float is compared as its row prints it
            labels = [_fmt(v) if isinstance(v, float) else v for v in values]
            if len(set(labels)) != len(labels):
                raise ConfigError(f"{name} {values}: list each "
                                  f"{name[:-1]} once (a repeat would run "
                                  "again and write the same rows)")
        if not self.seeds:
            raise ConfigError("[run] seeds: need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            # random.Random(-s) draws the same stream as Random(s)
            raise ConfigError(f"seeds {self.seeds}: a negative seed would "
                              "repeat the run of its absolute value")
        try:
            unfit = not self.name or b"\0" in os.fsencode(self.name)
        except UnicodeEncodeError:
            unfit = True
        if unfit or Path(self.name).name != self.name or self.name == "..":
            raise ConfigError(f"[experiment] name {self.name!r} names the "
                              "output files: it must be one path component "
                              "that the file system can encode")
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not _KINDS[self.kind][1](self, self.seeds[0]):
            raise ConfigError(f"a {self.kind} experiment has no rows: a "
                              "list it reads is empty")


def _words(convert):
    return lambda raw: tuple(convert(part) for part in raw.split())


def _float(raw: str) -> float:
    # -0.0 + 0.0 is 0.0: "-0" is the value 0 and must print as 0.
    return float(raw) + 0.0


# A file schema maps section -> option -> parser.  Each option sets the
# ExperimentSpec field of its name, or the one _FIELDS gives; an option
# left blank keeps its field's default.  Every kind reads these two.
_COMMON = {"experiment": dict(name=str, kind=str),
           "run": dict(seeds=_words(int))}
_FIELDS = {"scheduler": "schedulers", "pattern": "patterns",
           "load": "link_load"}


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse the INI form of an experiment; the spec checks its values."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed experiment file: {exc}") from None
    kind = parser.get("experiment", "kind", fallback="").strip() \
        or ExperimentSpec.kind
    schema = _KINDS[kind][0] if kind in _KINDS else _COMMON
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
    return ExperimentSpec(**present)


def load_preset(name: str) -> str:
    """Return the INI text of a shipped preset."""
    path = resources.files(__package__).joinpath("presets", f"{name}.ini")
    if not path.is_file():
        raise ConfigError(
            f"unknown preset {name!r} (try the `presets` subcommand)")
    return path.read_text(encoding="utf-8")


def preset_names() -> list[str]:
    root = resources.files(__package__).joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir()
                  if p.name.endswith(".ini"))


# -- row calls -------------------------------------------------------------


def _sweep_points(spec: ExperimentSpec, seed: int) -> list[partial]:
    # the spec's fields named as engine or traffic fields pass on
    engine, traffic = ({f.name: getattr(spec, f.name) for f in fields(cls)
                        if hasattr(spec, f.name)}
                       for cls in (EngineConfig, TrafficSpec))
    return [
        partial(_sweep_row,
                EngineConfig(n_ports=spec.ports, scheduler=scheduler,
                             seed=seed, **engine),
                TrafficSpec(mode=pattern, load=load / 100.0, **traffic))
        for pattern in spec.patterns
        for load in spec.workloads
        for scheduler in spec.schedulers
    ]


def _ber_points(spec: ExperimentSpec, seed: int) -> list[partial]:
    from .link import check_link, frame_error_probability
    check_link(spec.one_way_delay, spec.slots, spec.link_load)
    for ber in spec.bers:
        frame_error_probability(ber)
    return [partial(_ber_row, spec.one_way_delay, spec.slots, ber,
                    spec.link_load, seed) for ber in spec.bers]


def _check_points(spec: ExperimentSpec, seed: int) -> list[partial]:
    from .checks import CHECKS
    from .link import check_link
    check_link(spec.one_way_delay)
    return [partial(_check_row, check, run, spec.one_way_delay)
            for check, run in CHECKS.items()]


def _sweep_row(config: EngineConfig, traffic: TrafficSpec) -> dict:
    from .engine import run_star
    report = run_star(config, traffic)
    # A run cut short before its first delivery has no latencies and
    # no delivery window, and before its first generated cell no
    # generation window: those fields stay empty.
    load = report.offered_load_pct
    utilization = ""
    latencies = dict.fromkeys(LATENCY_COLUMNS, "")
    if report.delivered_cells:
        utilization = f"{report.utilization_pct:.2f}"
        latencies = {column: report.percentile(p)
                     for column, p in LATENCY_COLUMNS.items()}
    return {
        "pattern": traffic.mode,
        "size_mode": traffic.size_mode,
        "scheduler": config.scheduler,
        "nominal_load_pct": _fmt(traffic.load * 100),
        "measured_load_pct": "" if load is None else f"{load:.2f}",
        "utilization_pct": utilization,
        **latencies,
        "retx": 0,
        "fc_events": report.pauses + report.unpauses,
        "seed": config.seed,
    }


def _ber_row(one_way_delay: int, slots: int, ber: float, load: float,
             seed: int) -> dict:
    from .link import run_point_to_point
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


def _check_row(check: str, run, one_way_delay: int) -> dict:
    return {"check": check, "status": "pass", "detail": run(one_way_delay)}


# Each kind's one entry, the only place the runner tells kinds apart:
# (file schema, points function, CSV columns).  Building the picklable
# row calls, in row order, checks every value the kind reads.
_KINDS = {
    "sweep": ({**_COMMON, "topology": dict(
        ports=int, scheduler=_words(str), islip_iterations=int,
        uplink_delay=int, downlink_delay=int, egress_delay=int,
        on_threshold=int, off_threshold=int, channel_buffer=int,
        max_slots=int), "traffic": dict(
        pattern=_words(str), size_mode=str, volume_bytes=int,
        min_packet_bytes=int, max_packet_bytes=int,
        burst_mean_cells=_float, workloads=_words(_float))},
        _sweep_points, CSV_COLUMNS),
    "ber-sweep": ({**_COMMON, "link": dict(
        one_way_delay=int, slots=int, bers=_words(_float), load=_float)},
        _ber_points, CSV_COLUMNS),
    "protocol-checks": ({**_COMMON, "link": dict(one_way_delay=int)},
                        _check_points, ["check", "status", "detail"]),
}


# -- report emission -------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:g}"


def write_csv(path: Path | None, columns: list[str],
              rows: list[dict]) -> None:
    """Write a report to ``path``, or to stdout when it is None."""
    import csv
    with (path.open("w", newline="", encoding="utf-8") if path
          else nullcontext(sys.stdout)) as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8; a leading
    byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def read_csv(path: Path) -> list[dict]:
    """Read a report, skipping ``#`` comment lines."""
    import csv
    lines = [line for line in io.StringIO(_read_text(path))
             if not line.startswith("#")]
    try:
        return list(csv.DictReader(lines))
    except csv.Error as exc:
        raise ConfigError(f"{path}: malformed CSV ({exc})") from None


def run_experiment(spec: ExperimentSpec, out_dir: Path,
                   workers: int = 1) -> list[Path]:
    """Execute every point of the experiment in at most ``workers``
    processes (at least 1): per seed, its CSV and run record paths."""
    import json
    if workers < 1:
        raise ConfigError(f"workers {workers}: need at least one worker")
    out_dir.mkdir(parents=True, exist_ok=True)
    schema, points, columns = _KINDS[spec.kind]
    # the spec fields the kind reads, which its run record states
    read = [_FIELDS.get(option, option)
            for options in schema.values() for option in options]
    ran = {name: getattr(spec, name) for name in read}
    written = []
    for seed in spec.seeds:
        calls = points(spec, seed)
        # A pool starts all its workers at once: never more than rows.
        processes = min(workers, len(calls))
        start = time.monotonic()
        if processes > 1:
            # a 20-30 ms import that start-up and serial runs skip
            from concurrent.futures import ProcessPoolExecutor
        with (ProcessPoolExecutor(max_workers=processes) if processes > 1
              else nullcontext()) as pool:
            rows = list((pool.map if pool else map)(operator.call, calls))
        elapsed = time.monotonic() - start
        stem = (spec.name if len(spec.seeds) == 1
                else f"{spec.name}-seed{seed}")
        csv_path = out_dir / f"{stem}.csv"
        write_csv(csv_path, columns, rows)
        record = {"seed": seed, "rows": len(rows), "workers": processes,
                  "wall_s": elapsed, "spec": {**ran, "seeds": (seed,)}}
        record_path = out_dir / f"{stem}-run.json"
        record_path.write_text(json.dumps(record, indent=2) + "\n",
                               encoding="utf-8")
        written.extend([csv_path, record_path])
    return written


# -- comparison ------------------------------------------------------------

KEY_FIELDS = ("pattern", "size_mode", "scheduler", "nominal_load_pct")


def parse_tolerance(text: str) -> tuple[str, float]:
    """Parse ``abs:1.5`` or ``rel:20`` (percent)."""
    try:
        mode, _, raw = text.partition(":")
        value = _float(raw)
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
            key.append(_fmt(_float(value)))
        except ValueError:
            key.append(value)
    return tuple(key)


def compare_reports(measured: list[dict], reference: list[dict],
                    tolerances: dict[str, tuple[str, float]]) -> list[dict]:
    """Per-cell tolerance check of measured rows against a reference.

    Rows are matched on (pattern, size_mode, scheduler, nominal load);
    every tolerance metric with a value in a matched reference row
    yields one verdict.  A reference row with no measured partner
    yields a single ``missing`` verdict, and a blank measured cell
    (a run cut short before its first delivery) a ``missing`` verdict
    naming the metric, since silence must not pass; a blank reference
    cell yields none.  A metric missing from either header, like two
    rows with one key in either report, is a configuration error."""
    for metric in tolerances:
        for side, rows in (("measured", measured), ("reference", reference)):
            if any(metric not in row for row in rows):
                raise ConfigError(f"no column {metric!r} in the {side} report")
    index = {"measured": {}, "referenced": {}}
    for verb, rows in zip(index, (measured, reference)):
        for row in rows:
            key = _row_key(row)
            if key in index[verb]:
                raise ConfigError(f"row {'/'.join(key)} is {verb} twice")
            index[verb][key] = row
    verdicts = []
    for key, ref in index["referenced"].items():
        got_row = index["measured"].get(key)
        key_fields = {field: ref.get(field, "") for field in KEY_FIELDS}
        if got_row is None:
            verdicts.append({**key_fields, "metric": "", "measured": "",
                             "reference": "", "tolerance": "",
                             "status": "missing"})
            continue
        for metric, (mode, value) in sorted(tolerances.items()):
            want_raw = (ref.get(metric) or "").strip()
            got_raw = (got_row.get(metric) or "").strip()
            if not want_raw:
                continue
            try:
                want = float(want_raw)
                got = float(got_raw) if got_raw else None
            except ValueError:
                raise ConfigError(
                    f"row {'/'.join(key)}: {metric} is not a number "
                    f"(measured {got_raw!r}, reference {want_raw!r})"
                ) from None
            allowed = value if mode == "abs" else abs(want) * value / 100.0
            status = ("missing" if got is None
                      else "pass" if abs(got - want) <= allowed else "fail")
            verdicts.append({
                **key_fields,
                "metric": metric,
                "measured": got_raw,
                "reference": want_raw,
                "tolerance": f"{mode}:{_fmt(value)}",
                "status": status,
            })
    return verdicts


def reference_rows(name: str) -> list[dict]:
    """Load a vendored reference table (``bandwidth`` or ``latency``)."""
    path = resources.files(__package__).joinpath(
        "data", f"reference_{name}.csv")
    if not path.is_file():
        raise ConfigError(f"no reference table named {name!r}")
    return read_csv(path)


VERDICT_COLUMNS = [*KEY_FIELDS, "metric", "measured", "reference",
                   "tolerance", "status"]


# -- entry point -----------------------------------------------------------


def _build_parser():
    import argparse

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
    spec = parse_experiment(load_preset(args.preset) if args.preset
                            else _read_text(args.spec))
    if args.seed:
        spec = replace(spec, seeds=tuple(args.seed))
    for path in run_experiment(spec, args.out, workers=args.workers):
        print(path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    tolerances = {}
    for item in args.tolerance:
        metric, _, spec = item.partition("=")
        metric = metric.strip()
        if not metric or not spec:
            raise ConfigError(f"bad --tolerance {item!r}")
        if metric in tolerances:
            raise ConfigError(f"--tolerance {metric} given twice")
        tolerances[metric] = parse_tolerance(spec.strip())
    if not tolerances:
        raise ConfigError("compare needs at least one --tolerance")
    measured = read_csv(args.measured)
    reference = (reference_rows(args.builtin) if args.builtin
                 else read_csv(args.reference))
    verdicts = compare_reports(measured, reference, tolerances)
    if not verdicts:  # zero verdicts would pass --strict
        raise ConfigError(f"{args.builtin or args.reference}: "
                          "no rows to compare")
    write_csv(args.out, VERDICT_COLUMNS, verdicts)
    failed = sum(v["status"] != "pass" for v in verdicts)
    print(f"# {len(verdicts) - failed} of {len(verdicts)} within tolerance",
          file=sys.stderr)
    if args.strict and failed:
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its help or usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
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
        import traceback

        trace_path = Path("cellswitch-error.txt")
        trace_path.write_text(traceback.format_exc(), encoding="utf-8")
        print(f"internal error: {exc} (trace: {trace_path})",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

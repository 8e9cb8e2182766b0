"""cellswitch benchmark: one workload, timed or traced.

Run from the root of a source checkout::

    python3 bench/run.py --workload star-islip-saturated --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` (timed) measures set-up time in fresh interpreters, runs
one untimed pass of the workload, then repeats the timed run until
``--seconds`` are used, and reports the end-to-end metrics.  ``--trace
1`` runs untraced and traced passes in pairs and reports the
per-layer metrics instead.  Either way every result row is checked:
against the recorded fingerprint at the default seed, and at every
seed against the untimed pass and against the first timed run.

The output is a few lines of metrics by name with units, provenance
and the output fingerprint, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A copy of the
result, with per-run timings, goes to ``.bench_out/`` in the checkout.

Without ``--workload`` every workload runs in turn, each in a fresh
process.  The simulator is imported from ``src/`` of the checkout;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, traced_run
from workloads import (DEFAULT_SEED, WORKLOADS, disagreeing_points,
                       fingerprint, mismatched_points, recorded_digests,
                       row_digest, util_err_pct)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def probe_setup(name: str, seed: int) -> float:
    """Seconds to import cellswitch, build the spec and construct the
    first point, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(BENCH), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any of its
    children (pool workers, set-up probes), in MiB.  Children are not
    summed: a forked or spawned child starts out counting its parent's
    pages, so a sum would count the parent twice."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def source_digest() -> str:
    """SHA-256 over the simulator's sources, presets and data, so a
    result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    package = SRC / "cellswitch"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".ini", ".csv"):
            digest.update(path.relative_to(package).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_describe() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(workload, seed: int, runs: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_describe": git_describe(),
        "src_sha256": source_digest(),
        "seed": seed,
        workload.size_label: workload.size,
        "workers": workload.workers,
        "runs": runs,
    }


def timed(workload, seed: int, seconds: float) -> dict:
    setup = workload.setup(seed)
    refs = workload.reference(setup)
    cells = sum(ref.cells for ref in refs)
    recorded = recorded_digests(workload, seed)
    out_dir = OUT / f"{workload.name}-{os.getpid()}"

    # Set-up is timed once before every timed run, in a fresh
    # interpreter so the package import is paid in full; spreading the
    # probes over the window exposes them to the same host noise.
    probes: list[float] = []
    walls: list[float] = []
    attempted = failed = 0
    first = rows = None
    begin = time.perf_counter()
    while True:
        probes.append(probe_setup(workload.name, seed))
        attempted += len(refs)
        try:
            rows, wall = workload.run(setup, out_dir)
        except Exception:
            traceback.print_exc()
            failed += len(refs)
        else:
            digests = [row_digest(row) for row in rows]
            first = first or digests
            bad = (mismatched_points(digests, recorded or first)
                   | disagreeing_points(rows, refs))
            failed += len(bad)
            walls.append(wall)
        used = time.perf_counter() - begin
        if used + used / len(probes) > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    if not walls:
        raise RuntimeError("no timed run completed")

    result = {
        "metrics": {
            # Throughput over the whole timed window: host slowdowns come
            # in phases of seconds, and a median would jump between the
            # fast and the slow phase where this mean moves smoothly.
            "cells_per_s": cells * len(walls) / sum(walls),
            "setup_s": statistics.median(probes),
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": attempted,
        "failed": failed,
        "runs": len(walls),
        "walls_s": walls,
        "setup_probes_s": probes,
        "cells_per_run": cells,
        "fingerprint": fingerprint(first),
        "fingerprint_recorded": recorded is not None,
        "rows": first,
    }
    error = util_err_pct(rows)
    if error is not None:
        result["util_err_pct"] = error
    return result


def traced(workload, seed: int, seconds: float) -> dict:
    return traced_run(workload.setup(seed), workload.link, seconds)


def run_one(args) -> int:
    if not (SRC / "cellswitch" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cellswitch
    if Path(cellswitch.__file__).resolve().parent != SRC / "cellswitch":
        print(f"error: imported cellswitch from {cellswitch.__file__}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else timed
    result = measure(workload, args.seed, args.seconds)
    units = ({name: unit for name, (unit, _) in LAYER_METRICS.items()}
             if args.trace else END_TO_END)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    info = provenance(workload, args.seed, result["runs"])

    print(f"workload {workload.name} ({'traced' if args.trace else 'timed'})")
    print("provenance " + json.dumps(info))
    if not args.trace:
        verdict = ("checked against the recorded rows"
                   if result["fingerprint_recorded"]
                   else "no rows recorded for this seed and size")
        print(f"fingerprint {result['fingerprint']} ({verdict})")
        if not result["fingerprint_recorded"] or result["failed"]:
            print("rows " + json.dumps({workload.name: {
                "size": workload.size, "rows": result["rows"]}}))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if "util_err_pct" in result:
        print(f"util_err_pct {result['util_err_pct']:.6g} %"
              " (against reference_bandwidth.csv)")

    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "timed"
    record = OUT / f"{workload.name}-seed{args.seed}-{mode}.json"
    record.write_text(json.dumps(
        {"provenance": info, **result, "metrics": metrics}, indent=1) + "\n")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all, one by one)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed or traced runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

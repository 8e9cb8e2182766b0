"""A register of source mutants and the tests that must catch them.

Each row names one change to one file of ``src/cellswitch``: the exact
text replaced and its replacement.  ``kills`` lists tests that fail on
the mutant.  ``misses`` lists tests that pass on it although they
exercise the mutated rule, so each known gap of the suite stays
visible.

Run from the root of a source checkout::

    python tests/mutants.py [NAME ...]

For each mutant (all of them, or those named) the runner copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there, and runs each entry of its ``kills`` with
``-x -q`` and each of its ``misses`` with ``-q``, under ``TIMEOUT``
seconds each, since a mutant can hang a run; a run that times out
counts as failed.  It prints one line per mutant and exits 1 if a
listed kill passes (the mutant survives it), if a listed miss fails
(the gap is closed: move it to ``kills``), or if pytest could not run
an entry.  ``tests/test_mutants.py`` checks only
that each mutant's text occurs exactly once in its file; pytest does
not collect this one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run

ENGINE = "tests/test_engine.py"
SCHEDULER = "tests/test_scheduler.py"
TRAFFIC = "tests/test_traffic.py"
ISLIP_REFERENCE = f"{SCHEDULER}::TestIslipMatchesReference"
ISLIP_SEARCH = (f"{SCHEDULER}::TestExhaustiveThreePorts::"
                "test_islip_serves_a_requested_voq_within_n_minus_1_squared_"
                "slots")
POINTER_MAP = f"{SCHEDULER}::TestIslipPointerMap"
BACKLOG = (f"{ENGINE}::TestAnalyticalOracle::"
           "test_safc_output_backlog_follows_the_queue_chain")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str            # under src/cellswitch
    old: str
    new: str
    kills: tuple[str, ...]
    misses: tuple[str, ...] = ()


MUTANTS = [
    # engine: the host's staging cap and the arbitration gate
    Mutant("unblock-on-every-staged-send", "engine.py",
           "elif len(queue) == staging:", "else:",
           (f"{ENGINE}::TestByteIdentity",)),
    Mutant("gate-without-the-empty-match-raise", "engine.py",
           "                if not pairs:\n"
           "                    # queued cells that no arbiter will ever see\n"
           "                    raise SimInvariantError(\n"
           "                        f\"{queued} cells queued with no request "
           "bit set\")\n", "",
           (f"{ENGINE}::TestConservationAndIntegrity::"
            "test_queued_cells_without_a_request_bit_raise",)),
    Mutant("skip-every-100th-arbitration", "engine.py",
           "            if queued:\n",
           "            if queued and slot % 100:\n",
           (BACKLOG,)),
    Mutant("one-slot-output-delay", "engine.py",
           "out_delay = config.egress_delay + 1 + down_delay",
           "out_delay = config.egress_delay + 2 + down_delay",
           (f"{ENGINE}::TestAnalyticalOracle::"
            "test_safc_mean_latency_is_output_queued",),
           (BACKLOG,)),
    # scheduler: iSLIP's grant pass and pointer rule
    Mutant("taken-applied-during-the-pass", "scheduler.py",
           "                        taken |= 1 << i\n",
           "                        unmatched_in &= ~(1 << i)\n",
           (ISLIP_REFERENCE,)),
    Mutant("no-rejected-sort", "scheduler.py",
           "            rejected.sort()\n", "",
           (ISLIP_REFERENCE,)),
    Mutant("switched-away-output-not-rejected", "scheduler.py",
           "                        rejected.append(prev)\n", "",
           (ISLIP_REFERENCE,)),
    Mutant("grant-pointer-to-the-partner", "scheduler.py",
           "grant_ptr[j] = succ[i]", "grant_ptr[j] = i",
           (ISLIP_SEARCH, ISLIP_REFERENCE)),
    Mutant("accept-pointer-to-the-partner", "scheduler.py",
           "accept_ptr[i] = succ[j]", "accept_ptr[i] = j",
           (ISLIP_SEARCH, ISLIP_REFERENCE)),
    Mutant("pointers-move-in-every-iteration", "scheduler.py",
           "if not iteration:", "if iteration >= 0:",
           (ISLIP_REFERENCE, POINTER_MAP),
           (ISLIP_SEARCH,)),
    Mutant("switch-away-at-the-accept-pointer", "scheduler.py",
           "elif prev < accept_ptr[i] <= j:",
           "elif prev <= accept_ptr[i] <= j:",
           (ISLIP_REFERENCE, POINTER_MAP),
           (ISLIP_SEARCH,)),
    # traffic: chunked and bursty streams, the budget rule, the
    # geometric sampler
    Mutant("chunks-of-10000-cells", "traffic.py",
           "per_list = range(CHUNK if", "per_list = range(10_000 if",
           (f"{TRAFFIC}::TestChunkedDraws::"
            "test_at_most_one_chunk_ahead_and_nothing_after_the_last_record",)),
    Mutant("bernoulli-open-at-an-exact-budget", "traffic.py",
           "                if size >= remaining:\n"
           "                    size = remaining\n"
           "                    flows.remove(dst)\n"
           "                    n_open -= 1\n",
           "                if size > remaining:\n"
           "                    size = remaining\n"
           "                    flows.remove(dst)\n"
           "                    n_open -= 1\n",
           (f"{TRAFFIC}::TestMatchesReference",
            f"{TRAFFIC}::TestVolumeBudget::test_fixed_mode_exact_cell_count")),
    Mutant("bursty-open-at-an-exact-budget", "traffic.py",
           "                if size >= remaining:\n"
           "                    size = remaining\n"
           "                    flows.remove(dst)\n"
           "                budget[dst]",
           "                if size > remaining:\n"
           "                    size = remaining\n"
           "                    flows.remove(dst)\n"
           "                budget[dst]",
           (f"{TRAFFIC}::TestMatchesReference",
            f"{TRAFFIC}::TestChunkedDraws::"
            "test_bursty_draws_nothing_ahead_and_nothing_after_the_last_"
            "record",
            f"{TRAFFIC}::TestVolumeBudget::test_bursty_volume_conserved")),
    Mutant("bursty-two-packets-per-list", "traffic.py",
           "                yield packet + ((port, dst, seq, size, True),)\n"
           "                packet = ()\n",
           "                packet += ((port, dst, seq, size, True),)\n"
           "                if (len(packet) > 1 or seq + 1 >= end\n"
           "                        or budget[dst] == 0):\n"
           "                    yield packet\n"
           "                    packet = ()\n",
           (f"{TRAFFIC}::TestChunkedDraws::"
            "test_bursty_draws_nothing_ahead_and_nothing_after_the_last_"
            "record",)),
    Mutant("bursty-idle-with-the-first-packet", "traffic.py",
           "            if idle:\n"
           "                yield (idle,)\n",
           "            if idle:\n"
           "                packet = (idle,)\n",
           (f"{TRAFFIC}::TestChunkedDraws::"
            "test_bursty_draws_nothing_ahead_and_nothing_after_the_last_"
            "record",)),
    Mutant("geometric-success-0.999-over-mean", "traffic.py",
           "p = 1.0 / mean", "p = 0.999 / mean",
           (f"{TRAFFIC}::TestMatchesReference",)),
    Mutant("no-idle-draw-below-1e-12", "traffic.py",
           "if idle_mean else 0)", "if idle_mean > 1e-12 else 0)",
           (f"{TRAFFIC}::TestIdleGaps",)),
]


def pytest_status(root: Path, test: str, first_failure: bool) -> str:
    """'pass' or 'fail' for one pytest run of ``test`` in ``root``,
    'fail' on a timeout too, and 'error' when pytest could not run it
    (a node id not found, a collection error)."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               *(["-x"] if first_failure else []), test]
    try:
        done = subprocess.run(command, cwd=root, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "fail"
    return {0: "pass", 1: "fail"}.get(done.returncode, "error")


def check(mutant: Mutant) -> list[str]:
    """What is wrong with the row: each listed kill that does not fail
    on the mutant, each listed miss that does not pass."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        path = root / "src" / "cellswitch" / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return ["its text does not occur exactly once"]
        path.write_text(text.replace(mutant.old, mutant.new))
        return ([f"{status}: {test}" for test in mutant.kills
                 if (status := pytest_status(root, test, True)) != "fail"]
                + [f"{status}: {test}" for test in mutant.misses
                   if (status := pytest_status(root, test, False)) != "pass"])


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    start = time.perf_counter()
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        begun = time.perf_counter()
        problems = check(mutant)
        bad += bool(problems)
        verdict = "; ".join(problems) or "as listed"
        print(f"{mutant.name:36} {time.perf_counter() - begun:5.1f} s  "
              f"{verdict}", flush=True)
    print(f"{bad} mutants need attention; "
          f"{time.perf_counter() - start:.0f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

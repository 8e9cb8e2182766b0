"""The benchmark's workloads and the checks on their outputs.

Each workload drives the simulator from outside, through its public
entry points, and hands back its result rows so the benchmark can
check that the simulated outputs are unchanged.  cellswitch is only
imported inside functions: importing this module stays cheap, so the
set-up probe in ``run.py`` times the package import itself.

A workload run has three steps:

``setup(seed)``
    import the package, build the workload's spec and construct the
    first point's network or link objects (then dropped: each run
    builds its own).  This is what ``setup_s`` times.
``reference(setup)``
    an untimed in-process pass over every point.  It counts the cells
    each point delivers (the CSV rows do not carry that count) and
    gives the row fields the timed run must reproduce.
``run(setup, out_dir)``
    the timed run, through the same entry point a user calls.  It
    returns one result row per point and the wall time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 1
N_PORTS = 32
FINGERPRINT_FILE = Path(__file__).resolve().parent / "fingerprints.json"


@dataclass
class Setup:
    """A workload made ready to run."""

    spec: object    # cli.ExperimentSpec, or None for an in-process point
    points: list    # star: (EngineConfig, TrafficSpec); link: kwargs


@dataclass
class PointRef:
    """What the untimed pass saw for one point."""

    cells: int      # sink deliveries, or link payloads both ways
    fields: dict    # row fields the timed run must reproduce


def _run_csv_experiment(spec, out_dir: Path, workers: int
                        ) -> tuple[list[dict], float]:
    from cellswitch import cli

    start = time.perf_counter()
    paths = cli.run_experiment(spec, out_dir, workers=workers)
    wall = time.perf_counter() - start
    return cli.read_csv(paths[0]), wall


def _star_fields(report) -> dict:
    """The CSV fields of a sweep row, as ``cli run`` formats them."""
    return {
        "measured_load_pct": f"{report.offered_load_pct:.2f}",
        "utilization_pct": f"{report.utilization_pct:.2f}",
        "fc_events": str(report.pauses + report.unpauses),
    }


@dataclass(frozen=True)
class StarPoint:
    """One 32-port iSLIP point at 100 % Bernoulli load, run in-process."""

    name: str
    size: int                   # bytes per (source, destination) flow
    size_label = "volume_bytes"
    workers = 1
    link = False

    def setup(self, seed: int) -> Setup:
        from cellswitch.engine import ISLIP, EngineConfig, StarNetwork
        from cellswitch.traffic import TrafficSpec

        config = EngineConfig(n_ports=N_PORTS, scheduler=ISLIP, seed=seed)
        traffic = TrafficSpec(load=1.0, volume_bytes=self.size)
        StarNetwork(config, traffic)
        return Setup(None, [(config, traffic)])

    def reference(self, setup: Setup) -> list[PointRef]:
        from cellswitch.engine import run_star

        report = run_star(*setup.points[0])
        return [PointRef(report.delivered_cells, report.to_dict())]

    def run(self, setup: Setup, out_dir: Path) -> tuple[list[dict], float]:
        from cellswitch.engine import run_star

        start = time.perf_counter()
        report = run_star(*setup.points[0])
        wall = time.perf_counter() - start
        return [report.to_dict()], wall


@dataclass(frozen=True)
class StarSweep:
    """A shipped star-sweep preset at reduced volume, through
    ``run_experiment``."""

    name: str
    preset: str
    size: int                   # bytes per (source, destination) flow
    workers: int
    size_label = "volume_bytes"
    link = False

    def setup(self, seed: int) -> Setup:
        from cellswitch import cli
        from cellswitch.engine import EngineConfig, StarNetwork
        from cellswitch.traffic import TrafficSpec

        spec = cli.parse_experiment(cli.load_preset(self.preset))
        spec = replace(spec, seeds=(seed,), volume_bytes=self.size)
        # Same mapping as ``cli run`` uses for each sweep point; the
        # reference pass checks the two agree row by row.
        thresholds = {name: value for name in ("on_threshold", "off_threshold")
                      if (value := getattr(spec, name)) is not None}
        points = [
            (EngineConfig(
                n_ports=spec.ports, scheduler=scheduler, seed=seed,
                channel_buffer=spec.channel_buffer,
                islip_iterations=spec.islip_iterations,
                uplink_delay=spec.uplink_delay,
                downlink_delay=spec.downlink_delay,
                egress_delay=spec.egress_delay,
                max_slots=spec.max_slots, **thresholds),
             TrafficSpec(
                mode=pattern, size_mode=spec.size_mode, load=load / 100.0,
                volume_bytes=spec.volume_bytes,
                min_packet_bytes=spec.min_packet_bytes,
                max_packet_bytes=spec.max_packet_bytes,
                burst_mean_cells=spec.burst_mean_cells))
            for pattern in spec.patterns
            for load in spec.workloads
            for scheduler in spec.schedulers
        ]
        StarNetwork(*points[0])
        return Setup(spec, points)

    def reference(self, setup: Setup) -> list[PointRef]:
        from cellswitch.engine import run_star

        refs = []
        for config, traffic in setup.points:
            report = run_star(config, traffic)
            refs.append(PointRef(report.delivered_cells, _star_fields(report)))
        return refs

    def run(self, setup: Setup, out_dir: Path) -> tuple[list[dict], float]:
        return _run_csv_experiment(setup.spec, out_dir, self.workers)


@dataclass(frozen=True)
class LinkSweep:
    """The ``ber-sweep`` preset at a reduced slot count, through
    ``run_experiment``."""

    name: str
    preset: str
    size: int                   # simulated slots per BER point
    workers: int
    size_label = "slots"
    link = True

    def setup(self, seed: int) -> Setup:
        from cellswitch import cli
        from cellswitch.link import DuplexLink

        spec = cli.parse_experiment(cli.load_preset(self.preset))
        spec = replace(spec, seeds=(seed,), slots=self.size)
        points = [dict(one_way_delay=spec.one_way_delay, slots=spec.slots,
                       ber=ber, load=spec.link_load, seed=seed)
                  for ber in spec.bers]
        DuplexLink(spec.one_way_delay, ber=spec.bers[0], seed=seed)
        return Setup(spec, points)

    def reference(self, setup: Setup) -> list[PointRef]:
        from cellswitch.link import run_point_to_point

        refs = []
        for point in setup.points:
            result = run_point_to_point(**point)
            refs.append(PointRef(
                len(result.delivered_at_a) + len(result.delivered_at_b),
                {"measured_load_pct":
                     f"{100 * result.sent_a / point['slots']:.2f}",
                 "utilization_pct": f"{100 * result.goodput():.4f}",
                 "retx": str(result.cycles_a + result.cycles_b)}))
        return refs

    def run(self, setup: Setup, out_dir: Path) -> tuple[list[dict], float]:
        return _run_csv_experiment(setup.spec, out_dir, self.workers)


# Sizes are set so one run takes one to two host seconds on a 2-core
# x86 host with Python 3.11, enough runs fit in the measured window to
# average over host noise, and each workload still shows the behaviour
# it was chosen for (see README.md).  Changing a size changes the
# recorded fingerprints.
WORKLOADS = {w.name: w for w in (
    StarPoint("star-islip-saturated", size=40_000),
    StarSweep("star-safc-bursty-sweep", "bandwidth-bursty-variable-safc",
              size=10_000, workers=2),
    LinkSweep("link-ber-sweep", "ber-sweep", size=50_000, workers=1),
)}


# -- output fingerprints ---------------------------------------------------


def row_digest(row: dict) -> str:
    """SHA-256 of one result row, independent of key order."""
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def fingerprint(digests: list[str]) -> str:
    """SHA-256 over a workload's row digests, in point order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def recorded_digests(workload, seed: int) -> list[str] | None:
    """The row digests recorded for this workload, if any apply.

    Digests are recorded at the default seed and the workload's size;
    any other seed or size has none, and the benchmark only prints
    the fingerprint it got.
    """
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(FINGERPRINT_FILE.read_text()).get(workload.name)
    if entry is None or entry["size"] != workload.size:
        return None
    return entry["rows"]


def mismatched_points(digests: list[str], expected: list[str]) -> set[int]:
    """Indices of points whose digest is not the expected one."""
    bad = {i for i, (got, want) in enumerate(zip(digests, expected))
           if got != want}
    bad.update(range(min(len(digests), len(expected)),
                     max(len(digests), len(expected))))
    return bad


def disagreeing_points(rows: list[dict], refs: list[PointRef]) -> set[int]:
    """Indices of rows whose fields differ from the untimed pass."""
    bad = {i for i, (row, ref) in enumerate(zip(rows, refs))
           if any(str(row.get(k)) != str(v) for k, v in ref.fields.items())}
    bad.update(range(min(len(rows), len(refs)), max(len(rows), len(refs))))
    return bad


# -- fidelity ----------------------------------------------------------------


def _reference_key(row: dict) -> tuple:
    pattern = row.get("pattern") or row.get("mode")
    return (pattern, row["size_mode"], row["scheduler"],
            f"{float(row['nominal_load_pct']):g}")


def util_err_pct(rows: list[dict]) -> float | None:
    """Mean absolute utilization error, in percentage points, against
    the shipped bandwidth reference, over the rows it has; None when
    it has none of them."""
    from cellswitch.cli import reference_rows

    reference = {_reference_key(r): float(r["utilization_pct"])
                 for r in reference_rows("bandwidth")}
    errors = [abs(float(row["utilization_pct"]) - reference[key])
              for row in rows if (key := _reference_key(row)) in reference]
    return sum(errors) / len(errors) if errors else None

"""Experiment runner: config parsing, presets, reports, comparisons."""

import csv
import hashlib
from dataclasses import replace

import pytest

from cellswitch import cli
from cellswitch.checks import CHECKS
from cellswitch.engine import DEFAULT_ON_THRESHOLD
from cellswitch.errors import ConfigError, SimInvariantError

TINY_SWEEP = """
[experiment]
name = tiny
kind = sweep

[topology]
ports = 4
scheduler = islip safc

[traffic]
pattern = bernoulli
size_mode = fixed
volume_bytes = 8192
workloads = 50 100

[run]
seeds = 1
"""

TINY_BER = """
[experiment]
name = tinyber
kind = ber-sweep

[link]
one_way_delay = 4
slots = 20000
bers = 0 1e-5

[run]
seeds = 1
"""

TINY_CHECKS = TINY_BER.replace("ber-sweep", "protocol-checks").replace(
    "slots = 20000\nbers = 0 1e-5\n", "")


class TestParsing:
    def test_sweep_spec_round_trip(self):
        spec = cli.parse_experiment(TINY_SWEEP)
        assert spec.name == "tiny"
        assert spec.kind == cli.KIND_SWEEP
        assert spec.ports == 4
        assert spec.schedulers == ("islip", "safc")
        assert spec.workloads == (50.0, 100.0)
        assert spec.volume_bytes == 8192
        assert spec.seeds == (1,)

    def test_defaults_fill_in(self):
        spec = cli.parse_experiment(
            "[experiment]\nname = x\n[traffic]\nworkloads = 30\n")
        assert spec.kind == cli.KIND_SWEEP
        assert spec.ports == 32
        assert spec.schedulers == ("islip",)
        assert spec.patterns == ("bernoulli",)
        assert spec.on_threshold == DEFAULT_ON_THRESHOLD

    # [link] values fail at parse time, before any row runs.
    @pytest.mark.parametrize("text", [TINY_BER, TINY_CHECKS],
                             ids=["ber-sweep", "protocol-checks"])
    @pytest.mark.parametrize("delay", [0, 32, 64])
    def test_rejects_bad_link_delay(self, text, delay):
        with pytest.raises(ConfigError, match="one-way delay"):
            cli.parse_experiment(text.replace(
                "one_way_delay = 4", f"one_way_delay = {delay}"))

    @pytest.mark.parametrize("text", [TINY_BER, TINY_CHECKS],
                             ids=["ber-sweep", "protocol-checks"])
    @pytest.mark.parametrize("delay", [1, 31])
    def test_accepts_link_delay_at_bounds(self, text, delay):
        spec = cli.parse_experiment(text.replace(
            "one_way_delay = 4", f"one_way_delay = {delay}"))
        assert spec.one_way_delay == delay

    @pytest.mark.parametrize("lines, match", [
        ("slots = 0", "at least one slot"),
        ("slots = 20000\nload = 1.5", "load must be"),
        ("slots = 20000\nload = -0.1", "load must be"),
    ], ids=["slots-0", "load-1.5", "load-minus-0.1"])
    def test_rejects_bad_link_run(self, lines, match):
        with pytest.raises(ConfigError, match=match):
            cli.parse_experiment(TINY_BER.replace("slots = 20000", lines))

    @pytest.mark.parametrize("load", [0.0, 1.0])
    def test_accepts_link_load_at_bounds(self, load):
        spec = cli.parse_experiment(TINY_BER.replace(
            "slots = 20000", f"slots = 20000\nload = {load}"))
        assert spec.link_load == load

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigError):
            cli.parse_experiment("not an ini file at all [")
        with pytest.raises(ConfigError):
            cli.parse_experiment("[experiment]\nkind = sweep\n")
        with pytest.raises(ConfigError):
            cli.parse_experiment("[experiment]\nname = x\nkind = dance\n")
        with pytest.raises(ConfigError):  # sweep without workloads
            cli.parse_experiment("[experiment]\nname = x\n")
        with pytest.raises(ConfigError):  # workload out of range
            cli.parse_experiment(
                "[experiment]\nname = x\n[traffic]\nworkloads = 0\n")
        with pytest.raises(ConfigError):  # unknown scheduler
            cli.parse_experiment(
                "[experiment]\nname = x\n[topology]\nscheduler = mad\n"
                "[traffic]\nworkloads = 50\n")
        with pytest.raises(ConfigError):  # ber sweep without bers
            cli.parse_experiment(
                "[experiment]\nname = x\nkind = ber-sweep\n")
        with pytest.raises(ConfigError):  # non-numeric field
            cli.parse_experiment(
                "[experiment]\nname = x\n[topology]\nports = many\n"
                "[traffic]\nworkloads = 50\n")
        with pytest.raises(ConfigError, match="schedulers"):  # misspelled
            cli.parse_experiment(
                "[experiment]\nname = x\n[topology]\nschedulers = safc\n"
                "[tarffic]\npattern = bursty\n[traffic]\nworkloads = 50\n")
        with pytest.raises(ConfigError, match="tarffic"):  # misspelled
            cli.parse_experiment(
                "[experiment]\nname = x\n[tarffic]\npattern = bursty\n"
                "[traffic]\nworkloads = 50\n")
        for section in ("[topology]\nports = 4", "[traffic]\nworkloads = 50"):
            with pytest.raises(ConfigError, match=r"\[.*ber-sweep"):
                cli.parse_experiment(TINY_BER + section + "\n")
        with pytest.raises(ConfigError, match="slots.*protocol-checks"):
            cli.parse_experiment(TINY_BER.replace("ber-sweep",
                                                  "protocol-checks"))
        for name in ("../escaped", "sub/x", ".", ".."):
            with pytest.raises(ConfigError, match="one path component"):
                cli.parse_experiment(TINY_BER.replace("name = tinyber",
                                                      f"name = {name}"))
        with pytest.raises(ConfigError, match="bit error rate"):
            cli.parse_experiment(TINY_BER.replace("bers = 0 1e-5",
                                                  "bers = 0 1e-5 1.5"))
        with pytest.raises(ConfigError, match="headroom"):  # on too high
            cli.parse_experiment(TINY_SWEEP.replace(
                "ports = 4", "ports = 4\non_threshold = 30"))
        with pytest.raises(ConfigError, match="arrival process"):
            cli.parse_experiment(TINY_SWEEP.replace(
                "pattern = bernoulli", "pattern = bernoulli poisson"))
        # a SAFC row listed first must not run before this is caught
        with pytest.raises(ConfigError, match="grant/accept round"):
            cli.parse_experiment(TINY_SWEEP.replace(
                "scheduler = islip safc",
                "scheduler = safc islip\nislip_iterations = 0"))
        for mean in ("nan", "inf"):
            with pytest.raises(ConfigError, match="mean burst length"):
                cli.parse_experiment(TINY_SWEEP.replace(
                    "pattern = bernoulli",
                    f"pattern = bursty\nburst_mean_cells = {mean}"))
        for max_slots in ("0", "-5"):
            with pytest.raises(ConfigError, match="max_slots"):
                cli.parse_experiment(TINY_SWEEP.replace(
                    "ports = 4", f"ports = 4\nmax_slots = {max_slots}"))

    def test_percent_sign_is_literal(self):
        spec = cli.parse_experiment(TINY_BER.replace("name = tinyber",
                                                     "name = 50% load"))
        assert spec.name == "50% load"

    def test_tolerance_parsing(self):
        assert cli.parse_tolerance("abs:1.5") == ("abs", 1.5)
        assert cli.parse_tolerance("rel:20") == ("rel", 20.0)
        for bad in ("pct:5", "abs:", "abs:-1", "1.5", "abs:inf", "rel:nan"):
            with pytest.raises(ConfigError):
                cli.parse_tolerance(bad)


class TestPresets:
    def test_all_presets_parse(self):
        names = cli.preset_names()
        assert len(names) == 11
        for name in names:
            spec = cli.parse_experiment(cli.load_preset(name))
            assert spec.name == name

    def test_bandwidth_presets_have_ten_points(self):
        spec = cli.parse_experiment(
            cli.load_preset("bandwidth-bernoulli-fixed-islip"))
        assert len(spec.workloads) == 10
        assert spec.schedulers == ("islip",)
        loads = [call.args[1].load for call in cli._points_for(spec, 1)]
        assert loads == [w / 100 for w in spec.workloads]

    def test_latency_grid_has_sixteen_rows(self):
        spec = cli.parse_experiment(cli.load_preset("latency-grid"))
        calls = cli._points_for(spec, seed=1)
        assert len(calls) == 16
        combos = [(traffic.mode, traffic.load, config.scheduler)
                  for config, traffic in (call.args for call in calls)]
        assert len(set(combos)) == 16
        assert combos[0] == ("bernoulli", 0.3, "islip")
        assert combos[1] == ("bernoulli", 0.3, "safc")
        assert combos[-1] == ("bursty", 1.0, "safc")

    def test_ber_preset_covers_clean_to_hopeless(self):
        spec = cli.parse_experiment(cli.load_preset("ber-sweep"))
        assert spec.bers[0] == 0.0
        assert spec.bers[-1] == 1e-5
        assert len(spec.bers) == 9

    def test_unknown_preset_is_config_error(self):
        with pytest.raises(ConfigError):
            cli.load_preset("does-not-exist")


def run_main(tmp_path, ini_text, *args):
    spec_path = tmp_path / "exp.ini"
    spec_path.write_text(ini_text)
    out = tmp_path / "out"
    code = cli.main(["run", "--spec", str(spec_path),
                     "--out", str(out), *args])
    return code, out


class TestRunCommand:
    def test_sweep_writes_schema_and_rows(self, tmp_path):
        code, out = run_main(tmp_path, TINY_SWEEP)
        assert code == cli.EXIT_OK
        rows = cli.read_csv(out / "tiny.csv")
        assert len(rows) == 4
        assert list(rows[0]) == cli.CSV_COLUMNS
        assert [r["scheduler"] for r in rows] == \
            ["islip", "safc", "islip", "safc"]
        assert [r["nominal_load_pct"] for r in rows] == \
            ["50", "50", "100", "100"]
        for row in rows:
            assert int(row["p1"]) == 18
            assert 0 < float(row["utilization_pct"]) <= 100
            assert int(row["p50"]) <= int(row["p99"]) <= int(row["p100"])
        assert (out / "tiny-summary.txt").exists()

    def test_runs_are_deterministic(self, tmp_path):
        _, out_a = run_main(tmp_path, TINY_SWEEP)
        first = (out_a / "tiny.csv").read_bytes()
        (out_a / "tiny.csv").unlink()
        code, out_b = run_main(tmp_path, TINY_SWEEP)
        assert code == cli.EXIT_OK
        assert (out_b / "tiny.csv").read_bytes() == first

    def test_worker_pool_matches_serial(self, tmp_path):
        _, out = run_main(tmp_path, TINY_SWEEP)
        serial = (out / "tiny.csv").read_bytes()
        (out / "tiny.csv").unlink()
        code, out = run_main(tmp_path, TINY_SWEEP, "--workers", "2")
        assert code == cli.EXIT_OK
        assert (out / "tiny.csv").read_bytes() == serial

    def test_seed_flag_yields_one_report_each(self, tmp_path):
        code, out = run_main(tmp_path, TINY_SWEEP,
                             "--seed", "1", "--seed", "2")
        assert code == cli.EXIT_OK
        rows_1 = cli.read_csv(out / "tiny-seed1.csv")
        rows_2 = cli.read_csv(out / "tiny-seed2.csv")
        assert {r["seed"] for r in rows_1} == {"1"}
        assert {r["seed"] for r in rows_2} == {"2"}
        assert rows_1 != rows_2

    def test_ber_sweep_rows(self, tmp_path):
        code, out = run_main(tmp_path, TINY_BER)
        assert code == cli.EXIT_OK
        clean, noisy = cli.read_csv(out / "tinyber.csv")
        assert float(clean["utilization_pct"]) > 99.0
        assert int(clean["retx"]) == 0
        assert float(noisy["utilization_pct"]) < \
            float(clean["utilization_pct"])
        assert int(noisy["retx"]) > 0

    def test_protocol_checks_pass(self, tmp_path):
        code, out = run_main(tmp_path, cli.load_preset("protocol-checks"))
        assert code == cli.EXIT_OK
        rows = cli.read_csv(out / "protocol-checks.csv")
        assert [r["check"] for r in rows] == list(CHECKS)
        assert all(r["status"] == "pass" for r in rows)

    def test_pool_never_exceeds_row_count(self, tmp_path, monkeypatch):
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, calls):
                return map(fn, calls)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            FakePool)
        code = cli.main(["run", "--preset", "protocol-checks",
                         "--workers", "500", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert created == [len(CHECKS)]
        code, _ = run_main(tmp_path, TINY_BER.replace("bers = 0 1e-5",
                                                      "bers = 0"),
                           "--workers", "500")
        assert code == cli.EXIT_OK
        assert created == [len(CHECKS)]  # one row runs serially

    def test_oversized_port_count_is_config_error(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, TINY_SWEEP.replace("ports = 4",
                                                          "ports = 257"))
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_bad_spec_path_is_config_error(self, tmp_path):
        code = cli.main(["run", "--spec", str(tmp_path / "missing.ini"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_unknown_preset_is_config_error(self, tmp_path):
        code = cli.main(["run", "--preset", "nope",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_truncated_run_without_deliveries(self, tmp_path):
        ini = TINY_SWEEP.replace("ports = 4", "ports = 4\nmax_slots = 5")
        code, out = run_main(tmp_path, ini)
        assert code == cli.EXIT_OK
        for row in cli.read_csv(out / "tiny.csv"):
            for column in ["utilization_pct", *cli.LATENCY_COLUMNS]:
                assert row[column] == ""
            assert float(row["measured_load_pct"]) > 0

    def test_zero_slot_ber_sweep_is_config_error(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_main(tmp_path, TINY_BER.replace("slots = 20000",
                                                      "slots = 0"))
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "cellswitch-error.txt").exists()

    @pytest.mark.parametrize("error", [SimInvariantError, RuntimeError])
    def test_invariant_abort_is_internal_error(self, tmp_path, monkeypatch,
                                               error):
        def boom(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(TINY_SWEEP)
        code = cli.main(["run", "--spec", str(spec_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INTERNAL
        assert "synthetic failure" in \
            (tmp_path / "cellswitch-error.txt").read_text()


def verdicts_by_status(verdicts):
    grouped = {}
    for verdict in verdicts:
        grouped.setdefault(verdict["status"], []).append(verdict)
    return grouped


class TestCompare:
    ROW = {"pattern": "bernoulli", "size_mode": "fixed",
           "scheduler": "islip", "nominal_load_pct": "100",
           "utilization_pct": "98.36", "p50": "213"}

    def test_identical_reports_all_pass(self):
        verdicts = cli.compare_reports(
            [dict(self.ROW)], [dict(self.ROW)],
            {"utilization_pct": ("abs", 1.5), "p50": ("rel", 20)})
        assert len(verdicts) == 2
        assert all(v["status"] == "pass" for v in verdicts)

    def test_absolute_band_pass(self):
        measured = dict(self.ROW, utilization_pct="98.0")
        verdicts = cli.compare_reports(
            [measured], [dict(self.ROW)],
            {"utilization_pct": ("abs", 1.5)})
        assert [v["status"] for v in verdicts] == ["pass"]

    def test_relative_band_fail(self):
        measured = dict(self.ROW, p50="400")
        verdicts = cli.compare_reports(
            [measured], [dict(self.ROW)], {"p50": ("rel", 20)})
        assert [v["status"] for v in verdicts] == ["fail"]

    def test_unmatched_reference_row_is_flagged(self):
        other = dict(self.ROW, nominal_load_pct="90")
        verdicts = cli.compare_reports(
            [dict(self.ROW)], [dict(self.ROW), other],
            {"p50": ("rel", 20)})
        grouped = verdicts_by_status(verdicts)
        assert len(grouped["pass"]) == 1
        assert len(grouped["missing"]) == 1

    def test_numeric_keys_match_across_formats(self):
        measured = dict(self.ROW, nominal_load_pct="100.0")
        verdicts = cli.compare_reports(
            [measured], [dict(self.ROW)], {"p50": ("rel", 20)})
        assert [v["status"] for v in verdicts] == ["pass"]

    def test_compare_command_strict_exit(self, tmp_path, capsys):
        measured = tmp_path / "measured.csv"
        with measured.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.ROW))
            writer.writeheader()
            writer.writerow(dict(self.ROW, p50="400"))
        args = ["compare", "--measured", str(measured),
                "--builtin", "latency", "--tolerance", "p50=rel:20"]
        assert cli.main(args) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(args + ["--strict"]) == cli.EXIT_CONFIG
        assert cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency"]) == cli.EXIT_CONFIG

    def test_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        measured = tmp_path / "measured.csv"
        with measured.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.ROW))
            writer.writeheader()
            writer.writerow(dict(self.ROW, p50="n/a"))
        with pytest.raises(ConfigError, match="bernoulli/fixed/islip/100"):
            cli.compare_reports(cli.read_csv(measured), [dict(self.ROW)],
                                {"p50": ("rel", 20)})
        assert cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency",
                         "--tolerance", "p50=rel:20"]) == cli.EXIT_CONFIG
        assert "p50" in capsys.readouterr().err

    def test_verdict_file_output(self, tmp_path):
        measured = tmp_path / "measured.csv"
        with measured.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.ROW))
            writer.writeheader()
            writer.writerow(dict(self.ROW))
        out = tmp_path / "verdicts.csv"
        code = cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency",
                         "--tolerance", "p50=rel:20",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = cli.read_csv(out)
        assert list(rows[0]) == cli.VERDICT_COLUMNS


class TestReferenceTables:
    def test_latency_table_shape(self):
        rows = cli.reference_rows("latency")
        assert len(rows) == 16
        keys = {cli._row_key(r) for r in rows}
        assert len(keys) == 16
        for row in rows:
            assert int(row["p1"]) == 18
            levels = [int(row[p])
                      for p in ("p1", "p50", "p75", "p90", "p95", "p99",
                                "p100")]
            assert levels == sorted(levels)

    def test_bandwidth_table_shape(self):
        rows = cli.reference_rows("bandwidth")
        assert len(rows) == 80
        keys = {cli._row_key(r) for r in rows}
        assert len(keys) == 80
        for row in rows:
            assert 0 < float(row["utilization_pct"]) <= 100
            assert float(row["utilization_pct"]) <= \
                float(row["measured_load_pct"]) + 0.1

    def test_unknown_table_is_config_error(self):
        with pytest.raises(ConfigError):
            cli.reference_rows("throughput")


# SHA-256 over the CSV bytes of every shipped preset at reduced size,
# in preset-name order; recorded before the runner was restructured.
PRESET_CSV_DIGEST = (
    "5500c6c558a34351579d8c7ffa5d27c9e40f2c0bbd8bd3a1302e4226e41afa54")


def test_reduced_presets_csv_bytes_unchanged(tmp_path):
    """Every preset through run_experiment, small: rows, their order
    and their formatting stay byte-identical, pool path included."""
    digest = hashlib.sha256()
    for name in cli.preset_names():
        spec = cli.parse_experiment(cli.load_preset(name))
        if spec.kind == cli.KIND_SWEEP:
            spec = replace(spec, ports=8, volume_bytes=2048)
        elif spec.kind == cli.KIND_BER:
            spec = replace(spec, slots=10_000)
        workers = 2 if name == "latency-grid" else 1
        csv_path = cli.run_experiment(spec, tmp_path / name,
                                      workers=workers)[0]
        digest.update(name.encode() + b"\0" + csv_path.read_bytes())
    assert digest.hexdigest() == PRESET_CSV_DIGEST

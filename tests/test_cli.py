"""Experiment runner: config parsing, presets, reports, comparisons."""

import codecs
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from cellswitch import cli
from cellswitch.checks import CHECKS
from cellswitch.config import EngineConfig, TrafficSpec
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
        assert spec.kind == "sweep"
        assert spec.ports == 4
        assert spec.schedulers == ("islip", "safc")
        assert spec.workloads == (50.0, 100.0)
        assert spec.volume_bytes == 8192
        assert spec.seeds == (1,)

    def test_defaults_fill_in(self):
        spec = cli.parse_experiment(
            "[experiment]\nname = x\n[traffic]\nworkloads = 30\n")
        assert spec.kind == "sweep"
        assert spec.ports == 32
        assert spec.schedulers == ("islip",)
        assert spec.patterns == ("bernoulli",)
        assert spec.on_threshold == EngineConfig.on_threshold

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
        # a workload out of range is caught as the load it gives
        with pytest.raises(ConfigError,
                           match=re.escape("load 0.0 outside (0, 1]")):
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
        with pytest.raises(ConfigError, match="negative seed"):
            cli.parse_experiment(TINY_BER.replace("seeds = 1",
                                                  "seeds = 1 -1"))
        with pytest.raises(ConfigError, match="bit error rate"):
            cli.parse_experiment(TINY_BER.replace("bers = 0 1e-5",
                                                  "bers = 0 1e-5 1.5"))
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
        with pytest.raises(ConfigError, match="seed once"):
            cli.parse_experiment(TINY_SWEEP.replace("seeds = 1",
                                                    "seeds = 3 3"))
        # A repeated sweep value would run twice and write two rows
        # with one key, which compare refuses.
        for old, repeated, word in (
                ("workloads = 50 100", "workloads = 10 10.0", "workload"),
                ("workloads = 50 100", "workloads = 10 10.0000001",
                 "workload"),
                ("scheduler = islip safc", "scheduler = safc islip safc",
                 "scheduler"),
                ("pattern = bernoulli", "pattern = bernoulli bernoulli",
                 "pattern")):
            with pytest.raises(ConfigError, match=f"each {word} once"):
                cli.parse_experiment(TINY_SWEEP.replace(old, repeated))
        for bers in ("bers = 0 1e-5 0.00001", "bers = 0 -0"):
            with pytest.raises(ConfigError, match="each ber once"):
                cli.parse_experiment(TINY_BER.replace("bers = 0 1e-5", bers))

    # Each bad value the spec owns, as an edit of the INI text and as a
    # ``replace`` override: both ways of building the spec must reject
    # it with one message.  A blank [run] seeds keeps the default, so
    # an empty seed list has no INI form.
    @pytest.mark.parametrize("text, edit, override", [
        (TINY_BER, ("name = tinyber", "name = ../escaped"),
         dict(name="../escaped")),
        (TINY_BER, ("name = tinyber", "name = sub/x"), dict(name="sub/x")),
        (TINY_BER, ("name = tinyber", "name = ."), dict(name=".")),
        (TINY_BER, ("name = tinyber", "name = .."), dict(name="..")),
        (TINY_SWEEP, ("workloads = 50 100\n", ""), dict(workloads=())),
        (TINY_SWEEP, ("workloads = 50 100", "workloads = 0"),
         dict(workloads=(0.0,))),
        (TINY_SWEEP, ("workloads = 50 100", "workloads = 150"),
         dict(workloads=(150.0,))),
        (TINY_BER, ("bers = 0 1e-5\n", ""), dict(bers=())),
        (TINY_BER, ("bers = 0 1e-5", "bers = 1.5"), dict(bers=(1.5,))),
        (TINY_BER, ("slots = 20000", "slots = 0"), dict(slots=0)),
        (TINY_BER, ("one_way_delay = 4", "one_way_delay = 32"),
         dict(one_way_delay=32)),
        (TINY_BER, ("slots = 20000", "slots = 20000\nload = 1.5"),
         dict(link_load=1.5)),
        (TINY_SWEEP, None, dict(seeds=())),
        (TINY_SWEEP, ("scheduler = islip safc", "scheduler = mad"),
         dict(schedulers=("mad",))),
    ], ids=["name-parent", "name-subdir", "name-dot", "name-dotdot",
            "no-workloads", "workload-0", "workload-150", "no-bers",
            "ber-1.5", "slots-0", "delay-32", "link-load-1.5", "no-seeds",
            "scheduler-mad"])
    def test_parse_and_replace_agree(self, tmp_path, text, edit, override):
        if edit is None:
            message = "[run] seeds: need at least one seed"
        else:
            assert edit[0] in text
            with pytest.raises(ConfigError) as parsed:
                cli.parse_experiment(text.replace(*edit))
            message = str(parsed.value)
        with pytest.raises(ConfigError) as replaced:
            cli.run_experiment(replace(cli.parse_experiment(text),
                                       **override), tmp_path / "out")
        assert str(replaced.value) == message
        # nothing is written, in the output directory or beside it
        assert not any(tmp_path.iterdir())

    def test_unknown_kind_is_refused_before_any_file(self, tmp_path):
        """A kind without an entry is refused by the spec itself, from a
        file or from ``replace``, before an output directory is made."""
        with pytest.raises(ConfigError,
                           match="unknown experiment kind 'dance'"):
            cli.parse_experiment("[experiment]\nname = x\nkind = dance\n")
        spec = cli.parse_experiment(cli.load_preset("protocol-checks"))
        with pytest.raises(ConfigError,
                           match="unknown experiment kind 'dance'"):
            cli.run_experiment(replace(spec, kind="dance"), tmp_path / "out")
        assert not any(tmp_path.iterdir())

    # An empty scheduler or pattern list has no INI form: a blank
    # option keeps its default.
    @pytest.mark.parametrize("override", [dict(schedulers=()),
                                          dict(patterns=())],
                             ids=["no-schedulers", "no-patterns"])
    def test_sweep_without_rows_is_config_error(self, tmp_path, override):
        spec = cli.parse_experiment(TINY_SWEEP)
        with pytest.raises(ConfigError, match="no rows"):
            cli.run_experiment(replace(spec, **override), tmp_path / "out")
        assert not any(tmp_path.iterdir())

    # A Python caller can put None in any number field, or in a list of
    # numbers, which the INI form cannot (a blank option keeps the
    # default).  The spec refuses it by its own field name, before it
    # builds any engine, traffic or link description.  A None volume
    # would otherwise reach TrafficSpec, where None means unbounded, and
    # the sweep would never drain.
    @pytest.mark.parametrize("preset, field, named", [
        ("latency-grid", "ports", "ports"),
        *(("latency-grid", name, name) for name in (
            "islip_iterations", "uplink_delay", "downlink_delay",
            "egress_delay", "on_threshold", "off_threshold",
            "min_packet_bytes", "max_packet_bytes", "volume_bytes",
            "burst_mean_cells")),
        ("ber-sweep", "one_way_delay", "one_way_delay"),
        ("ber-sweep", "slots", "slots"),
        ("ber-sweep", "link_load", "link_load"),
        ("latency-grid", "seeds", "seeds"),
        ("latency-grid", "workloads", "workloads"),
        ("ber-sweep", "bers", "bers"),
    ])
    def test_none_in_an_int_field_is_a_config_error(self, preset, field,
                                                    named):
        spec = cli.parse_experiment(cli.load_preset(preset))
        kind = {f.name: f.type for f in fields(spec)}[field]
        what = "a float" if "float" in kind else "an int"
        value = (None,) if kind.startswith("tuple[") else None
        with pytest.raises(ConfigError, match=f"^{named} None: not {what}$"):
            replace(spec, **{field: value})

    def test_a_spec_without_a_volume_is_refused_at_once(self):
        spec = cli.parse_experiment(cli.load_preset("latency-grid"))
        with pytest.raises(ConfigError, match="^volume_bytes None"):
            replace(spec, volume_bytes=None, ports=2, workloads=(30.0,),
                    schedulers=("safc",), patterns=("bernoulli",))

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

    def test_negative_zero_tolerance_reads_as_zero(self):
        # -0.0 == 0.0, so compare the sign and the printed form too.
        for text in ("abs:-0", "abs:-0.0", "rel:-0"):
            mode, value = cli.parse_tolerance(text)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, text
        row = {"pattern": "bernoulli", "size_mode": "fixed",
               "scheduler": "islip", "nominal_load_pct": "10",
               "utilization_pct": "9.5"}
        verdicts = cli.compare_reports(
            [row], [row], {"utilization_pct": cli.parse_tolerance("abs:-0")})
        assert [v["tolerance"] for v in verdicts] == ["abs:0"]


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
        loads = [call.args[1].load for call in cli._sweep_points(spec, 1)]
        assert loads == [w / 100 for w in spec.workloads]

    def test_latency_grid_has_sixteen_rows(self):
        spec = cli.parse_experiment(cli.load_preset("latency-grid"))
        calls = cli._sweep_points(spec, seed=1)
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


class TestSchemaDrift:
    # The sweep axes: ExperimentSpec lists their values under other
    # names (ports, schedulers, seeds, patterns, workloads).
    AXES = {"n_ports", "scheduler", "seed", "mode", "load"}

    def test_spec_mirrors_engine_and_traffic_fields(self):
        spec = {f.name: f.default for f in fields(cli.ExperimentSpec)}
        for cls in (EngineConfig, TrafficSpec):
            for f in fields(cls):
                if f.name in self.AXES:
                    continue
                assert f.name in spec, f"{cls.__name__}.{f.name}"
                if f.name == "volume_bytes":
                    # a source alone is unbounded; an experiment is not
                    assert (f.default, spec[f.name]) == (None, 500_000)
                else:
                    assert spec[f.name] == f.default, f.name

    def test_docstring_schema_matches_parser(self):
        doc = cli.__doc__
        block = doc[doc.index("Experiment file schema"):
                    doc.index("Any other section")]
        documented, section = {}, None
        for line in block.splitlines()[1:]:
            line = line.split(";")[0].strip()
            if line.startswith("["):
                section = line.strip("[]")
                documented[section] = set()
            elif "=" in line:
                documented[section].add(line.split("=")[0].strip())
        parsed = {}
        for schema, _, _ in cli._KINDS.values():
            for name, options in schema.items():
                parsed.setdefault(name, set()).update(options)
        assert documented == parsed
        # the kinds the docstring lists are the kinds the runner has
        kinds = re.search(r"^\s*kind = \S+\s*;(.*)$", block, re.M).group(1)
        assert [k.strip() for k in kinds.split("|")] == list(cli._KINDS)
        columns = re.search(r"CSV columns \(stable, documented\):(.*?)\.",
                            doc, re.DOTALL).group(1)
        assert [c.strip() for c in columns.split(",")] == cli.CSV_COLUMNS


def test_benchmark_import_paths_name_the_config_objects():
    """The benchmark imports the run descriptions from ``engine`` and
    ``traffic``; they must stay the objects ``config`` defines."""
    from cellswitch import config, engine, traffic

    assert engine.EngineConfig is config.EngineConfig
    assert engine.ISLIP is config.ISLIP
    assert traffic.TrafficSpec is config.TrafficSpec


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
        assert sorted(path.name for path in out.iterdir()) == \
            ["tiny-run.json", "tiny.csv"]

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

    def test_duplicate_seed_flag_is_config_error(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, TINY_SWEEP,
                             "--seed", "2", "--seed", "2")
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, TINY_SWEEP, "--seed", "-1")
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_non_utf8_spec_is_config_error(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "exp.ini"
        spec_path.write_bytes(
            TINY_BER.replace("tinyber", "caf\u00e9").encode("latin-1"))
        code = cli.main(["run", "--spec", str(spec_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "exp.ini: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_spec_with_byte_order_mark_runs(self, tmp_path):
        spec_path = tmp_path / "exp.ini"
        spec_path.write_bytes(codecs.BOM_UTF8 + TINY_BER.replace(
            "bers = 0 1e-5", "bers = 0").encode())
        code = cli.main(["run", "--spec", str(spec_path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        (row,) = cli.read_csv(tmp_path / "out" / "tinyber.csv")
        assert row["pattern"] == "p2p-ber-0"

    def test_ber_sweep_rows(self, tmp_path):
        code, out = run_main(tmp_path, TINY_BER)
        assert code == cli.EXIT_OK
        clean, noisy = cli.read_csv(out / "tinyber.csv")
        assert float(clean["utilization_pct"]) > 99.0
        assert int(clean["retx"]) == 0
        assert float(noisy["utilization_pct"]) < \
            float(clean["utilization_pct"])
        assert int(noisy["retx"]) > 0

    COMMON_KEYS = {"name", "kind", "seeds"}
    LINK_KEYS = COMMON_KEYS | {"one_way_delay"}

    @pytest.mark.parametrize("text, stem, workers, keys", [
        (TINY_SWEEP, "tiny", 1, COMMON_KEYS | {
            "ports", "schedulers", "islip_iterations", "uplink_delay",
            "downlink_delay", "egress_delay", "on_threshold",
            "off_threshold", "channel_buffer", "max_slots", "patterns",
            "size_mode", "volume_bytes", "min_packet_bytes",
            "max_packet_bytes", "burst_mean_cells", "workloads"}),
        (TINY_BER, "tinyber", 1,
         LINK_KEYS | {"slots", "bers", "link_load"}),
        (TINY_CHECKS, "tinyber", 2, LINK_KEYS)],
        ids=["sweep", "ber-sweep", "protocol-checks"])
    def test_run_record_follows_each_csv(self, tmp_path, text, stem,
                                         workers, keys):
        """Per seed: the CSV, then a JSON run record of the seed, row
        count, processes, wall time and the spec as run at that seed,
        holding only the fields the experiment's kind reads."""
        spec = replace(cli.parse_experiment(text), seeds=(1, 2))
        paths = cli.run_experiment(spec, tmp_path, workers=workers)
        assert paths == [tmp_path / f"{stem}-seed{seed}{suffix}"
                         for seed in (1, 2)
                         for suffix in (".csv", "-run.json")]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        for seed, csv_path, record_path in zip((1, 2), paths[::2],
                                               paths[1::2]):
            record = json.loads(record_path.read_text(encoding="utf-8"))
            rows = len(cli.read_csv(csv_path))
            assert record["seed"] == seed
            assert record["rows"] == rows
            assert record["workers"] == min(workers, rows)
            assert record["wall_s"] >= 0
            assert set(record["spec"]) == keys
            ran = json.loads(json.dumps(asdict(replace(spec, seeds=(seed,)))))
            assert record["spec"] == {key: ran[key] for key in keys}

    def test_negative_zero_reads_as_zero(self, tmp_path):
        """``-0`` is the value 0, so its row prints as 0."""
        code, out = run_main(tmp_path, TINY_BER.replace(
            "bers = 0 1e-5", "bers = -0\nload = -0"))
        assert code == cli.EXIT_OK
        (row,) = cli.read_csv(out / "tinyber.csv")
        assert row["pattern"] == "p2p-ber-0"
        assert row["nominal_load_pct"] == "0"

    def test_protocol_checks_pass(self, tmp_path):
        code, out = run_main(tmp_path, cli.load_preset("protocol-checks"))
        assert code == cli.EXIT_OK
        rows = cli.read_csv(out / "protocol-checks.csv")
        assert [r["check"] for r in rows] == list(CHECKS)
        assert all(r["status"] == "pass" for r in rows)

    def test_protocol_checks_skip_fields_they_do_not_read(self, tmp_path):
        """The checks read the one-way delay alone, so a slot count
        they never use is not checked."""
        spec = cli.parse_experiment(cli.load_preset("protocol-checks"))
        csv_path, _ = cli.run_experiment(replace(spec, slots=0), tmp_path)
        rows = cli.read_csv(csv_path)
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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_run_needs_a_worker(self, tmp_path, workers):
        """Fewer than one worker is refused before anything is made."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="need at least one worker"):
            cli.run_experiment(cli.parse_experiment(TINY_BER), out,
                               workers=workers)
        assert not out.exists()
        code, out = run_main(tmp_path, TINY_BER, "--workers", str(workers))
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_oversized_port_count_is_config_error(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, TINY_SWEEP.replace("ports = 4",
                                                          "ports = 257"))
        assert code == cli.EXIT_CONFIG
        assert not out.exists()
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_out_of_range_delay_exits_1_with_an_error_line(
            self, tmp_path, monkeypatch, capsys):
        """A delay the engine would size a ring by is refused while the
        spec is read: exit 1, one error line, nothing run."""
        monkeypatch.chdir(tmp_path)
        code, out = run_main(tmp_path, TINY_SWEEP.replace(
            "ports = 4", "ports = 4\nuplink_delay = 100000000"))
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: link delays must be 1..31 slots\n"
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

    def test_truncated_run_without_generated_cells(self, tmp_path):
        ini = TINY_SWEEP.replace("ports = 4", "ports = 4\nmax_slots = 1") \
            .replace("workloads = 50 100", "workloads = 1") \
            .replace("pattern = bernoulli", "pattern = bernoulli bursty")
        code, out = run_main(tmp_path, ini)
        assert code == cli.EXIT_OK
        rows = cli.read_csv(out / "tiny.csv")
        assert len(rows) == 4
        for row in rows:
            assert row["measured_load_pct"] == ""

    def test_high_on_threshold_runs(self, tmp_path):
        # capacity follows from the pause point, so no on threshold
        # leaves too little headroom
        code, out = run_main(tmp_path, TINY_SWEEP.replace(
            "ports = 4", "ports = 4\non_threshold = 30"))
        assert code == cli.EXIT_OK
        assert len(cli.read_csv(out / "tiny.csv")) == 4

    def test_vanishing_load_is_config_error(self, tmp_path, monkeypatch):
        # 1e-15 % is a load of 1e-17, and 1.0 - 1e-17 == 1.0: a
        # Bernoulli gap would divide by log(1.0)
        monkeypatch.chdir(tmp_path)
        code, _ = run_main(tmp_path, TINY_SWEEP.replace("workloads = 50 100",
                                                        "workloads = 1e-15"))
        assert code == cli.EXIT_CONFIG
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "cellswitch-error.txt").exists()

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


def loaded_by(code):
    """The modules that running ``code`` newly loads in a fresh
    interpreter (the test session has loaded every module)."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def build_rows(preset):
    return ("from cellswitch import cli\n"
            f"spec = cli.parse_experiment(cli.load_preset({preset!r}))\n"
            "cli._KINDS[spec.kind][1](spec, spec.seeds[0])")


STAR_MODULES = {f"cellswitch.{name}"
                for name in ("engine", "traffic", "fabric", "scheduler", "voq")}


def test_star_sweep_skips_link_checks_and_entry_point_modules():
    """Parsing a star preset and building its rows loads neither the
    link, the protocol checks, argparse nor traceback."""
    star = loaded_by(build_rows("bandwidth-bursty-variable-safc"))
    assert "cellswitch.cli" in star
    unused = {"cellswitch.link", "cellswitch.checks", "argparse",
              "traceback"}
    assert unused.isdisjoint(star)
    assert "cellswitch.link" in loaded_by(build_rows("ber-sweep"))


@pytest.mark.parametrize("code", [
    build_rows("ber-sweep"), build_rows("protocol-checks"),
    "from cellswitch import cli\ncli.main(['presets'])",
], ids=["ber-sweep", "protocol-checks", "presets"])
def test_link_runs_and_presets_load_no_star_code(code):
    """The link experiments and the preset list read the run
    descriptions from ``config`` and never load the star engine."""
    loaded = loaded_by(code)
    assert "cellswitch.config" in loaded
    assert STAR_MODULES.isdisjoint(loaded)


def test_only_an_islip_network_loads_the_fabric():
    """The SAFC arbiter never routes through the sort-and-steer fabric."""
    build = ("from cellswitch.config import EngineConfig, TrafficSpec\n"
             "from cellswitch.engine import StarNetwork\n"
             "StarNetwork(EngineConfig(n_ports=4, scheduler={!r}), "
             "TrafficSpec())")
    assert "cellswitch.fabric" not in loaded_by(build.format("safc"))
    assert "cellswitch.fabric" in loaded_by(build.format("islip"))


@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["run", "--preset", "nope", "--workers", "x"],
    ["compare", "--builtin", "latency", "--tolerance", "p50=rel:20"],
    ["run", "--preset", "nope", "-v"],
], ids=["no-command", "run-without-source", "workers-x",
        "compare-without-measured", "no-verbose-flag"])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv):
    """A command line argparse rejects is a usage error: exit 1 after
    the usage message, with no trace file and nothing run."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]],
                         ids=["top", "run"])
def test_help_exits_0(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["café", "a\0b"], ids=["ascii", "nul"])
def test_name_the_file_system_cannot_hold_exits_1_before_any_row(
        tmp_path, name):
    """Under the C locale with UTF-8 mode off the file system encoding
    is ASCII, so ``café`` cannot name a file; no file name can hold a
    NUL byte.  Either is bad input, refused before the checks run."""
    spec_path = tmp_path / "exp.ini"
    spec_path.write_text(TINY_CHECKS.replace("name = tinyber",
                                             f"name = {name}"),
                         encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    done = subprocess.run(
        [sys.executable, "-m", "cellswitch.cli", "run", "--spec",
         str(spec_path), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    assert "file system can encode" in done.stderr
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "cellswitch-error.txt").exists()


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

    def test_blank_measured_cell_is_flagged(self, tmp_path, capsys):
        # A run cut short before its first delivery leaves p50 blank;
        # with no verdict, --strict would pass it.  A blank reference
        # cell still yields no verdict.
        blank = dict(self.ROW, p50="")
        verdicts = cli.compare_reports([blank], [dict(self.ROW)],
                                       {"p50": ("rel", 20)})
        assert [(v["metric"], v["measured"], v["reference"], v["status"])
                for v in verdicts] == [("p50", "", "213", "missing")]
        assert cli.compare_reports([dict(self.ROW)], [blank],
                                   {"p50": ("rel", 20)}) == []
        measured = tmp_path / "measured.csv"
        reference = tmp_path / "reference.csv"
        cli.write_csv(measured, list(self.ROW), [blank])
        cli.write_csv(reference, list(self.ROW), [self.ROW])
        assert cli.main(["compare", "--measured", str(measured),
                         "--reference", str(reference), "--strict",
                         "--tolerance", "p50=rel:20"]) == cli.EXIT_CONFIG
        assert "0 of 1 within tolerance" in capsys.readouterr().err

    def test_numeric_keys_match_across_formats(self):
        measured = dict(self.ROW, nominal_load_pct="100.0")
        verdicts = cli.compare_reports(
            [measured], [dict(self.ROW)], {"p50": ("rel", 20)})
        assert [v["status"] for v in verdicts] == ["pass"]

    @pytest.mark.parametrize("negative_zero", ["-0", "-0.0", "-0e3"])
    def test_negative_zero_key_matches_zero(self, negative_zero):
        measured = dict(self.ROW, nominal_load_pct=negative_zero)
        reference = dict(self.ROW, nominal_load_pct="0")
        assert cli._row_key(measured) == cli._row_key(reference)
        verdicts = cli.compare_reports(
            [measured], [reference], {"p50": ("rel", 20)})
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

    @pytest.mark.parametrize("side", ["measured", "reference"])
    def test_metric_not_a_column_is_config_error(self, tmp_path, capsys,
                                                 side):
        # A misspelt metric would otherwise yield no verdict and pass.
        report = tmp_path / "report.csv"
        cli.write_csv(report, list(self.ROW), [self.ROW])
        args = ["compare", "--measured", str(report),
                "--reference", str(report), "--strict",
                "--tolerance", "utilisation_pct=abs:1.5"]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "no column 'utilisation_pct' in the measured report" \
            in capsys.readouterr().err
        # Missing from one side only is an error too.
        other = tmp_path / "other.csv"
        columns = [c for c in self.ROW if c != "p50"]
        cli.write_csv(other, columns, [{c: self.ROW[c] for c in columns}])
        files = {"measured": report, "reference": report, side: other}
        assert cli.main(["compare", "--measured", str(files["measured"]),
                         "--reference", str(files["reference"]),
                         "--tolerance", "p50=rel:20"]) == cli.EXIT_CONFIG
        assert f"no column 'p50' in the {side} report" \
            in capsys.readouterr().err

    def test_metric_missing_from_builtin_is_config_error(self, tmp_path,
                                                          capsys):
        measured = tmp_path / "measured.csv"
        row = dict(self.ROW, measured_load_pct="99")
        cli.write_csv(measured, list(row), [row])
        assert cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency",
                         "--tolerance", "measured_load_pct=abs:1"]) \
            == cli.EXIT_CONFIG
        assert "no column 'measured_load_pct' in the reference report" \
            in capsys.readouterr().err

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

    def test_reference_without_rows_is_config_error(self, tmp_path, capsys):
        # Zero verdicts have no failure, so --strict would pass: a
        # reference with no rows, or whose rows leave the tolerance
        # metric blank, yields none, with or without --strict.
        measured = tmp_path / "measured.csv"
        reference = tmp_path / "reference.csv"
        cli.write_csv(measured, list(self.ROW), [self.ROW])
        for rows in ([], [dict(self.ROW, p50="")]):
            cli.write_csv(reference, list(self.ROW), rows)
            for strict in (["--strict"], []):
                code = cli.main(["compare", "--measured", str(measured),
                                 "--reference", str(reference), *strict,
                                 "--tolerance", "p50=rel:20"])
                assert code == cli.EXIT_CONFIG
                assert "reference.csv: no rows" in capsys.readouterr().err

    def test_duplicate_measured_row_is_config_error(self):
        again = dict(self.ROW, p50="999")
        with pytest.raises(ConfigError,
                           match="bernoulli/fixed/islip/100 is measured twice"):
            cli.compare_reports([dict(self.ROW), again], [dict(self.ROW)],
                                {"p50": ("rel", 20)})

    def test_duplicate_reference_row_is_config_error(self):
        # two reference rows would give one measured row two verdicts
        again = dict(self.ROW, p50="999")
        with pytest.raises(ConfigError, match="bernoulli/fixed/islip/100 "
                                              "is referenced twice"):
            cli.compare_reports([dict(self.ROW)], [dict(self.ROW), again],
                                {"p50": ("rel", 20)})

    def test_repeated_tolerance_is_config_error(self, tmp_path, capsys):
        # Keeping either band alone would turn the verdict on argument
        # order: p50 400 against 213 fails rel:20 and passes abs:1000.
        measured = tmp_path / "measured.csv"
        reference = tmp_path / "reference.csv"
        for path, row in ((measured, dict(self.ROW, p50="400")),
                          (reference, self.ROW)):
            cli.write_csv(path, list(self.ROW), [row])
        code = cli.main(["compare", "--measured", str(measured),
                         "--reference", str(reference), "--strict",
                         "--tolerance", "p50=rel:20",
                         "--tolerance", "p50=abs:1000"])
        assert code == cli.EXIT_CONFIG
        assert "--tolerance p50 given twice" in capsys.readouterr().err

    def test_non_utf8_measured_is_config_error(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        measured = tmp_path / "measured.csv"
        measured.write_bytes(bytes(range(256)))
        code = cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency", "--tolerance", "p50=rel:20"])
        assert code == cli.EXIT_CONFIG
        assert "measured.csv: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "cellswitch-error.txt").exists()

    def test_measured_with_byte_order_mark_matches(self, tmp_path, capsys):
        # Read as plain UTF-8, the mark would join the first header and
        # leave every reference row "missing".
        measured = tmp_path / "measured.csv"
        reference = tmp_path / "reference.csv"
        cli.write_csv(reference, list(self.ROW), [self.ROW])
        measured.write_bytes(codecs.BOM_UTF8 + reference.read_bytes())
        assert cli.read_csv(measured) == [self.ROW]
        code = cli.main(["compare", "--measured", str(measured),
                         "--reference", str(reference), "--strict",
                         "--tolerance", "p50=rel:20"])
        assert code == cli.EXIT_OK
        assert "1 of 1 within tolerance" in capsys.readouterr().err

    def test_oversized_csv_field_is_config_error(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        measured = tmp_path / "measured.csv"
        # one field over the csv module's 131072-character limit
        measured.write_text("pattern\n" + "x" * 200_000 + "\n")
        code = cli.main(["compare", "--measured", str(measured),
                         "--builtin", "latency", "--tolerance", "p50=rel:20"])
        assert code == cli.EXIT_CONFIG
        assert "measured.csv: malformed CSV" in capsys.readouterr().err
        assert not (tmp_path / "cellswitch-error.txt").exists()

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
        if spec.kind == "sweep":
            spec = replace(spec, ports=8, volume_bytes=2048)
        elif spec.kind == "ber-sweep":
            spec = replace(spec, slots=10_000)
        workers = 2 if name == "latency-grid" else 1
        csv_path = cli.run_experiment(spec, tmp_path / name,
                                      workers=workers)[0]
        digest.update(name.encode() + b"\0" + csv_path.read_bytes())
    assert digest.hexdigest() == PRESET_CSV_DIGEST

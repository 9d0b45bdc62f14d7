from __future__ import annotations

import ast
import csv
import io
import json
import random
import re
import shlex

import jsonschema
import pytest

import wdn_lipschitz
from wdn_lipschitz import cli, errors, load_report_schema
from wdn_lipschitz.cli import build_parser, main

from conftest import FIXTURE_DIR


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_three_node_analytical(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--methods", "analytical", "--format", "json")
    assert code == 0
    report = json.loads(out)
    est = report["estimates"]["analytical"]
    assert abs(est["value"] - 0.5023) <= 5e-4
    assert abs(est["per_class"]["pipes"] - 0.004) <= 5e-4
    assert report["network"]["counts"] == {
        "junctions": 1, "reservoirs": 1, "tanks": 1,
        "pipes": 1, "pumps": 1, "valves": 0}


def test_analyze_interval_certifies_analytical(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--methods", "analytical,interval", "--format", "json")
    assert code == 0
    report = json.loads(out)
    analytical = report["estimates"]["analytical"]["value"]
    upper = report["estimates"]["interval_max"]["value"]
    assert 0.0 <= upper - analytical <= 1e-6


def test_analyze_report_validates_against_schema(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--methods", "analytical,osl,interval,point",
                    "--samples", "200", "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_report_schema())
    assert report["schema_version"] == "wdn-lipschitz-report/2"
    assert list(report["config"]) == ["samples", "sampler", "seed", "mode", "bounds"]


def test_analyze_table_format(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--methods", "analytical")
    assert code == 0
    assert "three_node" in out
    assert "analytical" in out
    assert "per class" in out


def test_analyze_csv_format(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--methods", "analytical", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["analytical"]) == pytest.approx(0.5023, abs=5e-4)


def test_missing_inp_exits_2(capsys):
    code, _ = run(capsys, "analyze", "missing.inp")
    assert code == 2


def test_unparseable_inp_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.inp"
    bad.write_text("[RESERVOIRS]\nR1 100\n")   # no [JUNCTIONS]
    code, _ = run(capsys, "analyze", str(bad), "--default-bounds")
    assert code == 2


def test_missing_bounds_exits_3(capsys, tmp_path):
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"))
    assert code == 3
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(tmp_path / "nope.csv"))
    assert code == 3


def test_invalid_bounds_exits_3(capsys, tmp_path):
    bad = tmp_path / "inverted.csv"
    bad.write_text("link_id,q_min,q_max\nP1,5,-5\nPU1,1,900\n")
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(bad))
    assert code == 3


@pytest.mark.parametrize("rows, methods", [
    (("P1,1,1e300", "PU1,1,1e300"), "analytical"),
    (("P1,1,1e200", "PU1,1,1e120"), "interval"),
    (("P1,1,1e200", "PU1,1,1e120"), "point"),
])
def test_overflowing_bounds_exit_3(capsys, tmp_path, rows, methods):
    wide = tmp_path / "wide.csv"
    wide.write_text("link_id,q_min,q_max\n" + "\n".join(rows) + "\n")
    code = main(["analyze", str(FIXTURE_DIR / "three_node.inp"), "--bounds", str(wide),
                 "--methods", methods])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("bounds error: ") and err.count("\n") == 1
    assert "overflows" in err
    assert "Traceback" not in err


def test_assumption_violation_exits_4(capsys, tmp_path):
    bad = tmp_path / "pump_zero.csv"
    bad.write_text("link_id,q_min,q_max\nP1,0,900\nPU1,0,900\n")
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(bad))
    assert code == 4


def test_parameter_out_of_range_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad_speed.inp"
    text = (FIXTURE_DIR / "three_node.inp").read_text()
    bad.write_text(text.replace("HEAD PC1", "HEAD PC1 SPEED 1.7"))
    code, _ = run(capsys, "analyze", str(bad), "--default-bounds")
    assert code == 4


def test_default_bounds_without_pumps_exits_3(capsys):
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "net2.inp"),
                  "--default-bounds")
    assert code == 3


def test_default_bounds_accepted(capsys):
    code, out = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                    "--default-bounds", "--methods", "analytical",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["bounds"] == "default"


def test_analyze_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "analyze", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                  "--methods", "analytical", "--out", str(out_path))
    assert code == 0
    jsonschema.validate(json.loads(out_path.read_text()), load_report_schema())


def test_benchmark_single_network_matches_analyze(capsys):
    code, out = run(capsys, "benchmark", str(FIXTURE_DIR),
                    "--networks", "three_node", "--samples", "500",
                    "--repeats", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["network"] == "three_node"
    assert row["status"] == "ok"
    assert (row["junctions"], row["valves"]) == ("1", "0")
    analytical = float(row["analytical"])
    assert analytical == pytest.approx(0.5023, abs=5e-4)
    assert float(row["point_max"]) <= analytical
    assert analytical <= float(row["interval_max"]) <= float(row["interval_sqrt"])
    assert float(row["point_sqrt"]) <= float(row["interval_sqrt"])


def test_benchmark_full_run_holds_orderings(capsys):
    code, out = run(capsys, "benchmark", str(FIXTURE_DIR),
                    "--samples", "300", "--repeats", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["network"] for r in rows] == [
        "three_node", "eight_node", "anytown", "net2", "net3", "obcl"]
    for row in rows:
        assert row["status"] == "ok"
        analytical = float(row["analytical"])
        assert float(row["point_max"]) <= analytical
        assert analytical <= float(row["interval_max"]) <= float(row["interval_sqrt"])
        assert float(row["point_sqrt"]) <= float(row["interval_sqrt"])


def test_benchmark_is_byte_deterministic(capsys):
    args = ("benchmark", str(FIXTURE_DIR), "--networks", "three_node,net2",
            "--samples", "200", "--repeats", "1", "--sampler", "random",
            "--seed", "7")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_benchmark_timing_csv(tmp_path, capsys):
    timing = tmp_path / "timing.csv"
    code, _ = run(capsys, "benchmark", str(FIXTURE_DIR),
                  "--networks", "three_node", "--samples", "100",
                  "--repeats", "3", "--timing-out", str(timing))
    assert code == 0
    rows = list(csv.DictReader(timing.open()))
    methods = {r["method"] for r in rows}
    assert {"analytical", "point_max", "point_sqrt",
            "interval_max", "interval_sqrt"} <= methods
    assert all(r["runs"] == "3" for r in rows)
    assert all(float(r["median_s"]) >= 0.0 for r in rows)


@pytest.mark.parametrize("timing, calls", [(False, 1), (True, 3)])
def test_benchmark_repeats_only_for_timings(tmp_path, capsys, monkeypatch, timing, calls):
    seen = []
    run_methods = cli._run_methods

    def counting(*args):
        seen.append(args)
        run_methods(*args)

    monkeypatch.setattr(cli, "_run_methods", counting)
    argv = ["benchmark", str(FIXTURE_DIR), "--networks", "three_node", "--samples", "10",
            "--repeats", "3"]
    if timing:
        argv += ["--timing-out", str(tmp_path / "timing.csv")]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(seen) == calls


def test_benchmark_missing_bounds_file_is_an_error_row(tmp_path, capsys):
    for name in ("three_node.inp", "three_node_bounds.csv", "net2.inp"):
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    out_path = tmp_path / "results.csv"
    code, _ = run(capsys, "benchmark", str(tmp_path), "--samples", "10",
                  "--repeats", "1", "--out", str(out_path))
    assert code == 0
    rows = {row["network"]: row for row in csv.DictReader(io.StringIO(out_path.read_text()))}
    assert list(rows) == ["three_node", "net2"]
    assert rows["three_node"]["status"] == "ok"
    missing = tmp_path / "net2_bounds.csv"
    assert rows["net2"]["status"].startswith(f"error: BoundsError: cannot read {missing}: ")


@pytest.mark.parametrize("argv", [
    pytest.param(("analyze", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"), "--out"),
                 id="analyze--out"),
    pytest.param(("convergence", str(FIXTURE_DIR / "three_node.inp"),
                  "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                  "--n-grid", "10", "--out"), id="convergence--out"),
    pytest.param(("benchmark", str(FIXTURE_DIR), "--networks", "three_node",
                  "--samples", "10", "--repeats", "1", "--out"), id="benchmark--out"),
    pytest.param(("benchmark", str(FIXTURE_DIR), "--networks", "three_node",
                  "--samples", "10", "--repeats", "1", "--timing-out"),
                 id="benchmark--timing-out"),
])
def test_unwritable_output_path_exits_1(tmp_path, capsys, argv):
    target = tmp_path / "no_such_dir" / "out"
    code = main([*argv, str(target)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(target) in err


def test_benchmark_unknown_network_exits_2(capsys):
    code, _ = run(capsys, "benchmark", str(FIXTURE_DIR),
                  "--networks", "atlantis")
    assert code == 2


def test_convergence_trace(capsys):
    code, out = run(capsys, "convergence", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--samplers", "sobol,random", "--n-grid", "10,100,1000",
                    "--mode", "max")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["sampler"] for r in rows] == ["sobol"] * 3 + ["random"] * 3
    assert [int(r["n"]) for r in rows] == [10, 100, 1000, 10, 100, 1000]
    sobol_vals = [float(r["estimate"]) for r in rows if r["sampler"] == "sobol"]
    assert sobol_vals == sorted(sobol_vals)
    assert all(v <= 0.5025324065273796 for v in sobol_vals)
    assert all(r["mode"] == "max" for r in rows)


def test_convergence_single_n(capsys):
    code, out = run(capsys, "convergence", str(FIXTURE_DIR / "three_node.inp"),
                    "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                    "--samplers", "sobol", "--n-grid", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["n"] == "1"


def test_convergence_unknown_sampler_exits_2(capsys):
    err = usage_error(capsys, "convergence", str(FIXTURE_DIR / "three_node.inp"),
                      "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"),
                      "--samplers", "latin")
    assert "argument --samplers: unknown sampler 'latin' (choose from random,halton,sobol)" in err


def test_convergence_sobol_too_large_writes_nothing(tmp_path, capsys):
    # a chain of 1,300 pipes is past the Sobol table; random and Halton come
    # first in the default --samplers, yet no row may be written before the exit
    links = 1300
    nodes = ["R0", *(f"J{i}" for i in range(1, links + 1))]
    inp = ["[JUNCTIONS]", *(f"{j} 0 0" for j in nodes[1:]),
           "[RESERVOIRS]", "R0 100", "[PIPES]",
           *(f"P{i} {nodes[i - 1]} {nodes[i]} 100 10 0.02" for i in range(1, links + 1)),
           "[OPTIONS]", "HEADLOSS D-W"]
    (tmp_path / "chain.inp").write_text("\n".join(inp) + "\n")
    bounds = ["link_id,q_min,q_max", *(f"P{i},-1.0,1.0" for i in range(1, links + 1))]
    (tmp_path / "chain.csv").write_text("\n".join(bounds) + "\n")
    code = main(["convergence", str(tmp_path / "chain.inp"),
                 "--bounds", str(tmp_path / "chain.csv"), "--n-grid", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("usage error: sequence dimension 1300 exceeds the 1111 "
                            "dimensions of the shipped direction-number table\n")


ANALYZE = ("analyze", str(FIXTURE_DIR / "three_node.inp"),
           "--bounds", str(FIXTURE_DIR / "three_node_bounds.csv"))
CONVERGENCE = ("convergence", *ANALYZE[1:])
BENCHMARK = ("benchmark", str(FIXTURE_DIR))


def usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    return captured.err


# a name list is checked as it is parsed, before any file is read
@pytest.mark.parametrize("argv, message", [
    pytest.param(("analyze", "missing.inp", "--methods", "point,foo"),
                 "argument --methods: unknown method 'foo' "
                 "(choose from analytical,osl,interval,point)", id="--methods"),
    pytest.param(("convergence", "missing.inp", "--samplers", "sobol,latin"),
                 "argument --samplers: unknown sampler 'latin' "
                 "(choose from random,halton,sobol)", id="--samplers"),
])
def test_unknown_name_in_a_list_option_is_usage_error(capsys, argv, message):
    assert message in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, message", [
    pytest.param((*BENCHMARK, "--networks", "three_node,atlantis"),
                 f"usage error: networks not found in {FIXTURE_DIR}: ['atlantis']\n",
                 id="--networks"),
    pytest.param(("benchmark", str(FIXTURE_DIR / "three_node.inp")),
                 f"usage error: {FIXTURE_DIR / 'three_node.inp'} is not a directory\n",
                 id="not-a-directory"),
])
def test_benchmark_selection_mistake_is_usage_error(capsys, argv, message):
    assert one_error_line(capsys, argv, 2, "usage error: ") == message


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(ANALYZE, "--samples", "0", id="--samples-0"),
    pytest.param(CONVERGENCE, "--n-grid", "10,abc", id="--n-grid-10,abc"),
    pytest.param(CONVERGENCE, "--n-grid", "0,10", id="--n-grid-0,10"),
    pytest.param(BENCHMARK, "--repeats", "0", id="--repeats-0"),
])
def test_bad_numeric_option_is_usage_error(capsys, command, flag, value):
    err = usage_error(capsys, *command, flag, value)
    assert f"argument {flag}: " in err


# the closed-form max trace makes a huge count cheap, yet Sobol's 32-bit
# states index at most 2**32 - 1 points; nothing is written before the exit
@pytest.mark.parametrize("argv", [
    pytest.param((*CONVERGENCE, "--samplers", "random,sobol", "--n-grid", "10,5000000000"),
                 id="convergence"),
    pytest.param((*ANALYZE, "--methods", "point", "--samples", "5000000000"), id="analyze"),
    pytest.param((*BENCHMARK, "--networks", "three_node", "--samples", "5000000000",
                  "--repeats", "1"), id="benchmark"),
])
def test_sobol_count_past_its_states_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("usage error: 5000000000 sobol points requested; "
                            "the sequence indexes at most 4294967295\n")


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(ANALYZE, "--gap", "1e-6", id="analyze--gap"),
    pytest.param(ANALYZE, "--max-boxes", "5", id="analyze--max-boxes"),
    # --sampler is a prefix of --samplers, so this also needs abbreviations off
    pytest.param(CONVERGENCE, "--sampler", "halton", id="convergence--sampler"),
    pytest.param(CONVERGENCE, "--samples", "5", id="convergence--samples"),
])
def test_option_not_read_by_subcommand_is_rejected(capsys, command, flag, value):
    err = usage_error(capsys, *command, flag, value)
    assert f"unrecognized arguments: {flag} {value}" in err


def readme_commands() -> list[str]:
    """Every ``wdn-lipschitz ...`` line of the README's fenced blocks."""
    text = (FIXTURE_DIR.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("wdn-lipschitz ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {shlex.split(line)[1] for line in commands} == {"analyze", "benchmark",
                                                           "convergence"}
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_library_names_are_exported():
    text = (FIXTURE_DIR.parent / "README.md").read_text()
    section = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "wdn_lipschitz"
                for alias in node.names}
    assert imported
    assert sorted(imported - set(wdn_lipschitz.__all__)) == []
    assert [name for name in wdn_lipschitz.__all__ if not hasattr(wdn_lipschitz, name)] == []


@pytest.mark.parametrize("argv", [
    pytest.param((*ANALYZE, "--methods", "point", "--sampler", "random"), id="analyze"),
    pytest.param((*BENCHMARK, "--networks", "three_node", "--sampler", "random",
                  "--repeats", "1"), id="benchmark"),
    pytest.param((*CONVERGENCE, "--samplers", "random"), id="convergence"),
])
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert "argument --seed: '-1' is not a nonnegative integer" in captured.err


def one_error_line(capsys, argv, code: int, prefix: str) -> str:
    """Run argv, expect exit code with one stderr line that starts with prefix."""
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    return captured.err


LATIN1 = "; d\xe9bit\n".encode("latin-1")


def test_undecodable_inp_exits_2(tmp_path, capsys):
    bad = tmp_path / "three_node.inp"
    bad.write_bytes((FIXTURE_DIR / "three_node.inp").read_bytes() + LATIN1)
    err = one_error_line(capsys, ("analyze", str(bad), "--default-bounds"), 2,
                         f"input error: cannot read {bad}: ")
    assert "'utf-8' codec can't decode" in err


def test_undecodable_bounds_exits_3(tmp_path, capsys):
    bad = tmp_path / "bounds.csv"
    bad.write_bytes((FIXTURE_DIR / "three_node_bounds.csv").read_bytes() + LATIN1)
    err = one_error_line(capsys, (*ANALYZE[:2], "--bounds", str(bad)), 3,
                         f"bounds error: cannot read {bad}: ")
    assert "'utf-8' codec can't decode" in err


def test_benchmark_undecodable_bounds_is_an_error_row(tmp_path, capsys):
    for name in ("three_node.inp", "net2.inp", "net2_bounds.csv"):
        (tmp_path / name).write_bytes((FIXTURE_DIR / name).read_bytes())
    bad = tmp_path / "three_node_bounds.csv"
    bad.write_bytes((FIXTURE_DIR / "three_node_bounds.csv").read_bytes() + LATIN1)
    code, out = run(capsys, "benchmark", str(tmp_path), "--samples", "10")
    assert code == 0
    rows = {row["network"]: row for row in csv.DictReader(io.StringIO(out))}
    assert rows["net2"]["status"] == "ok"
    assert rows["three_node"]["status"].startswith(
        f"error: BoundsError: cannot read {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("old, new, code, message", [
    pytest.param("10.0  0.02", "1e-70  0.02", 4,
                 "assumption violation: pipe 'P1': resistance is not finite\n",
                 id="pipe-diameter-1e-70"),
    pytest.param("PC1  0.0  393.7008\nPC1  600.0  334.9546362472089\n"
                 "PC1  1000.0  173.1199667037966", "PC1  1e-320  100", 2,
                 "input error: PUMPS line 22: float division by zero: 'PU1 R1 J1 HEAD PC1'\n",
                 id="curve-flow-1e-320"),
])
def test_extreme_inp_numbers_are_typed_errors(tmp_path, capsys, old, new, code, message):
    text = (FIXTURE_DIR / "three_node.inp").read_text()
    assert text.count(old) == 1
    bad = tmp_path / "bad.inp"
    bad.write_text(text.replace(old, new))
    err = one_error_line(capsys, ("analyze", str(bad), "--default-bounds"), code, "")
    assert err == message


def readme_exit_codes() -> list[tuple[int, str, list[str]]]:
    """(code, label, error names) for each row of the README exit-code table."""
    text = (FIXTURE_DIR.parent / "README.md").read_text()
    rows = re.findall(r"^\| (\d) \| ?(?:`([^`]+)`)? \| (.*) \|$", text, flags=re.M)
    return [(int(code), label, re.findall(r"`(\w+)`", names)) for code, label, names in rows]


def test_error_classes_carry_the_readme_exit_codes():
    table = readme_exit_codes()
    assert [code for code, _, _ in table] == [0, 2, 2, 3, 4, 1]
    listed = {}
    for code, label, names in table:
        for name in names:
            listed[name] = (code, label)
    assert listed.pop("OSError") == (1, "error")
    for name, (code, label) in listed.items():
        cls = getattr(errors, name)
        assert (cls.exit_code, cls.label) == (code, label), name
    # every error class takes its code from the nearest class the table lists
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.WdnError):
            nearest = next(c for c in cls.__mro__ if c.__name__ in listed)
            assert (cls.exit_code, cls.label) == listed[nearest.__name__], cls


FUZZ_VALUES = ("0", "-0", "-1", "1e-70", "1e-320", "1e300", "1e308", "inf", "nan", "x",
               "HEAD", "SPEED", "GPV", "OPEN", "[PIPES]", "[X", ";", "\udcff", "")


def _mutate(rng: random.Random, lines: list[str], sep: str | None) -> list[str]:
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        fields = lines[i].split(sep) or [""]
        op = rng.random()
        if op < 0.7:
            fields[rng.randrange(len(fields))] = rng.choice(FUZZ_VALUES)
        elif op < 0.8:
            del fields[rng.randrange(len(fields))]
        elif op < 0.9:
            fields.append(rng.choice(FUZZ_VALUES))
        else:
            lines.insert(rng.randrange(len(lines)), lines[i])
            continue
        lines[i] = (sep or " ").join(fields)
    return lines


def test_mutated_inputs_exit_with_a_typed_error(tmp_path, capsys):
    # seeded token mutations of fixture INP and bounds files: whatever the
    # input, analyze exits 0 or with a documented code and one stderr line
    rng = random.Random(20240613)
    sources = [((FIXTURE_DIR / f"{n}.inp").read_text().splitlines(),
                (FIXTURE_DIR / f"{n}_bounds.csv").read_text().splitlines())
               for n in ("three_node", "eight_node", "anytown", "net2")]
    inp, bounds = tmp_path / "net.inp", tmp_path / "bounds.csv"
    codes = set()
    for case in range(1500):
        inp_lines, bounds_lines = sources[case % len(sources)]
        which = rng.random()
        if which < 0.6:
            inp_lines = _mutate(rng, inp_lines, None)
        if which > 0.4:
            bounds_lines = _mutate(rng, bounds_lines, ",")
        inp.write_bytes("\n".join(inp_lines).encode("utf-8", "surrogateescape"))
        bounds.write_bytes("\n".join(bounds_lines).encode("utf-8", "surrogateescape"))
        code = main(["analyze", str(inp), "--bounds", str(bounds),
                     "--methods", "interval,point", "--samples", "64"])
        err = capsys.readouterr().err
        context = f"case {case}: exit {code}, stderr {err!r}"
        assert code in (0, 2, 3, 4), context
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), context
        codes.add(code)
    assert codes == {0, 2, 3, 4}

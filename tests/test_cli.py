import argparse
import ast
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uqgeom.cli as cli_mod
from uqgeom import ResourceCapError, load_point_set
from uqgeom.cli import main
from uqgeom.montecarlo import SampleBudget

from conftest import read_pgm


@pytest.fixture
def indecisive_file(tmp_path):
    doc = {
        "dimension": 2,
        "model": "indecisive",
        "points": [
            {"locations": [[0, 0], [1, 0], [0, 1]], "weights": ["1/2", "1/4", "1/4"]},
            {"locations": [[2, 0], [2, 1]], "weights": ["1/3", "2/3"]},
            {"locations": [[0.5, 1.5], [1.5, 1.5]], "weights": ["0.5", "0.5"]},
        ],
    }
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def continuous_file(tmp_path):
    doc = {
        "dimension": 2,
        "model": "continuous",
        "points": [
            {"kind": "gaussian", "mean": [0, 0], "cov": [[0.3, 0.05], [0.05, 0.2]]},
            {"kind": "point_mass", "at": [1, 2]},
        ],
    }
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(doc))
    return path


def test_quantize_deterministic_output(indecisive_file, tmp_path):
    out1 = tmp_path / "q1.csv"
    out2 = tmp_path / "q2.csv"
    args = ["quantize", "--input", str(indecisive_file), "--measure", "seb2",
            "--eps", "0.1", "--delta", "0.05", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 201  # header + m=200 rows


def test_exact_and_oracle_agree(indecisive_file, tmp_path):
    a = tmp_path / "e.csv"
    b = tmp_path / "o.csv"
    assert main(["exact", "--input", str(indecisive_file), "--measure", "aabb-perimeter",
                 "--out", str(a)]) == 0
    assert main(["oracle", "--input", str(indecisive_file), "--measure", "aabb-perimeter",
                 "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_exact_diameter_exit_code(indecisive_file, tmp_path):
    rc = main(["exact", "--input", str(indecisive_file), "--measure", "diameter",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_oracle_cap_exit_code(indecisive_file, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod.exact_mod, "_SUPPORT_CAP", 2)
    rc = main(["oracle", "--input", str(indecisive_file), "--measure", "seb2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 2, "model": "indecisive",
        "points": [{"locations": [[0, 0]], "weights": ["0.99"]}],
    }))
    rc = main(["exact", "--input", str(bad), "--measure", "seb2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sip_exact_raster_and_isolines(indecisive_file, tmp_path):
    pgm = tmp_path / "f.pgm"
    svg = tmp_path / "f.svg"
    rc = main(["sip-exact", "--input", str(indecisive_file), "--measure", "seb2",
               "--grid", "24,24", "--bounds=-1,-1,3,3",
               "--out", str(pgm), "--isolines", str(svg)])
    assert rc == 0
    raster = read_pgm(pgm)
    assert raster.values.shape == (24, 24)
    assert raster.bounds == (-1.0, -1.0, 3.0, 3.0)
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--measure", "seb2"],
        ["oracle", "--measure", "aabb-perimeter"],
        ["sip-exact", "--measure", "seb2", "--grid", "8,8", "--bounds=-2,-2,2,2"],
    ],
    ids=["exact", "oracle", "sip-exact"],
)
def test_exact_commands_refuse_continuous_input(argv, tmp_path, capsys):
    path = tmp_path / "cont.json"
    path.write_text(json.dumps({
        "dimension": 2, "model": "continuous",
        "points": [
            {"kind": "gaussian", "mean": [-0.8, 0.0], "cov": [[0.16, 0.0], [0.0, 0.16]]},
            {"kind": "uniform_disk", "center": [0.8, 0.0], "radius": 0.5},
        ],
    }))
    out = tmp_path / "out"
    assert main([*argv, "--input", str(path), "--out", str(out)]) == 2
    assert "uqgeom discretize" in capsys.readouterr().err
    assert not out.exists()


def test_main_parses_each_call_on_its_own(indecisive_file, tmp_path):
    """The parser is built once per process; no call's options leak into
    the next, whatever the subcommand."""
    sip = ["sip-exact", "--input", str(indecisive_file), "--measure", "seb2",
           "--grid", "12,12", "--bounds=-1,-1,3,3"]
    quantize = ["quantize", "--input", str(indecisive_file), "--measure", "seb2",
                "--eps", "0.2", "--delta", "0.1", "--seed", "4"]
    svg = tmp_path / "a.svg"
    assert main([*sip, "--out", str(tmp_path / "a.pgm"), "--isolines", str(svg), "--levels", "0.5"]) == 0
    assert svg.read_text().count("<g ") == 1
    assert main([*quantize, "--m", "7", "--out", str(tmp_path / "q7.csv")]) == 0
    assert main([*sip, "--out", str(tmp_path / "b.pgm")]) == 0
    assert main([*quantize, "--out", str(tmp_path / "q.csv")]) == 0
    assert main(["exact", "--input", str(indecisive_file), "--measure", "aabb-perimeter",
                 "--out", str(tmp_path / "e.csv")]) == 0
    svg2 = tmp_path / "c.svg"
    assert main([*sip, "--out", str(tmp_path / "c.pgm"), "--isolines", str(svg2)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == ["a.svg", "c.svg"]
    assert svg2.read_text().count("<g ") == 5  # default levels, not the earlier --levels
    assert len((tmp_path / "q7.csv").read_text().splitlines()) == 8
    assert len((tmp_path / "q.csv").read_text().splitlines()) == 1 + SampleBudget(0.2, 0.1).m
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_sip_random_seeded_identical(indecisive_file, tmp_path):
    args = ["sip-random", "--input", str(indecisive_file), "--measure", "seb2",
            "--eps", "0.2", "--delta", "0.1", "--nu", "3", "--seed", "9",
            "--grid", "16,16", "--bounds=-1,-1,3,3"]
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sip_random_rejects_3d_input(tmp_path, capsys):
    path = tmp_path / "cyl.json"
    path.write_text(json.dumps({
        "dimension": 3, "model": "continuous",
        "points": [{"kind": "point_mass", "at": [0, 0, z]} for z in range(5)],
    }))
    out = tmp_path / "f.pgm"
    rc = main(["sip-random", "--input", str(path), "--measure", "seb2",
               "--eps", "0.2", "--delta", "0.1", "--m", "4",
               "--grid", "8,8", "--bounds=-1,-1,1,1", "--out", str(out)])
    assert rc == 2
    assert "d=2" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_direction_of_other_dimension_exit_code(indecisive_file, tmp_path, capsys):
    rc = main(["kernel", "--input", str(indecisive_file), "--alpha", "0.2",
               "--eps", "0.2", "--delta", "0.1", "--m", "5", "--direction", "1,0,0",
               "--seed", "2", "--out", str(tmp_path / "w.csv")])
    assert rc == 2
    assert "dimension 3" in capsys.readouterr().err


def test_kvariate_and_kernel(indecisive_file, tmp_path):
    rc = main(["kvariate", "--input", str(indecisive_file),
               "--measures", "dwid:1,0;dwid:0,1", "--eps", "0.2", "--delta", "0.1",
               "--m", "100", "--seed", "2", "--out", str(tmp_path / "kv.csv")])
    assert rc == 0
    lines = (tmp_path / "kv.csv").read_text().splitlines()
    assert lines[0] == "v0,v1,weight" and len(lines) == 101
    rc = main(["kernel", "--input", str(indecisive_file), "--alpha", "0.2",
               "--eps", "0.2", "--delta", "0.1", "--m", "50", "--direction", "1,0",
               "--seed", "2", "--out", str(tmp_path / "w.csv")])
    assert rc == 0


def test_kvariate_takes_no_nu(indecisive_file, tmp_path, capsys):
    # The k-variate budget sets nu = k, so the flag would be ignored.
    out = tmp_path / "kv.csv"
    argv = ["kvariate", "--input", str(indecisive_file), "--measures", "dwid:1,0;dwid:0,1",
            "--eps", "0.2", "--delta", "0.1", "--m", "10", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--nu", "7"])
    assert exc.value.code == 2
    assert "--nu" in capsys.readouterr().err
    assert not out.exists()
    from uqgeom.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    takes_nu = {name for name, sub in subparsers.choices.items()
                if any("--nu" in a.option_strings for a in sub._actions)}
    assert takes_nu == {"quantize", "kernel", "sip-random", "fit"}


def test_seed_only_on_the_commands_that_draw():
    parser = cli_mod.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    takes_seed = {name for name, sub in subparsers.choices.items()
                  if any("--seed" in a.option_strings for a in sub._actions)}
    assert takes_seed == {"quantize", "kvariate", "kernel", "sip-random", "experiment"}


def test_defaults_live_in_the_library():
    # A flag the library has a default for defaults to None (or False), so
    # that the library's default is the one that acts when it is left out.
    subparsers = next(a for a in cli_mod.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    own = {(name, a.option_strings[0]) for name, sub in subparsers.choices.items() for a in sub._actions
           if not isinstance(a, argparse._HelpAction) and a.default is not None and a.default is not False}
    assert own == {("quantize", "--seed"), ("kvariate", "--seed"), ("kernel", "--seed"),
                   ("sip-random", "--seed"), ("experiment", "--measures"), ("experiment", "--m-values")}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("quantize", ["--measure", "seb2", "--eps", "0.2", "--delta", "0.1"]),
        ("kernel", ["--alpha", "0.2", "--direction", "0.6,0.8", "--eps", "0.2", "--delta", "0.1"]),
        ("sip-random", ["--measure", "seb2", "--grid", "8,8", "--bounds=-1,-1,3,3", "--eps", "0.2",
                        "--delta", "0.1"]),
    ],
)
def test_omitted_flags_and_the_former_defaults_give_the_same_bytes(command, flags, indecisive_file, tmp_path):
    outputs = []
    for extra in ([], ["--nu", "1", "--constant-c", "0.5"]):
        out = tmp_path / f"run-{len(extra)}"
        out.mkdir()
        assert main([command, "--input", str(indecisive_file), *flags, *extra, "--out", str(out / "out")]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]


def test_fit_without_nu_is_the_fit_at_nu_1(tmp_path, capsys):
    paths = []
    for m, (a, b) in ((8, (0.1, 0.2)), (16, (0.05, 0.1))):
        paths.append(tmp_path / f"deviation_seb2_m{m}.csv")
        paths[-1].write_text(f"value,weight\n{a},0.5\n{b},0.5\n")
    outputs = []
    for extra in ([], ["--nu", "1.0"]):
        out = tmp_path / f"fit-{len(extra)}.csv"
        assert main(["fit", "--tables", *map(str, paths), *extra, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1] and outputs[0][0].startswith("C=")


@pytest.mark.parametrize("command", ["exact", "oracle", "sip-exact", "discretize"])
def test_seed_refused_where_nothing_is_drawn(command, indecisive_file, continuous_file, tmp_path, capsys):
    # --seed once changed no byte of these commands' outputs.
    out = tmp_path / "out"
    flags = {
        "exact": ["--measure", "seb2"],
        "oracle": ["--measure", "seb2"],
        "sip-exact": ["--measure", "aabb-perimeter", "--grid", "8,8", "--bounds=-1,-1,3,3"],
        "discretize": ["--measure", "aabb-perimeter", "--eps", "0.3", "--points-per-point", "4"],
    }[command]
    source = continuous_file if command == "discretize" else indecisive_file
    argv = [command, "--input", str(source), *flags, "--out", str(out)]
    assert main(argv) == 0
    for written in tmp_path.glob("out*"):  # sip-exact's PGM has a JSON sidecar
        written.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_discretize_emits_model_schema(continuous_file, tmp_path):
    out = tmp_path / "disc.json"
    rc = main(["discretize", "--input", str(continuous_file), "--measure", "aabb-perimeter",
               "--eps", "0.3", "--points-per-point", "25", "--out", str(out)])
    assert rc == 0
    back = load_point_set(out.read_text())
    assert back.dimension == 2
    assert back.points[1].k == 1  # the point mass


@pytest.mark.parametrize("count", ["0", "-4"])
def test_discretize_points_per_point_below_one_exit_code(count, continuous_file, tmp_path, capsys):
    out = tmp_path / "disc.json"
    rc = main(["discretize", "--input", str(continuous_file), "--measure", "seb2",
               "--eps", "0.3", "--points-per-point", count, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: --points-per-point must be an integer of at least 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "1e-300"], "epsilon^2 is not finite at epsilon=1e-300"),
        (["--constant-c", "inf"], "constant_c must be finite and positive"),
        (["--nu", "nan"], "nu must be finite and at least 1"),
    ],
    ids=["eps squared underflows", "infinite constant", "nan nu"],
)
def test_non_finite_sample_budget_exit_code(flags, message, indecisive_file, tmp_path, capsys):
    out = tmp_path / "q.csv"
    argv = ["quantize", "--input", str(indecisive_file), "--measure", "seb2",
            "--eps", "0.1", "--delta", "0.05", "--out", str(out)]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_experiment_and_fit_round_trip(tmp_path):
    outdir = tmp_path / "exp"
    rc = main(["experiment", "--n", "5", "--sigma", "0.5", "--measures", "diameter",
               "--m-values", "8,16", "--eta", "300", "--tau", "8", "--seed", "3",
               "--out", str(outdir)])
    assert rc == 0
    tables = sorted(outdir.glob("deviation_diameter_m*.csv"))
    assert len(tables) == 2
    rc = main(["fit", "--tables"] + [str(t) for t in tables] + ["--out", str(tmp_path / "fit.csv")])
    assert rc == 0
    assert (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("swap", [False, True])
def test_fit_refuses_a_second_table_for_one_m(swap, tmp_path, capsys):
    # Only the last table of each m was once kept, so the argument order
    # chose the fit: C=2.944030 in one order, C=0.100574 in the other.
    tables = {"deviation_seb2_m8.csv": (0.1, 0.2), "deviation_diameter_m8.csv": (0.9, 0.95),
              "deviation_seb2_m16.csv": (0.05, 0.1)}
    paths = []
    for name, (a, b) in tables.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(f"value,weight\n{a},0.5\n{b},0.5\n")
    if swap:
        paths[0], paths[1] = paths[1], paths[0]
    out = tmp_path / "fit.csv"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["fit", "--tables", *map(str, paths), "--out", str(out)]) == 2
    assert stdout.getvalue() == ""
    assert capsys.readouterr().err == f"error: {paths[1]}: a second deviation table for m=8\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--n", "7"), ("--length", "3"), ("--radius", "2"), ("--sigma", "99")])
def test_experiment_refuses_cylinder_flags_with_input(flag, value, indecisive_file, tmp_path, monkeypatch, capsys):
    # The generator came from --input and the flag changed nothing.
    _refusing(monkeypatch, "harness.run_deviation_experiment")
    monkeypatch.setattr(cli_mod, "_load", lambda path: pytest.fail("the input was loaded"))
    out = tmp_path / "exp"
    argv = ["experiment", "--input", str(indecisive_file), "--measures", "diameter", "--m-values", "2,4",
            "--eta", "8", "--tau", "2", flag, value, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} sets the cylinder generator, which --input replaces\n"
    assert not out.exists()


def test_experiment_defaults_are_the_configs(tmp_path, monkeypatch):
    configs = []
    monkeypatch.setattr(cli_mod.harness, "run_deviation_experiment",
                        lambda config: configs.append(config) or cli_mod.harness.ExperimentResult({}, {}))
    for flags in ([], ["--eta", "20000", "--tau", "200", "--seed", "0"]):
        assert main(["experiment", *flags, "--out", str(tmp_path / f"exp-{len(flags)}")]) == 0
    assert configs[0] == configs[1]
    assert (configs[0].eta, configs[0].tau, configs[0].seed) == (20_000, 200, 0)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--measures", "diameter;diameter"], "measure diameter is listed twice"),
        (["--measures", "dwid:1,0,0;diameter;dwid:2,0,0"], "measure dwid:1,0,0 is listed twice"),
        (["--m-values", "2,4,2"], "m=2 is listed twice"),
    ],
    ids=["measure", "dwid of one direction", "m"],
)
def test_experiment_refuses_a_repeated_entry(flags, message, tmp_path, monkeypatch, capsys):
    # A repeated measure was once sampled twice and its tables merged into
    # one measure's files; a repeated m ran tau trials that were overwritten.
    _refusing(monkeypatch, "harness.run_deviation_experiment")
    out = tmp_path / "exp"
    argv = ["experiment", "--n", "3", "--measures", "diameter", "--m-values", "2,4", "--eta", "8",
            "--tau", "2", *flags, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_experiment_cylinder_defaults_are_the_configs(tmp_path):
    outputs = []
    for flags in ([], ["--n", "50", "--length", "10", "--radius", "1", "--sigma", "2"]):
        out = tmp_path / f"exp-{len(flags)}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["experiment", "--measures", "diameter", "--m-values", "2,4", "--eta", "8",
                         "--tau", "2", "--seed", "5", *flags, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and outputs[0]


def test_fit_table_name_without_m_exit_code(tmp_path, capsys):
    table = tmp_path / "foo.csv"
    table.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    rc = main(["fit", "--tables", str(table)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "foo.csv" in err and "_m<m>" in err


def test_fit_refuses_a_table_for_m_zero(tmp_path, capsys):
    # Once exited 0 with a fitted C that counted m = 0.
    tables = [tmp_path / "deviation_seb2_m0.csv", tmp_path / "deviation_seb2_m16.csv"]
    for table in tables:
        table.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    out = tmp_path / "fit.csv"
    assert main(["fit", "--tables", *map(str, tables), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: m must be an integer of at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty deviation table"),
        ("\n\n", "empty deviation table"),
        ("weight,cumulative\n0.5,0.5\n0.5,1\n", "value and weight columns"),
        ("value,cumulative\n0.1,0.5\n0.2,1\n", "value and weight columns"),
        ("value,weight,cumulative\n", "no data rows"),
        ("value,weight\n0.1,0.5\n0.2\n", "line 3 needs a numeric value and weight"),
        ("value,weight\n0.1,half\n", "line 2 needs a numeric value and weight"),
        ("value,weight\n0.1,0.5\n0.2,nan\n", "line 3: weight must be finite and positive"),
        ("value,weight\n0.1,inf\n", "line 2: weight must be finite and positive"),
        ("value,weight\n0.1,0\n0.2,-1\n", "line 2: weight must be finite and positive"),
        ("value,weight\n0.1,-0.5\n0.2,-0.5\n", "line 2: weight must be finite and positive"),
        ("value,weight\n0.1,1\n0.2,1e-6\n", "the weights imply more than 1000000 samples"),
        ("value,weight\n0.1,1e-300\n", "the weights imply more than 1000000 samples"),
        ("value,weight\n0.1,1e300\n0.2,0.001\n", "the weights imply more than 1000000 samples"),
        ("value,weight\nnan,0.5\n0.2,0.5\n", "line 2: value must be finite"),
        ("value,weight\n0.1,0.5\n1e300,0.5\n", "line 3: value must lie in [0, 1], got 1e+300"),
        ("value,weight\n-0.25,0.5\n0.2,0.5\n", "line 2: value must lie in [0, 1], got -0.25"),
    ],
    ids=["empty", "blank lines", "no value column", "no weight column", "no rows", "truncated row",
         "text weight", "nan weight", "inf weight", "zero weight", "negative weights",
         "tiny weight", "subnormal-scale weight", "huge weight", "nan value", "value above 1",
         "negative value"],
)
def test_malformed_fit_table_exit_code(text, message, tmp_path, capsys):
    table = tmp_path / "deviation_seb2_m8.csv"
    table.write_text(text)
    good = tmp_path / "deviation_seb2_m16.csv"
    good.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    assert main(["fit", "--tables", str(good), str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: ") and message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigma", "1e160"], "sigma must be positive with a finite square, got 1e+160"),
        (["--sigma", "1.3407807929942597e154"], "sigma must be positive with a finite square"),
        (["--sigma", "-2"], "sigma must be positive with a finite square, got -2.0"),
        (["--n", "0"], "n must be an integer of at least 1, got 0"),
        (["--n", "-3"], "n must be an integer of at least 1, got -3"),
    ],
)
def test_bad_cylinder_exit_code(flags, message, tmp_path, capsys):
    outdir = tmp_path / "exp"
    argv = ["experiment", "--n", "3", "--measures", "diameter", "--m-values", "2,4",
            "--eta", "8", "--tau", "2", "--out", str(outdir)]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cylinder: ") and message in err
    assert not outdir.exists()


@pytest.mark.parametrize("case", ["missing input", "input is a directory", "missing table",
                                  "unwritable out"])
def test_unreadable_or_unwritable_file_exit_code(case, indecisive_file, tmp_path, capsys):
    out = tmp_path / "q.csv"
    if case == "missing table":
        argv = ["fit", "--tables", str(tmp_path / "deviation_seb2_m8.csv")]
    else:
        src = {"missing input": tmp_path / "none.json", "input is a directory": tmp_path,
               "unwritable out": indecisive_file}[case]
        if case == "unwritable out":
            out = tmp_path / "no-such-dir" / "q.csv"
        argv = ["quantize", "--input", str(src), "--measure", "seb2", "--eps", "0.2",
                "--delta", "0.1", "--m", "5", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["10", "10,10,10", ""])
def test_malformed_grid_exit_code(grid, indecisive_file, tmp_path, capsys):
    rc = main(["sip-exact", "--input", str(indecisive_file), "--measure", "seb2",
               "--grid", grid, "--bounds=-1,-1,3,3", "--out", str(tmp_path / "f.pgm")])
    assert rc == 2
    assert capsys.readouterr().err == "error: grid must be W,H\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["quantize", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1"],
        ["quantize", "--measure", "diameter", "--eps", "0.2", "--delta", "0.1"],
        ["exact", "--measure", "seb2"],
        ["oracle", "--measure", "seb2"],
        ["exact", "--measure", "aabb-area"],
        ["oracle", "--measure", "aabb-area"],
        ["quantize", "--measure", "aabb-area", "--eps", "0.2", "--delta", "0.1"],
        ["sip-random", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1", "--grid", "8,8",
         "--bounds=-2,-2,2,2"],
    ],
)
def test_huge_coordinates_exit_code(argv, tmp_path, capsys):
    # A candidate at 1e200 overflows the seb2 solvers' squares, the
    # diameter's and the area's product; each command refuses the set
    # instead of writing inf, raising OverflowError or rejecting every basis.
    doc = {
        "dimension": 2,
        "model": "indecisive",
        "points": [
            {"locations": [[0, 0], [1e200, 0]], "weights": ["1/2", "1/2"]},
            {"locations": [[2, 0], [2, 1]], "weights": ["1/3", "2/3"]},
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main([argv[0], "--input", str(path), "--out", str(out), *argv[1:]]) == 2
    assert "magnitude" in capsys.readouterr().err
    assert not out.exists()


_PAIR = [{"locations": [[0, 0], [1, 0]], "weights": ["1/2", "1/2"]},
         {"locations": [[0, 1], [2, 0]], "weights": ["1/2", "1/2"]}]


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        ({"dimension": 2, "model": "indecisive", "points": [1, 2]},
         ["exact", "--measure", "seb2"], "points[0]: must be an object"),
        ({"dimension": 2, "model": "continuous", "points": [[1, 2]]},
         ["exact", "--measure", "seb2"], "points[0]: must be an object"),
        ({"dimension": 2, "model": "continuous",
          "points": [{"kind": "uniform_disk", "center": [0, 0], "radius": [1]}]},
         ["sip-random", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1", "--m", "4",
          "--grid", "8,8", "--bounds=-2,-2,2,2"], "points[0]: float() argument"),
        ({"dimension": 2, "model": "indecisive", "points": _PAIR},
         ["exact", "--measure", "dwid:1"], "dwid direction has dimension 1, points have 2"),
        ({"dimension": 2, "model": "continuous",
          "points": [{"kind": "uniform_disk", "center": [0, 0], "radius": 1e200}]},
         ["discretize", "--measure", "seb2", "--eps", "0.3"],
         "a uniform disk of radius 1e+200 is too large to discretize"),
        ({"dimension": 2, "model": "continuous", "points": [{"kind": "gaussian", "mean": [0, 0]}]},
         ["quantize", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1"],
         "points[0]: gaussian needs the field 'cov'"),
        ({"dimension": 2, "model": "indecisive",
          "points": [_PAIR[0], {"locations": [[0, 1, 2]], "weights": ["1"]}]},
         ["exact", "--measure", "seb2"], "points[1]: has dimension 3, set has 2\n"),
        ({"dimension": 3, "model": "continuous",
          "points": [{"kind": "uniform_disk", "center": [0, 0], "radius": 1}]},
         ["quantize", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1"],
         "points[0]: has dimension 2, set has 3\n"),
        ({"dimension": "2", "model": "indecisive", "points": _PAIR},
         ["exact", "--measure", "seb2"], "dimension must be 2 or 3\n"),
        ({"dimension": "3", "model": "continuous",
          "points": [{"kind": "point_mass", "at": [0, 0, 1]}]},
         ["quantize", "--measure", "seb2", "--eps", "0.2", "--delta", "0.1"], "dimension must be 2 or 3\n"),
    ],
    ids=["indecisive point not an object", "continuous point a list", "disk radius a list",
         "dwid direction of another dimension", "disk area beyond float range", "missing field",
         "indecisive point of another dimension", "continuous point of another dimension",
         "dimension a string 2", "dimension a string 3"],
)
def test_malformed_input_exit_code(doc, argv, message, tmp_path, capsys):
    # Each of these once ended in a traceback and exit 1, or in exit 2
    # with a message that did not name the fault.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([argv[0], "--input", str(path), "--out", str(out), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not out.exists()


# Two points, each two adjacent corners of the unit square: only the
# canonical jitter separates the aabb-area bases of equal area.
_SQUARE = [{"locations": [[0, 0], [1, 0]], "weights": ["1/2", "1/2"]},
           {"locations": [[1, 1], [0, 1]], "weights": ["1/2", "1/2"]}]


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None, [True]])
def test_jitter_applied_must_be_a_json_boolean(flag, tmp_path, capsys):
    # Any truthy value once marked the raw square as jittered, and the
    # engine then refused it with exit 4.
    out = tmp_path / "out.csv"
    argv = ["exact", "--measure", "aabb-area", "--out", str(out)]
    path = tmp_path / "square.json"
    for jittered in (None, False):
        doc = {"dimension": 2, "model": "indecisive", "points": _SQUARE}
        if jittered is not None:
            doc["jitter_applied"] = jittered
        path.write_text(json.dumps(doc))
        assert main([*argv, "--input", str(path)]) == 0
    out.unlink()
    path.write_text(json.dumps({"dimension": 2, "model": "indecisive", "points": _SQUARE, "jitter_applied": flag}))
    assert main([*argv, "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: jitter_applied must be true or false\n"
    assert not out.exists()


def test_conservation_error_exit_code(indecisive_file, tmp_path, monkeypatch, capsys):
    import uqgeom.exact as exact_mod

    def leaking(*args, **kwargs):
        raise exact_mod.ConservationError("basis probabilities sum to 35/36 != 1")

    monkeypatch.setattr(exact_mod, "exact_distribution", leaking)
    rc = main(["exact", "--input", str(indecisive_file), "--measure", "aabb-area",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: basis probabilities")


def test_no_subcommand_accepts_threads(capsys):
    from uqgeom.cli import build_parser

    parser = build_parser()
    for argv in (
        ["experiment", "--out", "d"],
        ["quantize", "--input", "x.json", "--measure", "seb2", "--eps", "0.1",
         "--delta", "0.05", "--out", "q.csv"],
    ):
        parser.parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        assert not any("--threads" in a.option_strings for a in sub._actions), name


def _digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_randomized_outputs_golden(indecisive_file, continuous_file, tmp_path):
    """Seeded randomized outputs pinned by sha256: a moved spawn key or a
    reordered draw changes the bytes."""
    q = tmp_path / "q.csv"
    assert main(["quantize", "--input", str(indecisive_file), "--measure", "seb2",
                 "--eps", "0.2", "--delta", "0.1", "--m", "40", "--seed", "11",
                 "--out", str(q)]) == 0
    kv = tmp_path / "kv.csv"
    assert main(["kvariate", "--input", str(continuous_file),
                 "--measures", "diameter;aabb-perimeter", "--eps", "0.2", "--delta", "0.1",
                 "--m", "40", "--seed", "12", "--out", str(kv)]) == 0
    kern = tmp_path / "kern.csv"
    assert main(["kernel", "--input", str(indecisive_file), "--alpha", "0.2", "--direction", "0.6,0.8",
                 "--eps", "0.2", "--delta", "0.1", "--m", "40", "--seed", "14", "--out", str(kern)]) == 0
    outdir = tmp_path / "exp"
    assert main(["experiment", "--n", "6", "--sigma", "0.5", "--measures", "diameter;seb2",
                 "--m-values", "8,16", "--eta", "64", "--tau", "4", "--seed", "13",
                 "--out", str(outdir)]) == 0
    experiment = sorted(outdir.iterdir())
    assert [p.name for p in experiment] == [
        "deviation_diameter_m16.csv", "deviation_diameter_m8.csv",
        "deviation_seb2_m16.csv", "deviation_seb2_m8.csv", "fits.csv",
    ]
    assert {"quantize": _digest([q]), "kvariate": _digest([kv]),
            "kernel": _digest([kern]), "experiment": _digest(experiment)} == {
        "quantize": "58be489f3937cbc0b9f4ffb9f6f61bab70c3315381503cad43a924c50cf70554",
        "kvariate": "525e74b5c78bb818c0828e4d61bf14d7bfdf9acade85449cb1919aa8a7838d5a",
        "kernel": "b5b043b7ca524af2842de51d52d9ae9c1c3f0ddad03eaa4f067e868864d26c99",
        "experiment": "18e3cd4361a6d8534d89e568d5e1c4d7cced8180025a74b5cf93648bea674e1c",
    }


# --------------------------------------------------------------------------
# Fuzzed fit tables and experiment flags: every outcome is exit 0 or 2


def _run_cli(argv) -> int:
    """Exit code of ``uqgeom argv`` run in-process; argparse's own refusals
    (SystemExit) count as their exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_SPECIAL_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320", "1e-300", "1e-7",
                     "1e154", "1e160", "1e300", "", "x", "1/2"]),
)


@st.composite
def _fit_tables(draw):
    """A valid deviation table (tau samples) with at most two mutations:
    emptied, truncated, a wrong header, no rows, or a special value or weight."""
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    total = sum(counts)
    rows = [["0.%d" % i, repr(c / total), repr(sum(counts[: i + 1]) / total)]
            for i, c in enumerate(counts)]
    header = "value,weight,cumulative"
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["header", "rows", "weight", "value", "cell"]))
        if mutation == "header":
            header = draw(st.sampled_from(["", "weight,cumulative", "value,cumulative",
                                           "value;weight", "weight,value", "value,weights"]))
        elif mutation == "rows":
            rows = rows[: draw(st.integers(0, len(rows)))]
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            column = {"weight": 1, "value": 0}.get(mutation, 2)
            row[column] = draw(_SPECIAL_NUMBERS)
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fit_tables(), _fit_tables())
@example("value,weight\n1e300,0.5\n0.2,0.5\n", "value,weight\n0.1,0.5\n0.2,0.5\n")
@example("value,weight\n1e-200,1\n", "value,weight\n1e-300,1\n")
def test_fuzzed_fit_tables_exit_0_or_2(tmp_path_factory, first, second):
    """Exit 0 or 2, with no numpy warning and no nan in the report."""
    outdir = tmp_path_factory.mktemp("fit")
    a, b = outdir / "deviation_seb2_m8.csv", outdir / "deviation_seb2_m16.csv"
    a.write_text(first)
    b.write_text(second)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        code = _run_cli(["fit", "--tables", str(a), str(b), "--out", str(outdir / "fit.csv")])
    assert code in (0, 2)
    assert "nan" not in out.getvalue()


_EXPERIMENT_FLAGS = {
    "--n": st.one_of(st.integers(-2, 5).map(str), _SPECIAL_NUMBERS),
    "--length": _SPECIAL_NUMBERS,
    "--radius": _SPECIAL_NUMBERS,
    "--sigma": _SPECIAL_NUMBERS,
    "--eta": st.one_of(st.integers(-1, 20).map(str), _SPECIAL_NUMBERS),
    "--tau": st.one_of(st.integers(-1, 3).map(str), _SPECIAL_NUMBERS),
    "--m-values": st.lists(st.integers(-1, 9).map(str), max_size=3).map(",".join),
    "--seed": st.one_of(st.integers(-2, 2**70).map(str), _SPECIAL_NUMBERS),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sets(st.sampled_from(sorted(_EXPERIMENT_FLAGS)), max_size=2).flatmap(
    lambda flags: st.fixed_dictionaries({flag: _EXPERIMENT_FLAGS[flag] for flag in flags})
))
def test_fuzzed_experiment_flags_exit_0_or_2(tmp_path_factory, changed):
    """A small valid experiment (tiny eta and tau) with up to two numeric
    flags replaced."""
    flags = {"--n": "3", "--length": "10", "--radius": "1", "--sigma": "0.5", "--eta": "8",
             "--tau": "2", "--m-values": "2,4", "--seed": "0", **changed}
    outdir = tmp_path_factory.mktemp("exp") / "out"
    argv = ["experiment", "--measures", "diameter;seb2", "--out", str(outdir)]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    assert _run_cli(argv) in (0, 2)


@pytest.mark.parametrize("case", ["experiment sigma", "gaussian document"])
def test_overflowing_covariance_exit_code(case, tmp_path, capsys):
    # sigma ** 2 is finite here, but 0.5 * (cov + cov.T) is not.
    out = tmp_path / "out"
    if case == "experiment sigma":
        argv = ["experiment", "--n", "3", "--measures", "diameter", "--m-values", "2,4", "--eta", "8",
                "--tau", "2", "--sigma", "1.3407807929942596e154", "--out", str(out)]
    else:
        doc = {"dimension": 3, "model": "continuous",
               "points": [{"kind": "gaussian", "mean": [0, 0, 0], "cov": (1.5e308 * np.eye(3)).tolist()}]}
        path = tmp_path / "cont.json"
        path.write_text(json.dumps(doc))
        argv = ["kvariate", "--input", str(path), "--measures", "diameter", "--eps", "0.2",
                "--delta", "0.1", "--m", "4", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "covariance must be finite" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# Fuzzed indecisive documents through exact and oracle: exit 0, 2, 3 or 4


_VALID_DOC = {
    "dimension": 2,
    "model": "indecisive",
    "points": [
        {"locations": [[0, 0], [1, 0], [0, 2]], "weights": ["1/2", "1/4", "1/4"]},
        {"locations": [[2, 0], [2, 1]], "weights": ["1/3", "2/3"]},
        {"locations": [[1, 1]], "weights": ["1"]},
    ],
}
_ODD_VALUES = st.sampled_from(
    [None, True, 0, -1, 2, 10**400, 1e308, -1e308, 1e200, float("nan"), float("inf"), "", "x", "1/0",
     "0/0", "-1/2", "²", "١/٢", "1e-3", [], [[]], {}, [1], [0, 0, 0], [[0, 0], [1]], "1/2"]
).map(copy.deepcopy)
# Coordinates that keep the document valid: tiny, huge or coincident.
_COORDINATES = st.one_of(st.sampled_from([0, 0.5, -3, 1e-300, 1e6, 1e154, 1e200]), _ODD_VALUES)


@st.composite
def _mutated_documents(draw):
    """The valid document with up to three mutations: a key removed, or a
    top-level field, a point, its locations, one coordinate, its weights or
    one weight replaced by an odd value."""
    doc = copy.deepcopy(_VALID_DOC)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(["top", "drop", "point", "locations", "coordinate", "coordinate",
                                       "weights", "weight"]))
        points = doc.get("points")
        if target == "top":
            doc[draw(st.sampled_from(["dimension", "model", "points", "jitter_applied"]))] = draw(_ODD_VALUES)
            continue
        if not (isinstance(points, list) and points):
            continue
        i = draw(st.integers(0, len(points) - 1))
        point = points[i]
        if target == "drop":
            holder = draw(st.sampled_from(["doc", "point"]))
            if holder == "doc" or not isinstance(point, dict):
                doc.pop(draw(st.sampled_from(["dimension", "model", "points"])), None)
            else:
                point.pop(draw(st.sampled_from(["locations", "weights"])), None)
        elif target == "point":
            points[i] = draw(_ODD_VALUES)
        elif not isinstance(point, dict):
            continue
        elif target in ("locations", "weights"):
            point[target] = draw(_ODD_VALUES)
        else:
            key = "locations" if target == "coordinate" else "weights"
            value = point.get(key)
            if isinstance(value, list) and value:
                j = draw(st.integers(0, len(value) - 1))
                if key == "locations" and isinstance(value[j], list) and value[j]:
                    value[j][draw(st.integers(0, len(value[j]) - 1))] = draw(_COORDINATES)
                else:
                    value[j] = draw(_ODD_VALUES)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mutated_documents(), st.sampled_from(["exact", "oracle"]),
       st.sampled_from(["seb2", "aabb-area", "dwid:0.6,0.8", "sebinf", "diameter"]))
def test_fuzzed_documents_exit_0_2_3_or_4(tmp_path_factory, doc, command, measure):
    path = tmp_path_factory.mktemp("doc") / "set.json"
    path.write_text(json.dumps(doc))
    out = path.with_suffix(".csv")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run_cli([command, "--input", str(path), "--measure", measure, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# Fuzzed continuous documents through discretize, quantize and sip-random


_VALID_CONTINUOUS = {
    "dimension": 2,
    "model": "continuous",
    "points": [
        {"kind": "gaussian", "mean": [0, 0], "cov": [[0.3, 0.05], [0.05, 0.2]]},
        {"kind": "uniform_disk", "center": [1, 0], "radius": 0.5},
        {"kind": "point_mass", "at": [0, 1]},
    ],
}
_CONTINUOUS_FIELDS = {"gaussian": ("mean", "cov"), "uniform_disk": ("center", "radius"), "point_mass": ("at",)}
# Per command, its flags and the measures it is run with.
_CONTINUOUS_ARGV = {
    "discretize": (["--eps", "0.3"], ["aabb-perimeter", "seb2"]),
    "quantize": (["--eps", "0.2", "--delta", "0.1", "--m", "16"],
                 ["seb2", "aabb-area", "diameter", "dwid:0.6,0.8", "sebinf"]),
    "sip-random": (["--eps", "0.2", "--delta", "0.1", "--m", "16", "--grid", "8,8", "--bounds=-2,-2,2,2"],
                   ["seb2", "aabb-perimeter", "aabb-area"]),
}
_NUMBERS = st.sampled_from([0, -1, 0.5, -3.5, 1e-300, 1e6, 1e154, 1e200, 1e308, -1e308, 10**400,
                            float("nan"), float("inf"), float("-inf")])


def _leaves(value, path=()):
    """Paths of the numbers and other non-list leaves inside a field."""
    if isinstance(value, list) and value:
        return [p for i, v in enumerate(value) for p in _leaves(v, (*path, i))]
    return [path]


@st.composite
def _mutated_continuous_documents(draw):
    """The valid continuous document with one to three mutations: a key
    removed, or a top-level field, a point, its kind, one of its fields or
    one number inside a field replaced by an odd value or number."""
    doc = copy.deepcopy(_VALID_CONTINUOUS)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["number", "number", "field", "kind", "drop", "point", "top"]))
        points = doc.get("points")
        if target == "top":
            doc[draw(st.sampled_from(["dimension", "model", "points"]))] = draw(_ODD_VALUES)
            continue
        if not (isinstance(points, list) and points):
            continue
        i = draw(st.integers(0, len(points) - 1))
        point = points[i]
        if target == "point":
            points[i] = draw(_ODD_VALUES)
            continue
        if not isinstance(point, dict):
            continue
        kind = point.get("kind")
        fields = ["kind", *(_CONTINUOUS_FIELDS.get(kind, ()) if isinstance(kind, str) else ())]
        if target == "drop":
            point.pop(draw(st.sampled_from(fields)), None)
        elif target == "kind":
            point["kind"] = draw(st.one_of(st.sampled_from(sorted(_CONTINUOUS_FIELDS)), _ODD_VALUES))
        elif len(fields) > 1:
            key = draw(st.sampled_from(fields[1:]))
            if target == "field" or key not in point:
                point[key] = draw(_ODD_VALUES)
                continue
            path = draw(st.sampled_from(_leaves(point[key])))
            if not path:
                point[key] = draw(_NUMBERS)
                continue
            holder = point[key]
            for step in path[:-1]:
                holder = holder[step]
            holder[path[-1]] = draw(_NUMBERS)
    return doc


@pytest.mark.parametrize("command", sorted(_CONTINUOUS_ARGV))
@pytest.mark.parametrize(
    "field, text, message",
    [
        ('"mean": [0, 0]', '"mean": [NaN, 0]', "points[0]: mean must be finite"),
        ('"center": [1, 0]', '"center": [1, -Infinity]', "points[1]: center must be finite"),
        ('"radius": 0.5', '"radius": 1e400', "points[1]: radius must lie in (0, inf), got inf"),
        ('"radius": 0.5', '"radius": NaN', "points[1]: radius must lie in (0, inf), got nan"),
        ('"at": [0, 1]', '"at": [Infinity, 0]', "points[2]: at must be finite"),
    ],
    ids=["nan mean", "infinite center", "huge radius", "nan radius", "infinite point mass"],
)
def test_non_finite_continuous_parameters_refused_at_load(command, field, text, message, tmp_path, monkeypatch,
                                                          capsys):
    # Once refused only by the first draw, as "coordinates must be finite".
    import uqgeom.discretize

    _refusing(monkeypatch, "montecarlo.draw_supports")
    monkeypatch.setattr(uqgeom.discretize, "_lattice_sample", lambda *a: pytest.fail("a lattice was built"))
    document = json.dumps(_VALID_CONTINUOUS)
    assert field in document
    path = tmp_path / "cont.json"
    path.write_text(document.replace(field, text))
    out = tmp_path / "out"
    argv = [command, "--input", str(path), "--measure", _CONTINUOUS_ARGV[command][1][0],
            *_CONTINUOUS_ARGV[command][0], "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_mutated_continuous_documents(), st.sampled_from(sorted(_CONTINUOUS_ARGV)).flatmap(
    lambda command: st.tuples(st.just(command), st.sampled_from(_CONTINUOUS_ARGV[command][1]))
))
def test_fuzzed_continuous_documents_exit_0_2_3_or_4(tmp_path_factory, doc, run):
    command, measure = run
    path = tmp_path_factory.mktemp("doc") / "set.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--out", str(path.with_suffix(".out")), "--measure", measure]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run_cli([*argv, *_CONTINUOUS_ARGV[command][0]])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# Caps: refused with exit 3 before anything is drawn or allocated


def _refusing(monkeypatch, *names):
    """Make each ``module.attr`` of names fail if it is ever called."""

    def fail(*args, **kwargs):
        raise AssertionError("the run started before its cap was checked")

    for name in names:
        module, attr = name.split(".")
        monkeypatch.setattr(getattr(cli_mod, module), attr, fail)


def test_the_cli_keeps_no_cap():
    # Each cap lives in the library module whose entry points enforce it;
    # the CLI only maps ResourceCapError to exit 3.
    tree = ast.parse(Path(cli_mod.__file__).read_text())
    names = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    names += [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    names += [n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.alias))]
    assert [name for name in names if name.endswith("_CAP")] == []
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "ResourceCapError"]
    main_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [h.type for h in ast.walk(main_fn) if isinstance(h, ast.ExceptHandler)]
    assert len(uses) == 1 and any(h is uses[0] for h in handlers)


_SAMPLED_ARGV = {
    "quantize": ["--measure", "seb2"],
    "kvariate": ["--measures", "seb2;aabb-area"],
    "kernel": ["--alpha", "0.2", "--direction", "0.6,0.8"],
    "sip-random": ["--measure", "seb2", "--grid", "8,8", "--bounds=-1,-1,3,3"],
}


@pytest.mark.parametrize("command", [*_SAMPLED_ARGV, "experiment"])
def test_sample_cap_exit_code(command, indecisive_file, tmp_path, monkeypatch, capsys):
    # eps = 1e-7 asks for about 2e14 supports: once an allocation error
    # traceback (quantize, kvariate, sip-random), or hours of sampling.
    _refusing(monkeypatch, "montecarlo.draw_supports", "montecarlo._support_stacks",
              "harness.cylinder_uncertain_set")
    out = tmp_path / "out"
    if command == "experiment":
        argv = ["experiment", "--n", "3", "--tau", "10000000000", "--out", str(out)]
        points = 3 * (20_000 + 10_000_000_000 * (16 + 64 + 256 + 1024))
    else:
        argv = [command, "--input", str(indecisive_file), *_SAMPLED_ARGV[command], "--eps", "1e-7",
                "--delta", "0.05", "--out", str(out)]
        points = 3 * SampleBudget(1e-7, 0.05, nu=2.0 if command == "kvariate" else 1.0).m
    assert main(argv) == 3
    err = capsys.readouterr().err
    flags = "--eta, --tau or --m-values" if command == "experiment" else "--m, --eps or --delta"
    assert f"{points} points, exceeding the cap of 50000000; rerun with fewer samples ({flags})" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [*_SAMPLED_ARGV, "experiment"])
def test_sample_cap_counts_supports_times_points(command, indecisive_file, tmp_path, monkeypatch, capsys):
    # 12 supports of 3 points: 36 points, refused by a cap of 35 only.
    if command == "experiment":
        base = ["experiment", "--n", "3", "--eta", "8", "--tau", "1", "--m-values", "1,3",
                "--measures", "diameter"]
    else:
        base = [command, "--input", str(indecisive_file), *_SAMPLED_ARGV[command], "--eps", "0.2",
                "--delta", "0.1", "--m", "12"]
    for cap, code in ((36, 0), (35, 3)):
        monkeypatch.setattr(cli_mod.montecarlo, "_SAMPLE_CAP", cap)
        out = tmp_path / f"out-{cap}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*base, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert "12 supports of 3 points, 36 points, exceeding the cap of 35" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sip-exact", "sip-random"])
def test_grid_cell_cap_exit_code(command, indecisive_file, tmp_path, monkeypatch, capsys):
    import tracemalloc

    # No field is built and no raster allocated: a real grid this size may
    # be given lazily zeroed pages and then touch gigabytes.
    _refusing(monkeypatch, "sip.rasterize_sip", "exact_mod.deterministic_sip", "montecarlo.build_random_sip")
    argv = [command, "--input", str(indecisive_file), "--measure", "seb2", "--grid", "100000,4096",
            "--bounds=-1,-1,3,3", "--out", str(tmp_path / "f.pgm")]
    if command == "sip-random":
        argv += ["--eps", "0.2", "--delta", "0.1"]
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert capsys.readouterr().err == (
        "error: --grid 100000,4096 has 409600000 cells, exceeding the cap of 16777216\n"
    )
    assert not (tmp_path / "f.pgm").exists()


@pytest.mark.parametrize("command", ["sip-exact", "sip-random"])
@pytest.mark.parametrize("window, message", [
    (["--grid", "0,128", "--bounds=-1,-1,3,3"], "grid width must be an integer of at least 1, got 0"),
    (["--grid", "8,-5", "--bounds=-1,-1,3,3"], "grid height must be an integer of at least 1, got -5"),
    (["--grid", "8,8", "--bounds=1,1,0,0"], "bounds must be well-ordered"),
    (["--grid", "8,8", "--bounds=-1,2,3,2"], "bounds must be well-ordered"),
    (["--grid", "8,8", "--bounds=nan,-1,3,3"], "bounds must be finite"),
    (["--grid", "8,8", "--bounds=-1,-1,3,inf"], "bounds must be finite"),
    (["--grid", "8,8", "--bounds=-1e308,-1e308,1e308,1e308"], "bounds must have a finite width and height"),
], ids=["zero-width", "negative-height", "reversed", "flat", "nan", "inf", "overflowing-width"])
def test_raster_window_refused_before_the_field_is_built(command, window, message, indecisive_file, tmp_path,
                                                         monkeypatch, capsys):
    _refusing(monkeypatch, "sip.rasterize_sip", "exact_mod.deterministic_sip", "montecarlo.build_random_sip")
    out = tmp_path / "f.pgm"
    argv = [command, "--input", str(indecisive_file), "--measure", "seb2", *window, "--out", str(out)]
    if command == "sip-random":
        argv += ["--eps", "0.2", "--delta", "0.1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sip-exact", "sip-random"])
@pytest.mark.parametrize("levels, isolines, message", [
    ("0.5,1.5", True, "isoline level 1.5 outside (0, 1)"),
    ("nan", True, "isoline level nan outside (0, 1)"),
    ("junk", True, "could not convert string to float: 'junk'"),
    ("", True, "could not convert string to float: ''"),
    ("0.5", False, "--levels needs --isolines"),
], ids=["above-one", "nan", "junk", "empty", "without-isolines"])
def test_levels_refused_before_the_input_is_loaded(command, levels, isolines, message, indecisive_file,
                                                    tmp_path, monkeypatch, capsys):
    # The PGM was written before a level outside (0, 1) was refused, and
    # --levels without --isolines was ignored.
    _refusing(monkeypatch, "sip.rasterize_sip", "exact_mod.deterministic_sip", "montecarlo.build_random_sip")
    monkeypatch.setattr(cli_mod, "_load", lambda path: pytest.fail("the input was loaded"))
    out, svg = tmp_path / "f.pgm", tmp_path / "f.svg"
    argv = [command, "--input", str(indecisive_file), "--measure", "seb2", "--grid", "8,8", "--bounds=-1,-1,3,3",
            "--out", str(out), f"--levels={levels}"]
    if isolines:
        argv += ["--isolines", str(svg)]
    if command == "sip-random":
        argv += ["--eps", "0.2", "--delta", "0.1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not svg.exists()


def test_grid_cell_cap_bounds_w_times_h():
    from uqgeom.cli import _parse_grid

    assert _parse_grid("4096,4096") == (4096, 4096)
    assert _parse_grid("16777216,1") == (16777216, 1)
    for grid in ("4097,4096", "16777217,1"):
        with pytest.raises(ResourceCapError, match="cells, exceeding the cap of 16777216"):
            _parse_grid(grid)


_EXACT_ARGV = {
    "exact": ["--measure", "seb2"],
    "sip-exact": ["--measure", "seb2", "--grid", "8,8", "--bounds=-1,-1,3,3"],
}


@pytest.mark.parametrize("command", _EXACT_ARGV)
def test_basis_cap_exit_code(command, tmp_path, monkeypatch, capsys):
    # Three points of 500 candidates: 3 * 500 + 3 * 500**2 + 500**3 seb2
    # potential bases, once hours of enumeration.  Refused before the jitter.
    _refusing(monkeypatch, "exact_mod.canonical_jitter", "sip.rasterize_sip")
    locs = [[i * 0.01, (i * 7 % 500) * 0.01] for i in range(500)]
    doc = {"dimension": 2, "model": "indecisive",
           "points": [{"locations": locs, "weights": ["1/500"] * 500} for _ in range(3)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--input", str(path), *_EXACT_ARGV[command], "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: the exact engine would enumerate 125751500 potential bases, exceeding the cap of 120000000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, measure, count", [
    # Candidates 3, 2, 2: seb2 and aabb-perimeter take bases of up to 3
    # points, 7 + 16 + 12 = 35; dwid of up to 2, 7 + 16 = 23.
    ("exact", "seb2", 35), ("exact", "dwid:0.6,0.8", 23), ("sip-exact", "aabb-perimeter", 35),
])
def test_basis_cap_counts_potential_bases(command, measure, count, indecisive_file, tmp_path, monkeypatch, capsys):
    argv = [command, "--input", str(indecisive_file), *_EXACT_ARGV[command]]
    argv[argv.index("seb2")] = measure
    for cap, code in ((count, 0), (count - 1, 3)):
        monkeypatch.setattr(cli_mod.exact_mod, "_BASIS_CAP", cap)
        out = tmp_path / f"out-{cap}"
        assert main([*argv, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert f"enumerate {count} potential bases, exceeding the cap of {count - 1}" in capsys.readouterr().err


def test_points_per_point_cap_exit_code(continuous_file, tmp_path, capsys):
    # Once exit 2 with numpy's "Maximum allowed size exceeded"; smaller
    # counts would fill memory with the lattice's arrays.
    out = tmp_path / "d.json"
    argv = ["discretize", "--input", str(continuous_file), "--measure", "seb2", "--eps", "0.5",
            "--points-per-point", str(10**40), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: --points-per-point {10**40} exceeds the cap of 65536 candidates per point\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("dimension, alpha", [(2, "1e-300"), (3, "1e-308")])
def test_kernel_direction_cap_exit_code(dimension, alpha, indecisive_file, tmp_path, capsys):
    # In 3-D, 4 / alpha overflowed to inf and math.ceil raised OverflowError
    # (a traceback); in 2-D numpy refused the direction net with exit 2.
    path = indecisive_file
    if dimension == 3:
        path = tmp_path / "cylinder.json"
        path.write_text(json.dumps({"dimension": 3, "model": "continuous", "points": [
            {"kind": "gaussian", "mean": [0, 0, z], "cov": np.eye(3).tolist()} for z in range(3)]}))
    out = tmp_path / "k.csv"
    argv = ["kernel", "--input", str(path), "--alpha", alpha, "--direction", ",".join(["1"] * dimension),
            "--eps", "0.2", "--delta", "0.1", "--m", "4", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"in {dimension}-D takes" in err and "exceeding the cap of 65536; rerun with a larger --alpha" in err
    assert not out.exists()


@pytest.mark.parametrize("command, huge, plain", [
    ("exact", ["--measure", "dwid:1e308,1e308"], ["--measure", "dwid:1,1"]),
    ("oracle", ["--measure", "dwid:-1e-200,1e-200"], ["--measure", "dwid:-1,1"]),
    ("exact", ["--measure", "dwid:1e-160,1e-160"], ["--measure", "dwid:1,1"]),
    ("kernel", ["--direction", "1e308,1e308"], ["--direction", "1,1"]),
])
def test_directions_whose_norm_overflows_or_underflows(command, huge, plain, indecisive_file, tmp_path):
    # Found by the argv fuzz: the norm's squares overflowed to inf (or
    # underflowed to 0), so the exact engine saw a NaN direction and exited
    # 4, and kernel wrote zero widths; tiny directions were refused as zero,
    # and ones whose squares are subnormal came out off unit length.
    outs = []
    for flags in (huge, plain):
        out = tmp_path / f"{len(outs)}.csv"
        argv = [command, "--input", str(indecisive_file), *flags, "--out", str(out)]
        if command == "kernel":
            argv += ["--alpha", "0.2", "--eps", "0.2", "--delta", "0.1", "--m", "8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("direction, message", [
    ("1,0,0", "direction has dimension 3, the kernel has dimension 2"),
    ("inf,0", "direction must be finite"),
    ("0,0", "direction must be nonzero"),
    ("1,x", "could not convert string to float: 'x'"),
], ids=["another dimension", "not finite", "zero", "not a number"])
def test_kernel_checks_its_direction_before_building_the_kernel(direction, message, indecisive_file, tmp_path,
                                                                capsys):
    # The direction was once parsed and checked only after every support had
    # been sampled and reduced to a kernel.
    out = tmp_path / "k.csv"
    argv = ["kernel", "--input", str(indecisive_file), "--alpha", "0.2", "--direction", direction,
            "--eps", "0.2", "--delta", "0.1", "--m", "5", "--out", str(out)]
    with mock.patch.object(cli_mod.montecarlo, "build_eda_kernel", wraps=cli_mod.montecarlo.build_eda_kernel) as spy:
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not spy.called
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1", "1.5", "2.5", "nan"])
def test_kernel_checks_its_alpha_before_drawing_supports(alpha, indecisive_file, tmp_path, capsys):
    # Each kernel was once built at alpha / 2, so alpha in [1, 2) wrote widths
    # with exit 0, and a larger alpha was refused only after the first stack
    # of supports had been drawn.
    out = tmp_path / "k.csv"
    argv = ["kernel", "--input", str(indecisive_file), "--alpha", alpha, "--direction", "0.6,0.8",
            "--eps", "0.2", "--delta", "0.1", "--m", "5", "--out", str(out)]
    with mock.patch.object(cli_mod.montecarlo, "draw_supports", wraps=cli_mod.montecarlo.draw_supports) as spy:
        assert main(argv) == 2
    assert capsys.readouterr().err == "error: alpha must lie in (0, 1)\n"
    assert not spy.called
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--alpha", "0.2", "--direction", "inf,0", "--eps", "0.2", "--delta", "0.1", "--m", "8"],
     "direction must be finite"),
    (["quantize", "--measure", "dwid:inf,1", "--eps", "0.2", "--delta", "0.1", "--m", "8"],
     "dwid direction must be finite"),
])
def test_non_finite_direction_exit_code(argv, message, indecisive_file, tmp_path, capsys):
    # kernel once wrote NaN widths with exit 0.
    out = tmp_path / "out.csv"
    assert main([*argv, "--input", str(indecisive_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fit_residual_norm_of_a_huge_nu_is_finite(tmp_path, capsys):
    # The squared residuals overflowed: residual_norm=inf, with a warning.
    a, b = tmp_path / "deviation_seb2_m8.csv", tmp_path / "deviation_seb2_m16.csv"
    a.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    b.write_text("value,weight\n0.05,0.5\n0.1,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--tables", str(a), str(b), "--nu", "1e300"]) == 0
    report = capsys.readouterr().out
    assert "residual_norm=4732648220993555" in report and "inf" not in report


# --------------------------------------------------------------------------
# Fuzzed argv of every subcommand: exit 0, 2, 3 or 4, never a traceback


_GRIDS = st.sampled_from(["10", "0,0", "-5,5", "5,-5", "1e3,4", "a,b", "3,3,3", ",", "8,", "4097,4097",
                          "100000,100000", "-100000,-100000", "1,1", "99999999999999999999,1"])
_BOUNDS = st.sampled_from(["0,0,0,0", "nan,0,1,1", "1,1,0,0", "-inf,0,1,1", "1,2,3", "1,2,3,4,5", "",
                           "a,b,c,d", "-1e308,-1e308,1e308,1e308", "0,0,1e-320,1e-320", "-2,-2,2,2"])
_LEVELS = st.sampled_from(["", ",", "0.5,", "nan", "inf", "2", "-1", "0.5,0.5", "1,0", "x", "0", "1",
                           "1e-320", "0.1,0.3,0.5,0.7,0.9"])
_MEASURE_NAMES = st.sampled_from(["", "seb2", "seb3", "diameter", "aabb-area", "aabb_perimeter", "seb1",
                                  "sebinf", "dwid", "dwid:", "dwid:0,0", "dwid:nan,1", "dwid:1e308,1e308",
                                  "dwid:1,2,3", "dwid:x,y", "dwid:0.6,0.8", "dwid:1e-320,0", ":", "seb2:1"])
_MEASURE_LISTS = st.lists(_MEASURE_NAMES, min_size=1, max_size=3).map(";".join) | st.sampled_from([";", "seb2;"])
_M_VALUES = st.sampled_from(["", ",", "2,", "0", "-4", "2,4,x", "nan", "1e3", "3,3", "99999999999999999999"])
_DIRECTIONS = st.sampled_from(["", "0,0", "1", "1,2,3", "nan,1", "inf,0", "1e308,1e308", "1e-320,0", "x,y"])
_INTEGERS = st.one_of(st.integers(-2, 10**22).map(str), _SPECIAL_NUMBERS)
# Counts the caps let through stay small: a lattice of 64 candidates at most.
_CANDIDATE_COUNTS = st.one_of(st.integers(-2, 64).map(str), st.sampled_from(["65537", str(10**40)]),
                              _SPECIAL_NUMBERS)
_FLAG_VALUES = {
    "--grid": _GRIDS, "--bounds": _BOUNDS, "--levels": _LEVELS, "--measure": _MEASURE_NAMES,
    "--measures": _MEASURE_LISTS, "--m-values": _M_VALUES, "--direction": _DIRECTIONS,
    "--m": _INTEGERS, "--n": _INTEGERS, "--eta": _INTEGERS, "--tau": _INTEGERS, "--seed": _INTEGERS,
    "--points-per-point": _CANDIDATE_COUNTS,
}
_BUDGET = {"--eps": "0.5", "--delta": "0.5"}
_SIP = {"--grid": "8,8", "--bounds": "-1,-1,3,3", "--levels": "0.1,0.5"}
# Per subcommand, its input and a small valid run's flags.
_ARGV_BASES = {
    "quantize": ("indecisive", {"--measure": "seb2", **_BUDGET, "--nu": "1", "--constant-c": "0.5"}),
    "kvariate": ("indecisive", {"--measures": "seb2;aabb-area", **_BUDGET}),
    "kernel": ("indecisive", {"--alpha": "0.1", "--direction": "0.6,0.8", **_BUDGET}),
    "kernel 3-d": ("continuous-3d", {"--alpha": "0.2", "--direction": "0.6,0.8,0", **_BUDGET}),
    "sip-random": ("indecisive", {"--measure": "seb2", **_BUDGET, **_SIP}),
    "sip-exact": ("indecisive", {"--measure": "aabb-perimeter", **_SIP}),
    "exact": ("indecisive", {"--measure": "seb2"}),
    "oracle": ("indecisive", {"--measure": "sebinf"}),
    "discretize": ("continuous", {"--measure": "aabb-perimeter", "--eps": "0.5", "--points-per-point": "4"}),
    "experiment": (None, {"--n": "3", "--eta": "8", "--tau": "2", "--m-values": "2,4",
                          "--measures": "diameter;seb2", "--sigma": "0.5"}),
    "fit": ("tables", {"--nu": "1"}),
}


@st.composite
def _fuzzed_argv(draw):
    """A subcommand's small valid run with one or two flags replaced by odd
    values, or dropped, and at times a stray argument added.  The test sets
    small support and sample caps, so no replaced flag makes a run large."""
    run = draw(st.sampled_from(sorted(_ARGV_BASES)))
    command = run.split()[0]
    source, flags = _ARGV_BASES[run]
    no_seed = ("exact", "oracle", "sip-exact", "discretize", "fit")
    flags = {**flags, "--seed": "0"} if command not in no_seed else dict(flags)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2, unique=True)):
        if draw(st.integers(0, 9)) == 0:
            del flags[flag]
        else:
            flags[flag] = draw(_FLAG_VALUES.get(flag, _SPECIAL_NUMBERS))
    extra = draw(st.sampled_from([[]] * 12 + [["--threads", "2"], ["stray"], ["--cap"], ["--m=1", "--m=2"]]))
    return command, source, flags, extra


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """Per input kind, the argv that names it."""
    workdir = tmp_path_factory.mktemp("argv-inputs")
    indecisive = workdir / "set.json"
    indecisive.write_text(json.dumps(_VALID_DOC))
    continuous = workdir / "cont.json"
    continuous.write_text(json.dumps(_VALID_CONTINUOUS))
    cylinder = workdir / "cylinder.json"
    cylinder.write_text(json.dumps({"dimension": 3, "model": "continuous", "points": [
        {"kind": "gaussian", "mean": [0, 0, z], "cov": np.eye(3).tolist()} for z in range(4)]}))
    tables = [workdir / "deviation_seb2_m8.csv", workdir / "deviation_seb2_m16.csv"]
    for path in tables:
        path.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    return {"indecisive": ["--input", str(indecisive)], "continuous": ["--input", str(continuous)],
            "continuous-3d": ["--input", str(cylinder)], "tables": ["--tables", *map(str, tables)], None: []}


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_fuzzed_argv())
def test_fuzzed_argv_exit_0_2_3_or_4(tmp_path_factory, argv_inputs, fuzzed):
    command, source, flags, extra = fuzzed
    out = tmp_path_factory.mktemp("argv") / "out"
    argv = [command, *extra, *argv_inputs[source], "--out", str(out)]
    if command.startswith("sip-"):
        argv += ["--isolines", f"{out}.svg"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
        # A numpy warning means an overflow or NaN went on into the output.
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), mock.patch.object(cli_mod.montecarlo, "_SAMPLE_CAP", 1024), \
                mock.patch.object(cli_mod.exact_mod, "_SUPPORT_CAP", 64):
            code = _run_cli(argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()


# The script the numpy.ma guard runs in a fresh interpreter: each argv of
# the JSON list on its own through cli.main, then the first command after
# which numpy.ma was loaded (null if none).
_NO_MA_SCRIPT = """
import json, sys
from uqgeom.cli import main
first = None
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    if first is None and "numpy.ma" in sys.modules:
        first = argv
print(json.dumps(first))
"""


def test_no_cli_path_imports_numpy_ma(indecisive_file, continuous_file, tmp_path):
    """No command loads ``numpy.ma``, a large import (about 11 ms and
    1.5 MB of peak memory on a 2-core box) that ``np.unique`` makes on its
    first call."""
    ind, cont = str(indecisive_file), str(continuous_file)
    budget = ["--eps", "0.2", "--delta", "0.1", "--m", "30", "--seed", "5"]
    window = ["--grid", "24,16", "--bounds=-0.5,-0.5,2.5,2"]
    argvs = [
        ["quantize", "--input", ind, "--measure", "seb2", *budget],
        ["kvariate", "--input", ind, "--measures", "aabb-perimeter;dwid:1,0", *budget],
        ["kernel", "--input", ind, "--alpha", "0.1", "--direction", "0.6,0.8", *budget],
        ["experiment", "--n", "5", "--sigma", "0.5", "--measures", "diameter;seb2", "--m-values", "4,8",
         "--eta", "16", "--tau", "4", "--seed", "3"],
        ["exact", "--input", ind, "--measure", "aabb-perimeter"],
        ["oracle", "--input", ind, "--measure", "seb2"],
        ["discretize", "--input", cont, "--measure", "aabb-perimeter", "--eps", "0.3", "--points-per-point", "9"],
        ["sip-exact", "--input", ind, "--measure", "seb2", *window, "--isolines", str(tmp_path / "e.svg")],
        ["sip-exact", "--input", ind, "--measure", "aabb-perimeter", *window],
        ["sip-random", "--input", ind, "--measure", "seb2", *budget, *window],
    ]
    for i, argv in enumerate(argvs):
        argv.extend(["--out", str(tmp_path / f"out-{i}")])
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT, json.dumps(argvs)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) is None

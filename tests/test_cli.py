import argparse
import hashlib
import json

import numpy as np
import pytest

from uqgeom import load_point_set
from uqgeom.cli import main
from uqgeom.sip import read_pgm


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


def test_oracle_cap_exit_code(indecisive_file, tmp_path):
    rc = main(["oracle", "--input", str(indecisive_file), "--measure", "seb2",
               "--cap", "2", "--out", str(tmp_path / "x.csv")])
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


def test_discretize_emits_model_schema(continuous_file, tmp_path):
    out = tmp_path / "disc.json"
    rc = main(["discretize", "--input", str(continuous_file), "--measure", "aabb-perimeter",
               "--eps", "0.3", "--points-per-point", "25", "--out", str(out)])
    assert rc == 0
    back = load_point_set(out.read_text())
    assert back.dimension == 2
    assert back.points[1].k == 1  # the point mass


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


def test_fit_table_name_without_m_exit_code(tmp_path, capsys):
    table = tmp_path / "foo.csv"
    table.write_text("value,weight\n0.1,0.5\n0.2,0.5\n")
    rc = main(["fit", "--tables", str(table)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "foo.csv" in err and "_m<m>" in err


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
            "experiment": _digest(experiment)} == {
        "quantize": "58be489f3937cbc0b9f4ffb9f6f61bab70c3315381503cad43a924c50cf70554",
        "kvariate": "525e74b5c78bb818c0828e4d61bf14d7bfdf9acade85449cb1919aa8a7838d5a",
        "experiment": "18e3cd4361a6d8534d89e568d5e1c4d7cced8180025a74b5cf93648bea674e1c",
    }

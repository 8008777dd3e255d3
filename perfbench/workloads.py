"""The four benchmark workloads: seeded inputs, the fixed solve list, checks.

Every input is a pure function of its pool key (workload, group, index), so
the outputs of each pool member could be recorded once from the seed commit
(``references.json``, written by ``record_references.py``).  A benchmark
seed picks which pool members a run uses; the same seed always gives the
same inputs, and every input a seed can pick has a recorded reference.

A *solve* is one user-level call: ``uqgeom.cli.main([...])`` in-process, or,
for ``oracle-lattice``, the public library functions.  ``call`` is timed;
``check`` runs afterwards, untimed, and returns a failure kind or None.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import uqgeom.cli
import uqgeom.exact
import uqgeom.measures
import uqgeom.model
from uqgeom.measures import MeasureId, combinatorial_dimension
from uqgeom.montecarlo import SampleBudget

WORKLOADS = ("exact-many-points", "oracle-lattice", "sampled", "sip-pipeline")

# exact-many-points: per measure the size at which one solve costs about
# the same on the seed (about 0.3 s), so percentiles do not jump between
# measure clusters.
EXACT_MEASURES = (("aabb-perimeter", 7), ("seb2", 11), ("sebinf", 10), ("dwid:0.6,0.8", 24))
EXACT_K = 4
EXACT_POOL = 32
EXACT_PER_ROUND = 5

ORACLE_MEASURES = ("seb2", "aabb-perimeter", "aabb-area", "dwid:0.6,0.8", "seb1", "sebinf")
ORACLE_NS = (4, 5, 6)
ORACLE_K = 3
ORACLE_POOL = 64
ORACLE_PER_ROUND = 8

SAMPLED_POOL = 8
CYL_N, CYL_LENGTH, CYL_RADIUS, CYL_SIGMA = 20, 10.0, 1.0, 2.0
CYL_DWID = "dwid:0.96592582628906831,0,0.25881904510252074"
IND_N, IND_K = 50, 4
# Sample counts: small enough that a round holds seven solves of 0.1-1 s.
CYL_M, IND_M = 500, 500
EXPERIMENT_M, EXPERIMENT_ETA, EXPERIMENT_TAU = (16, 64, 128), 400, 4

SIP_POOL = 16
SIP_PER_ROUND = 1
SIP_GRID = (128, 128)
SIP_BOUNDS = "-3,-3,3,3"
SIP_RANDOM_EPS = 0.04
# (set name, measure, points-per-point); the targets give 81-100
# candidates per point for the two-point set and 25-31 for the three-point
# set, so one exact solve stays under a few seconds.
SIP_SETS = (("a", "seb2", 64), ("b", "aabb-perimeter", 16))
SIP_LAYOUTS = {
    "a": (("gaussian", -0.8, 0.0), ("disk", 0.8, 0.0)),
    "b": (("gaussian", -1.0, -0.6), ("disk", 1.0, -0.6), ("gaussian", 0.0, 1.0)),
}

# Seed-commit time of one round at the reference speed (see run.py).  A run
# makes round(seconds / nominal) rounds, so every run of a workload has the
# same solve count and the tail percentile it reports is the same.
NOMINAL_ROUND_S = {
    "exact-many-points": 5.8,
    "oracle-lattice": 4.4,
    "sampled": 1.7,
    "sip-pipeline": 3.6,
}

_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass
class Solve:
    key: str  # reference / ledger key
    label: str  # kind of solve, shared across pool members
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    outputs: tuple[Path, ...] = ()


@dataclass
class Workload:
    name: str
    solves: list[Solve]
    inputs: dict[Path, Callable[[], dict]]  # path -> document generator
    estimate: dict[str, int]

    def write_inputs(self) -> None:
        for path, make in self.inputs.items():
            path.write_text(json.dumps(make()))


# --------------------------------------------------------------------------
# Input generators (pure functions of the pool key)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _weights(rng: np.random.Generator, k: int, top: int) -> list[str]:
    cuts = [int(c) for c in rng.integers(1, top + 1, size=k)]
    total = sum(cuts)
    return [str(Fraction(c, total)) for c in cuts]


def generic_indecisive(rng: np.random.Generator, n: int, k: int) -> dict:
    points = [
        {"locations": rng.uniform(-1.0, 1.0, size=(k, 2)).tolist(), "weights": _weights(rng, k, 11)}
        for _ in range(n)
    ]
    return {"dimension": 2, "model": "indecisive", "points": points}


def lattice_indecisive(rng: np.random.Generator, n: int, k: int) -> dict:
    points = [
        {"locations": rng.integers(-3, 4, size=(k, 2)).tolist(), "weights": _weights(rng, k, 6)}
        for _ in range(n)
    ]
    return {"dimension": 2, "model": "indecisive", "points": points}


def gaussian_cylinder(rng: np.random.Generator) -> dict:
    cov = (CYL_SIGMA**2 * np.eye(3)).tolist()
    points = []
    for _ in range(CYL_N):
        theta = 2.0 * math.pi * rng.random()
        z = CYL_LENGTH * rng.random()
        mean = [CYL_RADIUS * math.cos(theta), CYL_RADIUS * math.sin(theta), z]
        points.append({"kind": "gaussian", "mean": mean, "cov": cov})
    return {"dimension": 3, "model": "continuous", "points": points}


def sip_continuous(rng: np.random.Generator, set_name: str) -> dict:
    """Gaussians and uniform disks at a fixed layout, moved and resized a
    little per pool member, so the shape count of a set varies less than
    the geometry would let it."""
    points = []
    for kind, x, y in SIP_LAYOUTS[set_name]:
        c = [x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2)]
        if kind == "gaussian":
            s = rng.uniform(0.35, 0.45)
            points.append({"kind": "gaussian", "mean": c, "cov": [[s * s, 0.0], [0.0, s * s]]})
        else:
            points.append({"kind": "uniform_disk", "center": c, "radius": rng.uniform(0.5, 0.6)})
    return {"dimension": 2, "model": "continuous", "points": points}


# --------------------------------------------------------------------------
# Checks


def hash_outputs(paths) -> dict[str, str]:
    """sha256 of every output file; a directory contributes each file in it."""
    out = {}
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for f in files:
            name = f"{path.name}/{f.name}" if path.is_dir() else f.name
            out[name] = hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else "missing"
    return out


def exact_csv_mass(path: Path) -> Fraction:
    """Sum of the exact (num/den) weight column of an exact CSV."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("weight_exact")
    return sum((Fraction(line.split(",")[col]) for line in lines[1:]), Fraction(0))


def cli_check(expected: dict | None, outputs, exact_csv: Path | None = None):
    """Check of one CLI solve: exit 0, outputs byte-equal to the reference
    recorded from the seed commit, exact weights summing to exactly 1."""

    def check(rc) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        if hash_outputs(outputs) != expected:
            return "reference mismatch"
        if exact_csv is not None and exact_csv_mass(exact_csv) != 1:
            return "mass != 1"
        return None

    return check


def oracle_check(result) -> str | None:
    match, dist = result
    if not match:
        return "mismatch"
    if sum(dist.collapsed.weights, Fraction(0)) != 1:
        return "mass != 1"
    return None


def _cli_call(argv: list[str]):
    # Looked up at call time, so a traced run sees the wrapped cli.main.
    return lambda: uqgeom.cli.main(argv)


def _oracle_call(path: Path, measure: MeasureId):
    def call():
        uset = uqgeom.model.load_point_set(path.read_text())
        ex = uqgeom.exact.exact_distribution(uset, measure)
        bf = uqgeom.exact.brute_force_distribution(uset, measure)
        tol = uqgeom.measures.tolerance(uset.all_locations(), measure)
        return uqgeom.exact.distributions_match(ex, bf, tol), ex

    return call


# --------------------------------------------------------------------------
# Work estimates from the inputs and public formulas


def combo_count(ks, beta: int) -> int:
    """Potential bases: subsets of at most beta points, one candidate each
    (the sum of the elementary symmetric polynomials of the k_i)."""
    e = [1] + [0] * beta
    for k in ks:
        for s in range(beta, 0, -1):
            e[s] += e[s - 1] * k
    return sum(e[1:])


def exact_combos(measure: str, ks) -> int:
    return combo_count(ks, min(combinatorial_dimension(MeasureId.parse(measure), 2), len(ks)))


# --------------------------------------------------------------------------
# Workload construction


def build(name: str, seed: int | None, workdir: Path, refs: dict | None, rounds: int = 1) -> Workload:
    """Solve list of one workload: ``rounds`` rounds, each taking
    ``per_round`` pool members of every group; no member repeats until the
    pool is used up.  ``seed=None`` takes the whole pool once (used to
    record references); ``refs=None`` skips the reference comparison."""
    full = seed is None
    sel = np.random.default_rng([_TAGS[name], 0 if full else seed])
    outputs = (refs or {}).get("outputs", {})
    groups, add_member = _MAKERS[name]
    picks = {}
    for group, pool, per_round in groups:
        order = list(range(pool)) if full else [int(i) for i in sel.permutation(pool)]
        count = pool if full else per_round * rounds
        picks[group] = [order[i % pool] for i in range(count)]
    wl = Workload(name, [], {}, {})
    for r in range(1 if full else rounds):
        for group, pool, per_round in groups:
            span = picks[group] if full else picks[group][r * per_round : (r + 1) * per_round]
            for p in span:
                add_member(wl, group, p, workdir, outputs)
    return wl


def _count(wl: Workload, key: str, amount: int) -> None:
    wl.estimate[key] = wl.estimate.get(key, 0) + amount


def _exact_member(wl, mi, p, workdir, outputs) -> None:
    measure, n = EXACT_MEASURES[mi]
    key = f"exact-many-points/{measure}/{p:02d}"
    src = workdir / f"exact-{mi}-{p:02d}.json"
    out = workdir / f"exact-{mi}-{p:02d}.csv"
    wl.inputs[src] = lambda: generic_indecisive(_rng(1, mi, p), n, EXACT_K)
    argv = ["exact", "--input", str(src), "--measure", measure, "--out", str(out)]
    check = cli_check(outputs.get(key), [out], exact_csv=out)
    wl.solves.append(Solve(key, f"exact {measure}", _cli_call(argv), check, (out,)))
    _count(wl, "exact.combos", exact_combos(measure, [EXACT_K] * n))


def _oracle_member(wl, n, p, workdir, outputs) -> None:
    src = workdir / f"lattice-n{n}-{p:02d}.json"
    wl.inputs[src] = lambda: lattice_indecisive(_rng(2, n, p), n, ORACLE_K)
    for measure in ORACLE_MEASURES:
        key = f"oracle-lattice/n{n}/{p:02d}/{measure}"
        call = _oracle_call(src, MeasureId.parse(measure))
        wl.solves.append(Solve(key, f"oracle {measure}", call, oracle_check))
        _count(wl, "exact.combos", exact_combos(measure, [ORACLE_K] * n))
        _count(wl, "exact.brute_force.supports", ORACLE_K**n)


def _sampled_member(wl, group, v, workdir, outputs) -> None:
    cyl = workdir / f"cylinder-{v:02d}.json"
    ind = workdir / f"indecisive-{v:02d}.json"
    wl.inputs[cyl] = lambda: gaussian_cylinder(_rng(3, 0, v))
    wl.inputs[ind] = lambda: generic_indecisive(_rng(3, 1, v), IND_N, IND_K)
    seed = str(1000 + v)
    budget = ["--eps", "0.1", "--delta", "0.05"]
    specs = [
        ("quantize cylinder seb2", ["quantize", "--input", cyl, "--measure", "seb2", "--m", CYL_M], CYL_M),
        ("quantize cylinder diameter", ["quantize", "--input", cyl, "--measure", "diameter", "--m", CYL_M], CYL_M),
        ("quantize cylinder dwid", ["quantize", "--input", cyl, "--measure", CYL_DWID, "--m", CYL_M], CYL_M),
        ("quantize indecisive seb2", ["quantize", "--input", ind, "--measure", "seb2", "--m", IND_M], IND_M),
        (
            "kvariate indecisive",
            ["kvariate", "--input", ind, "--measures", "aabb-perimeter;dwid:1,0"],
            SampleBudget(0.1, 0.05, nu=2.0).m,
        ),
        (
            "kernel indecisive",
            ["kernel", "--input", ind, "--alpha", "0.1", "--direction", "0.6,0.8"],
            SampleBudget(0.1, 0.05).m,
        ),
    ]
    for label, argv, m in specs:
        out = workdir / f"{label.replace(' ', '-')}-{v:02d}.csv"
        argv = [str(a) for a in argv] + budget + ["--seed", seed, "--out", str(out)]
        key = f"sampled/{v:02d}/{label}"
        wl.solves.append(Solve(key, label, _cli_call(argv), cli_check(outputs.get(key), [out]), (out,)))
        _count(wl, "supports", m)
    m_values, eta, tau = EXPERIMENT_M, EXPERIMENT_ETA, EXPERIMENT_TAU
    out = workdir / f"experiment-{v:02d}"
    argv = [
        "experiment", "--input", str(cyl), "--m-values", ",".join(map(str, m_values)),
        "--eta", str(eta), "--tau", str(tau), "--seed", seed, "--out", str(out),
    ]
    key = f"sampled/{v:02d}/experiment"
    wl.solves.append(Solve(key, "experiment", _cli_call(argv), cli_check(outputs.get(key), [out]), (out,)))
    _count(wl, "supports", eta + tau * sum(m_values))


def _sip_member(wl, group, v, workdir, outputs) -> None:
    cells = SIP_GRID[0] * SIP_GRID[1]
    grid = ["--grid", ",".join(map(str, SIP_GRID)), f"--bounds={SIP_BOUNDS}"]
    for si, (set_name, measure, ppp) in enumerate(SIP_SETS):
        stem = workdir / f"sip-{v:02d}-{set_name}"
        cont = stem.with_suffix(".json")
        wl.inputs[cont] = lambda si=si, set_name=set_name: sip_continuous(_rng(4, si, v), set_name)
        disc = Path(f"{stem}-discrete.json")
        dist = Path(f"{stem}-exact.csv")
        pgm, svg = Path(f"{stem}-exact.pgm"), Path(f"{stem}-exact.svg")
        rpgm, rsvg = Path(f"{stem}-random.pgm"), Path(f"{stem}-random.svg")
        nu = "3" if measure == "seb2" else "4"
        m = SampleBudget(SIP_RANDOM_EPS, 0.05, nu=float(nu)).m
        specs = [
            ("discretize", ["discretize", "--input", cont, "--measure", measure, "--eps", "0.2",
                            "--points-per-point", ppp, "--out", disc], (disc,), None),
            ("exact", ["exact", "--input", disc, "--measure", measure, "--out", dist], (dist,), dist),
            ("sip-exact", ["sip-exact", "--input", disc, "--measure", measure, *grid, "--out", pgm,
                           "--isolines", svg], (pgm, Path(f"{pgm}.json"), svg), None),
            ("sip-random", ["sip-random", "--input", cont, "--measure", measure, "--eps", SIP_RANDOM_EPS,
                            "--delta", "0.05", "--nu", nu, "--seed", 2000 + v, *grid, "--out", rpgm,
                            "--isolines", rsvg], (rpgm, Path(f"{rpgm}.json"), rsvg), None),
        ]
        for cmd, argv, outs, exact_csv in specs:
            key = f"sip-pipeline/{v:02d}/{set_name}/{cmd}"
            check = cli_check(outputs.get(key), outs, exact_csv=exact_csv)
            wl.solves.append(Solve(key, f"{cmd} {measure}", _cli_call([str(a) for a in argv]), check, outs))
        # Taking the --points-per-point target as the candidate count.
        combos = exact_combos(measure, [ppp] * len(SIP_LAYOUTS[set_name]))
        _count(wl, "exact.combos", combos)
        _count(wl, "sip.shape_cells_max", (combos + m) * cells)
        _count(wl, "supports", m)


# name -> ((group, pool size, members per round), ...), member maker
_MAKERS = {
    "exact-many-points": (
        tuple((mi, EXACT_POOL, EXACT_PER_ROUND) for mi in range(len(EXACT_MEASURES))),
        _exact_member,
    ),
    "oracle-lattice": (tuple((n, ORACLE_POOL, ORACLE_PER_ROUND) for n in ORACLE_NS), _oracle_member),
    "sampled": (((0, SAMPLED_POOL, 1),), _sampled_member),
    "sip-pipeline": (((0, SIP_POOL, SIP_PER_ROUND),), _sip_member),
}

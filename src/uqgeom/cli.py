"""Command-line interface.

Exit codes: 0 success, 2 validation error (including an input, table or
output file that cannot be read or written), 3 resource cap exceeded,
4 exact probabilities failed to sum to 1 (an unresolved degeneracy).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import exact as exact_mod
from . import harness, isolines, montecarlo, sip
from .discretize import discretize_for_measure
from .measures import MeasureId, NotLPTypeError, combinatorial_dimension
from .model import IndecisivePointSet, ResourceCapError, ValidationError, load_point_set, save_point_set
from .quantize import quantization_to_csv


# Caps checked before anything is allocated (exit 3).  A randomized run
# samples m supports of n points each, and m x n is bounded by over three
# times the largest run the CLI's own defaults make (the experiment:
# 20 000 + 200 x 1360 supports of 50 points, 1.46e7 points).  Larger runs
# call the library, which has no cap.
_SAMPLE_CAP = 50_000_000
# Cells of a --grid raster: 4096 x 4096 float64 values, 128 MB.
_GRID_CELLS_CAP = 4096 * 4096
# Potential bases of an exact run (exact, sip-exact): over three times the
# largest count the CLI's own defaults make (seb2 on the default
# discretization of 3 uniform disks, 322 + 322 + 323 candidates,
# 3.38e7 potential bases).
_BASIS_CAP = 120_000_000


def _load(path: str):
    return load_point_set(Path(path).read_text())


def _check_samples(m: int, n: int, flags: str = "--m, --eps or --delta") -> None:
    """Refuse a run of m sampled supports of n points beyond _SAMPLE_CAP;
    ``flags`` name what sets m."""
    if m * n > _SAMPLE_CAP:
        raise ResourceCapError(
            f"the run samples {m} supports of {n} points, {m * n} points, exceeding the "
            f"cap of {_SAMPLE_CAP}; rerun with fewer samples ({flags})"
        )


def _check_bases(uset, measure: MeasureId) -> None:
    """Refuse an exact run of more than _BASIS_CAP potential bases, counted
    from the candidate counts before anything is jittered or allocated (a
    set the engine cannot take is left to its own refusal)."""
    if isinstance(uset, IndecisivePointSet):
        beta = min(combinatorial_dimension(measure, 2), uset.n)
        count = exact_mod.combo_count(uset.ks.tolist(), beta)
        if count > _BASIS_CAP:
            raise ResourceCapError(
                f"the exact engine would enumerate {count} potential bases, exceeding the cap of {_BASIS_CAP}"
            )


def _budget(args) -> montecarlo.SampleBudget:
    return montecarlo.SampleBudget(
        epsilon=args.eps,
        delta=args.delta,
        nu=getattr(args, "nu", 1.0),
        constant_c=args.constant_c,
        explicit_m=args.m,
    )


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("grid must be W,H")
    (w, h), _ = sip.check_window(grid=parts)
    if w * h > _GRID_CELLS_CAP:
        raise ResourceCapError(
            f"--grid {w},{h} has {w * h} cells, exceeding the cap of {_GRID_CELLS_CAP}"
        )
    return w, h


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValidationError("bounds must be x0,y0,x1,y1")
    return sip.check_window(bounds=parts)[1]


def _sip_flags(args):
    """A SIP command's grid, bounds and isoline levels (``--levels`` needs
    ``--isolines``), parsed and checked before its input is loaded."""
    grid, bounds = _parse_grid(args.grid), _parse_bounds(args.bounds)
    if args.levels is None:
        return grid, bounds, isolines.DEFAULT_LEVELS
    if not args.isolines:
        raise ValidationError("--levels needs --isolines")
    return grid, bounds, isolines.check_levels(args.levels.split(","))


def _write(path: str, text: str):
    Path(path).write_text(text)


def _cmd_quantize(args) -> int:
    uset = _load(args.input)
    budget = _budget(args)
    _check_samples(budget.m, uset.n)
    q = montecarlo.build_quantization(
        uset, MeasureId.parse(args.measure), budget, args.seed, simplify_output=args.simplify
    )
    _write(args.out, quantization_to_csv(q))
    return 0


def _cmd_kvariate(args) -> int:
    uset = _load(args.input)
    measures = [MeasureId.parse(t) for t in args.measures.split(";")]
    budget = _budget(args)
    _check_samples(budget.kvariate(len(measures)).m, uset.n)
    q = montecarlo.build_kvariate_quantization(uset, measures, budget, args.seed)
    lines = [",".join(f"v{i}" for i in range(q.arity)) + ",weight"]
    for row, w in zip(q.values, q.weights):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{w:.17g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_kernel(args) -> int:
    uset = _load(args.input)
    direction = tuple(float(x) for x in args.direction.split(","))
    montecarlo.kernel_direction(direction, uset.dimension)
    budget = _budget(args)
    _check_samples(budget.m, uset.n)
    kernels = montecarlo.build_eda_kernel(uset, args.alpha, budget, args.seed)
    _write(args.out, quantization_to_csv(montecarlo.query_eda_kernel(kernels, direction)))
    return 0


def _cmd_sip_random(args) -> int:
    flags = _sip_flags(args)
    uset = _load(args.input)
    budget = _budget(args)
    _check_samples(budget.m, uset.n)
    field = montecarlo.build_random_sip(uset, MeasureId.parse(args.measure), budget, args.seed)
    return _emit_sip(field, flags, args)


def _cmd_sip_exact(args) -> int:
    flags = _sip_flags(args)
    uset = _load(args.input)
    measure = MeasureId.parse(args.measure)
    _check_bases(uset, measure)
    field = exact_mod.deterministic_sip(uset, measure)
    return _emit_sip(field, flags, args)


def _emit_sip(field: sip.SipField, flags, args) -> int:
    """Rasterize the field on the window of :func:`_sip_flags`, and write
    the PGM and the optional isolines at its levels."""
    grid, bounds, levels = flags
    raster = sip.rasterize_sip(field, grid, bounds)
    sip.write_pgm(raster, args.out)
    if args.isolines:
        contours = isolines.extract_isolines(raster, levels)
        _write(args.isolines, isolines.isolines_svg(contours, raster.bounds))
    return 0


def _cmd_exact(args) -> int:
    uset = _load(args.input)
    measure = MeasureId.parse(args.measure)
    _check_bases(uset, measure)
    dist = exact_mod.exact_distribution(uset, measure)
    _write(args.out, quantization_to_csv(dist.collapsed))
    return 0


def _cmd_oracle(args) -> int:
    uset = _load(args.input)
    dist = exact_mod.brute_force_distribution(
        uset, MeasureId.parse(args.measure), cap=args.cap
    )
    _write(args.out, quantization_to_csv(dist.collapsed))
    return 0


def _cmd_discretize(args) -> int:
    cset = _load(args.input)
    out = discretize_for_measure(
        cset,
        MeasureId.parse(args.measure),
        args.eps,
        points_per_point=args.points_per_point,
    )
    _write(args.out, save_point_set(out))
    return 0


def _cmd_experiment(args) -> int:
    measures = tuple(MeasureId.parse(t) for t in args.measures.split(";"))
    # The cylinder flags given; CylinderConfig holds their defaults.
    cylinder = {k: v for k in ("n", "length", "radius", "sigma") if (v := getattr(args, k)) is not None}
    if args.input and cylinder:
        raise ValidationError(f"--{next(iter(cylinder))} sets the cylinder generator, which --input replaces")
    generator = _load(args.input) if args.input else harness.CylinderConfig(**cylinder)
    config = harness.ExperimentConfig(
        generator=generator,
        measures=measures,
        m_values=tuple(int(x) for x in args.m_values.split(",")),
        eta=args.eta,
        tau=args.tau,
        seed=args.seed,
    )
    _check_samples(config.eta + config.tau * sum(config.m_values), generator.n, "--eta, --tau or --m-values")
    result = harness.run_deviation_experiment(config)
    written = result.write_csv(args.out)
    for mname, fit in result.fits.items():
        status = "degenerate" if fit.degenerate else f"C={fit.c:.3f}"
        print(f"{mname}: {status}")
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    tables: dict[int, np.ndarray] = {}
    for path in args.tables:
        match = re.search(r"_m(\d+)$", Path(path).stem)  # deviation_<measure>_m<m>
        if match is None:
            raise ValidationError(f"{path}: a deviation table's name must end in _m<m>")
        m = int(match.group(1))
        if m in tables:
            raise ValidationError(f"{path}: a second deviation table for m={m}")
        tables[m] = harness.read_deviation_csv(path)
    fit = harness.fit_sample_constant(tables, nu=args.nu)
    if fit.degenerate:
        print(f"degenerate fit: {fit.note}")
    else:
        print(f"C={fit.c:.6f} residual_norm={fit.residual_norm:.6f}")
    if args.out:
        _write(
            args.out,
            "c,residual_norm,nu,degenerate,note\n"
            f"{fit.c:.17g},{fit.residual_norm:.17g},{fit.nu:g},{int(fit.degenerate)},{fit.note}\n",
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqgeom",
        description="Distributions, coresets and shape-inclusion probabilities "
        "for geometric fitting on uncertain point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True, nu=True):
        p.add_argument("--input", required=True, help="point-set JSON file")
        if budget:
            p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
            p.add_argument("--eps", type=float, required=True)
            p.add_argument("--delta", type=float, required=True)
            if nu:
                p.add_argument("--nu", type=float, default=1.0)
            p.add_argument("--constant-c", dest="constant_c", type=float, default=0.5)
            p.add_argument("--m", type=int, default=None, help="override sample count")
        p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="sampled quantization of one measure")
    common(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("kvariate", help="k-variate sampled quantization")
    common(p, nu=False)  # the k-variate budget sets nu = k
    p.add_argument("--measures", required=True, help="semicolon-separated measure list")
    p.set_defaults(func=_cmd_kvariate)

    p = sub.add_parser("kernel", help="(eps,delta,alpha)-kernel width query")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--direction", required=True, help="query direction ux,uy")
    p.set_defaults(func=_cmd_kernel)

    for name, fn in (("sip-random", _cmd_sip_random), ("sip-exact", _cmd_sip_exact)):
        p = sub.add_parser(name, help=f"{name} field raster")
        common(p, budget=(name == "sip-random"))
        p.add_argument("--measure", required=True)
        p.add_argument("--grid", required=True, help="W,H")
        p.add_argument("--bounds", required=True, help="x0,y0,x1,y1")
        p.add_argument("--isolines", default=None, help="optional SVG output path")
        p.add_argument("--levels", default=None, help="isoline levels in (0, 1), default 0.1,0.3,0.5,0.7,0.9")
        p.set_defaults(func=fn)

    p = sub.add_parser("exact", help="deterministic exact distribution")
    common(p, budget=False)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("oracle", help="brute-force distribution over all supports")
    common(p, budget=False)
    p.add_argument("--measure", required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("discretize", help="continuous set -> indecisive set")
    common(p, budget=False)
    p.add_argument("--measure", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--points-per-point", dest="points_per_point", type=int, default=None)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("experiment", help="deviation experiment and constant fit")
    p.add_argument("--input", default=None, help="point-set JSON (overrides the cylinder generator)")
    for flag, kind in (("--n", int), ("--length", float), ("--radius", float), ("--sigma", float)):
        p.add_argument(flag, type=kind, help="cylinder generator setting (not with --input)")
    p.add_argument("--measures", default="dwid:0.96592582628906831,0,0.25881904510252074;diameter;seb2")
    p.add_argument("--m-values", dest="m_values", default="16,64,256,1024")
    p.add_argument("--eta", type=int, default=20_000)
    p.add_argument("--tau", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit", help="fit the sample constant from deviation tables")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, NotLPTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except exact_mod.ConservationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

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
from .measures import MeasureId, NotLPTypeError
from .model import ResourceCapError, ValidationError, load_point_set, save_point_set
from .quantize import quantization_to_csv


def _load(path: str):
    return load_point_set(Path(path).read_text())


def _given(args, *names) -> dict:
    """The flags among ``names`` given on the command line, by name; a flag
    left out keeps the library's default."""
    return {name: value for name in names if (value := getattr(args, name, None)) is not None}


def _budget(args) -> montecarlo.SampleBudget:
    return montecarlo.SampleBudget(
        epsilon=args.eps,
        delta=args.delta,
        explicit_m=args.m,
        **_given(args, "nu", "constant_c"),
    )


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("grid must be W,H")
    return sip.check_window(grid=[int(x) for x in parts])[0]


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
    q = montecarlo.build_quantization(
        uset, MeasureId.parse(args.measure), budget, args.seed, simplify_output=args.simplify
    )
    _write(args.out, quantization_to_csv(q))
    return 0


def _cmd_kvariate(args) -> int:
    uset = _load(args.input)
    measures = [MeasureId.parse(t) for t in args.measures.split(";")]
    q = montecarlo.build_kvariate_quantization(uset, measures, _budget(args), args.seed)
    lines = [",".join(f"v{i}" for i in range(q.arity)) + ",weight"]
    for row, w in zip(q.values, q.weights):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{w:.17g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_kernel(args) -> int:
    uset = _load(args.input)
    direction = tuple(float(x) for x in args.direction.split(","))
    montecarlo.kernel_direction(direction, uset.dimension)
    kernels = montecarlo.build_eda_kernel(uset, args.alpha, _budget(args), args.seed)
    _write(args.out, quantization_to_csv(montecarlo.query_eda_kernel(kernels, direction)))
    return 0


def _cmd_sip_random(args) -> int:
    flags = _sip_flags(args)
    uset = _load(args.input)
    budget = _budget(args)
    field = montecarlo.build_random_sip(uset, MeasureId.parse(args.measure), budget, args.seed)
    return _emit_sip(field, flags, args)


def _cmd_sip_exact(args) -> int:
    flags = _sip_flags(args)
    uset = _load(args.input)
    field = exact_mod.deterministic_sip(uset, MeasureId.parse(args.measure))
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


def _cmd_distribution(args) -> int:
    """``exact`` and ``oracle``: the command's engine, read from the exact
    module when it runs, so a patched engine is the one called."""
    uset = _load(args.input)
    engine = {"exact": exact_mod.exact_distribution, "oracle": exact_mod.brute_force_distribution}[args.command]
    dist = engine(uset, MeasureId.parse(args.measure))
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
    cylinder = _given(args, "n", "length", "radius", "sigma")
    if args.input and cylinder:
        raise ValidationError(f"--{next(iter(cylinder))} sets the cylinder generator, which --input replaces")
    generator = _load(args.input) if args.input else harness.CylinderConfig(**cylinder)
    config = harness.ExperimentConfig(
        generator=generator,
        measures=measures,
        m_values=tuple(int(x) for x in args.m_values.split(",")),
        **_given(args, "eta", "tau", "seed"),
    )
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
    fit = harness.fit_sample_constant(tables, **_given(args, "nu"))
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
                p.add_argument("--nu", type=float)
            p.add_argument("--constant-c", dest="constant_c", type=float)
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
        p.add_argument("--levels", default=None, help="isoline levels in (0, 1), default "
                       + ",".join(map(str, isolines.DEFAULT_LEVELS)))
        p.set_defaults(func=fn)

    for name, text in (("exact", "deterministic exact distribution"),
                       ("oracle", "brute-force distribution over all supports")):
        p = sub.add_parser(name, help=text)
        common(p, budget=False)
        p.add_argument("--measure", required=True)
        p.set_defaults(func=_cmd_distribution)

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
    p.add_argument("--measures", default=f"{MeasureId('dwid', harness.cylinder_axis_direction())};diameter;seb2")
    p.add_argument("--m-values", dest="m_values", default="16,64,256,1024")
    p.add_argument("--eta", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fit", help="fit the sample constant from deviation tables")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--nu", type=float)
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

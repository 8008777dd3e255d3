"""Command-line interface.

Exit codes: 0 success, 2 validation error (including an input, table or
output file that cannot be read or written), 3 resource cap exceeded,
4 exact probabilities failed to sum to 1 (an unresolved degeneracy).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import exact as exact_mod
from . import harness, isolines, montecarlo, sip
from .discretize import discretize_for_measure
from .measures import MeasureId, NotLPTypeError
from .model import ValidationError, load_point_set, save_point_set
from .quantize import quantization_to_csv


def _load(path: str):
    return load_point_set(Path(path).read_text())


def _budget(args) -> montecarlo.SampleBudget:
    return montecarlo.SampleBudget(
        epsilon=args.eps,
        delta=args.delta,
        nu=getattr(args, "nu", 1.0),
        constant_c=getattr(args, "constant_c", 0.5),
        explicit_m=getattr(args, "m", None),
    )


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("grid must be W,H")
    return int(parts[0]), int(parts[1])


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValidationError("bounds must be x0,y0,x1,y1")
    return tuple(parts)


def _write(path: str, text: str):
    Path(path).write_text(text)


def _cmd_quantize(args) -> int:
    uset = _load(args.input)
    q = montecarlo.build_quantization(
        uset, MeasureId.parse(args.measure), _budget(args), args.seed, simplify_output=args.simplify
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
    kern = montecarlo.build_eda_kernel(uset, args.alpha, _budget(args), args.seed)
    direction = tuple(float(x) for x in args.direction.split(","))
    widths = montecarlo.query_eda_kernel(kern, direction)
    _write(args.out, quantization_to_csv(widths.as_quantization()))
    return 0


def _cmd_sip_random(args) -> int:
    uset = _load(args.input)
    field = montecarlo.build_random_sip(uset, MeasureId.parse(args.measure), _budget(args), args.seed)
    return _emit_sip(field, args)


def _cmd_sip_exact(args) -> int:
    uset = _load(args.input)
    field = exact_mod.deterministic_sip(uset, MeasureId.parse(args.measure))
    return _emit_sip(field, args)


def _emit_sip(field: sip.SipField, args) -> int:
    raster_field = sip.rasterize_sip(field, _parse_grid(args.grid), _parse_bounds(args.bounds))
    sip.write_pgm(raster_field.raster, args.out)
    if args.isolines:
        levels = (
            tuple(float(x) for x in args.levels.split(","))
            if args.levels
            else isolines.DEFAULT_LEVELS
        )
        contours = isolines.extract_isolines(raster_field.raster, levels)
        _write(args.isolines, isolines.isolines_svg(contours, raster_field.raster.bounds))
    return 0


def _cmd_exact(args) -> int:
    uset = _load(args.input)
    dist = exact_mod.exact_distribution(uset, MeasureId.parse(args.measure))
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
    if args.input:
        generator = _load(args.input)
    else:
        generator = harness.CylinderConfig(args.n, args.length, args.radius, args.sigma)
    config = harness.ExperimentConfig(
        generator=generator,
        measures=measures,
        m_values=tuple(int(x) for x in args.m_values.split(",")),
        eta=args.eta,
        tau=args.tau,
        seed=args.seed,
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
        tables[int(match.group(1))] = harness.read_deviation_csv(path)
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

    def common(p, budget=True, out_required=True):
        p.add_argument("--input", required=True, help="point-set JSON file")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        if budget:
            p.add_argument("--eps", type=float, required=True)
            p.add_argument("--delta", type=float, required=True)
            p.add_argument("--nu", type=float, default=1.0)
            p.add_argument("--constant-c", dest="constant_c", type=float, default=0.5)
            p.add_argument("--m", type=int, default=None, help="override sample count")
        p.add_argument("--out", required=out_required)

    p = sub.add_parser("quantize", help="sampled quantization of one measure")
    common(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("kvariate", help="k-variate sampled quantization")
    common(p)
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
        p.add_argument("--levels", default=None, help="isoline levels, default 0.1,0.3,0.5,0.7,0.9")
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
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--length", type=float, default=10.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=2.0)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, NotLPTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except exact_mod.ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except exact_mod.ConservationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 on success, 1 when a verdict fails under --strict, 2 on input
or usage errors and on a floating-point overflow, invalid operation or
division by zero (one `error:` line, no numpy warnings).  --json emits
machine-readable reports with full-precision reals; human mode prints 6
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, measure as measure_mod, presets, simop, solver
from .errors import SelfSimError
from .paramfile import read_system, write_system
from .params import contraction_factor, validate


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _emit(doc: dict, args) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, default=lambda o: o.__dict__))
    else:
        for key, value in doc.items():
            print(f"{key}: {_fmt(value)}")


def _verdict_doc(v: analysis.RegularityVerdict) -> dict:
    return {"kind": v.kind, "verdict": v.verdict, "witnesses": list(v.witnesses)}


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_validate(args) -> int:
    system = read_system(args.params)
    part = validate(system)
    reports = []
    for p in args.p:
        rep = contraction_factor(system, p)
        reports.append({"p": rep.p, "r_p": rep.r_p, "contractive": rep.contractive})
    if args.json:
        print(json.dumps({"n": system.n, "alpha": list(part.alpha), "reports": reports}, indent=2))
    else:
        print(f"n: {system.n}")
        print("alpha: " + " ".join(_fmt(v) for v in part.alpha))
        for rep in reports:
            tag = "contractive" if rep["contractive"] else "NOT contractive"
            print(f"p={_fmt(rep['p'])}: r_p={_fmt(rep['r_p'])} ({tag})")
    return 0


def _solve(args, system):
    return solver.solve(
        system,
        args.p,
        args.target_error,
        max_depth=args.max_iter,
        piece_cap=args.piece_cap,
    )


def cmd_solve(args) -> int:
    system = read_system(args.params)
    res = _solve(args, system)
    f = res.approximant
    rows = zip(f.x.tolist(), f.yl.tolist(), f.yr.tolist())
    header = (
        f"# iterations={res.iterations} q={res.contraction_q!r} "
        f"certified_error={res.aposteriori_error!r} converged={res.converged} stop={res.stop}\n"
        "x,left,right"
    )
    _write_csv(args.out, header, rows)
    if args.out != "-":
        _emit(
            {
                "iterations": res.iterations,
                "contraction_q": res.contraction_q,
                "certified_error": res.aposteriori_error,
                "converged": res.converged,
                "stop": res.stop,
                "pieces": f.n_pieces,
                "out": args.out,
            },
            args,
        )
    return 0


def cmd_eval(args) -> int:
    system = read_system(args.params)
    anchors = simop.boundary_anchors(system)
    code = [int(tok) for tok in args.code.split(",") if tok.strip()]
    lo, hi = simop.code_to_segment(system, code)
    value = simop.exact_value_at_code_point(system, anchors, code, args.end)
    point = lo if args.end == "left" else hi
    _emit(
        {"code": args.code, "end": args.end, "point": point, "value": value},
        args,
    )
    return 0


def cmd_norms(args) -> int:
    system = read_system(args.params)
    nb = analysis.norm_bound(system, args.p)
    res = _solve(args, system)
    measured = solver.lp_norm(res.approximant, args.p)
    doc = {
        "p": nb.p,
        "bound": nb.bound,
        "components": nb.components,
        "measured_norm": measured,
        "certified_error": res.aposteriori_error,
        "converged": res.converged,
        "stop": res.stop,
    }
    _emit(doc, args)
    return 0


def cmd_check(args) -> int:
    system = read_system(args.params)
    cont = analysis.continuity_check(system, args.tol)
    try:
        mono = analysis.monotonicity_classify(system, args.tol)
        mono_doc = _verdict_doc(mono)
        failed = not cont.holds or mono.verdict == "fails"
    except SelfSimError as exc:
        mono_doc = {"kind": "monotonicity", "verdict": "error", "error": str(exc)}
        failed = not cont.holds
    doc = {"continuity": _verdict_doc(cont), "monotonicity": mono_doc}
    print(json.dumps(doc, indent=2))
    return 1 if args.strict and failed else 0


def cmd_variation(args) -> int:
    system = read_system(args.params)
    D, verdict = analysis.variation_criterion(system)
    var_m = analysis.variation_on_mesh(system, args.depth)
    doc = {
        "D": D,
        "verdict": verdict.verdict,
        "depth": args.depth,
        "variation_on_mesh": var_m,
    }
    _emit(doc, args)
    return 1 if args.strict and verdict.verdict == "fails" else 0


def cmd_measure(args) -> int:
    system = read_system(args.params)
    mu = measure_mod.measure_from_function(system, collapse_zero_branches=args.collapse)
    if args.samples:
        xs = measure_mod.sample(mu, args.samples, args.sample_depth, args.seed)
        _write(args.out, "\n".join(repr(float(v)) for v in xs) + "\n")
        return 0
    lo, hi, mass = measure_mod.coded_intervals(mu, args.depth)
    codes = [""]
    for _ in range(args.depth):
        codes = [str(k) + code for k in range(1, mu.n + 1) for code in codes]
    rows = zip(codes, lo.tolist(), hi.tolist(), mass.tolist())
    _write_csv(args.out, "code,left,right,mass", rows)
    return 0


def cmd_render(args) -> int:
    system = read_system(args.params)
    res = _solve(args, system)
    f = res.approximant
    grid = np.union1d(f.x, np.linspace(0.0, 1.0, args.points))
    rows = zip(grid.tolist(), f.value_left(grid).tolist(), f.value_right(grid).tolist())
    _write_csv(args.out, "x,left,right", rows)
    return 0


def cmd_preset(args) -> int:
    system = presets.build_preset(args.name, args.values)
    write_system(system, args.out)
    if args.out != "-":
        _emit({"preset": args.name, "out": args.out, "n": system.n}, args)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_solver_opts(sub, default_err=1e-8):
    sub.add_argument("--p", type=_parse_p, default=1.0, help="L_p exponent (or 'inf')")
    sub.add_argument("--target-error", type=float, default=default_err)
    sub.add_argument("--max-iter", type=int, default=60)
    sub.add_argument("--piece-cap", type=int, default=simop.DEFAULT_SEGMENT_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selfsim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, **kw):
        s = subs.add_parser(name, **kw)
        s.add_argument("--json", action="store_true", help="machine-readable output")
        s.add_argument("--strict", action="store_true", help="exit 1 on failing verdicts")
        s.set_defaults(func=func)
        return s

    s = sub("validate", cmd_validate, help="validate a parameter file, report contraction")
    s.add_argument("params")
    s.add_argument("--p", type=_parse_p, nargs="+", default=[1.0, 2.0, math.inf])

    s = sub("solve", cmd_solve, help="solve to certified error, write samples CSV")
    s.add_argument("params")
    _add_solver_opts(s)
    s.add_argument("--out", default="-")

    s = sub("eval", cmd_eval, help="exact fixed-point value at a code point")
    s.add_argument("params")
    s.add_argument("--code", required=True, help="comma-separated letters, e.g. 1,3,2")
    s.add_argument("--end", choices=("left", "right"), default="left")

    s = sub("norms", cmd_norms, help="a-priori norm bound vs measured norm")
    s.add_argument("params")
    _add_solver_opts(s, default_err=1e-6)

    s = sub("check", cmd_check, help="continuity and monotonicity verdicts")
    s.add_argument("params")
    s.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL)

    s = sub("variation", cmd_variation, help="bounded-variation discriminant and Var over T_m")
    s.add_argument("params")
    s.add_argument("--depth", type=int, default=5)

    s = sub("measure", cmd_measure, help="export the induced measure or samples")
    s.add_argument("params")
    s.add_argument("--collapse", action="store_true", help="drop zero-weight branches")
    s.add_argument("--depth", type=int, default=4)
    s.add_argument("--samples", type=int, default=0)
    s.add_argument("--sample-depth", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="-")

    s = sub("render", cmd_render, help="dense plot-ready samples of the approximant")
    s.add_argument("params")
    _add_solver_opts(s, default_err=1e-6)
    s.add_argument("--points", type=int, default=512)
    s.add_argument("--out", default="-")

    s = sub("preset", cmd_preset, help="write a named preset to a parameter file")
    s.add_argument("name", choices=presets.PRESET_NAMES)
    s.add_argument("values", nargs="*", type=float)
    s.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (SelfSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}: a value is not finite", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Batch command-line surface.

Subcommands compute tables (cusps, Eisenstein coefficients, kernels, main
terms, continuous part, shifted series), run the verification suite, and
emit deterministic CSV or JSON.  Complex values are written as paired
re/im columns; no timestamps or other wall-clock content ends up in the
artifacts, so repeated runs are bit-identical.

Newform arguments accept either a coefficient file path (format: header
``N k M`` then ``n a(n)`` lines) or ``builtin:delta`` for the level-1
weight-12 discriminant form.  A command that takes a form computes at
its level, and ``--newform-g`` must share it.  The default data directory
for bare filenames is taken from ``RSMOMENTS_DATA_DIR``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import eisenstein, lseries, moments, verify
from .arith import CuspLabel, enumerate_cusps
from .kernels import H0, KernelContext, TestFunctionParams
from .shifted import ShiftedSeriesRequest, Z_series, Z_series_double


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get("RSMOMENTS_DATA_DIR", "")
    cand = os.path.join(base, path) if base else path
    return cand


def _load_form(spec: str, m_max: int) -> lseries.NewformData:
    if spec == "builtin:delta":
        return lseries.delta_newform(m_max)
    return lseries.load_newform(_resolve(spec))


def _write_rows(args, header, rows):
    """Write rows as CSV (default) or JSON to args.output or stdout."""
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    finally:
        if args.output:
            out.close()


def _fmt(x) -> str:
    return f"{x:.17g}"


def _fmt_pair(z) -> list:
    """The re and im columns of a complex value."""
    return [_fmt(z.real), _fmt(z.imag)]


def cmd_cusps(args) -> int:
    rows = []
    for c in enumerate_cusps(args.N):
        rows.append([args.N, c.a, c.c, c.gcd_a, c.width, int(c.is_infinity_class)])
    _write_rows(args, ["N", "a", "c", "gcd_a_N_over_a", "width", "infinity_class"], rows)
    return 0


def cmd_tau(args) -> int:
    cusp = CuspLabel(args.N, args.a, args.c)
    s = complex(args.s_re, args.s_im)
    rows = []
    for n in args.n:
        val = eisenstein.tau_cusp(cusp, s, n)
        row = [args.N, args.a, args.c, *_fmt_pair(s), n, *_fmt_pair(val)]
        if args.oracle:
            trunc = eisenstein.LatticeTruncation(
                max_height=args.max_height, fourier_y=0.5 / abs(n), fourier_points=128
            )
            ov = eisenstein.tau_oracle(cusp, s, n, trunc)
            # a coefficient that vanishes identically has no relative error:
            # report |oracle - tau| there, as acceptance criterion 3 judges it
            diff = abs(ov - val)
            row += [*_fmt_pair(ov), _fmt(diff if abs(val) < 1e-10 else diff / abs(val))]
        rows.append(row)
    header = ["N", "a", "c", "s_re", "s_im", "n", "tau_re", "tau_im"]
    if args.oracle:
        header += ["oracle_re", "oracle_im", "rel_diff"]
    _write_rows(args, header, rows)
    return 0


def _kernel_ctx(args, k: int) -> KernelContext:
    p = TestFunctionParams(T=args.T, alpha=args.alpha, R=args.R)
    return KernelContext(p, t=args.t, k=k)


def cmd_h0(args) -> int:
    ctx = _kernel_ctx(args, args.k)
    rows = []
    for x in args.x:
        val = H0(1j * x, ctx)
        peak = 2.0 * math.pi ** (-1.5) * args.T ** (1.0 + args.alpha)
        rows.append([
            _fmt(args.T), _fmt(args.alpha), _fmt(args.R), args.k, _fmt(args.t), _fmt(x),
            *_fmt_pair(val), _fmt(abs(val) / peak),
        ])
    _write_rows(
        args,
        ["T", "alpha", "R", "k", "t", "x", "H0_re", "H0_im", "ratio_to_peak_scale"],
        rows,
    )
    return 0


def _forms(args) -> tuple:
    """(f, g) from --newform and --newform-g; g is f when --newform-g is
    unset.  The level is the forms', which must agree."""
    f = _load_form(args.newform, args.horizon)
    g = f if args.newform_g is None else _load_form(args.newform_g, args.horizon)
    if g.N != f.N:
        raise lseries.InvariantViolation(f"--newform has level {f.N} and --newform-g level {g.N}")
    return f, g


def _moment_ctx(args, s=None) -> moments.MomentContext:
    """The context of the named forms at their level, with a kernel of their weight."""
    f, g = _forms(args)
    return moments.MomentContext(t=args.t, f=f, g=g, N=f.N, kernel=_kernel_ctx(args, f.k), s=s)


def cmd_main_term(args) -> int:
    if args.which == "generic":
        s = complex(0.5, args.s_im)
        ctx = _moment_ctx(args, s=s)
        val = moments.main_term(ctx)
    else:
        # the displays sit at s = 1/2 - it (*_minus) and 1/2 + it (*_plus)
        s = complex(0.5, args.t if args.which.endswith("_plus") else -args.t)
        ctx = _moment_ctx(args, s=None)
        val = moments.main_term_specialized(ctx, args.which)
    _write_rows(
        args,
        ["N", "T", "alpha", "t", "k", "which", "s_re", "s_im", "M_re", "M_im"],
        [[ctx.N, _fmt(args.T), _fmt(args.alpha), _fmt(args.t), ctx.k,
          args.which, *_fmt_pair(s), *_fmt_pair(val)]],
    )
    return 0


def cmd_breakdown(args) -> int:
    s = complex(0.5, args.s_im)
    ctx = _moment_ctx(args, s=s)
    bd = moments.main_term_breakdown(ctx)
    total = moments.main_term(ctx)
    _write_rows(
        args,
        ["s_re", "s_im", "t", "M1_re", "M1_im", "MOmega_plus_re", "MOmega_plus_im",
         "MOmega_minus_re", "MOmega_minus_im", "assembled_re", "assembled_im",
         "generic_re", "generic_im", "rel_diff"],
        [[*_fmt_pair(s), _fmt(args.t), *_fmt_pair(bd.M1), *_fmt_pair(bd.M_Omega_plus),
          *_fmt_pair(bd.M_Omega_minus), *_fmt_pair(bd.assembled), *_fmt_pair(total),
          _fmt(abs(total - bd.assembled) / abs(total))]],
    )
    return 0


def cmd_continuous(args) -> int:
    ctx = _moment_ctx(args, s=complex(0.5, -args.tprime_sign * args.t))
    val = moments.continuous_part(ctx, points_per_unit=args.points_per_unit, half_line=True)
    _write_rows(
        args,
        ["T", "alpha", "t", "S_inf_re", "S_inf_im", "error_estimate"],
        [[_fmt(args.T), _fmt(args.alpha), _fmt(args.t),
          *_fmt_pair(val.value), _fmt(val.error)]],
    )
    return 0


def cmd_z_series(args) -> int:
    f, g = _forms(args)
    req = ShiftedSeriesRequest(
        s=complex(args.s_re, args.s_im), v=complex(args.v_re, args.v_im),
        t=args.t, N=f.N, M_outer=args.M_outer, M_inner=args.M_inner,
    )
    z_re = Z_series(req, f, g)
    z_db = Z_series_double(req, f, g)
    _write_rows(
        args,
        ["s_re", "s_im", "v_re", "v_im", "t", "N", "M_outer", "M_inner",
         "Z_re", "Z_im", "tail_estimate", "double_sum_rel_diff"],
        [[_fmt(args.s_re), _fmt(args.s_im), _fmt(args.v_re), _fmt(args.v_im),
          _fmt(args.t), f.N, args.M_outer, args.M_inner,
          *_fmt_pair(z_re.value), _fmt(z_re.error),
          _fmt(abs(z_re.value - z_db.value) / abs(z_re.value))]],
    )
    return 0


def cmd_moment_table(args) -> int:
    f = _load_form(args.newform, args.horizon)
    const = lseries.selfdual_rs_constants(f)
    c = moments.leading_coeff(3, f.N, const["residue"])
    rows = []
    for T in args.T_grid:
        kp = TestFunctionParams(T=T, alpha=args.alpha, R=args.R)

        def builder(t, kp=kp):
            return moments.MomentContext(
                t=t, f=f, g=f, N=f.N, kernel=KernelContext(kp, t=t, k=f.k), s=None
            )

        val = moments.main_term_t0_limit(builder, "feq_minus", t_nodes=(0.04, 0.02, 0.01))
        ratio = val.real / (T ** (1.0 + args.alpha) * math.log(T) ** 3)
        rows.append([_fmt(T), *_fmt_pair(val), _fmt(ratio), _fmt(ratio / c)])
    _write_rows(args, ["T", "M_re", "M_im", "normalized_ratio", "ratio_over_leading_coeff"], rows)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    ok = all(r.passed for r in results)
    if args.output:
        payload = [
            {"name": r.name, "passed": r.passed, "measured": {k: str(v) for k, v in r.measured.items()},
             "detail": r.detail}
            for r in results
        ]
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rsmoments",
        description="Main terms and cross-checks for second spectral moments "
        "of Rankin-Selberg convolutions on Gamma_0(N).",
    )
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    ap.add_argument("--output", default=None, help="output path (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cusps", help="enumerate the cusps of Gamma_0(N)")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("tau", help="Eisenstein Fourier coefficients at a cusp")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--s-re", type=float, default=1.3)
    p.add_argument("--s-im", type=float, default=0.0)
    p.add_argument("--n", type=int, nargs="+", default=[1])
    p.add_argument(
        "--oracle", action="store_true",
        help="also run the lattice oracle; rel_diff is absolute where |tau| < 1e-10",
    )
    p.add_argument("--max-height", type=int, default=800)
    p.set_defaults(func=cmd_tau)

    def add_kernel_args(p):
        p.add_argument("--T", type=float, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--R", type=float, default=1.0)
        p.add_argument("--t", type=float, default=0.0)

    p = sub.add_parser("h0", help="the gamma-ratio kernel H0(ix)")
    add_kernel_args(p)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--x", type=float, nargs="+", default=[0.0])
    p.set_defaults(func=cmd_h0)

    def add_form_args(p, with_g=True):
        p.add_argument("--newform", default="builtin:delta", help="its header sets the level N")
        if with_g:
            p.add_argument("--newform-g", default=None)
        p.add_argument("--horizon", type=int, default=20000,
                       help=f"builtin:delta's coefficient count, 1 to {lseries.DELTA_HORIZON}")

    def add_moment_args(p):
        add_kernel_args(p)
        add_form_args(p)

    p = sub.add_parser("main-term", help="the main term at s = 1/2 + i s_im or a specialised display")
    add_moment_args(p)
    p.add_argument("--s-im", type=float, default=None, help="required by --which generic")
    p.add_argument(
        "--which",
        choices=["generic", "fneq_minus", "fneq_plus", "feq_minus", "feq_plus"],
        default="generic",
    )
    p.set_defaults(func=cmd_main_term)

    p = sub.add_parser("breakdown", help="the three-piece construction of the main term")
    add_moment_args(p)
    p.add_argument("--s-im", type=float, default=0.9)
    p.set_defaults(func=cmd_breakdown)

    p = sub.add_parser("continuous", help="the continuous-spectrum integral (level 1)")
    add_moment_args(p)
    p.add_argument("--tprime-sign", type=int, choices=[1, -1], default=1)
    p.add_argument("--points-per-unit", type=float, default=2.0)
    p.set_defaults(func=cmd_continuous)

    p = sub.add_parser("z-series", help="the shifted double Dirichlet series, both paths")
    add_form_args(p)
    p.add_argument("--s-re", type=float, default=8.3)
    p.add_argument("--s-im", type=float, default=0.5)
    p.add_argument("--v-re", type=float, default=7.1)
    p.add_argument("--v-im", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--M-outer", type=int, default=1000)
    p.add_argument("--M-inner", type=int, default=2000)
    p.set_defaults(func=cmd_z_series)

    p = sub.add_parser("moment-table", help="M(1/2, 0) over a T grid with the normalised ratio")
    add_form_args(p, with_g=False)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--T-grid", type=float, nargs="+", default=[100.0, 200.0, 400.0, 800.0])
    p.set_defaults(func=cmd_moment_table)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all", choices=sorted(verify.SUITES))
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "horizon", 1) < 1:
        ap.error("--horizon must be at least 1")
    if args.command == "main-term" and (args.which == "generic") != (args.s_im is not None):
        ap.error("--s-im is required by --which generic; a display's s is 1/2 -+ it")
    try:
        return args.func(args)
    except Exception as exc:  # deterministic machine-readable failure
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

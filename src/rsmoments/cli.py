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
import io
import json
import math
import os
import sys

from . import eisenstein, lseries, moments, verify
from .arith import CuspLabel, enumerate_cusps
from .kernels import H0, KernelContext, TestFunctionParams
from .shifted import ShiftedSeriesRequest, Z_series, Z_series_double


def _load_form(spec: str, m_max: int) -> lseries.NewformData:
    if spec == "builtin:delta":
        return lseries.delta_newform(m_max)
    base = os.environ.get("RSMOMENTS_DATA_DIR", "")
    if base and not (os.path.isabs(spec) or os.path.exists(spec)):
        spec = os.path.join(base, spec)
    return lseries.load_newform(spec)


def _row(**columns) -> dict:
    """A table row: a complex value is its ``name_re`` and ``name_im``
    columns, a float is written ``%.17g``, and any other value as it is."""
    row = {}
    for name, value in columns.items():
        if isinstance(value, complex):
            row |= _row(**{f"{name}_re": value.real, f"{name}_im": value.imag})
        elif isinstance(value, float):
            row[name] = f"{value:.17g}"
        else:
            row[name] = value
    return row


def _write_rows(args, rows):
    """Write ``_row`` rows as CSV (default) or JSON to args.output or stdout;
    the first row's columns are the header."""
    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=rows[0])
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_cusps(args) -> int:
    _write_rows(args, [
        _row(N=args.N, a=c.a, c=c.c, gcd_a_N_over_a=c.gcd_a, width=c.width,
             infinity_class=int(c.is_infinity_class))
        for c in enumerate_cusps(args.N)
    ])
    return 0


def cmd_tau(args) -> int:
    cusp = CuspLabel(args.N, args.a, args.c)
    s = complex(args.s_re, args.s_im)
    rows = []
    for n in args.n:
        row = _row(N=args.N, a=args.a, c=args.c, s=s, n=n)
        if args.oracle:
            tau, oracle, _, rel_diff = verify.tau_against_oracle(cusp, s, n, args.max_height)
            row |= _row(tau=tau, oracle=oracle, rel_diff=rel_diff)
        else:
            row |= _row(tau=eisenstein.tau_cusp(cusp, s, n))
        rows.append(row)
    _write_rows(args, rows)
    return 0


def _kernel_ctx(args, k: int) -> KernelContext:
    p = TestFunctionParams(T=args.T, alpha=args.alpha, R=args.R)
    return KernelContext(p, t=args.t, k=k)


def cmd_h0(args) -> int:
    ctx = _kernel_ctx(args, args.k)
    peak = 2.0 * math.pi ** (-1.5) * args.T ** (1.0 + args.alpha)
    rows = []
    for x in args.x:
        val = H0(1j * x, ctx)
        rows.append(_row(T=args.T, alpha=args.alpha, R=args.R, k=args.k, t=args.t, x=x, H0=val,
                         ratio_to_peak_scale=abs(val) / peak))
    _write_rows(args, rows)
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
    _write_rows(args, [_row(N=ctx.N, T=args.T, alpha=args.alpha, t=args.t, k=ctx.k,
                            which=args.which, s=s, M=val)])
    return 0


def cmd_breakdown(args) -> int:
    s = complex(0.5, args.s_im)
    ctx = _moment_ctx(args, s=s)
    bd = moments.main_term_breakdown(ctx)
    total = moments.main_term(ctx)
    _write_rows(args, [_row(s=s, t=args.t, M1=bd.M1, MOmega_plus=bd.M_Omega_plus,
                            MOmega_minus=bd.M_Omega_minus, assembled=bd.assembled, generic=total,
                            rel_diff=abs(total - bd.assembled) / abs(total))])
    return 0


def cmd_continuous(args) -> int:
    ctx = _moment_ctx(args, s=complex(0.5, -args.tprime_sign * args.t))
    val = moments.continuous_part(ctx, points_per_unit=args.points_per_unit, half_line=True)
    _write_rows(args, [_row(T=args.T, alpha=args.alpha, t=args.t, S_inf=val.value,
                            error_estimate=val.error)])
    return 0


def cmd_z_series(args) -> int:
    f, g = _forms(args)
    req = ShiftedSeriesRequest(
        s=complex(args.s_re, args.s_im), v=complex(args.v_re, args.v_im),
        t=args.t, N=f.N, M_outer=args.M_outer, M_inner=args.M_inner,
    )
    z_re = Z_series(req, f, g)
    z_db = Z_series_double(req, f, g)
    _write_rows(args, [_row(s=req.s, v=req.v, t=args.t, N=f.N, M_outer=args.M_outer,
                            M_inner=args.M_inner, Z=z_re.value, tail_estimate=z_re.error,
                            double_sum_rel_diff=abs(z_re.value - z_db.value) / abs(z_re.value))])
    return 0


def cmd_moment_table(args) -> int:
    f = _load_form(args.newform, args.horizon)
    c, table = verify.moment_table(f, args.T_grid, args.alpha, args.R)
    _write_rows(args, [_row(T=T, M=val, normalized_ratio=ratio, ratio_over_leading_coeff=ratio / c)
                       for T, val, ratio in table])
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    ok = all(r.passed for r in results)
    if args.output:
        # each check's fields, its measured values in full
        payload = [{**vars(r), "measured": {k: str(v) for k, v in r.measured.items()}} for r in results]
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

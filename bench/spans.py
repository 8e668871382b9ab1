"""Per-layer spans for the traced benchmark run.

The library has no tracing of its own, so the traced run wraps the public
functions of each library module from the outside.  ``moments`` and
``eisenstein`` bind many of these names with ``from .x import y``, so every
module attribute that *is* the original function is replaced, not only the
one in the defining module.

Spans are kept in memory as ``(id, parent, item, name, start, end, failed)``
and turned into self times (span time minus the time covered by child
spans) when the run ends.  Every span is a child of the span that was open
when it started, so the benchmark's own item span is the root of each item.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# module -> wrapped public functions (the layers named in bench/README.md)
LAYERS = {
    "specfun": ["riemann_zeta", "hurwitz_zeta", "log_gamma", "complex_gamma",
                "digamma_family", "bessel_K", "integrate_line"],
    "arith": ["sigma_twisted_array", "enumerate_cusps", "characters_mod", "zeta_depleted"],
    "eisenstein": ["tau_cusp", "tau_oracle", "euler_poly"],
    "lseries": ["delta_newform", "holo_L", "sym2_L", "rankin_selberg_L",
                "curly_L_eisenstein_direct", "curly_L_eisenstein_factored"],
    "kernels": ["H0", "H0_derivative", "h_eval"],
    "moments": ["main_term", "main_term_breakdown", "main_term_specialized",
                "main_term_t0_limit", "continuous_part", "first_moment_pieces"],
    "shifted": ["Z_series", "Z_series_double", "M3_series", "M3_series_rearranged"],
}

INTEGRAND = "integrand"  # span name suffix for integrands passed to integrate_line


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
        names += [f"{mod}.self_s", f"{mod}.errors"]
    names += [
        "specfun.integrate_line.integrand_calls",
        "specfun.integrate_line.integrand_evals",
        "kernels.h0_cache.hit_ratio",
        "trace.wall_s",
        "trace.unspanned_s",
    ]
    return names


class Tracer:
    """Owns the span list and the patches; ``uninstall`` restores the library."""

    def __init__(self):
        self.spans = []
        self.stack = [0]  # id 0 is the run itself
        self.item = None
        self.counts = defaultdict(int)
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        sid = len(self.spans) + 1
        rec = [sid, self.stack[-1], self.item, name, time.perf_counter(), 0.0, False]
        self.spans.append(rec)
        self.stack.append(sid)
        return rec

    def _close(self, rec, failed=False):
        rec[5] = time.perf_counter()
        rec[6] = failed
        self.stack.pop()

    def span(self, name, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(rec, failed=True)
                raise
            self._close(rec)
            return out

        return wrapper

    def run_item(self, item_id, fn):
        """Run ``fn()`` as the root span of one benchmark item."""
        self.item = item_id
        rec = self._open("item")
        try:
            return fn()
        finally:
            self._close(rec)
            self.item = None

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "rsmoments" or name.startswith("rsmoments."))}
        for mod, fns in LAYERS.items():
            home = mods[f"rsmoments.{mod}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                if fn_name == "integrate_line":
                    new = self._integrate_line(orig)
                else:
                    new = self.span(f"{mod}.{fn_name}", orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, new)
        # H0 cache accounting: cached_H0 calls versus H0 evaluations
        kctx = mods["rsmoments.kernels"].KernelContext
        orig_cached = kctx.cached_H0
        counts = self.counts

        def cached_H0(ctx, ix):
            counts["cached_H0"] += 1
            return orig_cached(ctx, ix)

        self._patch(kctx, "cached_H0", cached_H0)

    def _integrate_line(self, orig):
        """Wrap integrate_line and, per call, the integrand handed to it.

        The integrand span is named after the integrand's own module, so its
        time counts there and not in ``specfun.integrate_line.self_s``.
        """
        counts = self.counts
        traced = self.span("specfun.integrate_line", orig)

        @functools.wraps(orig)
        def integrate_line(f, *args, **kwargs):
            mod = (getattr(f, "__module__", None) or "").rsplit(".", 1)[-1]
            inner = self.span(f"{mod}.{INTEGRAND}", f)

            def integrand(x):
                counts["integrand_calls"] += 1
                counts["integrand_evals"] += len(x)
                return inner(x)

            return traced(integrand, *args, **kwargs)

        return integrate_line

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def setup_s(self) -> float:
        """Duration of the traced set-up span (0 when none was traced)."""
        return sum(end - start for _sid, _parent, item, name, start, end, _failed in self.spans
                   if name == "item" and item == "setup")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics from the recorded spans.

        ``wall_s`` is the traced time: the traced set-up's build plus the batch.
        """
        child = defaultdict(float)
        for sid, parent, _item, _name, start, end, _failed in self.spans:
            child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        mod_self = defaultdict(float)
        mod_err = defaultdict(int)
        for sid, _parent, _item, name, start, end, failed in self.spans:
            if name == "item":
                continue
            own = (end - start) - child[sid]
            mod = name.split(".", 1)[0]
            mod_self[mod] += own
            mod_err[mod] += int(failed)
            if not name.endswith("." + INTEGRAND):
                calls[name] += 1
                self_s[name] += own
        out = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"]
            out[f"{mod}.self_s"] = mod_self[mod]
            out[f"{mod}.errors"] = mod_err[mod]
        out["specfun.integrate_line.integrand_calls"] = self.counts["integrand_calls"]
        out["specfun.integrate_line.integrand_evals"] = self.counts["integrand_evals"]
        cached = self.counts["cached_H0"]
        out["kernels.h0_cache.hit_ratio"] = (
            (cached - calls["kernels.H0"]) / cached if cached else 0.0
        )
        out["trace.wall_s"] = wall_s
        out["trace.unspanned_s"] = wall_s - sum(mod_self[m] for m in LAYERS)
        return out

    def dump(self) -> dict:
        """The raw spans, for the trace file written at the end of the run."""
        return {
            "fields": ["id", "parent", "item", "name", "start", "end", "failed"],
            "spans": self.spans,
        }

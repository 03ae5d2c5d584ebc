"""Per-layer tracing from outside the package.

Each traced function is replaced, for the length of one pass, by a wrapper
stored under the name through which its caller looks it up (for example
``search.monomials_permute`` and ``oracle.monomials_permute`` for the same
sweep), and the originals are restored afterwards.  A wrapper records one
span per call (site, start, end, parent span, cell id, and up to two work
counts) into flat arrays kept in memory; they are written once, after the
pass.  Per-element calls such as ``FieldCtx.mul`` are never wrapped: that
would measure the wrapper.

A layer's self time is its spans' duration minus the time covered by
their direct child spans.  No traced function calls itself through a
traced name, so a layer's inclusive time is the plain sum of its spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

from pentaperm import cli, equivalence, families, field, oracle, search, theory


def _brute_work(args, result):
    n, exponents = args[0], args[1]
    return 1 << n, 8 * ((1 << n) - 1) * len(exponents)


def _circle_work(args, result):
    return (1 << args[1]) + 1, 0


def _report_work(args, result):
    return (1 << args[1].n) + 1, 0


def _profile_work(args, result):
    # the branch-point scan plus one fiber scan per branch point
    return (1 + len(result)) * ((1 << args[1].n) + 1), 0


def _truthy(args, result):
    return int(bool(result)), 0


def _found(args, result):
    return int(result is not None), 0


def _count(args, result):
    return len(result), 0


# layer -> [(owner, attribute, work)]; ``work`` maps (args, result) to the
# two counts stored with the span.
LAYERS = {
    "gf2poly.gcd": [(families, "poly_gcd", None), (oracle, "poly_gcd", None),
                    (theory, "poly_gcd", None)],
    "families.gcd_condition": [(search, "gcd_condition", _truthy)],
    "field.make_field": [(oracle, "make_field", None), (equivalence, "make_field", None),
                         (cli, "make_field", None), (field, "make_field", None)],
    # work: table bytes built, which needs per-tracer state (Tracer._table_bytes)
    "field.exp_array": [(field.FieldCtx, "exp_array", None)],
    "oracle.brute": [(oracle, "monomials_permute", _brute_work),
                     (search, "monomials_permute", _brute_work)],
    "oracle.circle": [(oracle, "g_permutes_unit_circle", _circle_work)],
    "oracle.ramification": [(oracle, "ramification_report", _report_work),
                            (oracle, "ramification_profile", _profile_work)],
    "equivalence.search": [(equivalence, "search_monomial_cert", _found),
                           (equivalence, "search_bivariate_cert", _found)],
    "equivalence.verify": [(equivalence, "verify_monomial_cert", None),
                           (equivalence, "verify_bivariate_cert", None)],
    "search.run": [(search, "run_search", _count)],
    "theory.verdict": [(theory, "theorem_verdict", None)],
    "cli.main": [(cli, "main", None)],
}


def _site_name(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Span recorder; ``cell`` is set by the pass before each cell."""

    def __init__(self):
        self.sites: list[str] = []
        self.site_layer: list[str] = []
        self.site = array("i")
        self.parent = array("i")
        self.cell_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work1 = array("q")
        self.work2 = array("q")
        self.cell = -1
        self._stack = [-1]
        self._seen_tables: set[int] = set()

    def _wrap(self, fn, site_id: int, work):
        site, parent, cell_of = self.site, self.parent, self.cell_of
        start, end, work1, work2 = self.start, self.end, self.work1, self.work2
        stack, clock = self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(site)
            site.append(site_id)
            parent.append(stack[-1])
            cell_of.append(tracer.cell)
            start.append(0.0)
            end.append(0.0)
            work1.append(0)
            work2.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if work is not None:
                work1[idx], work2[idx] = work(args, result)
            return result

        return traced

    def _table_bytes(self, args, result):
        # bytes of the antilog table the first call on each context builds
        ctx = args[0]
        if id(ctx) in self._seen_tables:
            return 0, 0
        self._seen_tables.add(id(ctx))
        return 8 * ctx.order, 0

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for layer, targets in LAYERS.items():
                for owner, attr, work in targets:
                    if layer == "field.exp_array":
                        work = self._table_bytes
                    original = getattr(owner, attr)
                    self.sites.append(_site_name(owner, attr))
                    self.site_layer.append(layer)
                    setattr(owner, attr, self._wrap(original, len(self.sites) - 1, work))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The spans as numpy arrays, one entry per call in call order."""
        # numpy is imported here, after the pass, so that a traced pass
        # pays the same lazy numpy import as an untraced one
        import numpy as np

        return {
            "site": np.frombuffer(self.site, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cell": np.frombuffer(self.cell_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work1": np.frombuffer(self.work1, dtype=np.int64),
            "work2": np.frombuffer(self.work2, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, sites=np.array(self.sites), layers=np.array(self.site_layer),
                 **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer counts and times; ratios over an empty base read 0."""
        import numpy as np

        spans = self.arrays()
        site, parent = spans["site"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(site))
        n_sites = len(self.sites)

        def per_site(weights=None):
            return np.bincount(site, weights=weights, minlength=n_sites)

        calls, secs = per_site(), per_site(dur)
        self_secs = per_site(dur - child)
        w1, w2 = per_site(spans["work1"]), per_site(spans["work2"])
        by_layer = {}
        for k, layer in enumerate(self.site_layer):
            agg = by_layer.setdefault(layer, [0, 0.0, 0.0, 0, 0])
            agg[0] += int(calls[k])
            agg[1] += float(secs[k])
            agg[2] += float(self_secs[k])
            agg[3] += int(w1[k])
            agg[4] += int(w2[k])
        at_site = dict(zip(self.sites, calls))

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in ("gf2poly.gcd", "families.gcd_condition", "field.make_field",
                      "field.exp_array", "oracle.brute", "oracle.circle",
                      "oracle.ramification", "equivalence.search",
                      "equivalence.verify", "theory.verdict"):
            out[f"{layer}.calls"] = by_layer[layer][0]
            out[f"{layer}.s"] = by_layer[layer][1]
        fam = by_layer["families.gcd_condition"]
        out["families.sieve_pass_ratio"] = ratio(fam[3], fam[0])
        out["field.exp_array.bytes"] = by_layer["field.exp_array"][3]
        brute = by_layer["oracle.brute"]
        out["oracle.brute.points"] = brute[3]
        out["oracle.brute.points_per_s"] = ratio(brute[3], brute[1])
        out["oracle.brute.bytes_computed"] = brute[4]
        out["oracle.brute.s_per_call"] = ratio(brute[1], brute[0])
        circle = by_layer["oracle.circle"]
        out["oracle.circle.points"] = circle[3]
        out["oracle.circle.points_per_s"] = ratio(circle[3], circle[1])
        out["oracle.ramification.points"] = by_layer["oracle.ramification"][3]
        found = by_layer["equivalence.search"]
        out["equivalence.found_ratio"] = ratio(found[3], found[0])
        run = by_layer["search.run"]
        out["search.run.self_s"] = run[2]
        out["search.shapes"] = int(at_site["search.gcd_condition"])
        out["search.brute_tests"] = int(at_site["search.monomials_permute"])
        out["search.candidates"] = run[3]
        out["cli.main.calls"] = by_layer["cli.main"][0]
        out["cli.main.self_s"] = by_layer["cli.main"][2]
        return out

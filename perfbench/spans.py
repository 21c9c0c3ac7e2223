"""Spans around nilrep's layer boundaries, and the per-layer metrics
computed from them.

The tracer wraps each layer's public entry point where its caller binds
it (``nilrep.report.abelianize``, ``nilrep.invariants.enumerate_weyl``,
...), so nothing inside nilrep changes.  A binding that a later version
of nilrep no longer has is skipped and listed, never an error.  A span is
the list ``[name, start, end, parent index, op index, extra]``; spans stay
in memory and are written out with the pass result.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (per-layer metric, unit).  Times are span self times in ms, summed over
# one pass of the workload's op list; counts come from return values and
# raised exceptions.
PER_LAYER = (
    ("parsing.parse_ms", "ms"),
    ("groups.abelianize_ms", "ms"),
    ("snf.ms", "ms"),
    ("snf.calls", "count"),
    ("snf.max_cells", "count"),
    ("rootdata.build_ms", "ms"),
    ("rootdata.weyl_ms", "ms"),
    ("rootdata.weyl_elements", "count"),
    ("rootdata.weyl_cache_hits", "count"),
    ("rootdata.pi1_ms", "ms"),
    ("invariants.molien_ms", "ms"),
    ("invariants.char_evals", "count"),
    ("invariants.char_eval_ms", "ms"),
    ("finitehom.search_ms", "ms"),
    ("finitehom.searches", "count"),
    ("finitehom.homs_enumerated", "count"),
    ("finitehom.search_limit_hits", "count"),
    ("finitehom.witness_used_frac", "ratio"),
    ("finitehom.q8_builds", "count"),
    ("finitehom.q8_build_ms", "ms"),
    ("finitehom.verdict_ms", "ms"),
    ("report.analyze_self_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

# span name -> per-layer self-time metric
SELF_TIME = {
    "parsing.parse": "parsing.parse_ms",
    "groups.abelianize": "groups.abelianize_ms",
    "snf": "snf.ms",
    "rootdata.build": "rootdata.build_ms",
    "rootdata.weyl": "rootdata.weyl_ms",
    "rootdata.pi1": "rootdata.pi1_ms",
    "invariants.molien": "invariants.molien_ms",
    "invariants.char_eval": "invariants.char_eval_ms",
    "finitehom.search": "finitehom.search_ms",
    "finitehom.q8": "finitehom.q8_build_ms",
    "finitehom.verdict": "finitehom.verdict_ms",
    "report.analyze": "report.analyze_self_ms",
    "cli.main": "cli.main_self_ms",
}

OP = "op"
SEARCH = "finitehom.search"
VERDICT = "finitehom.verdict"

# (module, attribute, span name, hook) for every binding that callers in
# nilrep use across a layer boundary.
BINDINGS = (
    ("nilrep.cli", "parse_group_spec", "parsing.parse", None),
    ("nilrep.cli", "parse_reductive_spec", "parsing.parse", None),
    ("nilrep.report", "abelianize", "groups.abelianize", None),
    ("nilrep.finitehom", "abelianize", "groups.abelianize", None),
    ("nilrep.cli", "abelianize", "groups.abelianize", None),
    ("nilrep.groups", "cokernel_invariants", "snf", "snf"),
    ("nilrep.groups", "smith_normal_form", "snf", "snf"),
    ("nilrep.rootdata", "cokernel_invariants", "snf", "snf"),
    ("nilrep.rootdata", "integer_rank", "snf", "snf"),
    ("nilrep.report", "build_root_datum", "rootdata.build", None),
    ("nilrep.cli", "build_root_datum", "rootdata.build", None),
    ("nilrep.invariants", "enumerate_weyl", "rootdata.weyl", "weyl"),
    ("nilrep.report", "pi1_G", "rootdata.pi1", None),
    ("nilrep.report", "pi1_G_ab", "rootdata.pi1", None),
    ("nilrep.cli", "pi1_G", "rootdata.pi1", None),
    ("nilrep.cli", "pi1_G_ab", "rootdata.pi1", None),
    ("nilrep.report", "poincare_hom_component", "invariants.molien", None),
    ("nilrep.report", "poincare_char_variety", "invariants.molien", None),
    ("nilrep.cli", "poincare_hom_component", "invariants.molien", None),
    ("nilrep.cli", "poincare_char_variety", "invariants.molien", None),
    ("nilrep.invariants", "exterior_char", "invariants.char_eval", None),
    ("nilrep.invariants", "coinvariant_char", "invariants.char_eval", None),
    ("nilrep.report", "connectivity_verdict", VERDICT, "verdict"),
    ("nilrep.cli", "connectivity_verdict", VERDICT, "verdict"),
    ("nilrep.finitehom", "surjection_witness", SEARCH, "search"),
    ("nilrep.finitehom", "enumerate_homs", SEARCH, "search"),
    ("nilrep.cli", "enumerate_homs", SEARCH, "search"),
    ("nilrep.finitehom", "q8", "finitehom.q8", None),
    ("nilrep.cli", "q8", "finitehom.q8", None),
    ("nilrep.cli", "analyze", "report.analyze", None),
)


def _snf_hook(fn):
    def pre(args):
        m = args[0] if args else []
        return {"cells": len(m) * (len(m[0]) if m else 0)}
    return pre, None


def _weyl_hook(fn):
    info = getattr(fn, "cache_info", None)

    def pre(args):
        return info().hits if info else None

    def post(result, before):
        hit = info is not None and info().hits > before
        return {"hit": hit, "elements": 0 if hit else len(result)}
    return pre, post


def _search_hook(fn):
    def post(result, _):
        # enumerate_homs returns counts with a witness; surjection_witness
        # returns the witness itself
        extra = {"witness": getattr(result, "witness", result) is not None}
        if hasattr(result, "total"):
            extra["homs"] = result.total
        return extra
    return None, post


def _verdict_hook(fn):
    def post(result, _):
        return {"witness": getattr(result, "witness", None) is not None}
    return None, post


HOOKS = {"snf": _snf_hook, "weyl": _weyl_hook, "search": _search_hook,
         "verdict": _verdict_hook}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name, hook=None):
        pre, post = HOOKS[hook](fn) if hook else (None, None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   token if isinstance(token, dict) else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                rec[5] = dict(rec[5] or {}, exc=type(exc).__name__)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if post:
                rec[5] = dict(rec[5] or {}, **post(result, token))
            return result
        return traced

    def install(self):
        """Replace every binding that exists with its traced wrapper, for
        the rest of the process."""
        for module, attr, name, hook in BINDINGS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append("%s.%s" % (module, attr))
                continue
            setattr(mod, attr, self.wrap(fn, name, hook))


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are merged first)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER
           if name != "trace.overhead_frac"}
    found = used = 0
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        name, extra = s[0], s[5] or {}
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own * 1e3
        if name == "snf":
            out["snf.calls"] += 1
            out["snf.max_cells"] = max(out["snf.max_cells"],
                                       extra.get("cells", 0))
        elif name == "rootdata.weyl":
            out["rootdata.weyl_cache_hits"] += bool(extra.get("hit"))
            out["rootdata.weyl_elements"] += extra.get("elements", 0)
        elif name == "invariants.char_eval":
            out["invariants.char_evals"] += 1
        elif name == "finitehom.q8":
            out["finitehom.q8_builds"] += 1
        elif name == VERDICT:
            used += bool(extra.get("witness"))
        elif name == SEARCH:
            out["finitehom.homs_enumerated"] += extra.get("homs", 0)
            if not _has_ancestor(spans, i, SEARCH):
                out["finitehom.searches"] += 1
                out["finitehom.search_limit_hits"] += (
                    extra.get("exc") == "TooLarge")
                found += bool(extra.get("witness")) and _has_ancestor(
                    spans, i, VERDICT)
    # 0 when no verdict search returned a witness (nothing was wasted)
    out["finitehom.witness_used_frac"] = used / found if found else 0.0
    return out

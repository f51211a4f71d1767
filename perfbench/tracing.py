"""Traced run: timing wrappers installed on rkhs_sandwich from outside.

Each target function is replaced wherever a module of the package binds it
(for example both ``norms.hoelder_norm`` and ``rademacher.hoelder_norm``);
methods are replaced on their class.  A wrapper records one span (name,
start, end, parent span, op id) in column arrays kept in memory; the spans
are written out when the run ends.  Counts are computed at the same
boundaries from the sizes of the arrays that cross them (through a counting
proxy around the function handed to each norm), so they are labelled as
computed, not as measured work.  The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

# (module, attribute or Class.attribute, metric prefix)
TARGETS = [
    ("rkhs_sandwich.decider", "decide", "decider.decide"),
    ("rkhs_sandwich.decider", "decide_bounded_target", "decider.decide_bounded_target"),
    ("rkhs_sandwich.embeddings", "embeds", "embeddings.embeds"),
    ("rkhs_sandwich.embeddings", "chain_holds", "embeddings.chain_holds"),
    ("rkhs_sandwich.embeddings", "rewrite_identifications",
     "embeddings.rewrite_identifications"),
    ("rkhs_sandwich.spaces", "validate_space", "spaces.validate_space"),
    ("rkhs_sandwich.cli", "main", "cli.main"),
    ("rkhs_sandwich.report", "Report.build", "report.Report.build"),
    ("rkhs_sandwich.report", "Report.to_json", "report.Report.to_json"),
    ("rkhs_sandwich.irkbs", "check_applicability", "irkbs.check_applicability"),
    ("rkhs_sandwich.packing", "greedy_packing", "packing.greedy_packing"),
    ("rkhs_sandwich.bumps", "BumpFamily.__post_init__", "bumps.BumpFamily.init"),
    ("rkhs_sandwich.bumps", "SignedSum.__call__", "bumps.SignedSum.call"),
    ("rkhs_sandwich.norms", "hoelder_norm", "norms.hoelder_norm"),
    ("rkhs_sandwich.norms", "lp_norm", "norms.lp_norm"),
    ("rkhs_sandwich.norms", "slobodeckij_seminorm", "norms.slobodeckij_seminorm"),
    ("rkhs_sandwich.rademacher", "scan", "rademacher.scan"),
]


class _Counted:
    """Stands in for the function handed to a norm; reports every
    evaluation's output to a sink and forwards everything else."""

    __slots__ = ("_fn", "_sink")

    def __init__(self, fn, sink):
        self._fn, self._sink = fn, sink

    def __call__(self, *args, **kwargs):
        out = self._fn(*args, **kwargs)
        self._sink(out)
        return out

    def __getattr__(self, attr):
        return getattr(self._fn, attr)


def lattice_candidates(domain, delta, alpha=1, den=None) -> int:
    """Size of the candidate set a packing call works on, computed from its
    arguments: the lattice of spacing delta^(1/alpha)/4 inside the cube or
    ball, or the points of a finite metric space."""
    if domain.kind == "finite-metric-set":
        return len(domain.metric_table)
    delta, alpha = Fraction(delta), Fraction(alpha)
    den = den or max(2, math.ceil(4 / float(delta) ** (1.0 / float(alpha))))
    d = domain.dimension
    if domain.kind == "unit-cube":
        return (den - 1) ** d
    r2 = Fraction(domain.radius) ** 2 * den ** 2
    lim = math.ceil(float(domain.radius) * den)
    sq = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        sq = np.add.outer(sq, np.arange(-lim, lim + 1, dtype=np.int64) ** 2).ravel()
    return int(np.count_nonzero(sq * r2.denominator <= r2.numerator))


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name, self.parent = array("i"), array("q")
        self.start, self.end, self.op = array("q"), array("q"), array("q")
        self.stack: list = []
        self.op_id = -1
        self.counts: dict = {}
        self.missing: list = []
        self._scan_sums = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, metric: str, fn, pre=None, post=None):
        nid = len(self.names)
        self.names.append(metric)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.end.append(0)
            tr.stack.append(idx)
            result = exc = None
            tr.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                tr.end[idx] = time.perf_counter_ns()
                tr.stack.pop()
                if post is not None:
                    post(args, kwargs, result, exc)
        return wrapper

    def _proxy_first(self, sink):
        """pre-hook: hand the norm a counting proxy instead of its function."""
        def pre(args, kwargs):
            if args:
                return (_Counted(args[0], sink),) + tuple(args[1:]), kwargs
            kwargs = dict(kwargs, fn=_Counted(kwargs["fn"], sink))
            return args, kwargs
        return pre

    def _hooks(self, metric: str, original):
        if metric == "norms.hoelder_norm":
            def sink(vals):
                n = int(np.size(vals))
                active = int(np.count_nonzero(vals))
                self.count("norms.hoelder_norm.points", n)
                self.count("norms.hoelder_norm.active", active)
                self.count("norms.hoelder_norm.pairs", active * n)
            return self._proxy_first(sink), None
        if metric in ("norms.lp_norm", "norms.slobodeckij_seminorm"):
            def sink(vals, key=metric + ".fn_points"):
                self.count(key, int(np.size(vals)))
            post = None
            if metric == "norms.slobodeckij_seminorm":
                accuracy_error = sys.modules["rkhs_sandwich.norms"].AccuracyError

                def post(args, kwargs, result, exc):
                    if isinstance(exc, accuracy_error):
                        self.count("norms.slobodeckij_seminorm.accuracy_errors")
            return self._proxy_first(sink), post
        if metric == "bumps.SignedSum.call":
            def pre(args, kwargs):
                obj, X = args[0], args[1] if len(args) > 1 else kwargs["X"]
                rows = np.shape(X)[0] if np.ndim(X) > 1 else 1
                self.count("bumps.SignedSum.call.member_evals", len(obj.members) * rows)
                if self._scan_sums is not None:
                    self._scan_sums[id(obj)] = obj  # strong ref: ids stay unique
                return args, kwargs
            return pre, None
        if metric == "rademacher.scan":
            def pre(args, kwargs):
                self._scan_sums = {}
                return args, kwargs

            def post(args, kwargs, result, exc):
                self.count("rademacher.scan.patterns", len(self._scan_sums))
                self._scan_sums = None
            return pre, post
        if metric == "packing.greedy_packing":
            sig = inspect.signature(original)

            def post(args, kwargs, result, exc):
                if exc is None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    a = bound.arguments
                    self.count("packing.greedy_packing.candidates", lattice_candidates(
                        a["domain"], a["delta"], a["alpha"], a["den"]))
                    self.count("packing.greedy_packing.kept", result.count)
            return None, post
        return None, None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rkhs_sandwich" or n.startswith("rkhs_sandwich."))]
        for module_name, attr, metric in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.missing.append(metric)
                continue
            if owner_name:
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(metric, fn, *self._hooks(metric, fn))
                setattr(owner, name, staticmethod(wrapper)
                        if isinstance(raw, staticmethod) else wrapper)
                continue
            wrapper = self._wrap(metric, raw, *self._hooks(metric, raw))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapper)

    # -- results -----------------------------------------------------------------

    def spans(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start_ns": np.frombuffer(self.start, dtype=np.int64),
                "end_ns": np.frombuffer(self.end, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64)}

    def per_pass(self, op_pass, n_passes: int):
        """Self seconds and call counts per span name, one dict per pass.
        Self time is a span's duration minus the durations of its children."""
        s = self.spans()
        dur = s["end_ns"] - s["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        op_pass = np.asarray(op_pass, dtype=np.int64)
        in_op = s["op"] >= 0
        passes = np.full(len(dur), -1, dtype=np.int64)
        passes[in_op] = op_pass[s["op"][in_op]]
        out = [{} for _ in range(n_passes)]
        for k in range(n_passes):
            mask = passes == k
            for nid, metric in enumerate(self.names):
                sel = mask & (s["name"] == nid)
                out[k][metric + ".self_s"] = float(self_ns[sel].sum()) / 1e9
                out[k][metric + ".calls"] = int(sel.sum())
        return out

    def write(self, path, op_pass) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            op_pass=np.asarray(op_pass, dtype=np.int64),
                            **self.spans())

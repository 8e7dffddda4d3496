"""The traced run: each request as the library calls its CLI handler makes.

`compose(req, tracer)` issues a request as the sequence of public
`hilbchow` calls that the matching `cli` handler makes and returns the
text the handler would print; the caller checks that it is
byte-identical to what `cli.main` printed.  Every call goes through
`Tracer.call`, which records a span (name, start, end, parent span,
request id) while tracing is on and is a plain call otherwise.  Calls a
library function makes into another layer are reached by temporarily
rebinding the names listed in `INNER` inside the calling module, for
the traced pass only; nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from hilbchow import (GF, QQ, AlgebraPresentation, IdealPresentation,
                      NormPoint, PointedRep, RepPoint, cycle_extract,
                      enumerate_points, gamma_n, hc_point, det_point,
                      ideal_to_triple, invariant_table, is_cyclic,
                      is_representation, parse_dp_expr, parse_nc_poly,
                      span_dimension, stabilizer_is_trivial, triple_to_ideal,
                      triples_equivalent, ts_mul)
from hilbchow.repvariety import matrix_row_text, parse_point_body

# (module whose global name is rebound, name, span name)
INNER = (
    ("normpoints", "charpoly", "linalg.charpoly"),
    ("normpoints", "law_coefficients", "normpoints.law_coefficients"),
    ("normpoints", "nc_eval", "linalg.nc_eval"),
    ("normpoints", "det_linear_combination", "linalg.det_linear_combination"),
    ("normpoints", "word_matrices", "linalg.word_matrices"),
    ("normpoints", "det", "linalg.det"),
    ("normpoints", "nullspace", "linalg.nullspace"),
    ("normpoints", "solve_columns", "linalg.solve_columns"),
    ("normpoints", "field_roots", "normpoints.field_roots"),
    ("repvariety", "word_matrices", "linalg.word_matrices"),
    ("repvariety", "det", "linalg.det"),
    ("repvariety", "parse_nc_poly", "ncpoly.parse"),
    ("cyclic", "cyclic_word_basis", "cyclic.word_basis"),
    ("cyclic", "matrix_inverse", "linalg.matrix_inverse"),
    ("cyclic", "nullspace", "linalg.nullspace"),
    ("divpow", "parse_nc_poly", "ncpoly.parse"),
    ("divpow", "dp_power", "divpow.dp_power"),
    ("counting", "count_range", "counting.count_range"),
)


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, request]."""

    def __init__(self):
        self.on = False
        self.request = None
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        span = [name, 0, 0, self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] += value

    @contextmanager
    def tracing(self):
        "Record spans, including the INNER calls, until the block ends."
        saved = []
        self.on = True
        try:
            for modname, attr, name in INNER:
                module = sys.modules[f"hilbchow.{modname}"]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            self.on = False
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def stats(self):
        "name -> [calls, total ns, self ns]; self = duration minus children."
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return out


# -- the handlers' call sequences ------------------------------------------------

def _pres(t, opts):
    return t.call("repvariety.parse", AlgebraPresentation.from_text, opts["presentation"])


def _point(t, pres, text):
    fld, mats, vec = t.call("repvariety.parse", parse_point_body, text)
    if not t.call("repvariety.is_representation", is_representation, pres, mats):
        raise ValueError("matrices do not satisfy the relations")
    return RepPoint(fld, mats), vec


def _pointed(t, opts, k=0):
    pres = _pres(t, opts)
    rep, vec = _point(t, pres, opts["point"][k])
    return pres, PointedRep(rep, vec)


def _field(label):
    return QQ if label == "Q" else GF(int(label[1:]))


def _max_len(t, opts, m, n):
    "The --max-len the handler passes on; counts the word dets it implies."
    max_len = int(opts["max-len"]) if "max-len" in opts else None
    if t.on:
        words = sum(m ** k for k in range((max_len or 2 * n - 1) + 1))
        t.count("linalg.det_calls_expected", words)
    return max_len


def _hc(t, opts):
    _, pt = _pointed(t, opts)
    max_len = _max_len(t, opts, pt.m, pt.n)
    point = t.call("normpoints.hc_point", hc_point, pt, max_len)
    return t.call("normpoints.to_text", NormPoint.to_text, point)


def _det_point(t, opts):
    pres = _pres(t, opts)
    rep, _ = _point(t, pres, opts["point"][0])
    max_len = _max_len(t, opts, rep.m, rep.n)
    point = t.call("normpoints.det_point", det_point, rep, max_len)
    return t.call("normpoints.to_text", NormPoint.to_text, point)


def _cyclic(t, opts):
    _, pt = _pointed(t, opts)
    d = t.call("cyclic.span_dimension", span_dimension, pt)
    return f"cyclic true\nspan-dim {d}\n"


def _triple_to_ideal(t, opts):
    _, pt = _pointed(t, opts)
    ip = t.call("cyclic.triple_to_ideal", triple_to_ideal, pt)
    return t.call("cyclic.to_text", ip.to_text)


def _ideal_to_triple(t, opts):
    ip = t.call("cyclic.parse", IdealPresentation.from_text, opts["point"][0])
    pt = t.call("cyclic.ideal_to_triple", ideal_to_triple, ip)
    return t.call("cyclic.to_text", pt.to_text)


def _equiv(t, opts):
    pres, p1 = _pointed(t, opts, 0)
    rep, vec = _point(t, pres, opts["point"][1])
    g = t.call("cyclic.equiv", triples_equivalent, p1, PointedRep(rep, vec))
    if g is None:
        return "equivalent none\n"
    return "equivalent\ng " + t.call("repvariety.to_text", matrix_row_text, pres.field, g) + "\n"


def _stab(t, opts):
    _, pt = _pointed(t, opts)
    if not t.call("cyclic.is_cyclic", is_cyclic, pt):
        raise ValueError("stabilizer check requires a cyclic point")
    ok = t.call("cyclic.stab", stabilizer_is_trivial, pt)
    return f"stabilizer-trivial {'true' if ok else 'false'}\n"


def _invariants(t, opts):
    _, pt = _pointed(t, opts)
    if t.on:
        t.count("linalg.det_calls_expected", pt.m)
    table = t.call("repvariety.invariant_table", invariant_table, pt.rep, None)
    return t.call("repvariety.to_text", table.to_text)


def _cycle(t, opts):
    pres = _pres(t, opts)
    if not t.call("repvariety.is_commutative", lambda: pres.is_commutative):
        raise ValueError("cycle extraction needs a commutative presentation")
    rep, _ = _point(t, pres, opts["point"][0])
    cycle = t.call("normpoints.cycle_extract", cycle_extract, rep)
    return t.call("normpoints.to_text", cycle.to_text)


def _enumerate(t, opts):
    pres = _pres(t, opts)
    report = t.call("counting.enumerate_points", enumerate_points, pres,
                    int(opts["n"]), budget=None, workers=int(opts["workers"]))
    if t.on:
        q, n = report.q, report.n
        t.count("counting.candidates", q ** (report.m * n * n))
        t.count("counting.rep_tuples", report.total_rep_points)
        t.count("counting.cyclic_pairs", report.total_cyclic_pairs)
        t.count("counting.pair_tests", report.total_rep_points * (q ** n - 1))
    return t.call("counting.to_text", report.to_text, include_elapsed=False)


def _gamma(t, opts):
    poly = t.call("ncpoly.parse", parse_nc_poly, opts["expr"], _field(opts["field"]))
    tensor = t.call("divpow.gamma", gamma_n, poly, int(opts["n"]))
    return t.call("divpow.to_text", tensor.to_text)


def _dp_normalize(t, opts):
    elem = t.call("divpow.parse_dp", parse_dp_expr, opts["expr"], _field(opts["field"]))
    return t.call("divpow.to_text", elem.to_text)


def _arrangements(tensor):
    "Slot arrangements of all orbit-sum basis elements: n! / prod(mult!)."
    total = 0
    for key in tensor.terms:
        size = math.factorial(len(key))
        for mult in Counter(key).values():
            size //= math.factorial(mult)
        total += size
    return total


def _ts_mul(t, opts):
    fld, k = _field(opts["field"]), int(opts["n"])
    a = t.call("ncpoly.parse", parse_nc_poly, opts["a"], fld, 2)
    b = t.call("ncpoly.parse", parse_nc_poly, opts["b"], fld, 2)
    ga = t.call("divpow.gamma", gamma_n, a, k)
    gb = t.call("divpow.gamma", gamma_n, b, k)
    if t.on:
        t.count("divpow.ts_mul_pairs", _arrangements(ga) * _arrangements(gb))
    product = t.call("divpow.ts_mul", ts_mul, ga, gb)
    return t.call("divpow.to_text", product.to_text)


HANDLERS = {
    "hc": _hc, "det-point": _det_point, "cyclic": _cyclic,
    "triple-to-ideal": _triple_to_ideal, "ideal-to-triple": _ideal_to_triple,
    "equiv": _equiv, "stab": _stab, "invariants": _invariants, "cycle": _cycle,
    "enumerate": _enumerate, "gamma": _gamma, "dp-normalize": _dp_normalize,
    "ts-mul": _ts_mul,
}


def compose(req, tracer):
    return HANDLERS[req.cmd](tracer, req.opts)

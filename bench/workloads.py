"""Seeded request lists for the four workloads, with their output checks.

Every request is generated from the seed alone; the program receives
only the generated text.  Each request carries a check that reads the
output with the benchmark's own arithmetic (`exact`) and raises on any
disagreement.  Why each workload exists:

normmap  `hc` and `det-point` on random cyclic points over Q, F_3 and
         F_101 (n in 2..4, m in 2..3, word bound 2n-1 capped at 4).  The
         paper's headline map: division-free multiply chains (Berkowitz,
         word tables) on Fraction and FpElem scalars.  Bypasses
         `counting` and `divpow`.  (m, n) = (3, 4) is left out: its
         3280 word determinants take seconds per request over Q, which
         would leave too few repeats in a run.
ideal    per-point Hilbert-scheme requests (cyclic, triple-to-ideal,
         ideal-to-triple, equiv, stab, invariants, cycle) on the same
         fields and sizes.  The same `fields`/`linalg` layers as
         normmap but through Gaussian elimination with divisions; the
         requests are short, so parsing and serialization weigh in.
sweep    `enumerate` over a fixed list of jobs whose counts have closed
         forms; the seed permutes the order.  The integer kernels of
         `counting` do almost all the work; `fields`, `linalg` and
         `commpoly` are bypassed.  Parallel scaling is left out: two
         vCPUs on a shared host cannot resolve it.
divpow   `gamma` and `dp-normalize` through the CLI plus
         ts_mul(gamma_n(a,k), gamma_n(b,k)) through the library, over Q
         and F_7 with k in 2..4.  The only workload that reaches
         `divpow`; no matrices, so a `linalg` change should not move it.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Callable

import exact as ex
from exact import Field

FIELDS = (Field(), Field(3), Field(101))
SIZES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))  # (m, n)
# The host's speed drifts by up to 1.8x in bursts of a second or more;
# a request's fastest time is steady only when it is timed about twenty
# times in a run, so a pass must stay under a second.  Hence the word
# bound of larger points is capped at NORM_MAX_LEN (at the default
# 2n - 1, one (2, 4) point over Q alone takes 0.35 s), and the mix
# holds more small points than large ones.
NORM_MAX_LEN = 4
NORM_POINTS = {(2, 2): 6, (3, 2): 6, (2, 3): 3, (2, 4): 2, (3, 3): 1}


@dataclass
class Request:
    """One CLI invocation (or the library-only `ts-mul`) and its check.

    `opts` maps CLI option names to values; texts hold real newlines.
    `check(out, outs)` raises when `out`, the request's stdout, is wrong;
    `outs` holds every request's stdout, for checks across requests.
    An untimed request is issued once, after the timed passes, only so
    that a check can use its output.
    """

    cmd: str
    opts: dict
    check: Callable
    meta: dict = dc_field(default_factory=dict)
    timed: bool = True

    def argv(self):
        out = [self.cmd]
        for key, val in self.opts.items():
            for item in val if isinstance(val, list) else [val]:
                out += [f"--{key}", str(item).replace("\n", "|")]
        return out


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)


# -- random data ------------------------------------------------------------------

def _rand_mat(rng, f, n):
    return tuple(tuple(f.rand(rng, -3, 3) for _ in range(n)) for _ in range(n))


def _rand_unitriangular(rng, f, n):
    g = tuple(tuple(f.one if i == j else f.rand(rng, -2, 2) if j > i else f.zero
                    for j in range(n)) for i in range(n))
    return g, ex.mat_inv(f, g)


def cyclic_point(rng, f, m, n):
    "Random m-tuple and vector whose word images span F^n."
    while True:
        mats = tuple(_rand_mat(rng, f, n) for _ in range(m))
        v = tuple(f.rand(rng, -3, 3) for _ in range(n))
        images = [ex.word_image(f, mats, w, v) for w in ex.words_up_to(m, n - 1)]
        if ex.rank(f, images) == n:
            return mats, v


def _conjugate(f, g, ginv, mats):
    return tuple(ex.mat_mul(f, ex.mat_mul(f, g, a), ginv) for a in mats)


def _strata(rng, repeats, *axes):
    """Every combination of the axes, `repeats(combo)` times, in seeded order.

    Fixing the mix and drawing only the entries keeps the work per run
    alike across seeds, so seeds differ in data, not in size.
    """
    combos = [c for c in itertools.product(*axes) for _ in range(repeats(c))]
    rng.shuffle(combos)
    return combos


# -- normmap ------------------------------------------------------------------------

def build_normmap(rng, scale=1):
    reqs = []
    for f, (m, n) in _strata(rng, lambda c: NORM_POINTS[c[1]] * scale, FIELDS, SIZES):
        mats, v = cyclic_point(rng, f, m, n)
        g, ginv = _rand_unitriangular(rng, f, n)
        max_len = min(2 * n - 1, NORM_MAX_LEN)
        pres = ex.presentation_text(f, m)
        base = len(reqs)
        check = _norm_check(f, m, n, max_len, mats, base)
        meta = {"m": m, "n": n, "field": f.label()}

        def opts(point):
            out = {"presentation": pres, "point": [point]}
            if max_len < 2 * n - 1:
                out["max-len"] = max_len
            return out

        reqs.append(Request("hc", opts(ex.point_text(f, mats, v)), check, meta))
        reqs.append(Request("det-point", opts(ex.point_text(f, mats)), check, meta))
        conj = _conjugate(f, g, ginv, mats)
        reqs.append(Request("det-point", opts(ex.point_text(f, conj)), check, meta,
                            timed=False))
    return reqs


def _norm_check(f, m, n, max_len, mats, base):
    gen_dets = [ex.leibniz_det(f, a) for a in mats]
    nwords = sum(m ** length for length in range(max_len + 1))

    def check(out, outs):
        # hc, det-point and det-point of a conjugate are one norm point
        if not out == outs[base] == outs[base + 1] == outs[base + 2]:
            raise ValueError("hc, det-point and conjugated det-point differ")
        body = ex.expect_head(out.splitlines(), [
            "norm-point", f.header(), f"m {m}", f"n {n}", f"max-len {max_len}"])
        law, dets = {}, {}
        for line in body:
            if line.startswith("law "):
                lhs, rhs = ex.split_eq(line, "law ")
                law[tuple(int(e) for e in lhs.strip("()").split(","))] = f.parse(rhs)
            elif line.startswith("det "):
                lhs, rhs = ex.split_eq(line, "det ")
                dets[ex.parse_word(lhs)] = f.parse(rhs)
            elif not line.startswith("charpoly x"):
                raise ValueError(f"unexpected line {line!r}")
        if len(dets) != nwords or dets.get(()) != f.one:
            raise ValueError("word determinant table incomplete")
        for k, d in enumerate(gen_dets):
            unit = tuple(n if j == k else 0 for j in range(m))
            if dets[(k,)] != d or law.get(unit, f.zero) != d:
                raise ValueError(f"det x{k + 1} disagrees with Leibniz")
        for w, d in dets.items():
            if len(w) > 1 and d != f.red(dets[w[:1]] * dets[w[1:]]):
                raise ValueError(f"det not multiplicative on {w}")
    return check


# -- ideal --------------------------------------------------------------------------

def build_ideal(rng, scale=1):
    reqs = []
    for f, (m, n) in _strata(rng, lambda c: scale, FIELDS, SIZES):
        meta = {"m": m, "n": n, "field": f.label()}
        mats, v = cyclic_point(rng, f, m, n)
        pres = ex.presentation_text(f, m)
        pointed = ex.point_text(f, mats, v)
        one = {"presentation": pres, "point": [pointed]}

        def add(cmd, opts, check):
            reqs.append(Request(cmd, opts, check, meta))

        add("cyclic", one, _exact(f"cyclic true\nspan-dim {n}\n"))
        add("triple-to-ideal", one, _ideal_check(f, m, n, mats, v))
        ideal_text, acts, idx = _ideal_presentation(f, m, n, mats, v)
        unit = tuple(f.one if j == idx else f.zero for j in range(n))
        add("ideal-to-triple", {"point": [ideal_text]},
            _exact(ex.point_text(f, acts, unit)))
        g, ginv = _rand_unitriangular(rng, f, n)
        moved_mats, moved_v = _conjugate(f, g, ginv, mats), ex.mat_vec(f, g, v)
        add("equiv", {"presentation": pres,
                      "point": [pointed, ex.point_text(f, moved_mats, moved_v)]},
            _equiv_check(f, mats, v, moved_mats, moved_v, g))
        add("stab", one, _exact("stabilizer-trivial true\n"))
        add("invariants", one, _invariants_check(f, m, n, mats))
        cmats, cycle = _commuting_split(rng, f, m, n)
        rels = [f"x{i + 1}*x{j + 1} - x{j + 1}*x{i + 1}"
                for i, j in itertools.combinations(range(m), 2)]
        add("cycle", {"presentation": ex.presentation_text(f, m, rels),
                      "point": [ex.point_text(f, cmats)]},
            _cycle_check(f, m, n, cycle))
    return reqs


def _exact(expected):
    def check(out, outs):
        if out != expected:
            raise ValueError(f"expected {expected!r}, got {out!r}")
    return check


def _equiv_check(f, mats, v, moved_mats, moved_v, g):
    "The intertwiner carries (mats, v) to the moved point; on cyclic points it is g."
    def check(out, outs):
        body = ex.expect_head(out.splitlines(), ["equivalent"])
        got = ex.parse_rows(f, body[0].removeprefix("g "))
        if ex.mat_vec(f, got, v) != moved_v or any(
                ex.mat_mul(f, got, a) != ex.mat_mul(f, b, got)
                for a, b in zip(mats, moved_mats)):
            raise ValueError("returned matrix does not intertwine the points")
        if out != "equivalent\ng " + ex.rows_text(g) + "\n":
            raise ValueError("intertwiner differs from the conjugating matrix")
    return check


def _ideal_presentation(f, m, n, mats, v):
    """Own construction of an ideal presentation of (mats, v).

    Any word set whose images of v form a basis B gives consistent
    actions B^-1 M_k B; graded-lex greedy selection finds one.
    """
    words, images = [], []
    for w in ex.words_up_to(m, n - 1):
        u = ex.word_image(f, mats, w, v)
        if ex.rank(f, images + [u]) > len(images):
            words.append(w)
            images.append(u)
    basis = tuple(zip(*images))
    binv = ex.mat_inv(f, basis)
    acts = tuple(ex.mat_mul(f, ex.mat_mul(f, binv, a), basis) for a in mats)
    lines = ["ideal-presentation", f.header(), f"m {m}", f"n {n}",
             "basis " + ", ".join(ex.word_text(w) for w in words),
             f"cyclic-index {words.index(())}"]
    lines += [f"act x{k + 1} = " + ex.rows_text(a) for k, a in enumerate(acts)]
    return "\n".join(lines) + "\n", acts, words.index(())


def _ideal_check(f, m, n, mats, v):
    def check(out, outs):
        body = ex.expect_head(out.splitlines(), [
            "ideal-presentation", f.header(), f"m {m}", f"n {n}"])
        words = [ex.parse_word(t) for t in body[0].removeprefix("basis ").split(",")]
        idx = int(body[1].removeprefix("cyclic-index "))
        if len(words) != n or words[idx] != () or len(body) != 2 + m:
            raise ValueError("bad basis or cyclic index")
        basis = tuple(zip(*[ex.word_image(f, mats, w, v) for w in words]))
        if not ex.leibniz_det(f, basis):
            raise ValueError("basis words have dependent images")
        for k, line in enumerate(body[2:]):
            _, rhs = ex.split_eq(line, f"act x{k + 1}")
            act = ex.parse_rows(f, rhs)
            if ex.mat_mul(f, basis, act) != ex.mat_mul(f, mats[k], basis):
                raise ValueError(f"act x{k + 1} is not the generator in the basis")
    return check


def _invariants_check(f, m, n, mats):
    max_len = 2 * n - 1
    table = {(): ex.identity(f, n)}
    for w in ex.words_up_to(m, max_len):
        if w:
            table[w] = ex.mat_mul(f, mats[w[0]], table[w[1:]])
    expected = [f"tr {ex.canonical_word(w)} = {f.red(sum(a[i][i] for i in range(n)))}"
                for w, a in table.items() if w]
    expected += [f"det x{k + 1} = {ex.leibniz_det(f, a)}" for k, a in enumerate(mats)]

    def check(out, outs):
        body = ex.expect_head(out.splitlines(), [
            "invariant-table", f.header(), f"m {m}", f"n {n}", f"max-len {max_len}"])
        if body != expected:
            raise ValueError("trace or determinant table differs")
    return check


def _commuting_split(rng, f, m, n):
    """Polynomials p_k(A) in one split matrix A = g T g^-1.

    T is upper triangular with diagonal lambda_i, so the joint
    eigenvalue tuples are (p_1(lambda_i), ..., p_m(lambda_i)).
    """
    diag = [f.rand(rng, -2, 2) for _ in range(n)]
    t = tuple(tuple(diag[i] if i == j else f.rand(rng, -1, 1) if j > i else f.zero
                    for j in range(n)) for i in range(n))
    polys = [[f.rand(rng, -2, 2) for _ in range(3)] for _ in range(m)]
    g, ginv = _rand_unitriangular(rng, f, n)
    a = ex.mat_mul(f, ex.mat_mul(f, g, t), ginv)
    mats = tuple(ex.mat_poly(f, c, a) for c in polys)
    cycle = Counter(tuple(f.red(sum(c * lam ** e for e, c in enumerate(p)))
                          for p in polys) for lam in diag)
    return mats, cycle


def _cycle_check(f, m, n, cycle):
    def check(out, outs):
        body = ex.expect_head(out.splitlines(), ["cycle", f.header(), f"m {m}", f"n {n}"])
        got = Counter()
        for line in body:
            tup, mult = line.removeprefix("point ").rsplit(" * ", 1)
            got[tuple(f.parse(x) for x in tup.strip("()").split(", "))] += int(mult)
        if got != cycle:
            raise ValueError(f"cycle {dict(got)} != {dict(cycle)}")
    return check


# -- sweep --------------------------------------------------------------------------

def _gl(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


# (relations, m, n, q values, rep tuples, orbits) with closed forms in q:
#  F_q[x]: every matrix, q^n cyclic-vector orbits.  F_q[x]/(x^d), n <= d:
#  the q^(n^2-n) nilpotents, one orbit.  Free algebra on two generators.
#  Commuting plane.  k<x1,x2>/(x1,x2)^2: pairs inside one square-zero line.
SWEEP_JOBS = (
    ((), 1, 1, (2, 3, 5, 7), lambda q: q, lambda q: q),
    ((), 1, 2, (2, 3, 5), lambda q: q ** 4, lambda q: q ** 2),
    ((), 1, 3, (2,), lambda q: q ** 9, lambda q: q ** 3),
    (("x1^2",), 1, 1, (2, 3, 5, 7), lambda q: 1, lambda q: 1),
    (("x1^2",), 1, 2, (2, 3, 5, 7), lambda q: q ** 2, lambda q: 1),
    (("x1^3",), 1, 1, (2, 3, 5, 7), lambda q: 1, lambda q: 1),
    (("x1^3",), 1, 2, (2, 3, 5, 7), lambda q: q ** 2, lambda q: 1),
    (("x1^3",), 1, 3, (2,), lambda q: q ** 6, lambda q: 1),
    ((), 2, 1, (2, 3, 5, 7), lambda q: q ** 2, lambda q: q ** 2),
    ((), 2, 2, (2,), lambda q: q ** 8, lambda q: q ** 5 * (q + 1)),
    (("x1*x2 - x2*x1",), 2, 2, (2,),
     lambda q: q ** 3 * (q ** 3 + q ** 2 - 1), lambda q: q ** 4 + q ** 3),
    (("x1^2", "x1*x2", "x2*x1", "x2^2"), 2, 2, (2, 3),
     lambda q: 1 + (q + 1) * (q ** 2 - 1), lambda q: q + 1),
)


def build_sweep(rng):
    reqs = []
    for rels, m, n, qs, reps, orbits in SWEEP_JOBS:
        for q in qs:
            gl = _gl(q, n)
            expected = "\n".join([
                "enumeration-report", f"q {q}", f"n {n}", f"m {m}",
                f"rep-points {reps(q)}", f"cyclic-pairs {orbits(q) * gl}",
                f"gl-order {gl}", f"orbit-count {orbits(q)}"]) + "\n"
            pres = ex.presentation_text(Field(q), m, rels)
            reqs.append(Request("enumerate", {"presentation": pres, "n": n, "workers": 1},
                                _exact(expected), {"m": m, "n": n, "q": q}))
    rng.shuffle(reqs)
    return reqs


# -- divpow -------------------------------------------------------------------------

DP_FIELDS = (Field(), Field(7))
DP_WORDS = ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))


def _rand_element(rng, f, size):
    words = rng.sample(DP_WORDS, size)
    lo = -3 if f.p is None else 1
    return {w: f.red(rng.choice([c for c in range(lo, 4) if c])) for w in words}


def element_text(elem):
    text = ""
    for w, c in elem.items():
        sign = "-" if c < 0 else "+"
        text += f" {sign} {abs(c)}*{ex.word_text(w)}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _el_mul(f, a, b):
    out = {}
    for (w1, c1), (w2, c2) in itertools.product(a.items(), b.items()):
        out[w1 + w2] = f.red(out.get(w1 + w2, 0) + c1 * c2)
    return {w: c for w, c in out.items() if c}


def own_gamma(f, elem, k):
    "Multiset -> product of its words' coefficients (the k-th tensor power)."
    support = sorted(elem, key=ex.word_sort_key)
    out = {}
    for combo in itertools.combinations_with_replacement(support, k):
        c = f.one
        for w in combo:
            c = f.red(c * elem[w])
        if c:
            out[combo] = c
    return out


def build_divpow(rng, scale=3):
    """`scale` elements per (field, k, words) for gamma and dp-normalize;
    ts-mul on the first of them only, and not at k = 4 with 4 words,
    where one ts-mul expands 65536 arrangement pairs (0.15-0.4 s)."""
    reqs = []
    seen = set()
    for f, k, size in _strata(rng, lambda c: scale, DP_FIELDS, (2, 3, 4), (2, 3, 4)):
        a, b = _rand_element(rng, f, size), _rand_element(rng, f, size)
        meta = {"k": k, "field": f.label()}
        want = own_gamma(f, a, k)
        reqs.append(Request("gamma", {"expr": element_text(a), "n": k, "field": f.label()},
                            _symtensor_check(f, k, want), meta))
        reqs.append(Request("dp-normalize",
                            {"expr": f"({element_text(a)})^[{k}]", "field": f.label()},
                            _tau_check(f, want), meta))
        if (f.p, k, size) in seen or (k, size) == (4, 4):
            continue
        seen.add((f.p, k, size))
        reqs.append(Request("ts-mul", {"a": element_text(a), "b": element_text(b),
                                       "n": k, "field": f.label()},
                            _symtensor_check(f, k, own_gamma(f, _el_mul(f, a, b), k)),
                            meta))
    return reqs


def _multiset(words):
    return tuple(sorted(words, key=ex.word_sort_key))


def _symtensor_check(f, k, want):
    def check(out, outs):
        lines = out.splitlines()
        body = ex.expect_head(lines, ["symtensor", f.header()])[1:]
        body = ex.expect_head(body, [f"degree {k}"])
        got = {}
        for line in body:
            lhs, rhs = ex.split_eq(line, "term ")
            words = [ex.parse_word(t) for t in lhs.strip("{}").split(",")]
            got[_multiset(words)] = f.parse(rhs)
        if got != want:
            raise ValueError("symmetric tensor differs from the tensor power")
    return check


def _tau_check(f, want):
    "tau(a^[k]): each (w)^[e] factor becomes w repeated e times."
    def check(out, outs):
        body = ex.expect_head(out.splitlines(), ["divided-power", f.header()])[1:]
        got = {}
        for line in body:
            lhs, rhs = ex.split_eq(line, "term ")
            words = []
            for w, e in re.findall(r"\(([^()]*)\)\^\[(\d+)\]", lhs):
                words += [ex.parse_word(w)] * int(e)
            got[_multiset(words)] = f.parse(rhs)
        if got != want:
            raise ValueError("tau of the divided power differs from gamma")
    return check


BUILDERS = {"normmap": build_normmap, "ideal": build_ideal,
            "sweep": build_sweep, "divpow": build_divpow}

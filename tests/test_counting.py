import concurrent.futures
import itertools
import os
import pickle
from collections import Counter, defaultdict

import pytest

from hilbchow import (GF, QQ, AlgebraPresentation, BudgetExceededError,
                      EnumerationReport, Matrix, ParseError, PreconditionError,
                      det, enumerate_points, gl_order, parse_nc_poly)

from oracles import (commuting_pairs, curve_hilbert_points, free_hilbert_points,
                     in_krylov_cell, krylov_dimension, naive_count,
                     nilpotent_count, plane_hilbert_points, torus_orbit)


def curve_pres(q):
    "F_q[x]: free on one generator, commutative for free."
    return AlgebraPresentation(GF(q), 1)


def commuting_pres(q):
    rel = parse_nc_poly("x1*x2 - x2*x1", GF(q), 2)
    return AlgebraPresentation(GF(q), 2, (rel,))


def presentation(q, m, *rels):
    return AlgebraPresentation(GF(q), m, tuple(parse_nc_poly(r, GF(q), m)
                                               for r in rels))


def test_gl_order_small_values():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


def test_gl_order_exhaustive_crosscheck_n2_q2():
    F = GF(2)
    elems = list(F.elements())
    count = 0
    for entries in itertools.product(elems, repeat=4):
        M = Matrix(((entries[0], entries[1]), (entries[2], entries[3])))
        if det(M):
            count += 1
    assert count == gl_order(2, 2)


def test_gl_order_rejects_non_prime():
    with pytest.raises(PreconditionError):
        gl_order(2, 4)


def test_curve_orbit_counts_are_qn():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        report = enumerate_points(curve_pres(q), n)
        assert report.orbit_count == q ** n
        assert report.total_rep_points == q ** (n * n)
        assert report.total_cyclic_pairs % report.gl_order == 0


def test_curve_frozen_regression_n2_q2():
    report = enumerate_points(curve_pres(2), 2)
    assert report.total_rep_points == 16
    assert report.total_cyclic_pairs == 24
    assert report.gl_order == 6
    assert report.orbit_count == 4


def test_free_algebra_regression_m2_n2_q2():
    # self-consistent regression values, first computed by this harness
    report = enumerate_points(AlgebraPresentation(GF(2), 2), 2)
    assert report.total_rep_points == 256
    assert report.total_cyclic_pairs == 576
    assert report.gl_order == 6
    assert report.orbit_count == 96


def test_commuting_regression_n2_q2():
    # Hilbert scheme of 2 points on the affine plane over F_2
    report = enumerate_points(commuting_pres(2), 2)
    assert report.total_rep_points == 88
    assert report.orbit_count == 24  # q^4 + q^3 at q = 2


def nilpotent_pres(q, d):
    return AlgebraPresentation(GF(q), 1, (parse_nc_poly(f"x1^{d}", GF(q), 1),))


# (presentation, n, rep-points, orbit-count) from theorems, not from this harness;
# the commuting plane at (q, n) = (2, 3) agrees too but costs ~10 s
CLOSED_FORMS = [
    *[(commuting_pres(q), 2, commuting_pairs(q, 2), plane_hilbert_points(q, 2))
      for q in (2, 3)],
    *[(curve_pres(q), n, q ** (n * n), curve_hilbert_points(q, n))
      for q, n in ((2, 3), (3, 2))],
    # every n x n matrix with x^d = 0 (d >= n) is nilpotent, and F_q[x]/(x^d)
    # has one ideal of colength n
    *[(nilpotent_pres(q, d), n, nilpotent_count(q, n), 1)
      for q, d, n in ((2, 2, 2), (3, 2, 2), (2, 3, 3))],
    *[(AlgebraPresentation(GF(q), 2), 2, q ** 8, free_hilbert_points(q, 2, 2))
      for q in (2, 3)],
    # torus orbits of size (q - 1)^joins beyond q = 3
    *[(curve_pres(q), 2, q ** 4, curve_hilbert_points(q, 2)) for q in (5, 7)],
    *[(nilpotent_pres(q, 2), 2, nilpotent_count(q, 2), 1) for q in (5, 7)],
    # Weyl algebra: tr [X, Y] = 0 while tr 1 = 2 in F_3
    (presentation(3, 2, "x1*x2 - x2*x1 - 1"), 2, 0, 0),
]


@pytest.mark.parametrize("pres,n,reps,orbits", CLOSED_FORMS, ids=[
    "plane-q2", "plane-q3", "curve-q2-n3", "curve-q3-n2", "nilpotent-q2-n2",
    "nilpotent-q3-n2", "nilpotent-q2-n3", "free-q2", "free-q3", "curve-q5-n2",
    "curve-q7-n2", "nilpotent-q5-n2", "nilpotent-q7-n2", "weyl-q3"])
def test_counts_match_closed_forms(pres, n, reps, orbits):
    report = enumerate_points(pres, n)
    assert (report.total_rep_points, report.orbit_count) == (reps, orbits)


@pytest.mark.parametrize("q,m,n,points", [
    (2, 1, 3, 8), (5, 1, 2, 25), (2, 2, 2, 96), (3, 2, 2, 972), (2, 3, 2, 1792),
    (2, 2, 3, 8704),
    # spans seeded by cells of dimension d < n, over F_5 and with three generators
    (5, 2, 2, 18750), (3, 3, 2, 85293)])
def test_free_algebra_counts_follow_the_cell_recursion(q, m, n, points):
    # the recursion over the dimension of the cyclic submodule gives q^n on
    # the line and q^6 + q^5 for two generators at n = 2
    assert free_hilbert_points(q, m, n) == points
    assert enumerate_points(AlgebraPresentation(GF(q), m), n).orbit_count == points


def test_closed_form_oracle_values():
    # the series agree with the brute force where it is cheap, and with the
    # published values
    assert naive_count(commuting_pres(2), 2)[0] == commuting_pairs(2, 2) == 88
    assert commuting_pairs(3, 2) == 945
    assert plane_hilbert_points(2, 2) == 24 and plane_hilbert_points(3, 2) == 108
    assert [free_hilbert_points(q, 1, n) for q, n in ((2, 3), (3, 2), (7, 1))] == \
        [curve_hilbert_points(q, n) for q, n in ((2, 3), (3, 2), (7, 1))]
    assert [free_hilbert_points(q, 2, 2) for q in (2, 3, 4, 5)] == \
        [q ** 6 + q ** 5 for q in (2, 3, 4, 5)]


def test_budget_checks():
    with pytest.raises(BudgetExceededError):
        enumerate_points(curve_pres(2), 2, budget=15)
    with pytest.raises(PreconditionError):
        enumerate_points(AlgebraPresentation(QQ, 1), 1)


def test_worker_count_independence():
    pres = curve_pres(2)
    solo = enumerate_points(pres, 2, workers=1)
    multi = enumerate_points(pres, 2, workers=3)
    assert solo == multi
    assert solo.to_text(include_elapsed=False) == \
        multi.to_text(include_elapsed=False)


SQUARE_ZERO = ("x1^2", "x1*x2", "x2*x1", "x2^2")


@pytest.mark.parametrize("rels,q", [
    pytest.param(("x1*x2 - x2*x1",), 2, id="commuting"),
    pytest.param(SQUARE_ZERO, 2, id="square-zero"),
    pytest.param(("x1*x2 - x2*x1",), 3, id="commuting-q3"),
    pytest.param(SQUARE_ZERO, 3, id="square-zero-q3")])
def test_worker_split_over_first_matrix(monkeypatch, rels, q):
    # a worker's range covers cells of the first matrix, not whole tuples;
    # over F_3 an orbit's tuples spread over several ranges, and each range
    # counts the representatives whose first matrix it holds
    from hilbchow.counting import _ranges, count_range, first_cells
    pres = AlgebraPresentation(GF(q), 2, tuple(parse_nc_poly(r, GF(q), 2)
                                               for r in rels))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    RecordingPool.made = []
    multi = enumerate_points(pres, 2, workers=3)
    assert RecordingPool.made == [3]
    assert multi == enumerate_points(pres, 2, workers=1)
    cells = list(first_cells(q, 2))
    parts = [count_range(pres, 2, cells[a:b]) for a, b in _ranges(len(cells), 3)]
    whole = count_range(pres, 2, cells)
    assert tuple(map(sum, zip(*parts))) == whole
    assert whole == (multi.total_rep_points, multi.total_cyclic_pairs)
    assert whole == naive_count(pres, 2)


def test_presentations_survive_the_worker_hand_off():
    # worker processes receive the parsed presentation by pickle, so it must
    # come back equal, print the same text and count the same
    from hilbchow.counting import count_range, first_cells
    for field, rels in ((QQ, ("x1*x2 - 1/2*x2*x1", "x1^2 - 3")),
                        (GF(3), ("x1*x2 - 2*x2*x1", "x2^3 - x2")),
                        (GF(2), ("x1*x2 - x2*x1",))):
        pres = AlgebraPresentation(field, 2, tuple(parse_nc_poly(r, field, 2)
                                                   for r in rels))
        back = pickle.loads(pickle.dumps(pres))
        assert back == pres and back.to_text() == pres.to_text()
        if field.characteristic:
            cells = list(first_cells(field.p, 2))
            assert count_range(back, 2, cells) == count_range(pres, 2, cells)


def test_report_text_roundtrip():
    report = enumerate_points(curve_pres(3), 1)
    parsed = EnumerationReport.from_text(report.to_text())
    assert parsed == report
    assert parsed.elapsed_ms == report.elapsed_ms
    bare = EnumerationReport.from_text(report.to_text(include_elapsed=False))
    assert bare == report


def test_budget_env_override(monkeypatch):
    from hilbchow.counting import configured_budget
    from hilbchow.errors import BUDGET_ENV
    monkeypatch.setenv(BUDGET_ENV, "123")
    assert configured_budget() == 123
    monkeypatch.delenv(BUDGET_ENV)
    assert configured_budget() == 2 ** 30


def test_malformed_budget_env_is_parse_error(monkeypatch):
    from hilbchow.counting import configured_budget
    from hilbchow.errors import BUDGET_ENV
    monkeypatch.setenv(BUDGET_ENV, "2**20")
    with pytest.raises(ParseError, match="bad HILBCHOW_BUDGET value"):
        configured_budget()
    # ParseError is a ValueError, so callers that catch ValueError keep working
    with pytest.raises(ValueError):
        enumerate_points(curve_pres(2), 1)


# the sweep on vector codes must match a brute force with its own matrix
# product and elimination
GENERIC_CASES = [
    (curve_pres(2), 2), (curve_pres(3), 2), (curve_pres(2), 3),
    (commuting_pres(2), 2), (AlgebraPresentation(GF(2), 2), 2),
    (presentation(3, 1, "x1^2 - 1"), 2), (presentation(5, 1, "x1^3 - x1"), 2),
    (presentation(3, 2, "x1^2", "x1*x2", "x2*x1", "x2^2"), 2),
    # the sweep walks one tuple per orbit of diag(1, d_2, ..., d_n): three
    # components at n = 3, and x1^2 = 0 leaves X1 zero or of rank one, so
    # X2 is walked from two components as well as one
    (presentation(3, 1, "x1^2"), 3), (presentation(3, 1, "x1^3 - x1"), 3),
    (presentation(3, 2, "x1^2", "x2^2"), 2),
    # the first matrix walks Krylov cells: leaves under a cyclic cell skip
    # their tests, and with m > 1 so do whole subtrees
    (presentation(3, 1, "x1^2"), 3), (presentation(2, 3), 2),
    (presentation(3, 2, "x1*x2 - x2*x1"), 2),
    (presentation(3, 2, "x1*x2 - x2*x1 - 1"), 2),
    # two relations tested at one level that share the word x1*x2, one of
    # them with a constant term
    (presentation(3, 2, "x1*x2 - x2*x1", "x1*x2 - x1^2 + 1"), 2),
    # a relation in a later generator alone filters its representatives,
    # and counts as a later relation for the completions of a cyclic X1
    (presentation(3, 2, "x2^2"), 2),
    (presentation(3, 2, "x2^2 - 1", "x1*x2 + x2*x1"), 2),
    (presentation(2, 3, "x2^2 - x2", "x3^3", "x1*x3 - x3*x1"), 2),
    # x1^40 stays one power at n = 2, x1^2 goes letter by letter
    (presentation(2, 2, "x1^2*x2*x1^40 - x2*x1"), 2),
    # a relation in x1 alone is tested on e_1 and the columns past the
    # cell's span, at q = 7 with seven eigenvalues for X1
    (presentation(7, 1, "x1^3 - x1"), 2),
    # a sum of three terms, one with coefficient 2, decoded and reduced
    (presentation(3, 2, "x1^2*x2 + 2*x2*x1 - x1"), 2),
    # a repeated block applied by lookups, letter by letter
    (presentation(3, 2, "(x1*x2)^5 - x1"), 2),
]


def case_id(case):
    pres, n = case
    rels = ",".join(str(r).replace(" ", "") for r in pres.relations)
    return f"q{pres.field.p}-m{pres.m}-n{n}-{rels or 'free'}"


@pytest.mark.parametrize("pres,n", GENERIC_CASES,
                         ids=[case_id(case) for case in GENERIC_CASES])
def test_fast_sweep_agrees_with_generic_operations(pres, n):
    report = enumerate_points(pres, n)
    assert (report.total_rep_points, report.total_cyclic_pairs) == \
        naive_count(pres, n)


def test_curve_cross_check_all_small_cases():
    # n <= 3 and q in {2, 3}
    for q in (2, 3):
        for n in (1, 2, 3):
            report = enumerate_points(curve_pres(q), n, workers=2)
            assert report.orbit_count == q ** n


class RecordingPool:
    "In-process stand-in for ProcessPoolExecutor; records max_workers."

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("n,cpus,expected", [(1, 4, 2), (2, 4, 4), (2, 1, None)],
                         ids=["two-tuples", "four-cpus", "one-cpu"])
def test_worker_count_is_capped(monkeypatch, n, cpus, expected):
    # a pool starts all its processes at once, so --workers 100000 must not
    # ask for more than the cells of the first matrix (2 for n = 1) or the CPUs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingPool.made = []
    report = enumerate_points(curve_pres(2), n, workers=100000)
    assert RecordingPool.made == ([] if expected is None else [expected])
    assert report == enumerate_points(curve_pres(2), n, workers=1)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 5) for n in (1, 2, 3)])
def test_cells_have_their_krylov_dimension(q, n):
    from hilbchow.counting import first_cells
    for mat, _, _, d in first_cells(q, n):
        assert in_krylov_cell(mat, d)
        assert krylov_dimension(mat, q) == d


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_cells_stand_for_each_krylov_stratum(q, n):
    # the weights of cell d add up to the number of matrices of Krylov
    # dimension d, and its representatives lie in distinct orbits of
    # diag(1_d, t_(d+1), ..., t_n) that cover N_d, each weighing w_d times
    # its orbit size
    from hilbchow.counting import first_cells
    strata, members = Counter(), Counter()
    for entries in itertools.product(range(q), repeat=n * n):
        mat = tuple(zip(*[iter(entries)] * n))
        strata[krylov_dimension(mat, q)] += 1
        members.update(d for d in range(1, n + 1) if in_krylov_cell(mat, d))
    totals, orbits = Counter(), defaultdict(list)
    for mat, weight, _, d in first_cells(q, n):
        totals[d] += weight
        orbits[d].append((torus_orbit(mat, d, q), weight))
    assert totals == strata
    for d in range(1, n + 1):
        w_d, rest = divmod(strata[d], members[d])
        assert rest == 0
        union = set().union(*[orbit for orbit, _ in orbits[d]])
        assert len(union) == sum(len(orbit) for orbit, _ in orbits[d]) == members[d]
        assert all(weight == w_d * len(orbit) for orbit, weight in orbits[d])


def test_cell_weights_are_asserted(monkeypatch):
    # a cell weight that lost a factor must stop the run before it counts
    from hilbchow import counting
    cells = counting.first_cells

    def short(p, n):
        return [(mat, weight // (p ** n - p) if d == n else weight, comp, d)
                for mat, weight, comp, d in cells(p, n)]

    monkeypatch.setattr(counting, "first_cells", short)
    with pytest.raises(AssertionError, match="cell weights"):
        enumerate_points(curve_pres(3), 2)


def test_long_relation_words_over_fp():
    # over F_3 at n = 2, X^10000 = X exactly when X^4 = X: a nonzero
    # eigenvalue has order dividing 9999 and 8 or 2, so it is 1, and
    # (1 + N)^k = 1 + kN with k = 1 mod 3, while a nonzero nilpotent fails
    long, short = (enumerate_points(presentation(3, 1, f"x1^{k} - x1"), 2)
                   for k in (10000, 4))
    assert long == short
    assert (short.total_rep_points, short.total_cyclic_pairs) == \
        naive_count(presentation(3, 1, "x1^4 - x1"), 2)


def count_kernels(monkeypatch, lookups=False):
    """Counter of the sweep's image fills (`__missing__`), `linalg.mat_mul`
    calls and, if asked, lookups (`__getitem__`) from here on, and the image
    tables that computed an image, by id (kept alive, so ids stay apart)."""
    from hilbchow import counting, linalg
    made, tables = Counter(), {}
    fill, lookup, mat_mul = (counting._Images.__missing__, dict.__getitem__,
                             linalg.mat_mul)

    def counted_fill(table, code):
        made["__missing__"] += 1
        tables[id(table)] = table
        return fill(table, code)

    def counted_lookup(table, code):
        made["__getitem__"] += 1
        return lookup(table, code)

    def counted_mul(*args):
        made["mat_mul"] += 1
        return mat_mul(*args)

    monkeypatch.setattr(counting._Images, "__missing__", counted_fill)
    if lookups:
        monkeypatch.setattr(counting._Images, "__getitem__", counted_lookup)
    monkeypatch.setattr(linalg, "mat_mul", counted_mul)
    return made, tables


def test_long_runs_are_powered_not_applied_letter_by_letter(monkeypatch):
    # x1^10000 is one mat_pow per cell, about 2 log2(10000) products, and
    # one lookup a column, not 10000; counted through the kernels, not a timer
    from hilbchow import counting
    cells = list(counting.first_cells(3, 2))
    expected = counting.count_range(presentation(3, 1, "x1^4 - x1"), 2, cells)
    made, _ = count_kernels(monkeypatch, lookups=True)
    got = counting.count_range(presentation(3, 1, "x1^10000 - x1"), 2, cells)
    assert got == expected
    assert made["__missing__"] and made["mat_mul"]
    assert made["__missing__"] + made["mat_mul"] <= len(cells) * 2 * (10000).bit_length()
    # two terms on at most two columns a cell
    assert made["__getitem__"] <= len(cells) * 2 * 2


def test_long_words_compute_each_image_once(monkeypatch):
    # no run of (x1*x2)^1000 is a power, so a column walks 2000 lookups,
    # but a table computes the image of each of the q^n codes at most once,
    # so the images computed do not grow with the word
    q, n = 3, 2
    counts = {}
    for k in (1000, 5):
        made, tables = count_kernels(monkeypatch)
        report = enumerate_points(presentation(q, 2, f"(x1*x2)^{k} - x1"), n)
        assert (report.total_rep_points, report.total_cyclic_pairs,
                report.orbit_count) == (345, 1872, 39)
        assert all(0 < len(table) <= q ** n for table in tables.values())
        assert made["__missing__"] == sum(map(len, tables.values()))
        counts[k] = len(tables)
    # the same matrices are walked, so the same bound q^n * tables holds
    assert counts[1000] == counts[5]


@pytest.mark.parametrize("q,m,n,rel", [
    (3, 2, 2, "(x1*x2)^5 - x1"), (2, 2, 3, "x1*x2 - x2*x1"),
    (3, 1, 2, "x1^10000 - x1"), (5, 2, 2, "x1*x2 - 2*x2*x1"),
    # n = 1 at a large prime: each cell's tables hold e_1's image only
    (10007, 1, 1, "x1^2 - x1")])
def test_image_tables_hold_only_what_they_computed(monkeypatch, q, m, n, rel):
    # tables are filled on use, never allocated q^n entries up front
    made, tables = count_kernels(monkeypatch)
    report = enumerate_points(presentation(q, m, rel), n)
    assert report.total_rep_points
    assert sum(map(len, tables.values())) == made["__missing__"]
    assert max(map(len, tables.values())) <= (q ** n if n > 1 else 1)


@pytest.mark.parametrize("q,m,n,rel", [
    (3, 2, 2, "(x1*x2)^5 - x1"), (3, 1, 2, "x1^10000 - x1"),
    (5, 2, 2, "x1*x2 - 2*x2*x1"), (3, 2, 2, "x1^2*x2 + 2*x2*x1 - x1"),
    # n = 1 at a large prime: one sum a cell, x1^2 e_1 - x1 e_1
    (10007, 1, 1, "x1^2 - x1")])
def test_sum_memos_hold_only_what_they_computed(monkeypatch, q, m, n, rel):
    # a relation sum keeps the code of s + a v for each (s, a, v) it met,
    # filled on use, at most q^(2n) (q - 1) of them; a span keeps the q - 1
    # shifts s + a v for each (s, v) it met, at most q^(2n) of them
    import functools
    from hilbchow import counting
    made, memos, widths = Counter(), [], set()

    def counted_cache(fill):
        def counted(*key):
            made[len(key)] += 1
            out = fill(*key)
            if len(key) == 2:
                widths.add(len(out))
            return out
        memo = functools.cache(counted)
        memos.append(memo)
        return memo

    monkeypatch.setattr(counting, "cache", counted_cache)
    report = enumerate_points(presentation(q, m, rel), n)
    assert report.total_rep_points
    sizes = [memo.cache_info().currsize for memo in memos]
    sums, shifts = sizes[0], sizes[1:]
    assert 0 < sums == made[3] <= (q ** (2 * n) * (q - 1) if n > 1 else q)
    assert len(shifts) == (m > 1)
    assert sum(shifts) == made[2] <= q ** (2 * n)
    assert widths == ({q - 1} if m > 1 else set())


def test_relations_in_x1_alone_are_tested_past_the_cells_span():
    # f(X_1) maps e_1 to 0 on a cell N_d and so kills span(e_1..e_d), but
    # not always e_(d+1..n): x1^2 on the d = 1 cells of F_3 at n = 2
    from hilbchow import counting, linalg
    q, n = 3, 2
    pres = presentation(q, 1, "x1^2")
    cols = [list(zip(*linalg.mat_pow(mat, 2, q)))
            for mat, _, _, d in counting.first_cells(q, n) if d < n]
    assert any(not any(c[0]) and any(c[1]) for c in cols)
    report = enumerate_points(pres, n)
    assert (report.total_rep_points, report.total_cyclic_pairs) == \
        naive_count(pres, n)

"""Exact-arithmetic checks for the integer homology toolbox.

The Smith normal form implementation is cross-checked against sympy's,
which serves as an independent oracle, and the sparse determinant against
sympy's and a dense elimination in natural order; everything downstream (group
presentations, subgroup indices) is checked against hand-computed values.
"""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from det_oracle import dense_bareiss_det
from h1_oracle import group_from_presentation
from loop_class_oracle import LoopClass

from hkdiag.homology import (
    AbelianGroup,
    INFINITE,
    IntMatrix,
    LaurentPoly,
    bareiss_det,
    invariant_factors_of,
    meridional_pair_predict,
    smith_normal_form,
    subgroup_index,
)


def random_unimodular(rng, n: int, steps: int = 12) -> IntMatrix:
    """A random unimodular matrix built from elementary row operations,
    for randomized invariance checks (D(M) == D(P @ M @ Q))."""
    a = [list(row) for row in IntMatrix.identity(n).entries]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif op == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return IntMatrix.from_rows(a)


def random_matrix(rng, max_dim=6, bound=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_decomposition_is_exact():
    rng = random.Random(20210)
    for _ in range(300):
        m = random_matrix(rng)
        d, u, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = [x for x in d.diagonal() if x]
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # off-diagonal entries must all be zero
        for i, row in enumerate(d.entries):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_snf_matches_sympy():
    rng = random.Random(999)
    for _ in range(200):
        m = random_matrix(rng, max_dim=5, bound=15)
        expected = tuple(
            int(x) for x in sympy_invariant_factors(Matrix(m.entries), domain=ZZ) if x != 0
        )
        assert invariant_factors_of(m) == expected


def test_invariant_factors_stable_under_unimodular_change():
    rng = random.Random(4242)
    for _ in range(120):
        m = random_matrix(rng, max_dim=5, bound=10)
        p = random_unimodular(rng, m.nrows)
        q = random_unimodular(rng, m.ncols)
        assert invariant_factors_of(p @ m @ q) == invariant_factors_of(m)


def test_det_matches_sympy():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        assert m.det() == int(Matrix(m.entries).det())


def test_presentation_hand_cases():
    assert group_from_presentation(2, [[2, 0]]) == AbelianGroup(1, (2,))
    assert group_from_presentation(2, [[1, 1]]) == AbelianGroup(1)
    assert group_from_presentation(3, []) == AbelianGroup(3)
    assert group_from_presentation(2, [[2, 0], [0, 4]]) == AbelianGroup(0, (2, 4))
    assert group_from_presentation(1, [[1]]) == AbelianGroup(0)


def test_group_str():
    assert str(AbelianGroup(2)) == "Z^2"
    assert str(AbelianGroup(1, (3,))) == "Z x Z/3"
    assert str(AbelianGroup(0)) == "1"


def test_group_rejects_bad_invariants():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


@pytest.mark.parametrize(
    "classes, expected",
    [
        ([(1, 0), (0, 1)], 1),
        ([(2, 0), (0, 3)], 6),
        ([(1, 1), (1, -1)], 2),
        ([(1, 0), (2, 0)], INFINITE),
        ([(0, 0)], INFINITE),
    ],
)
def test_subgroup_index(classes, expected):
    got = subgroup_index(classes)
    if expected is INFINITE:
        assert got is INFINITE
    else:
        assert got == expected


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IntMatrix.from_rows([[1.5]]), TypeError),
        (lambda: IntMatrix.from_rows([["2"]]), TypeError),
        (lambda: subgroup_index([(1.9, 0), (0, 2.5)]), TypeError),
        (lambda: AbelianGroup(1.5), TypeError),
        (lambda: AbelianGroup(2, (2.0, 4.0)), TypeError),
        (lambda: subgroup_index([]), ValueError),
        (lambda: subgroup_index([(1, 0), (1,)]), ValueError),
        (lambda: subgroup_index([(), (1,)]), ValueError),
        (lambda: bareiss_det([[1.5, 2], [3, 5]]), TypeError),
        (lambda: bareiss_det([[2, 1.5, 0], [1, 2, 1], [0, 1, 2]]), TypeError),
        (lambda: bareiss_det([[0.0]]), TypeError),
        (lambda: LaurentPoly.from_dict({0: 1.5, 2.0: 2}), TypeError),
        (lambda: LaurentPoly.constant(1.5), TypeError),
        (lambda: LaurentPoly.t(2.0), TypeError),
        (lambda: LaurentPoly.t(1, 0.5), TypeError),
        (lambda: bareiss_det([[2, 1], [1, 2]], one=1.0), TypeError),
        (lambda: LaurentPoly(((0, 1.5), (2.0, 2))), TypeError),
        (lambda: LaurentPoly.t(1) * LaurentPoly(((0.5, 2),)), TypeError),
        (lambda: LaurentPoly([(0, 1)]), TypeError),
        (lambda: LaurentPoly(((0, 1, 2),)), TypeError),
        (lambda: LaurentPoly(((2, 1), (0, 1))), ValueError),
        (lambda: LaurentPoly(((1, 1), (1, 2))), ValueError),
        (lambda: LaurentPoly(((0, 0),)), ValueError),
    ],
    ids=["float-entry", "str-entry", "float-classes", "float-rank", "float-factors",
         "no-classes", "ragged-classes", "ragged-after-empty", "float-det-2x2",
         "float-det-3x3", "float-zero-det", "float-laurent-terms", "float-laurent-constant",
         "float-laurent-exponent", "float-laurent-coefficient", "float-det-unit",
         "float-laurent-init", "float-laurent-factor", "list-laurent-init",
         "triple-laurent-term", "unsorted-laurent-init", "repeated-laurent-exponent",
         "zero-laurent-coefficient"],
)
def test_bad_values_are_refused_where_built(build, error):
    """A float or a string is refused where the value is built, not rounded,
    and so are an empty or ragged set of classes. A determinant of floats is
    refused, not computed with inexact division (it read 1.0 and 2.0 for
    1.5 and 3), and so is a float unit (3.0 for 3). LaurentPoly's own
    constructor refuses what its sorted sparse form cannot hold: non-int
    terms, and exponents out of order or repeated, or a zero coefficient
    (which printed as "1 + t^2" and as a truthy "-0")."""
    with pytest.raises(error):
        build()


def test_loop_class_arithmetic():
    a = LoopClass((1, 2))
    b = LoopClass((3, -2))
    assert a + b == LoopClass((4, 0))
    assert -a == LoopClass((-1, -2))
    assert a.scaled(3) == LoopClass((3, 6))
    assert LoopClass((0, 0)).is_zero
    with pytest.raises(ValueError):
        a + LoopClass((1,))


def test_meridional_pair_index_is_abs_p():
    """The pair spans an index-|p| subgroup whenever p is nonzero."""
    rng = random.Random(5150)
    for _ in range(100):
        p = rng.choice([x for x in range(-50, 51) if x != 0])
        p1 = rng.randint(-50, 50)
        pair = meridional_pair_predict(p, 1, p1)
        assert subgroup_index(pair) == abs(p)
        mirrored = meridional_pair_predict(p, 1, p1, mirror=True)
        assert subgroup_index(mirrored) == abs(p)


def test_meridional_pair_degenerates_at_p_zero():
    pair = meridional_pair_predict(0, 1, 1)
    assert pair == ((1, -1), (0, 0))
    assert subgroup_index(pair) is INFINITE


def test_meridional_pair_requires_lowest_terms():
    with pytest.raises(ValueError):
        meridional_pair_predict(4, 2, 1)


def test_laurent_arithmetic():
    t = LaurentPoly.t()
    one = LaurentPoly.constant(1)
    p = t * t - t + one
    assert str(p) == "t^2 - t + 1"
    assert p.coeff(2) == 1 and p.coeff(1) == -1 and p.coeff(0) == 1
    assert sum(c for _, c in p.terms) == 1
    assert (p - p).is_zero
    q = LaurentPoly.from_dict({-1: 1, 1: 1})
    assert (q * q) == LaurentPoly.from_dict({-2: 1, 0: 2, 2: 1})


def test_laurent_normalization():
    p = LaurentPoly.from_dict({-3: -2, -1: 2})
    n = p.normalized()
    assert n == LaurentPoly.from_dict({0: 2, 2: -2}).normalized()
    assert min(e for e, _ in n.terms) == 0
    assert p.normalized() == LaurentPoly.from_dict({4: 2, 2: -2}).normalized()
    assert p.normalized() != LaurentPoly.constant(1).normalized()


def test_laurent_ring_axioms_spot_check():
    rng = random.Random(31337)

    def rand_poly():
        return LaurentPoly.from_dict(
            {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
        )

    def at_one(p):
        return sum(c for _, c in p.terms)

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert at_one(a) * at_one(b) == at_one(a * b)


# --- exact division and the shared Bareiss elimination ---------------------------


def laurent_polys(low=-3, high=3, nonzero=False):
    terms = st.dictionaries(st.integers(low, high), st.integers(-5, 5), max_size=4)
    polys = terms.map(LaurentPoly.from_dict)
    return polys.filter(bool) if nonzero else polys


def test_laurent_truthiness():
    assert not LaurentPoly()
    assert not LaurentPoly.constant(0)
    assert LaurentPoly.t(-2)
    assert LaurentPoly.constant(-1)


@settings(max_examples=300, deadline=None)
@given(laurent_polys(), laurent_polys(nonzero=True))
def test_laurent_exact_division_undoes_multiplication(p, q):
    assert (p * q) // q == p


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys(nonzero=True))
def test_laurent_arithmetic_builds_what_the_constructor_accepts(p, q):
    """Arithmetic builds its results without the constructor's check, so
    each must pass it."""
    monomial = LaurentPoly(q.terms[:1])
    for value in (p + q, p - q, p * q, -p, p.normalized(), (p * q) // q,
                  (p * monomial) // monomial):
        assert LaurentPoly(value.terms) == value


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys(nonzero=True).filter(lambda q: len(q.terms) > 1),
       st.integers(-4, 4), st.sampled_from((-3, -1, 1, 2)))
def test_laurent_inexact_division_raises(p, q, e, c):
    """A polynomial of two or more terms divides no nonzero monomial, so it
    cannot divide p*q plus one."""
    with pytest.raises(ValueError):
        (p * q + LaurentPoly.t(e, c)) // q


def test_laurent_division_hand_cases():
    t = LaurentPoly.t()
    one = LaurentPoly.constant(1)
    assert (t * t - one) // (t - one) == t + one
    assert LaurentPoly.from_dict({-1: 4, 2: 6}) // LaurentPoly.t(-3, 2) == LaurentPoly.from_dict(
        {2: 2, 5: 3})
    assert LaurentPoly() // t == LaurentPoly()
    with pytest.raises(ValueError):
        LaurentPoly.constant(3) // LaurentPoly.constant(2)
    with pytest.raises(ValueError):
        (t * t + one) // (t + one)
    with pytest.raises(ZeroDivisionError):
        t // LaurentPoly()


def _sympy_poly(p: LaurentPoly, t):
    return sum((c * t**e for e, c in p.terms), sympy.Integer(0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(laurent_polys(-2, 2), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_bareiss_det_over_laurent_polys_matches_sympy(rows):
    """Multiplying every entry by t^2 clears the negative exponents and
    scales the determinant by t^(2n), so sympy can take it over Z[t]."""
    t = sympy.Symbol("t")
    ring = ZZ[t]
    n = len(rows)
    det = bareiss_det(rows, LaurentPoly.constant(1)) * LaurentPoly.t(2 * n)
    cleared = DomainMatrix(
        [[ring.from_sympy(sympy.expand(_sympy_poly(x, t) * t**2)) for x in row] for row in rows],
        (n, n), ring)
    assert sympy.expand(_sympy_poly(det, t) - ring.to_sympy(cleared.det())) == 0


def test_bareiss_det_on_sparse_integer_matrices_matches_sympy():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(0, 6)
        rows = [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows) == (int(Matrix(rows).det()) if n else 1)


def test_bareiss_det_hand_cases():
    one, t, zero = LaurentPoly.constant(1), LaurentPoly.t(), LaurentPoly()
    assert bareiss_det([]) == 1
    assert bareiss_det([], one) == one
    assert bareiss_det([[-7]]) == -7
    assert bareiss_det([[t - one]], one) == t - one
    assert bareiss_det([[0]]) == 0
    assert bareiss_det([[zero, t], [zero, one]], one) == zero
    # the only cost-0 pivot of row 0 sits in column 1, so pivot rows go to
    # pivot columns by a transposition: the sign is the permutation's alone
    assert bareiss_det([[1, 1], [1, 0]]) == -1
    assert bareiss_det([[one, t], [t, zero]], one) == -(t * t)
    assert bareiss_det([[0, 2, 0, 0], [3, 0, 0, 1], [0, 0, 5, 0], [0, 0, 0, 7]]) == -210


@st.composite
def fox_matrices(draw):
    """Matrices shaped like the Fox matrix of alexander_polynomial: for m
    arcs, row j holds t^(+-1) at column j, 1 - t^(+-1) at a drawn over arc
    and -1 at column j + 1 mod m, the last column is dropped, and up to
    three rows are replaced by random ones. Order m - 1 <= 14."""
    m = draw(st.integers(2, 15))
    one = LaurentPoly.constant(1)
    rows = []
    for j in range(m - 1):
        t = LaurentPoly.t(draw(st.sampled_from((1, -1))))
        row = [LaurentPoly()] * m
        for col, entry in ((j, t), (draw(st.integers(0, m - 1)), one - t), ((j + 1) % m, -one)):
            row[col] = row[col] + entry
        rows.append(row[: m - 1])
    entry = st.one_of(st.just(LaurentPoly()), laurent_polys(-2, 2))
    for j in draw(st.lists(st.integers(0, m - 2), max_size=3)):
        rows[j] = draw(st.lists(entry, min_size=m - 1, max_size=m - 1))
    return rows


@settings(max_examples=75, deadline=None)
@given(fox_matrices())
def test_bareiss_det_matches_dense_elimination_on_fox_matrices(rows):
    one = LaurentPoly.constant(1)
    assert bareiss_det(rows, one) == dense_bareiss_det(rows, one)


@st.composite
def integer_matrices(draw):
    """Sparse integer matrices of order at most 10; some have a row that
    combines two others, some an all-zero column."""
    n = draw(st.integers(0, 10))
    flat = draw(st.lists(st.integers(-6, 6).map(lambda x: x if x % 3 else 0),
                         min_size=n * n, max_size=n * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        others = st.sampled_from([k for k in range(n) if k != i])
        j, k, a, b = draw(others), draw(others), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    if n and draw(st.booleans()):
        column = draw(st.integers(0, n - 1))
        for row in rows:
            row[column] = 0
    return rows


@settings(max_examples=120, deadline=None)
@given(integer_matrices())
def test_bareiss_det_matches_dense_elimination_on_integer_matrices(rows):
    assert bareiss_det(rows) == dense_bareiss_det(rows)

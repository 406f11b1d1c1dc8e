"""The Alexander polynomial against the reduced Burau representation.

For a braid b on s strands whose closure is a knot,

    Delta(closure of b) = det(I - R(b)) * (1 - t) / (1 - t^s)

up to a unit +-t^k, where R is the reduced Burau representation (Burau
1936; Birman, Braids, Links and Mapping Class Groups, 1974, Thm 3.11). The
oracle below is computed with sympy alone. Mirroring a braid inverts t and
the Alexander polynomial is symmetric, so the handedness convention of the
generators does not matter.

A second oracle checks the unit eliminations that `alexander_polynomial`
makes before its determinant: the dense determinant of the unreduced Fox
minor (`fox_oracle.py`, `det_oracle.py`) on any one-circle code, virtual
ones included, and on braid closures padded with cancelling pairs and kinks,
with any one column of the minor left out. `fox_oracle.reducible` checks
that the eliminations stop only when no unit pivot is left.

A third checks the determinant of the reduced minor, taken over the ints at
t = 2^B up to order `_INT_DET_MAX_ORDER`: it must equal `bareiss_det` over
LaurentPoly of the same rows, and the balanced digits must decode every
coefficient the bound allows.
"""

from unittest import mock

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from det_oracle import dense_bareiss_det
from fox_oracle import fox_minor, fox_rows, reducible
from hkdiag import wirtinger
from hkdiag.homology import LaurentPoly, bareiss_det
from hkdiag.spatial import Crossing, EdgeCode, Pass, SpatialGraphCode, closed_braid
from hkdiag.wirtinger import (
    _INT_DET_MAX_ORDER,
    _balanced_digits,
    _eliminate_units,
    _minor_det,
    alexander_polynomial,
)

T = sympy.Symbol("t")
RING = sympy.ZZ[T]


def reduced_burau(i: int, strands: int) -> sympy.Matrix:
    """The (s-1)x(s-1) reduced Burau matrix of the generator sigma_i."""
    m = sympy.eye(strands - 1)
    k = i - 1
    m[k, k] = -T
    if k > 0:
        m[k, k - 1] = T
    if k < strands - 2:
        m[k, k + 1] = 1
    return m


def burau_alexander(word, strands: int) -> LaurentPoly:
    """Delta from the reduced Burau matrices, normalized like the library's.

    t times the inverse of a generator's matrix is polynomial, so with k
    negative letters R(b) = Q / t^k for a polynomial matrix Q, and
    det(I - R(b)) = det(t^k I - Q) up to a unit. Everything stays in Z[t].
    """
    size = strands - 1
    gens = {}
    for i in range(1, strands):
        m = reduced_burau(i, strands)
        for sign, image in ((1, m), (-1, (m.inv() * T).applyfunc(sympy.cancel))):
            gens[i, sign] = DomainMatrix.from_list_sympy(
                size, size, image.tolist()).convert_to(RING)
    q = DomainMatrix.eye(size, RING)
    for letter in word:
        q = q * gens[letter]
    k = sum(1 for _, sign in word if sign == -1)
    det = RING.to_sympy((DomainMatrix.eye(size, RING) * RING.from_sympy(T**k) - q).det())
    delta, rem = sympy.div(sympy.Poly(det, T), sympy.Poly(sum(T**e for e in range(strands)), T))
    assert rem.is_zero
    return LaurentPoly.from_dict({e: int(c) for (e,), c in delta.terms()}).normalized()


@st.composite
def knotted_braids(draw, strand_counts=(3, 4), min_letters=0, max_letters=16):
    """Braid words on one of `strand_counts` strands, of `min_letters` to
    `max_letters` letters, whose closure is a knot. A drawn word is
    completed by letters that each cross two strands of different closed
    components, which merges those components."""
    strands = draw(st.sampled_from(strand_counts))
    letter = st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1)))
    word = draw(st.lists(letter, min_size=min_letters,
                         max_size=max_letters - (strands - 1)))
    while True:
        at = list(range(strands))  # at[p]: the strand that ends at position p
        for i, _ in word:
            at[i - 1], at[i] = at[i], at[i - 1]
        end = {strand: p for p, strand in enumerate(at)}
        component: dict[int, int] = {}
        for start in range(strands):
            x = start
            while x not in component:
                component[x], x = start, end[x]
        split = [j for j in range(1, strands) if component[at[j - 1]] != component[at[j]]]
        if not split:
            assert len(closed_braid(word, strands).edges) == 1
            return word, strands
        word.append((draw(st.sampled_from(split)), draw(st.sampled_from((1, -1)))))


def test_burau_oracle_hand_cases():
    trefoil = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert burau_alexander([(1, 1), (2, 1)] * 2, 3) == trefoil
    assert burau_alexander([(1, 1), (2, -1)] * 2, 3) == LaurentPoly.from_dict(
        {0: 1, 1: -3, 2: 1})


@seed(20260)
@settings(max_examples=80, deadline=None)
@given(knotted_braids())
def test_alexander_polynomial_matches_burau(braid):
    word, strands = braid
    assert alexander_polynomial(closed_braid(word, strands)) == burau_alexander(word, strands)


@seed(20261)
@settings(max_examples=25, deadline=None)
@given(knotted_braids(strand_counts=(5,), min_letters=20, max_letters=30))
def test_alexander_polynomial_matches_burau_on_five_strands(braid):
    word, strands = braid
    assert alexander_polynomial(closed_braid(word, strands)) == burau_alexander(word, strands)


# --- unit eliminations against the unreduced Fox minor -------------------------

ONE = LaurentPoly.constant(1)


def knot_code(passes, signs) -> SpatialGraphCode:
    """A one-circle code from (crossing, position) pairs and crossing signs."""
    edge = EdgeCode("k", None, None, tuple(Pass(c, where) for c, where in passes))
    return SpatialGraphCode("link", (), (edge,), tuple(Crossing(c, s) for c, s in signs.items()))


def minor_det(g) -> LaurentPoly:
    return dense_bareiss_det(fox_minor(g), ONE).normalized()


def bareiss_sizes(g) -> tuple[LaurentPoly, list[int]]:
    """alexander_polynomial(g) and the orders of the matrices it hands to
    bareiss_det."""
    with mock.patch.object(wirtinger, "bareiss_det", wraps=wirtinger.bareiss_det) as det:
        value = alexander_polynomial(g)
    return value, [len(call.args[0]) for call in det.call_args_list]


@st.composite
def gauss_codes(draw):
    """Random one-circle codes of 1-12 crossings: every crossing passed once
    over and once under, in any order, with any signs. Nearly all are
    virtual."""
    n = draw(st.integers(1, 12))
    passes = draw(st.permutations([(f"x{c}", where) for c in range(n)
                                   for where in ("over", "under")]))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return knot_code(passes, {f"x{c}": s for c, s in enumerate(signs)})


@st.composite
def padded_braids(draw):
    """(closure of a knotted braid word, the same closure with cancelling
    pairs s_i s_i^-1 inserted into the word and kinks into the circle)."""
    word, strands = draw(knotted_braids(max_letters=12))
    padded = list(word)
    for _ in range(draw(st.integers(0, 4))):
        i, s = draw(st.integers(1, strands - 1)), draw(st.sampled_from((1, -1)))
        at = draw(st.integers(0, len(padded)))
        padded[at:at] = [(i, s), (i, -s)]
    g = closed_braid(padded, strands)
    passes = [(p.crossing, p.position) for p in g.edges[0].passes]
    signs = {c.id: c.sign for c in g.crossings}
    for n in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(passes)))
        first = draw(st.sampled_from(("over", "under")))
        passes[at:at] = [(f"kink{n}", first), (f"kink{n}", "under" if first == "over" else "over")]
        signs[f"kink{n}"] = draw(st.sampled_from((1, -1)))
    return closed_braid(word, strands), knot_code(passes, signs)


@seed(20262)
@settings(max_examples=200, deadline=None)
@given(gauss_codes())
def test_alexander_polynomial_matches_the_unreduced_minor(g):
    assert alexander_polynomial(g) == minor_det(g)


@seed(20263)
@settings(max_examples=60, deadline=None)
@given(padded_braids())
def test_padding_a_braid_closure_keeps_its_alexander_polynomial(closures):
    plain, padded = closures
    assert alexander_polynomial(padded) == minor_det(padded) == alexander_polynomial(plain)


@seed(20264)
@settings(max_examples=200, deadline=None)
@given(st.one_of(gauss_codes(), padded_braids().map(lambda closures: closures[1])), st.data())
def test_every_column_of_the_minor_gives_the_same_polynomial(g, data):
    """Each Fox row sums to zero, so the minor without row m-1 may leave out
    any column; the library leaves out whichever it numbers last."""
    column = data.draw(st.integers(0, len(fox_minor(g))))
    assert dense_bareiss_det(fox_minor(g, column), ONE).normalized() == alexander_polynomial(g)


def test_a_pair_whose_middle_arc_carries_an_over_pass_is_kept():
    """x2 and x5 are consecutive under-passes of opposite sign under one over
    arc, but the arc between them carries x1's over-pass, which a kept row
    reads, so rule B must not merge it; nothing else reduces either."""
    passes = [("x4", "over"), ("x2", "under"), ("x1", "over"), ("x5", "under"),
              ("x4", "under"), ("x1", "under"), ("x5", "over"), ("x2", "over"),
              ("x3", "over"), ("x3", "under")]
    g = knot_code(passes, {"x1": 1, "x2": -1, "x3": 1, "x4": -1, "x5": 1})
    value, sizes = bareiss_sizes(g)
    assert sizes == [4]
    assert value == minor_det(g) == LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})


def test_the_virtual_trefoil_matches_the_unreduced_minor():
    g = knot_code([("x1", "over"), ("x2", "over"), ("x1", "under"), ("x2", "under")],
                  {"x1": 1, "x2": 1})
    assert alexander_polynomial(g) == minor_det(g) == ONE


def test_cancelling_pairs_leave_the_matrix_size_alone():
    fig8 = [(1, 1), (2, -1), (1, 1), (2, -1)]
    padded = [(1, -1), (1, 1), *fig8[:2], (2, 1), (2, -1), *fig8[2:], (1, 1), (1, -1)]
    value, sizes = bareiss_sizes(closed_braid(fig8, 3))
    assert (value, sizes) == (LaurentPoly.from_dict({0: 1, 1: -3, 2: 1}), [3])
    assert bareiss_sizes(closed_braid(padded, 3)) == (value, sizes)


# Codes whose unit eliminations leave no row: a braid closure of kinks and
# cancelling pairs; a row that is a kink only once an earlier kink merged
# two of its arcs; and a pair (c3, c4) whose middle arc carries the
# over-passes of another pair (c0, c1), so it reduces only once that pair
# has gone.
FULLY_REDUCED = [
    closed_braid([(1, 1), (1, 1), (1, -1), (2, 1), (2, -1), (2, -1)], 3),
    knot_code([("c1", "over"), ("c0", "under"), ("c0", "over"), ("c2", "over"),
               ("c3", "over"), ("c1", "under"), ("c2", "under"), ("c3", "under"),
               ("c4", "over"), ("c4", "under")], {f"c{i}": 1 for i in range(5)}),
    knot_code([("c5", "over"), ("c0", "under"), ("c1", "under"), ("c2", "under"),
               ("c3", "under"), ("c0", "over"), ("c1", "over"), ("c4", "under"),
               ("c2", "over"), ("c5", "under"), ("c3", "over"), ("c4", "over"),
               ("c6", "over"), ("c6", "under")],
              {"c0": 1, "c1": -1, "c2": 1, "c3": 1, "c4": -1, "c5": 1, "c6": 1}),
]


@pytest.mark.parametrize("g", FULLY_REDUCED)
def test_a_code_that_reduces_fully_skips_the_determinant(g):
    assert len(fox_minor(g)) > 1 and minor_det(g) == ONE
    assert bareiss_sizes(g) == (ONE, [])


@seed(20265)
@settings(max_examples=200, deadline=None)
@given(st.one_of(gauss_codes(), padded_braids().map(lambda closures: closures[1])))
def test_the_eliminations_stop_only_when_no_rule_applies(g):
    m, rows = fox_rows(g)
    left = _eliminate_units(rows, m)
    assert all(b == a2 for (_, _, b, _), (a2, _, _, _) in zip(left, left[1:]))
    assert not reducible(left)


def test_a_staircase_of_nested_kinks_reduces_fully():
    """Row k runs from arc k to arc k+1 over arc k+2, and the last row is a
    kink: each elimination makes the row before it a kink."""
    rows = [(k, k + 2, k + 1, (-1) ** k) for k in range(39)] + [(39, 40, 40, 1)]
    assert reducible(rows)
    assert _eliminate_units(rows, 41) == []


# --- the reduced minor's determinant at t = 2^B ---------------------------------


def laurent_minor(kept):
    """The Fox minor of reduced rows (in class, over class, out class,
    sign) over LaurentPoly, t^-1 left in negative rows: entries of a row
    that meets one class twice add up, classes are numbered in the order
    the rows meet them, and the column of the one numbered last goes."""
    one, zero = LaurentPoly.constant(1), LaurentPoly()
    column = {}
    for row in kept:
        for c in row[:3]:
            column.setdefault(c, len(column))
    minor = []
    for a, over, b, s in kept:
        t = LaurentPoly.t(s)
        row = [zero] * len(column)
        for c, entry in ((a, t), (over, one - t), (b, -one)):
            row[column[c]] = row[column[c]] + entry
        minor.append(row[: len(kept)])
    return minor


def laurent_det(kept) -> LaurentPoly:
    return bareiss_det(laurent_minor(kept), ONE).normalized()


def reduced_rows(g):
    m, rows = fox_rows(g)
    return _eliminate_units(rows, m)


@st.composite
def digit_vectors(draw):
    """(H, coefficients): a bound H, often a power of two or one less, and
    coefficients in [-H, H] whose first and last are often -H or H."""
    bound = draw(st.one_of(st.integers(1, 2 ** 80), st.integers(0, 80).map(lambda k: 2 ** k),
                           st.integers(1, 80).map(lambda k: 2 ** k - 1)))
    inner = st.integers(-bound, bound)
    end = st.one_of(st.sampled_from((-bound, bound)), inner)
    return bound, [draw(end), *draw(st.lists(inner, max_size=10)), draw(end)]


@seed(20266)
@settings(max_examples=300, deadline=None)
@given(digit_vectors())
def test_balanced_digits_decode_every_coefficient_within_the_bound(case):
    bound, coeffs = case
    bits = bound.bit_length() + 1
    value = sum(c << (bits * k) for k, c in enumerate(coeffs))
    assert _balanced_digits(value, bits) == {k: c for k, c in enumerate(coeffs) if c}


# T(2,n) is a knot for odd n, and nothing of its minor of order n - 1 reduces
BELOW = _INT_DET_MAX_ORDER + 1 - _INT_DET_MAX_ORDER % 2


@pytest.mark.parametrize("n, ring", [(BELOW, int), (BELOW + 2, LaurentPoly)])
def test_the_order_picks_the_ring_and_both_give_the_laurent_determinant(n, ring):
    g = closed_braid([(1, 1)] * n, 2)
    with mock.patch.object(wirtinger, "bareiss_det", wraps=wirtinger.bareiss_det) as det:
        value = alexander_polynomial(g)
    (call,) = det.call_args_list
    assert len(call.args[0]) == n - 1
    assert all(type(x) is ring for row in call.args[0] for x in row)
    assert value == laurent_det(reduced_rows(g))
    assert value == LaurentPoly.from_dict({e: (-1) ** e for e in range(n)})


@seed(20267)
@settings(max_examples=100, deadline=None)
@given(st.one_of(gauss_codes(), padded_braids().map(lambda closures: closures[1])))
def test_the_integer_determinant_matches_the_laurent_one_on_the_same_rows(g):
    """Padded braid closures reach the determinant with classes that the
    eliminations merged."""
    assert alexander_polynomial(g) == laurent_det(reduced_rows(g))


@st.composite
def class_rows(draw):
    """r <= 12 rows (in class, over class, out class, sign) over the classes
    0..r, any of a row's three classes possibly equal, so entries add up
    and a row's sum of squared norms reaches 8 (in = out) or drops."""
    r = draw(st.integers(1, 12))
    cls = st.integers(0, r)
    return [(draw(cls), draw(cls), draw(cls), draw(st.sampled_from((1, -1)))) for _ in range(r)]


@seed(20268)
@settings(max_examples=200, deadline=None)
@given(class_rows())
def test_rows_that_meet_one_class_twice_keep_the_bound(kept):
    """No row left by the eliminations meets one class twice, so these rows
    are built by hand: both rings must give the Laurent determinant."""
    expected = laurent_det(kept)
    assert _minor_det(kept).normalized() == expected
    with mock.patch.object(wirtinger, "_INT_DET_MAX_ORDER", 0):
        assert _minor_det(kept).normalized() == expected


def test_rows_whose_in_and_out_classes_merged():
    """Row 0 runs from class 0 back into class 0, so its in and out entries
    add up to t - 1. By cofactors along the column of class 2 the minor is
    (1 - t^-1)(1 - t), -t^-1 (t - 1)^2."""
    kept = [(0, 1, 0, 1), (0, 2, 1, -1), (1, 0, 3, 1)]
    expected = LaurentPoly.from_dict({0: 1, 1: -2, 2: 1})
    assert laurent_det(kept) == _minor_det(kept).normalized() == expected
    with mock.patch.object(wirtinger, "_INT_DET_MAX_ORDER", 0):
        assert _minor_det(kept).normalized() == expected

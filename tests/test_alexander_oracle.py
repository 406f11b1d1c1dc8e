"""The Alexander polynomial against the reduced Burau representation.

For a braid b on s strands whose closure is a knot,

    Delta(closure of b) = det(I - R(b)) * (1 - t) / (1 - t^s)

up to a unit +-t^k, where R is the reduced Burau representation (Burau
1936; Birman, Braids, Links and Mapping Class Groups, 1974, Thm 3.11). The
oracle below is computed with sympy alone. Mirroring a braid inverts t and
the Alexander polynomial is symmetric, so the handedness convention of the
generators does not matter.
"""

import sympy
from hypothesis import given, seed, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from hkdiag.homology import LaurentPoly
from hkdiag.spatial import closed_braid
from hkdiag.wirtinger import alexander_polynomial

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

"""Abelianized presentations read off a diagram code.

In the abelianized Wirtinger presentation an under-pass only identifies the
two arcs of one strand that it separates, so the first homology of the
complement is generated by one meridian per edge or circle. What remains is
one relation per trivalent vertex, balancing the meridians of its three
ends. The Smith normal form of that small relation matrix gives the group
and exact integer coordinates for every meridian.

Splitting the circle of a knot code at its under-passes gives the arcs of
the Fox-calculus matrix of the one-variable Alexander polynomial. Row j
runs from arc j into arc j+1, so once the last row is dropped the rows
chain the arcs from first to last. Unit pivots are then eliminated (rules
A and B of `alexander_polynomial`) by sweeps of a stack along that chain;
both rules only contract it, so r rows left span r+1 arc classes, and
rows consecutive among those left share an arc. Every row sums to zero, so
any one column may go, and each elimination changes the determinant by a
unit +-t^k only (Crowell and Fox, 1963, ch. VII), on planar and virtual
codes alike. The minor left is evaluated at t = 2^B (Kronecker
substitution), so its determinant is one sparse Bareiss elimination over
the ints, every division exact. B comes from Hadamard's bound on the
coefficients, so the balanced base-2^B digits of that integer are the
polynomial's coefficients. Above order `_INT_DET_MAX_ORDER` the ints grow
too long and the elimination runs over Z[t, t^-1] instead. Those
polynomials certify that constituent knots of a graph code are knotted.
"""

from __future__ import annotations

import itertools
import math

from . import _EXPORTS
from .errors import StructureError
from .homology import AbelianGroup, IntMatrix, LaurentPoly, smith_normal_form
from .homology import bareiss_det
from .spatial import (
    FactSet,
    SpatialGraphCode,
    _require_valid,
    _restrict,
    constituent_links,
    linking_number,
)

__all__ = list(_EXPORTS["wirtinger"])


def h1_complement(g: SpatialGraphCode) -> tuple[AbelianGroup, dict[str, tuple[int, ...]]]:
    """(group, coords): first homology of the complement, and for each edge
    or circle id, in code order, the coordinates of its meridian in the
    free part.

    The generators are the meridians of the edges and circles, in code
    order. Each trivalent vertex gives one relation: the meridians of the
    edges ending there (head ends) minus those leaving it (tail ends) sum
    to zero. Under-passes add nothing, since in homology they only identify
    arcs of one strand (Rolfsen, Knots and Links, 3.D). For a theta-curve or
    handcuff code the group is free of rank two; for a link code it is free
    of rank the number of components.

    The basis is pinned by the one Smith normal form U R V = D of the
    vertex relation matrix R: if D has r nonzero diagonal entries, the
    meridian of the j-th edge has coordinates V[j][r:]. A link code has no
    relations, so its i-th circle is the i-th unit vector. An invalid code
    raises StructureError.
    """
    _require_valid(g)
    column = {e.id: j for j, e in enumerate(g.edges)}
    rows = []
    for v in g.vertices:
        row = [0] * len(column)
        for eid, side in v.ends:
            row[column[eid]] += 1 if side == 1 else -1
        rows.append(row)
    if rows:
        d, _, basis = smith_normal_form(IntMatrix.from_rows(rows))
        diagonal = [x for x in d.diagonal() if x]
    else:
        basis, diagonal = IntMatrix.identity(len(column)), []
    rank = len(diagonal)
    group = AbelianGroup(len(column) - rank, tuple(x for x in diagonal if x > 1))
    coords = {eid: tuple(basis.entries[j][rank:]) for eid, j in column.items()}
    return group, coords


# --- Alexander polynomial -------------------------------------------------------

# Fox derivative entries of a crossing's row, by sign, as (c0, c1) for
# c0 + c1 t: incoming under arc, over arc, outgoing under arc. A negative
# crossing's row is multiplied by t, which scales the determinant by a unit,
# so every entry has degree at most 1.
_FOX_ENTRIES = {1: ((0, 1), (1, -1), (-1, 0)), -1: ((1, 0), (-1, 1), (0, -1))}

# Largest order of reduced minor whose determinant is taken over the ints at
# t = 2^B. B grows with the order and an entry of the elimination with B
# times its step, while CPython divides long ints in quadratic time; so on
# larger minors whose polynomials stay short, `bareiss_det` over LaurentPoly
# costs less. On 3-5-strand braid closures the ints first lost at order 93
# and lost on most minors above 105; T(2,n) never lost up to order 400.
_INT_DET_MAX_ORDER = 90


def alexander_polynomial(g: SpatialGraphCode) -> LaurentPoly:
    """The one-variable Alexander polynomial of a knot code, normalized.

    The code must be a single-circle link. Rows follow the free derivative
    of the crossing relations: at a positive crossing the incoming under
    arc contributes t, the over arc 1 - t, and the outgoing arc -1; at a
    negative crossing t is inverted. The last row is dropped first, since
    on a virtual code the value depends on which row goes. Unit pivots of
    the rows left are then eliminated until neither rule applies, arcs
    standing for the classes merged so far (`_eliminate_units`):
    (A) a kink row, whose over arc is its incoming or outgoing arc, is
        u (e_in - e_out) for a unit u in {1, t, t^-1}; it goes, and its two
        arcs merge into one column;
    (B) two rows j, k of opposite sign under the same over arc, joined by an
        arc X = out(j) = in(k) that no other row meets, give
        row_k + t^-s row_j = e_in(j) - e_out(k) for s the sign of j; column
        X then holds one unit, so both rows and X go and in(j) merges with
        out(k).
    Each step scales the determinant by a unit +-t^k (Crowell and Fox,
    Introduction to Knot Theory, 1963, ch. VII). The argument is about the
    matrix alone, so it holds for virtual codes too. The column numbered
    last is dropped last: every row sums to zero, so any column gives the
    same minor up to sign. `_minor_det` takes the determinant of what is
    left: one `bareiss_det` over the ints at t = 2^B, B read off Hadamard's
    bound on the coefficients, or over LaurentPoly above order
    `_INT_DET_MAX_ORDER`. It is then shifted to lowest degree zero with
    positive leading coefficient. For codes of genuine knot diagrams the
    value at 1 is a unit; garbage codes make no such promise.
    """
    if g.kind != "link" or len(g.edges) != 1:
        raise StructureError("the Alexander polynomial applies to knot codes")
    e = g.edges[0]
    # Arc j ends at under-pass j, counted from 0, and arc 0 also holds the
    # passes after the last one: an over-pass lies on the arc numbered by
    # the under-passes before it, mod m.
    unders: list[str] = []
    over_arc: dict[str, int] = {}
    for p in e.passes:
        if p.position == "under":
            unders.append(p.crossing)
        else:
            over_arc[p.crossing] = len(unders)
    m = len(unders)
    one = LaurentPoly.constant(1)
    if m <= 1:
        return one
    rows = [(j, over_arc[c] % m, j + 1, g.sign(c)) for j, c in enumerate(unders[: m - 1])]
    kept = _eliminate_units(rows, m)
    if not kept:
        return one
    return _minor_det(kept).normalized()


def _minor_det(kept: list[tuple]) -> LaurentPoly:
    """The determinant, up to a unit +-t^k, of the Fox matrix of `kept`
    rows (in class, over class, out class, sign), each negative row
    multiplied by t, less the column of the class numbered last.

    Entries of rows that meet one class twice add up. Up to order
    `_INT_DET_MAX_ORDER` the minor is evaluated at t = x = 2^B: a positive
    row holds x, 1 - x and -1, a negative one 1, x - 1 and -x, and one
    `bareiss_det` over the ints gives Delta(x). B comes from a bound. On
    the unit circle |a_ij(z)| <= n_ij, the sum of the absolute values of
    the entry's two coefficients, so by Hadamard's inequality
    |Delta(z)| <= sqrt(prod_i sum_j n_ij^2) < H = isqrt(prod_i sum_j n_ij^2)
    + 1, and each coefficient of Delta, an average of Delta over the circle,
    is below H too. With B = bits(H) + 1 every coefficient lies in
    [-2^(B-1), 2^(B-1)), so the balanced base-2^B digits of Delta(x) are
    its coefficients (`_balanced_digits`). The argument uses the matrix
    only, so it holds for virtual codes too. Larger minors are taken by
    `bareiss_det` over LaurentPoly.
    """
    column: dict[int, int] = {}  # class -> column of the smaller matrix
    sparse = []
    for *classes, sign in kept:
        row: dict[int, tuple[int, int]] = {}
        for c, (c0, c1) in zip(classes, _FOX_ENTRIES[sign]):
            k = column.setdefault(c, len(column))
            a0, a1 = row.get(k, (0, 0))
            row[k] = (a0 + c0, a1 + c1)
        sparse.append(row)
    r = len(kept)
    for row in sparse:
        row.pop(r, None)  # the column of the class numbered last

    def dense(entry, zero) -> list[list]:
        return [[entry(row[k]) if k in row else zero for k in range(r)] for row in sparse]

    if r > _INT_DET_MAX_ORDER:
        # one polynomial per distinct entry, not one per slot of the minor
        polys = {pair: LaurentPoly.from_dict({0: pair[0], 1: pair[1]})
                 for pair in {pair for row in sparse for pair in row.values()}}
        return bareiss_det(dense(polys.__getitem__, LaurentPoly()), LaurentPoly.constant(1))
    bound = math.isqrt(math.prod(sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values())
                                 for row in sparse)) + 1
    bits = bound.bit_length() + 1
    det = bareiss_det(dense(lambda pair: pair[0] + (pair[1] << bits), 0))
    return LaurentPoly.from_dict(_balanced_digits(det, bits))


def _balanced_digits(value: int, bits: int) -> dict[int, int]:
    """{k: d_k} with value = sum d_k 2^(bits k), each d_k nonzero and in
    [-2^(bits-1), 2^(bits-1)): the balanced base-2^bits digits of value."""
    digits = {}
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    k = 0
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:  # carry 1 into the next digit
            digit -= 1 << bits
            value += 1
        if digit:
            digits[k] = digit
        k += 1
    return digits


def _eliminate_units(rows: list[tuple[int, int, int, int]], m: int) -> list[tuple]:
    """Rules (A) and (B) of `alexander_polynomial` on the Fox matrix less
    its last row, until neither applies.

    `rows` holds (in arc, over arc, out arc, sign) of the kept rows, arcs
    0..m-1, in chain order. A union-find merges arc classes, and `uses`
    counts the slots of kept rows in each class. Returns the rows left, each
    arc replaced by its class.

    The rows chain from in to out arc, from arc 0 to arc m-1: a path, since
    row m-1, which closes the circle, is dropped first. Both rules only
    contract that chain, so two rows that are consecutive among those left
    share the class between them, and a pair of rule (B) is always the top
    two rows of a stack of the rows in chain order. One sweep pushes the
    rows and eliminates at the top while a rule applies there. A merge or a
    deletion can enable a rule deeper in the stack, so sweeps repeat until
    one changes nothing: at most one sweep more than there are
    eliminations. Keeping all m rows would make the chain a cycle, whose
    first and last rows may also form a pair across the wrap.
    """
    parent = list(range(m))
    uses = [0] * m
    for row in rows:
        for arc in row[:3]:
            uses[arc] += 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    changed = True
    while changed:
        changed, stack = False, []
        for row in rows:
            stack.append(row)
            while stack:
                top = stack[-1]
                a, v, b = map(find, top[:3])
                below = stack[-2] if len(stack) > 1 else None
                if v in (a, b):  # (A) a kink row
                    gone = [top]
                elif below and uses[a] == 2 and find(below[1]) == v and below[3] != top[3]:
                    gone, a = [below, top], find(below[0])  # (B) a pair through class a
                else:
                    break
                del stack[-len(gone):]
                for slot in [arc for r in gone for arc in r[:3]]:
                    uses[find(slot)] -= 1
                parent[b] = a  # b's class merges into a's
                uses[a] += uses[b]
                changed = True
        rows = stack
    return [tuple(map(find, row[:3])) + (row[3],) for row in rows]


def constituent_invariants(g: SpatialGraphCode) -> tuple[dict, dict]:
    """(knots, links): each constituent knot's Alexander polynomial and
    each pair of link components' linking number, computed once.

    The knots are the three "a+b" knots of a theta-curve, the two vertex
    loops of a handcuff, or the circle of a knot code; the pairs are those
    of a constituent link, in code order.
    """
    knots, links = {}, {}
    for piece in constituent_links(g):
        names = [e.id for e in piece.edges]
        if len(names) == 1:
            knots[names[0]] = alexander_polynomial(piece)
            continue
        for a, b in itertools.combinations(names, 2):
            links[a, b] = linking_number(piece, a, b)
        if g.kind == "handcuff":
            for e in piece.edges:
                loop = _restrict(piece, [(e.id, e.passes)], {e.id}, piece._signs)
                knots[e.id] = alexander_polynomial(loop)
    return knots, links


def attach_evidence(g: SpatialGraphCode, facts: FactSet, invariants=None) -> FactSet:
    """Add computable certificates about a theta or handcuff code to a fact set.

    A nontrivial Alexander polynomial certifies that a constituent knot is
    knotted; a nonzero linking number certifies that a handcuff's
    constituent link does not split. Negative results prove nothing and
    leave the facts untouched. Entries land with provenance "computed", so
    a clash with an asserted fact raises ContradictionError. The values
    come from `invariants`, constituent_invariants(g) if not given.
    """
    if g.kind not in ("theta", "handcuff"):
        return facts
    knots, links = constituent_invariants(g) if invariants is None else invariants
    if any(links.values()):
        facts.set("split", False, "computed")
    one = LaurentPoly.constant(1)
    for name, delta in knots.items():
        if delta != one:
            facts.set(f"knot-trivial:{name}", False, "computed")
    return facts

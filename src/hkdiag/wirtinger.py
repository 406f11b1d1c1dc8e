"""Abelianized presentations read off a diagram code.

In the abelianized Wirtinger presentation an under-pass only identifies the
two arcs of one strand that it separates, so the first homology of the
complement is generated by one meridian per edge or circle. What remains is
one relation per trivalent vertex, balancing the meridians of its three
ends. The Smith normal form of that small relation matrix gives the group
and exact integer coordinates for every meridian.

Splitting the circle of a knot code at its under-passes gives the arcs of
the Fox-calculus matrix of the one-variable Alexander polynomial. Its rows
hold at most three nonzeros, so its determinant is taken by sparse Bareiss
elimination over Z[t, t^-1] in Markowitz order, which rescales a row only
when it is next updated or pivoted on, every division exact. Those
polynomials certify that constituent knots of a graph code are knotted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import StructureError
from .homology import AbelianGroup, IntMatrix, LaurentPoly, LoopClass, smith_normal_form
from .homology import bareiss_det
from .spatial import (
    FactSet,
    SpatialGraphCode,
    _require_valid,
    _restrict,
    constituent_links,
    linking_number,
)


@dataclass(frozen=True)
class Meridian:
    """The meridian loop of one edge of the code."""

    edge: str


@dataclass(frozen=True)
class UnderPassWord:
    """A loop described by the crossings it dives under, with signs.

    Each step (crossing id, sign) contributes the signed meridian of the
    strand passing over at that crossing.
    """

    passes: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class EdgeWalk:
    """A closed walk along graph edges; its class is that of the push-off.

    Each step is (edge id, direction) with direction +1 for tail-to-head.
    The push-off runs parallel to the walk, so it picks up the signed
    meridian of the over-strand at every crossing the walk dives under;
    walking an edge backwards flips those contributions.
    """

    steps: tuple[tuple[str, int], ...]


MarkedLoop = Meridian | UnderPassWord | EdgeWalk


@dataclass(frozen=True)
class MeridianMap:
    """Free-part coordinates for the meridian of every edge of a code."""

    group: AbelianGroup
    _coords: dict[str, tuple[int, ...]]

    def edge_class(self, edge_id: str) -> LoopClass:
        """The meridian class of an edge or circle."""
        try:
            return LoopClass(self._coords[edge_id])
        except KeyError:
            raise StructureError(f"no edge named {edge_id!r}") from None

    def zero(self) -> LoopClass:
        return LoopClass((0,) * self.group.free_rank)


def h1_complement(g: SpatialGraphCode) -> tuple[AbelianGroup, MeridianMap]:
    """First homology of the complement, with meridian coordinates.

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
    return group, MeridianMap(group, coords)


def _over_edge(g: SpatialGraphCode, crossing_id: str) -> str:
    for eid, _, position in g.crossing_passes().get(crossing_id, ()):
        if position == "over":
            return eid
    raise StructureError(f"crossing {crossing_id} has no over pass")


def _check_walk(g: SpatialGraphCode, steps: tuple[tuple[str, int], ...]) -> None:
    if not steps:
        raise StructureError("a walk needs at least one step")
    start: str | None = None
    cur: str | None = None
    for eid, direction in steps:
        if direction not in (1, -1):
            raise StructureError("walk directions must be +1 or -1")
        e = g.edge(eid)
        if e.is_circle:
            raise StructureError("walks follow graph edges, not circles")
        s, t = (e.tail, e.head) if direction == 1 else (e.head, e.tail)
        if cur is None:
            start = s
        elif s != cur:
            raise StructureError(f"walk breaks before edge {eid}")
        cur = t
    if cur != start:
        raise StructureError("walk does not close up")


def loop_class(g: SpatialGraphCode, marked: MarkedLoop,
               mapping: MeridianMap | None = None) -> LoopClass:
    """Evaluate a marked loop in the homology of the complement."""
    if mapping is None:
        _, mapping = h1_complement(g)
    if isinstance(marked, Meridian):
        return mapping.edge_class(marked.edge)
    total = mapping.zero()
    if isinstance(marked, UnderPassWord):
        for crossing_id, sign in marked.passes:
            if sign not in (1, -1):
                raise StructureError("under-pass signs must be +1 or -1")
            total = total + mapping.edge_class(_over_edge(g, crossing_id)).scaled(sign)
        return total
    if isinstance(marked, EdgeWalk):
        _check_walk(g, marked.steps)
        for eid, direction in marked.steps:
            for p in g.edge(eid).passes:
                if p.position != "under":
                    continue
                over = _over_edge(g, p.crossing)
                factor = direction * g.sign(p.crossing)
                total = total + mapping.edge_class(over).scaled(factor)
        return total
    raise TypeError(f"not a marked loop: {marked!r}")


def loop_classes(g: SpatialGraphCode, markeds) -> list[LoopClass]:
    """Evaluate several marked loops against one shared meridian map."""
    _, mapping = h1_complement(g)
    return [loop_class(g, marked, mapping) for marked in markeds]


# --- Alexander polynomial -------------------------------------------------------


def alexander_polynomial(g: SpatialGraphCode) -> LaurentPoly:
    """The one-variable Alexander polynomial of a knot code, normalized.

    The code must be a single-circle link. Rows follow the free derivative
    of the crossing relations: at a positive crossing the incoming under
    arc contributes t, the over arc 1 - t, and the outgoing arc -1; at a
    negative crossing t is inverted. One row and one column are dropped,
    and sparse Bareiss elimination over Z[t, t^-1] in Markowitz order,
    with lazy rescaling (`bareiss_det`), takes the determinant, every
    division exact. The result is shifted to lowest degree zero with
    positive leading coefficient. For codes of genuine knot diagrams the
    value at 1 is a unit; garbage codes make no such promise.
    """
    if g.kind != "link" or len(g.edges) != 1:
        raise StructureError("the Alexander polynomial applies to knot codes")
    e = g.edges[0]
    # Arc j runs from the j-th under-pass to the next one, cyclically; the
    # arc through a pass is the count of under-passes before it.
    unders: list[int] = []
    arc_at: list[int] = []
    for i, p in enumerate(e.passes):
        arc_at.append(len(unders))
        if p.position == "under":
            unders.append(i)
    m = len(unders)
    if m <= 1:
        return LaurentPoly.constant(1)

    one = LaurentPoly.constant(1)
    rows = []
    for j, position in enumerate(unders[: m - 1]):
        crossing = e.passes[position].crossing
        t = LaurentPoly.t(1 if g.sign(crossing) == 1 else -1)
        over_pos = next(p for _, p, where in g.crossing_passes()[crossing] if where == "over")
        row = [LaurentPoly()] * m
        for col, entry in ((j, t), (arc_at[over_pos] % m, one - t), ((j + 1) % m, -one)):
            row[col] = row[col] + entry
        rows.append(row[: m - 1])
    return bareiss_det(rows, one).normalized()


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


__all__ = [
    "EdgeWalk",
    "Meridian",
    "MeridianMap",
    "UnderPassWord",
    "alexander_polynomial",
    "attach_evidence",
    "constituent_invariants",
    "h1_complement",
    "loop_class",
    "loop_classes",
]

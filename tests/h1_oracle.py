"""The arc presentation of H1 of a complement, kept as a test oracle.

hkdiag.wirtinger.h1_complement reads the first homology off the edge
presentation: one generator per edge or circle, one relation per trivalent
vertex. This module keeps the construction that it replaced, the full
abelianized Wirtinger presentation. Every strand is split at its
under-passes into arcs, with one generator per arc, one relation per
under-pass identifying the arcs it separates, and one relation per vertex.
The group comes from group_from_presentation, and the coordinates come
from a second Smith normal form of the same matrix.
"""

from hkdiag.homology import AbelianGroup, IntMatrix, invariant_factors_of, smith_normal_form


def group_from_presentation(generators, relations):
    """Group generated by `generators` symbols modulo the relation rows."""
    rows = [list(r) for r in relations]
    for r in rows:
        if len(r) != generators:
            raise ValueError("relation width disagrees with generator count")
    if not rows:
        return AbelianGroup(generators)
    diag = invariant_factors_of(IntMatrix.from_rows(rows))
    return AbelianGroup(generators - len(diag), tuple(x for x in diag if x > 1))


class Arcs:
    """Arc decomposition of a code: strands split at their under-passes."""

    def __init__(self, g):
        self.index = {}
        self.last_arc_of = {}
        self.under_positions = {}
        counter = 0
        for e in g.edges:
            unders = [i for i, p in enumerate(e.passes) if p.position == "under"]
            self.under_positions[e.id] = unders
            n_arcs = max(len(unders), 1) if e.is_circle else len(unders) + 1
            self.last_arc_of[e.id] = n_arcs - 1
            for j in range(n_arcs):
                self.index[(e.id, j)] = counter
                counter += 1
        self.count = counter
        self._circle = {e.id: e.is_circle for e in g.edges}

    def under_pair(self, edge_id, j):
        """Generator indices of the arcs entering and leaving under-pass j."""
        m = len(self.under_positions[edge_id])
        a_in = self.index[(edge_id, j)]
        if self._circle[edge_id]:
            a_out = self.index[(edge_id, (j + 1) % m)]
        else:
            a_out = self.index[(edge_id, j + 1)]
        return a_in, a_out


def relation_rows(g, arcs):
    rows = []
    for e in g.edges:
        for j, _ in enumerate(arcs.under_positions[e.id]):
            a_in, a_out = arcs.under_pair(e.id, j)
            if a_in == a_out:
                continue
            row = [0] * arcs.count
            row[a_out] += 1
            row[a_in] -= 1
            rows.append(row)
    for v in g.vertices:
        row = [0] * arcs.count
        for eid, side in v.ends:
            if side == 1:
                row[arcs.index[(eid, arcs.last_arc_of[eid])]] += 1
            else:
                row[arcs.index[(eid, 0)]] -= 1
        rows.append(row)
    return rows


def arc_h1(g):
    """(group, {edge id: coordinates of the edge's first arc}) from the arcs."""
    arcs = Arcs(g)
    rows = relation_rows(g, arcs)
    group = group_from_presentation(arcs.count, rows)
    if rows:
        d, _, v = smith_normal_form(IntMatrix.from_rows(rows))
        rank = sum(1 for x in d.diagonal() if x != 0)
        coords = [tuple(v.entries[j][rank:]) for j in range(arcs.count)]
    else:
        coords = [tuple(int(i == j) for i in range(arcs.count)) for j in range(arcs.count)]
    return group, {e.id: coords[arcs.index[(e.id, 0)]] for e in g.edges}

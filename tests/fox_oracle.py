"""The unreduced Fox minor of a knot code, built without the library's code.

An oracle for `alexander_polynomial`, which eliminates unit pivots before
its determinant: the minor here keeps every row. Number the under-passes
0..m-1 along the circle. Crossing r (by its under-pass) gives row r:
+t^s at its incoming arc r, +(1 - t^s) at the arc carrying its over-pass,
and -1 at its outgoing arc r+1 mod m, for s its sign. An over-pass lies on
the arc that ends at the next under-pass along the circle, found by walking
forward and wrapping around. Row m-1 is dropped, as the library drops it,
and one column: by default column m-1. Every row sums to zero, so each
choice of column gives the same determinant up to sign.

`reducible` says whether a unit elimination is still possible in the rows
that the library's eliminations leave.
"""

from collections import Counter

from hkdiag.homology import LaurentPoly


def fox_rows(g):
    """(m, rows) of a one-circle link code: its m under-passes, and (in arc,
    over arc, out arc, sign) of each Fox row but row m-1, in order."""
    (edge,) = g.edges
    passes = edge.passes
    sign = {c.id: c.sign for c in g.crossings}
    under_rank = {}
    for i, p in enumerate(passes):
        if p.position == "under":
            under_rank[i] = len(under_rank)
    m = len(under_rank)

    def arc_of(i):
        for step in range(len(passes)):
            j = (i + step) % len(passes)
            if j in under_rank:
                return under_rank[j]

    over_at = {p.crossing: i for i, p in enumerate(passes) if p.position == "over"}
    rows = []
    for i, r in sorted(under_rank.items(), key=lambda item: item[1]):
        crossing = passes[i].crossing
        rows.append((r, arc_of(over_at[crossing]), (r + 1) % m, sign[crossing]))
    return m, rows[: m - 1]


def fox_minor(g, column=-1):
    """The (m-1)x(m-1) minor of the Fox matrix of a one-circle link code
    without row m-1 and column `column` (a list index, -1 for m-1), as
    dense rows of LaurentPoly."""
    m, rows = fox_rows(g)
    one, zero = LaurentPoly.constant(1), LaurentPoly()
    minor = []
    for r, over, out, s in rows:
        t = LaurentPoly.t(s)
        row = [zero] * m
        for arc, entry in ((r, t), (over, one - t), (out, -one)):
            row[arc] = row[arc] + entry
        del row[column]
        minor.append(row)
    return minor


def reducible(rows):
    """Whether a unit elimination applies to rows (in, over, out, sign) of
    arc classes, in chain order: some row is a kink (its over class is its
    in or out class), or two consecutive rows have equal over classes,
    opposite signs, and a shared class that no other slot uses."""
    slots = Counter(c for row in rows for c in row[:3])
    if any(over in (a, b) for a, over, b, _ in rows):
        return True
    return any(b == a2 and slots[b] == 2 and over == over2 and s != s2
               for (_, over, b, s), (a2, over2, _, s2) in zip(rows, rows[1:]))

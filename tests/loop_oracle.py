"""The two-branch looping rewrite, kept as a test oracle.

hkdiag.spatial.loop_at splices the two chosen ends along one path and
special-cases only where the strand ends. This module keeps the
construction it replaced: one branch for a theta-like splice, where the
third edge is re-ended at the ring vertex, and one for a splice through a
vertex loop, where the strand itself closes at the ring vertex. Each branch
orients its own strand and reverses its own edges; only the code types and
the validity check come from the library.
"""

from dataclasses import replace

from hkdiag.spatial import (
    ContradictionError,
    Crossing,
    EdgeCode,
    Pass,
    Provenance,
    SpatialGraphCode,
    StructureError,
    VertexCode,
)


def _check(g):
    if g.violations:
        raise StructureError(f"invalid code: {g.violations[0]}")


def _fresh(prefix, taken):
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def _signs_after_reversing(g, flipped):
    """Each crossing's sign, negated when exactly one of its two strands is
    among the reversed edges."""
    owners = {}
    for e in g.edges:
        for p in e.passes:
            owners.setdefault(p.crossing, []).append(e.id)
    out = {}
    for c in g.crossings:
        pair = owners.get(c.id, [])
        if len(pair) == 2 and (pair[0] in flipped) != (pair[1] in flipped):
            out[c.id] = -c.sign
        else:
            out[c.id] = c.sign
    return out


def two_branch_loop_at(g, vertex_id, pair, kind="plain", mirror=False):
    """Loop g at vertex_id, splicing the two ends of pair; the same contract
    as hkdiag.spatial.loop_at."""
    _check(g)
    if g.kind not in ("theta", "handcuff"):
        raise StructureError("looping applies to theta and handcuff codes")
    if kind not in ("plain", "tunnel", "knot"):
        raise StructureError(f"unknown looping kind {kind!r}")
    v = g.vertex(vertex_id)
    p, q = pair
    if p not in v.ends or q not in v.ends or p == q:
        raise StructureError(f"ends {p} and {q} must be two distinct ends at {vertex_id}")
    (r,) = (end for end in v.ends if end not in (p, q))
    if p[0] == q[0]:
        raise ContradictionError("splicing a loop's two ends onto each other disconnects the graph")
    if p[0] == r[0]:
        p, q = q, p

    w_id = _fresh("w", {w.id for w in g.vertices})
    ring_id = _fresh("c", {e.id for e in g.edges})
    taken_crossings = {c.id for c in g.crossings}
    x1 = _fresh("x", taken_crossings)
    x2 = _fresh("x", taken_crossings | {x1})

    if mirror:
        ring_passes = (Pass(x1, "under"), Pass(x2, "over"))
        strand_insert = (Pass(x1, "over"), Pass(x2, "under"))
        ring_sign = -1
    else:
        ring_passes = (Pass(x1, "over"), Pass(x2, "under"))
        strand_insert = (Pass(x1, "under"), Pass(x2, "over"))
        ring_sign = 1

    edge_p, edge_q, edge_r = g.edge(p[0]), g.edge(q[0]), g.edge(r[0])
    flipped = set()

    if p[1] == 1:
        part1, start = edge_p.passes, edge_p.tail
    else:
        part1, start = tuple(reversed(edge_p.passes)), edge_p.head
        flipped.add(edge_p.id)

    if r[0] != q[0]:
        if q[1] == 0:
            part2, finish = edge_q.passes, edge_q.head
        else:
            part2, finish = tuple(reversed(edge_q.passes)), edge_q.tail
            flipped.add(edge_q.id)
        merged = EdgeCode(f"{edge_p.id}+{edge_q.id}", start, finish,
                          part1 + strand_insert + part2)
        third = replace(edge_r, tail=w_id) if r[1] == 0 else replace(edge_r, head=w_id)
        new_edges = [merged, third]
        end_map = {
            (edge_p.id, 1 - p[1]): (merged.id, 0),
            (edge_q.id, 1 - q[1]): (merged.id, 1),
        }
        w_ends = ((edge_r.id, r[1]), (ring_id, 0), (ring_id, 1))
    else:
        if q[1] == 0:
            part2 = edge_q.passes
        else:
            part2 = tuple(reversed(edge_q.passes))
            flipped.add(edge_q.id)
        merged = EdgeCode(f"{edge_p.id}+{edge_q.id}", start, w_id,
                          part1 + strand_insert + part2)
        untouched = [e for e in g.edges if e.id not in (edge_p.id, edge_q.id)]
        new_edges = [merged] + untouched
        end_map = {(edge_p.id, 1 - p[1]): (merged.id, 0)}
        w_ends = ((merged.id, 1), (ring_id, 0), (ring_id, 1))

    new_edges.append(EdgeCode(ring_id, w_id, w_id, ring_passes))

    new_vertices = [
        VertexCode(w.id, tuple(end_map.get(end, end) for end in w.ends))
        for w in g.vertices if w.id != vertex_id
    ]
    new_vertices.append(VertexCode(w_id, w_ends))

    signs = _signs_after_reversing(g, flipped)
    crossings = tuple(Crossing(cid, s) for cid, s in sorted(signs.items()))
    crossings += (Crossing(x1, ring_sign), Crossing(x2, ring_sign))

    prov = g.provenance
    if prov is not None and prov.origin == "looping":
        prov = replace(prov, loopings=prov.loopings + 1, looping_kind=kind)
    else:
        prov = Provenance(
            origin="looping",
            source_kind=g.kind,
            looping_kind=kind,
            loopings=1,
            family=prov.family if prov else None,
            n=prov.n if prov else None,
            variant=prov.variant if prov else None,
            mirror=prov.mirror if prov else False,
        )

    result = SpatialGraphCode("handcuff", tuple(new_vertices), tuple(new_edges),
                              crossings, prov)
    _check(result)
    return result

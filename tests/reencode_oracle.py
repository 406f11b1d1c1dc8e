"""Other spellings of one diagram code, and an `analyze` report read up to them.

A diagram has many codes: each edge may run either way, a circle's pass
list may start anywhere, a vertex's ends may start at any of its three
ends, the lines may come in another order, and every id may change. The
re-encodings below each write one of those, without the library's code.
`report_key` reads an `analyze --format json` report into a value that
every spelling of one diagram shares.

- Reversing an edge swaps its tail and head, reverses its passes and swaps
  the sides of its ends at the vertices. A crossing that the edge passes
  once changes sign, since one of its strands turns round; a crossing the
  edge passes twice keeps its sign. The edge's meridian changes sign, and
  so does a linking number with exactly one reversed component.
- Renaming maps ids to fresh ones without "+", so a constituent's name in
  the renamed report splits into the renamed edges it joins.
- Meridian coordinates are pinned by a basis of H1 that the code's order
  and orientations choose. For each set of edges, the gcd of the k x k
  minors of their coordinate rows is the same in every basis and for either
  sign of each row, so those gcds are compared instead.
"""

import itertools
import json
import math
import re
from collections import Counter
from dataclasses import replace

from hkdiag.spatial import Crossing, SpatialGraphCode

_ID = re.compile(r"[A-Za-z0-9_-]+")  # a renamed id in a message (renamed ids have no "+")


def reverse_edge(g: SpatialGraphCode, eid: str) -> SpatialGraphCode:
    """The code with edge `eid` running the other way."""
    edge = next(e for e in g.edges if e.id == eid)
    once = {c for c, k in Counter(p.crossing for p in edge.passes).items() if k == 1}
    edges = tuple(replace(e, tail=e.head, head=e.tail, passes=e.passes[::-1])
                  if e.id == eid else e for e in g.edges)
    vertices = tuple(replace(v, ends=tuple((e, 1 - side if e == eid else side)
                                           for e, side in v.ends)) for v in g.vertices)
    crossings = tuple(Crossing(c.id, -c.sign) if c.id in once else c for c in g.crossings)
    return SpatialGraphCode(g.kind, vertices, edges, crossings, g.provenance)


def rotate_circle(g: SpatialGraphCode, eid: str, k: int) -> SpatialGraphCode:
    """The code with circle `eid`'s pass list started k passes later."""
    edges = tuple(replace(e, passes=e.passes[k:] + e.passes[:k]) if e.id == eid else e
                  for e in g.edges)
    return replace(g, edges=edges)


def rotate_vertex(g: SpatialGraphCode, vid: str, k: int) -> SpatialGraphCode:
    """The code with vertex `vid`'s ends listed from the k-th on: the same
    cyclic order."""
    vertices = tuple(replace(v, ends=v.ends[k:] + v.ends[:k]) if v.id == vid else v
                     for v in g.vertices)
    return replace(g, vertices=vertices)


def rename(g: SpatialGraphCode) -> tuple[SpatialGraphCode, dict[str, str]]:
    """(the code with every edge, vertex and crossing id replaced by a fresh
    one, the map from new ids back to old ones)."""
    edge = {e.id: f"e{i}_" for i, e in enumerate(g.edges)}
    vertex = {v.id: f"v{i}_" for i, v in enumerate(g.vertices)}
    crossing = {c.id: f"x{i}_" for i, c in enumerate(g.crossings)}
    edges = tuple(replace(e, id=edge[e.id], tail=vertex.get(e.tail), head=vertex.get(e.head),
                          passes=tuple(replace(p, crossing=crossing[p.crossing])
                                       for p in e.passes)) for e in g.edges)
    vertices = tuple(replace(v, id=vertex[v.id], ends=tuple((edge[e], s) for e, s in v.ends))
                     for v in g.vertices)
    crossings = tuple(Crossing(crossing[c.id], c.sign) for c in g.crossings)
    renamed = SpatialGraphCode(g.kind, vertices, edges, crossings, g.provenance)
    return renamed, {new: old for ids in (edge, vertex, crossing) for old, new in ids.items()}


def shuffle_lines(text: str, rng) -> str:
    """The lines of a code in a random order that still parses: each edge
    line before its pass lines, and each edge's passes in their order."""
    runs, by_edge = [], {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "edge":
            by_edge[tokens[1]] = [line]
            runs.append(by_edge[tokens[1]])
        elif tokens[0] == "pass":
            by_edge[tokens[1]].append(line)
        else:
            runs.append([line])
    lines = []
    while runs:
        run = rng.choice(runs)
        lines.append(run.pop(0))
        if not run:
            runs.remove(run)
    return "\n".join(lines) + "\n"


def _edges_of(name: str, ids) -> tuple[str, ...]:
    """The edges whose ids a constituent name joins with "+", in order."""
    if name in ids:
        return (name,)
    (pair,) = [(a, b) for a in ids for b in ids if a != b and f"{a}+{b}" == name]
    return pair


def _divisors(rows) -> tuple[int, ...]:
    """The gcd of the k x k minors of integer rows, for k = 1, 2, ..."""
    out = []
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(range(len(rows[0])), k):
                d = math.gcd(d, _det([[r[c] for c in cs] for r in rs]))
        out.append(d)
    return tuple(out)


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def report_key(report: dict, ids, back=None, reversed_edges=()) -> dict:
    """The parts of an `analyze --format json` report that every spelling of
    the code shares. `ids` are the code's edge ids, `back` maps its ids to
    the original code's (identity if None), and `reversed_edges` are the
    original ids of the edges that run the other way."""
    back = back or {e: e for e in ids}

    def names(name):
        return frozenset(back[e] for e in _edges_of(name, ids))

    rest = json.dumps({k: v for k, v in report.items()
                       if k not in ("file", "constituents", "homology", "facts", "bridge")})
    key = json.loads(re.sub(_ID, lambda m: back.get(m[0], m[0]), rest))  # ids in messages
    constituents = set()
    for c in report["constituents"]:
        if "component" in c:
            constituents.add((names(c["component"]), c["alexander"]))
        else:
            a, b = (back[e] for e in c["components"])
            flips = (a in reversed_edges) + (b in reversed_edges)
            constituents.add((frozenset((a, b)), c["linking_number"] * (-1) ** flips))
    key["constituents"] = constituents
    meridians = {back[e]: coords for e, coords in report["homology"]["meridians"].items()}
    key["group"] = report["homology"]["group"]
    key["meridians"] = {
        edges: _divisors([meridians[e] for e in edges])
        for k in range(1, len(meridians) + 1)
        for edges in itertools.combinations(sorted(meridians), k)}
    facts = set()
    for f in report["facts"]:
        name, value = f["key"], f["value"]
        if name.startswith("knot-trivial:"):
            prefix, _, knot = name.partition(":")
            name = (prefix, names(knot))
        elif name in ("tunnel", "knotting-arc") and value in back:
            value = back[value]
        facts.add((name, value, f["provenance"]))
    key["facts"] = facts
    if "bridge" in report:
        key["bridge"] = back[report["bridge"]]
    return key


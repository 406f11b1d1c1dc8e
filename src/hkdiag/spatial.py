"""Diagram codes for spatial trivalent graphs and the looping rewrite.

A SpatialGraphCode records a diagram of a theta-curve, a handcuff graph or a
link combinatorially: edges with ordered crossing traversals, trivalent
vertices listing their incident edge-ends, and a sign per crossing. The code
is what a careful reader would write down walking along each strand of the
picture.

On top of the codes this module implements the operations the theory calls
for: extracting constituent knots and links, exact linking numbers, the
looping rewrite that replaces a trivalent vertex by an encircling ring, the
classification bookkeeping for atoroidal graphs, the transition table under
looping (one table of targets), annulus predictions for looped graphs (each
pinned diagram is annulus-file text read by `labeling.parse_annulus`), and
the two families used as running examples (closed 2-braid links with a
tunnel, and their ringed odd companions). A code's `Provenance` gives the
key=value pairs of its `meta` line with `meta_items`.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING

from . import _EXPORTS
from .diagram import Violation
from .errors import ContradictionError, StructureError

if TYPE_CHECKING:  # imported where used: only a looped code's prediction needs labels
    from .labeling import AnnulusDiagram

__all__ = [*_EXPORTS["spatial"], "ContradictionError"]

_ID_RE = re.compile(r"[A-Za-z0-9_+-]+")  # one id, matched with fullmatch
_SIGNS = {"sign=+": 1, "sign=-": -1}


@dataclass(frozen=True)
class Pass:
    """One visit of an edge to a crossing."""

    crossing: str
    position: str  # "over" | "under"

    def __post_init__(self):
        if self.position not in ("over", "under"):
            raise StructureError(f"bad pass position {self.position!r}")


@dataclass(frozen=True)
class EdgeCode:
    """A strand: an open edge between vertices, or a free circle.

    tail and head are vertex ids; both None makes the edge a circle. The
    pass tuple lists crossings in traversal order from tail to head, or
    once around the circle from an arbitrary start.
    """

    id: str
    tail: str | None
    head: str | None
    passes: tuple[Pass, ...] = ()

    def __post_init__(self):
        if (self.tail is None) != (self.head is None):
            raise StructureError(f"edge {self.id}: tail and head must both be set or both empty")

    @property
    def is_circle(self) -> bool:
        return self.tail is None

    @property
    def is_vertex_loop(self) -> bool:
        return self.tail is not None and self.tail == self.head


@dataclass(frozen=True)
class VertexCode:
    id: str
    ends: tuple[tuple[str, int], ...]  # (edge id, 0 for tail, 1 for head)


@dataclass(frozen=True)
class Crossing:
    id: str
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise StructureError(f"crossing {self.id}: sign must be +1 or -1")


@dataclass(frozen=True)
class Provenance:
    """How a code came to exist; drives the annulus predictions.

    Each value is one its `meta` key allows: an origin, source kind and
    looping kind from `_META_VALUES`, loopings >= 0, n >= 2, and a family
    and variant of one token each. A looping records its source kind, its
    looping kind and at least one looping; any other origin records none of
    the three. So `format_code` writes only `meta` lines that `parse_code`
    reads back.
    """

    origin: str  # "family" | "looping"
    source_kind: str | None = None
    looping_kind: str | None = None
    loopings: int = 0
    family: str | None = None
    n: int | None = None
    variant: str | None = None
    mirror: bool = False

    def __post_init__(self):
        broken = _broken_provenance_rule(vars(self))
        if broken:
            raise StructureError(broken[1])

    def meta_items(self) -> list[tuple[str, str]]:
        """The key=value pairs of this provenance's `meta` line, in field order.

        A key is its field's name with - for _. A field that is None, no
        loopings and no mirror are left out; a mirror is written mirror=true.
        """
        out = []
        for key, name in _META_KEYS.items():
            value = getattr(self, name)
            if name == "mirror":
                value = "true" if value else None
            if value is not None and not (name == "loopings" and value == 0):
                out.append((key, str(value)))
        return out


# `meta` key -> Provenance field name, in field order.
_META_KEYS = {f.name.replace("_", "-"): f.name for f in fields(Provenance)}

# The values allowed for each `meta` key that takes one of a fixed set.
_META_VALUES = {"origin": ("family", "looping"), "source-kind": ("theta", "handcuff"),
                "looping-kind": ("plain", "tunnel", "knot"), "mirror": ("true", "false")}


def _broken_provenance_rule(values: Mapping[str, object]) -> tuple[str, str] | None:
    """(meta key, message) of the first `Provenance` rule that the field
    values break, or None."""
    for key in ("origin", "source-kind", "looping-kind"):
        value = values[_META_KEYS[key]]
        if (value is not None or key == "origin") and value not in _META_VALUES[key]:
            return key, _meta_value_message(key, value)
    if values["loopings"] < 0:
        return "loopings", "meta loopings must not be negative"
    if values["n"] is not None and values["n"] < 2:
        return "n", f"meta n must be at least 2, got {values['n']}"
    for key in ("family", "variant"):
        value = values[key]
        if value is not None and ("#" in value or any(c.isspace() for c in value)):
            return key, f"meta {key} must be one token, got {value!r}"
    record = (values["source_kind"], values["looping_kind"])
    if values["origin"] == "looping":
        ok = None not in record and values["loopings"] >= 1
    else:
        ok = record == (None, None) and values["loopings"] == 0
    if ok:
        return None
    return "origin", ("meta source-kind, looping-kind and loopings >= 1 come together, "
                      "and only with origin=looping")


def _meta_value_message(key: str, value) -> str:
    *rest, last = _META_VALUES[key]
    return f"meta {key} must be {', '.join(rest)} or {last}, got {value!r}"


@dataclass(frozen=True)
class SpatialGraphCode:
    kind: str  # "theta" | "handcuff" | "link"
    vertices: tuple[VertexCode, ...]
    edges: tuple[EdgeCode, ...]
    crossings: tuple[Crossing, ...]
    provenance: Provenance | None = None

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(sorted(self.crossings, key=lambda c: c.id)))

    # Indices built once per object, on first use. cached_property writes to
    # the instance __dict__, which a frozen dataclass allows; fields, eq and
    # hash are untouched. Where ids repeat (validate_code rejects that) the
    # first one wins, as a linear scan would have it.

    @cached_property
    def _edges_by_id(self) -> dict[str, EdgeCode]:
        return {e.id: e for e in reversed(self.edges)}

    @cached_property
    def _vertices_by_id(self) -> dict[str, VertexCode]:
        return {v.id: v for v in reversed(self.vertices)}

    @cached_property
    def _signs(self) -> dict[str, int]:
        return {c.id: c.sign for c in reversed(self.crossings)}

    @cached_property
    def _passes(self) -> Mapping[str, tuple[tuple[str, int, str], ...]]:
        out: dict = {}
        for e in self.edges:
            for i, p in enumerate(e.passes):
                out.setdefault(p.crossing, []).append((e.id, i, p.position))
        for cid, entries in out.items():  # in place: no second dict
            out[cid] = tuple(entries)
        return MappingProxyType(out)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_code of this code, computed once."""
        return tuple(validate_code(self))

    def edge(self, edge_id: str) -> EdgeCode:
        try:
            return self._edges_by_id[edge_id]
        except KeyError:
            raise StructureError(f"no edge named {edge_id!r}") from None

    def vertex(self, vertex_id: str) -> VertexCode:
        try:
            return self._vertices_by_id[vertex_id]
        except KeyError:
            raise StructureError(f"no vertex named {vertex_id!r}") from None

    def sign(self, crossing_id: str) -> int:
        return self._signs[crossing_id]

    def crossing_passes(self) -> Mapping[str, tuple[tuple[str, int, str], ...]]:
        """crossing id -> ((edge id, pass index, position), ...), shared and read-only."""
        return self._passes


def validate_code(g: SpatialGraphCode) -> list[Violation]:
    """Structural checks: id sanity, end incidences, pass pairing, shape. Each
    violation's `where` names the elements it is about; a shape one names none.
    A hand-built id that is no str ends the checks after the ids, since the
    rest hash, sort and compare ids."""
    out: list[Violation] = []

    def flag(code: str, message: str, *where: tuple[str, str]) -> None:
        out.append(Violation(code, message, where))

    known: dict[str, set[str]] = {}
    stray = False  # a hand-built id that is no str
    for kind, elements in (("edge", g.edges), ("vertex", g.vertices), ("crossing", g.crossings)):
        ids = [x.id for x in elements]
        # one regex over the joined ids costs far less than one per id;
        # join raises on an id that is no str
        try:
            ok = not ids or (all(ids) and _ID_RE.fullmatch("".join(ids)))
        except TypeError:
            ok = False
        if not ok:
            for i in ids:
                if isinstance(i, str) and _ID_RE.fullmatch(i):
                    continue
                stray = stray or not isinstance(i, str)
                flag("ids", f"bad {kind} identifier {i!r}", (kind, i))
        if stray:
            continue
        known[kind] = set(ids)
        if len(known[kind]) != len(ids):
            flag("ids", f"duplicate {kind} id", *((kind, i) for i in ids if ids.count(i) > 1))
    if stray:
        return out
    shared = _shared_constituent_name(g)
    if shared:
        flag("ids", f"two theta constituents are both named {shared}",
             *(("edge", e.id) for e in g.edges))

    claimed: dict[tuple[str, int], str] = {}
    for v in g.vertices:
        if len(v.ends) != 3:
            flag("arity", f"vertex {v.id} has {len(v.ends)} ends, expected 3", ("vertex", v.id))
        for end in v.ends:
            eid, side = end
            if eid not in known["edge"] or side not in (0, 1):
                flag("ends", f"vertex {v.id} references unknown end {eid}.{side}", ("vertex", v.id))
                continue
            if end in claimed:
                flag("ends", f"end {eid}.{side} claimed by two vertices",
                     ("vertex", claimed[end]), ("vertex", v.id))
            claimed[end] = v.id
    for e in g.edges:
        if e.is_circle:
            holders = [("vertex", claimed[(e.id, s)]) for s in (0, 1) if (e.id, s) in claimed]
            if holders:
                flag("ends", f"circle {e.id} is attached to a vertex", ("edge", e.id), *holders)
            continue
        for side, want in ((0, e.tail), (1, e.head)):
            if want not in known["vertex"]:
                flag("ends", f"edge {e.id} endpoint {want!r} is not a vertex", ("edge", e.id))
            elif claimed.get((e.id, side)) != want:
                flag("ends", f"end {e.id}.{side} is not listed at vertex {want}",
                     ("edge", e.id), ("vertex", want))

    # Two closed curves in the plane cross an even number of times.
    closed = {e.id for e in g.edges if e.is_circle or e.is_vertex_loop}
    between: dict[tuple[str, str], list[str]] = {}
    uses = g.crossing_passes()
    # keyed by str, so that a hand-built reference that is no str sorts too
    for cid in sorted(uses, key=str):
        entries = uses[cid]
        if cid not in known["crossing"]:
            flag("passes", f"pass references undeclared crossing {cid}", ("crossing", cid))
            continue
        if len(entries) != 2 or entries[0][2] == entries[1][2]:
            flag("passes", f"crossing {cid} needs exactly one over and one under pass",
                 ("crossing", cid))
            continue
        (a, _, _), (b, _, _) = entries
        if a != b and a in closed and b in closed:
            between.setdefault((a, b) if a < b else (b, a), []).append(cid)
    for (a, b), cids in sorted(between.items()):
        if len(cids) % 2:
            flag("passes", f"closed strands {a} and {b} cross an odd number of times",
                 *(("crossing", cid) for cid in cids))
    for cid in sorted(known["crossing"] - set(uses)):
        flag("passes", f"crossing {cid} is never visited", ("crossing", cid))

    out.extend(_shape_violations(g))
    return out


def _shape_violations(g: SpatialGraphCode) -> list[Violation]:
    if g.kind not in ("theta", "handcuff", "link"):
        return [Violation("shape", f"unknown graph kind {g.kind!r}")]
    out: list[Violation] = []
    if g.provenance is not None and g.provenance.origin == "looping" and g.kind != "handcuff":
        out.append(Violation("shape", f"a looping gives a handcuff code, not a {g.kind} code"))
    if g.kind == "link":
        if g.vertices:
            out.append(Violation("shape", "a link code has no vertices"))
        for e in g.edges:
            if not e.is_circle:
                out.append(Violation("shape", f"edge {e.id} of a link must be a circle"))
        return out
    if len(g.vertices) != 2 or len(g.edges) != 3:
        out.append(Violation("shape", f"a {g.kind} code has 2 vertices and 3 edges"))
        return out
    v1, v2 = g.vertices[0].id, g.vertices[1].id
    if g.kind == "theta":
        for e in g.edges:
            if e.is_circle or e.tail == e.head or {e.tail, e.head} != {v1, v2}:
                out.append(Violation("shape", f"theta edge {e.id} must join the two vertices"))
    else:
        loops = [e for e in g.edges if e.is_vertex_loop]
        bridges = [e for e in g.edges if not e.is_circle and e.tail != e.head]
        if len(loops) != 2 or len(bridges) != 1 or {loops[0].tail, loops[1].tail} != {v1, v2}:
            out.append(Violation("shape", "a handcuff code has one loop at each vertex and one bridge"))
    return out


def _require_valid(g: SpatialGraphCode) -> None:
    if g.violations:
        raise StructureError(f"invalid code: {g.violations[0]}")


def bridge_of(g: SpatialGraphCode) -> EdgeCode:
    """The bridge edge of a handcuff code."""
    if g.kind != "handcuff":
        raise StructureError("only handcuff codes have a bridge")
    return next(e for e in g.edges if not e.is_circle and not e.is_vertex_loop)


# --- constituents and linking -------------------------------------------------


def _end_vertex(g: SpatialGraphCode, end: tuple[str, int]) -> str | None:
    e = g.edge(end[0])
    return e.head if end[1] else e.tail


def _through_vertex(g: SpatialGraphCode, into: tuple[str, int], out: tuple[str, int],
                    middle: tuple[Pass, ...] = ()) -> tuple[tuple[Pass, ...], set[str]]:
    """The passes of a strand running in along edge-end `into`, through
    `middle` and out along end `out`, and the edges it walks against their
    direction: `into` unless it is a head end, `out` unless a tail end."""
    legs: list[tuple[Pass, ...]] = []
    flipped: set[str] = set()
    for (eid, side), forward in ((into, 1), (out, 0)):
        passes = g.edge(eid).passes
        if side != forward:
            passes = tuple(reversed(passes))
            flipped.add(eid)
        legs.append(passes)
    return legs[0] + middle + legs[1], flipped


def _effective_signs(g: SpatialGraphCode, flipped: set[str]) -> dict[str, int]:
    """Crossing signs of a valid code after reversing the given edges.

    Reversing exactly one of a crossing's two strands flips its sign;
    reversing both, or a self-crossing of a reversed edge, preserves it.
    """
    uses, out = g.crossing_passes(), dict(g._signs)
    for eid in flipped:
        for p in g.edge(eid).passes:
            (a, _, _), (b, _, _) = uses[p.crossing]
            if (a in flipped) != (b in flipped):
                out[p.crossing] = -g._signs[p.crossing]
    return out


def _restrict(g: SpatialGraphCode, circles: list[tuple[str, tuple[Pass, ...]]],
              keep: set[str], signs: dict[str, int]) -> SpatialGraphCode:
    """Build a link code from assembled circles of a valid code, dropping
    every crossing that involves a removed edge."""
    surviving = {cid for cid, ((a, _, _), (b, _, _)) in g.crossing_passes().items()
                 if a in keep and b in keep}
    edges = tuple(
        EdgeCode(name, None, None, tuple(p for p in passes if p.crossing in surviving))
        for name, passes in circles
    )
    crossings = tuple(Crossing(cid, signs[cid]) for cid in surviving)
    link = SpatialGraphCode("link", (), edges, crossings)
    # Valid as g is: only crossings whose two passes both survive are kept.
    vars(link)["violations"] = ()
    return link


def _theta_constituents(g: SpatialGraphCode) -> list[tuple[str, EdgeCode, EdgeCode, EdgeCode]]:
    """(name, e1, e2, rest) for each constituent knot of a theta code.

    The knot is e1 followed by e2 and is named "e1+e2"; rest is the arc it
    leaves out. Edges are taken in id order, so e1.id < e2.id.
    """
    e = sorted(g.edges, key=lambda edge: edge.id)
    return [(f"{e[i].id}+{e[j].id}", e[i], e[j], e[3 - i - j])
            for i, j in ((0, 1), (0, 2), (1, 2))]


def _shared_constituent_name(g: SpatialGraphCode) -> str | None:
    """A name that two constituent knots of a theta code would share.

    The "e1+e2" names need not be distinct when edge ids contain "+": edges
    w+z, w+z+w and z+w name two constituents w+z+w+z+w.
    """
    if g.kind != "theta" or len(g.edges) != 3 or len({e.id for e in g.edges}) != 3:
        return None
    names = [name for name, _, _, _ in _theta_constituents(g)]
    return next((name for name in names if names.count(name) > 1), None)


def constituent_links(g: SpatialGraphCode) -> tuple[SpatialGraphCode, ...]:
    """The constituent knots (theta) or 2-component link (handcuff).

    A theta-curve has three constituent knots, one per pair of edges; each
    comes back as a one-circle link code named after the pair, e.g. "a+b".
    A handcuff graph has one constituent link: the two vertex loops with
    the bridge forgotten. Link codes are their own constituents.
    """
    _require_valid(g)
    if g.kind == "link":
        return (g,)
    if g.kind == "theta":
        out = []
        for name, e1, e2, _ in _theta_constituents(g):
            leaving = (e2.id, 0 if e2.tail == e1.head else 1)
            passes, flipped = _through_vertex(g, (e1.id, 1), leaving)
            out.append(_restrict(g, [(name, passes)], {e1.id, e2.id}, _effective_signs(g, flipped)))
        return tuple(out)
    loops = sorted((e for e in g.edges if e.is_vertex_loop), key=lambda e: e.id)
    return (_restrict(g, [(e.id, e.passes) for e in loops], {e.id for e in loops}, g._signs),)


def linking_number(g: SpatialGraphCode, a: str, b: str) -> int:
    """Exact linking number of two named circles of a link code: half the
    sum of the signs where they cross, which validate_code keeps even."""
    _require_valid(g)
    if g.kind != "link":
        raise StructureError("linking numbers are computed on link codes")
    if a == b:
        raise StructureError("linking number needs two distinct components")
    for name in (a, b):
        if name not in g._edges_by_id:
            raise StructureError(f"no component named {name!r}")
    total = 0
    for cid, ((x, _, _), (y, _, _)) in g.crossing_passes().items():
        if (x, y) == (a, b) or (x, y) == (b, a):
            total += g._signs[cid]
    return total // 2


def mirror_code(g: SpatialGraphCode) -> SpatialGraphCode:
    """The mirror image: every crossing sign flips, over and under swap."""
    swapped = tuple(
        replace(e, passes=tuple(
            Pass(p.crossing, "under" if p.position == "over" else "over") for p in e.passes
        ))
        for e in g.edges
    )
    prov = g.provenance
    if prov is not None:
        prov = replace(prov, mirror=not prov.mirror)
    return SpatialGraphCode(
        g.kind, g.vertices, swapped,
        tuple(Crossing(c.id, -c.sign) for c in g.crossings),
        prov,
    )


# --- looping ------------------------------------------------------------------


def _fresh(prefix: str, taken: set[str]) -> str:
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def resolve_end(g: SpatialGraphCode, vertex_id: str, token: str) -> tuple[str, int]:
    """Turn "edge" or "edge.0" / "edge.1" into an end at the given vertex."""
    v = g.vertex(vertex_id)
    if "." in token:
        eid, _, side = token.rpartition(".")
        if side not in ("0", "1"):
            raise StructureError(f"bad end token {token!r}")
        end = (eid, int(side))
        if end not in v.ends:
            raise StructureError(f"end {token} is not at vertex {vertex_id}")
        return end
    candidates = [end for end in v.ends if end[0] == token]
    if not candidates:
        raise StructureError(f"edge {token!r} has no end at vertex {vertex_id}")
    if len(candidates) > 1:
        raise StructureError(
            f"edge {token!r} has both ends at {vertex_id}; say {token}.0 or {token}.1")
    return candidates[0]


def loop_at(g: SpatialGraphCode, vertex_id: str,
            pair: tuple[tuple[str, int], tuple[str, int]],
            tunnel: str | None = None, mirror: bool = False) -> SpatialGraphCode:
    """Loop the graph at a vertex, splicing the two given edge-ends.

    The vertex disappears. One strand runs in along end p, through two
    crossings with a new ring, and out along end q to q's far vertex; the
    third end r moves to the ring's vertex. The one special case: when q's
    far end is r (q is a vertex loop), the strand closes at the ring vertex
    in r's place. The result is always a handcuff graph. Pairing a handcuff
    loop's own two ends would set the loop free and is rejected.

    tunnel designates a tunnel edge; the provenance records the looping's
    kind relative to it, as `looping_kind` names it. mirror reverses the
    handedness of the new ring.
    """
    kind = looping_kind(g, pair, tunnel)
    _require_valid(g)
    if g.kind not in ("theta", "handcuff"):
        raise StructureError("looping applies to theta and handcuff codes")
    v = g.vertex(vertex_id)
    p, q = pair
    if p not in v.ends or q not in v.ends or p == q:
        raise StructureError(f"ends {p} and {q} must be two distinct ends at {vertex_id}")
    (r,) = (end for end in v.ends if end not in (p, q))
    if p[0] == q[0]:
        raise ContradictionError("splicing a loop's two ends onto each other disconnects the graph")
    if p[0] == r[0]:
        # A vertex loop through r goes second, so the strand starts away
        # from the vertex.
        p, q = q, p

    w_id = _fresh("w", {w.id for w in g.vertices})
    ring_id = _fresh("c", {e.id for e in g.edges})
    taken_crossings = {c.id for c in g.crossings}
    x1 = _fresh("x", taken_crossings)
    x2 = _fresh("x", taken_crossings | {x1})

    # The ring passes over at x1 and under at x2; its mirror the other way.
    first, second = ("under", "over") if mirror else ("over", "under")
    ring_passes = (Pass(x1, first), Pass(x2, second))
    strand_insert = (Pass(x1, second), Pass(x2, first))
    ring_sign = -1 if mirror else 1

    passes, flipped = _through_vertex(g, p, q, strand_insert)
    far_p, far_q = (p[0], 1 - p[1]), (q[0], 1 - q[1])
    finish = w_id if far_q == r else _end_vertex(g, far_q)
    merged = EdgeCode(f"{p[0]}+{q[0]}", _end_vertex(g, far_p), finish, passes)
    end_map = {far_p: (merged.id, 0), far_q: (merged.id, 1)}

    new_edges = [merged]
    for e in g.edges:
        if e.id in (p[0], q[0]):
            continue
        if e.id == r[0]:
            e = replace(e, tail=w_id) if r[1] == 0 else replace(e, head=w_id)
        new_edges.append(e)
    new_edges.append(EdgeCode(ring_id, w_id, w_id, ring_passes))

    new_vertices = [
        VertexCode(w.id, tuple(end_map.get(end, end) for end in w.ends))
        for w in g.vertices if w.id != vertex_id
    ]
    # r is in end_map only as q's far end, where the strand closes.
    new_vertices.append(VertexCode(w_id, (end_map.get(r, r), (ring_id, 0), (ring_id, 1))))

    signs = _effective_signs(g, flipped)
    crossings = tuple(Crossing(cid, s) for cid, s in signs.items())
    crossings += (Crossing(x1, ring_sign), Crossing(x2, ring_sign))

    prov = g.provenance
    if prov is not None and prov.origin == "looping":
        prov = replace(prov, loopings=prov.loopings + 1, looping_kind=kind)
    else:
        prov = replace(prov or Provenance("family"), origin="looping", source_kind=g.kind,
                       looping_kind=kind, loopings=1)

    result = SpatialGraphCode("handcuff", tuple(new_vertices), tuple(new_edges),
                              crossings, prov)
    _require_valid(result)
    return result


def looping_kind(g: SpatialGraphCode, pair: tuple[tuple[str, int], tuple[str, int]],
                 tunnel_edge: str | None) -> str:
    """Name a looping relative to a designated tunnel edge of a theta-curve.

    Splicing the two non-tunnel edges is the tunnel looping; a splice that
    consumes the tunnel is a knot looping. Without a designated tunnel, or
    on a handcuff graph, the looping is plain. A tunnel edge the code does
    not have raises StructureError.
    """
    if tunnel_edge is None:
        return "plain"
    g.edge(tunnel_edge)
    if g.kind != "theta":
        return "plain"
    spliced = {pair[0][0], pair[1][0]}
    if tunnel_edge in spliced:
        return "knot"
    return "tunnel"


# --- facts and classification ---------------------------------------------------


@dataclass(frozen=True)
class FactEntry:
    key: str
    value: bool | str
    provenance: str  # "asserted" | "computed"


class FactSet:
    """External knowledge about a code, each entry tagged with provenance.

    Keys in use: "atoroidal", "planar", "split", "tunnel" (an edge id),
    "knotting-arc" (an edge id), and "knot-trivial:<component>" for
    constituent knots. Setting a key twice with different values raises
    ContradictionError; repeating the same value is a no-op that keeps the
    earlier provenance.
    """

    def __init__(self):
        self._facts: dict[str, FactEntry] = {}

    def set(self, key: str, value: bool | str, provenance: str = "asserted") -> None:
        if provenance not in ("asserted", "computed"):
            raise ValueError(f"unknown provenance {provenance!r}")
        old = self._facts.get(key)
        if old is not None:
            if old.value != value:
                raise ContradictionError(
                    f"fact {key}: {old.value!r} ({old.provenance}) against {value!r} ({provenance})")
            return
        self._facts[key] = FactEntry(key, value, provenance)

    def get(self, key: str) -> bool | str | None:
        entry = self._facts.get(key)
        return entry.value if entry is not None else None

    def entry(self, key: str) -> FactEntry | None:
        return self._facts.get(key)

    def entries(self) -> list[FactEntry]:
        return [self._facts[k] for k in sorted(self._facts)]


_CLASS_DESCRIPTIONS = {
    "tau1": "planar theta-curve",
    "tau2": "nonplanar theta-curve whose three constituent knots are trivial",
    "tau3": "theta-curve made of a nontrivial knot and a tunnel of it",
    "tau4": "theta-curve made of a nontrivial knot and a knotting arc",
    "h1": "planar handcuff graph",
    "h2": "nonplanar handcuff graph with split constituent link",
    "h3": "handcuff graph over a non-split link whose bridge is a tunnel",
    "h4": "handcuff graph over a non-split link whose bridge is a knotting arc",
}


@dataclass(frozen=True)
class GraphClass:
    """One of the eight classes of atoroidal trivalent spatial graphs."""

    code: str

    def __post_init__(self):
        if self.code not in _CLASS_DESCRIPTIONS:
            raise ValueError(f"unknown class {self.code!r}")

    @property
    def description(self) -> str:
        return _CLASS_DESCRIPTIONS[self.code]


@dataclass(frozen=True)
class Unclassified:
    """Classification could not be decided from the available facts."""

    reason: str
    needed: tuple[str, ...] = ()


def classify_atoroidal(g: SpatialGraphCode, facts: FactSet) -> GraphClass | Unclassified:
    """Place an atoroidal theta-curve or handcuff graph in its class.

    Reads the fact set only: call wirtinger.attach_evidence first to add
    what the code itself certifies (a knotted constituent, a handcuff's
    non-split constituent link). Everything else (planarity, atoroidality,
    constituent knot types, arc designations) must be supplied as facts.
    Both families run one ladder: a planar graph is class 1; a "simple"
    one (three trivial constituent knots, or a split constituent link) is
    class 2; otherwise the arc that the first knotted constituent leaves
    out, or the bridge over a non-split link, must be designated a tunnel
    (class 3) or a knotting arc (class 4). Returns Unclassified naming the
    missing facts when the decision is out of reach.
    """
    _require_valid(g)
    if g.kind == "link":
        raise StructureError("classification applies to theta and handcuff codes")

    if g.kind == "theta":
        comps = [(name, rest.id) for name, _, _, rest in _theta_constituents(g)]
        status = [facts.get(f"knot-trivial:{name}") for name, _ in comps]
        knot, arc = next((c for c, s in zip(comps, status) if s is False), (None, None))
        prefix = "tau"
        simple = all(s is True for s in status)
        clash = f"a planar theta-curve has trivial constituents, yet {knot} is knotted"
        unknown = Unclassified("constituent knot types are unknown",
                               tuple(f"knot-trivial:{name}" for name, _ in comps))
        undesignated = f"the arc {arc} must be designated a tunnel or a knotting arc"
    else:
        split = facts.get("split")
        arc = bridge_of(g).id if split is False else None
        prefix = "h"
        simple = split is True
        clash = "a planar handcuff graph has a split constituent link"
        unknown = Unclassified("splitness of the constituent link is unknown", ("split",))
        undesignated = f"the bridge {arc} must be designated a tunnel or a knotting arc"

    if facts.get("atoroidal") is not True:
        return Unclassified("the exterior must be known atoroidal", ("atoroidal",))
    planar = facts.get("planar")
    if planar is True:
        if arc is not None:
            raise ContradictionError(clash)
        return GraphClass(f"{prefix}1")
    if planar is not False:
        return Unclassified("planarity is unknown", ("planar",))
    if simple:
        return GraphClass(f"{prefix}2")
    if arc is None:
        return unknown
    if facts.get("tunnel") == arc:
        return GraphClass(f"{prefix}3")
    if facts.get("knotting-arc") == arc:
        return GraphClass(f"{prefix}4")
    return Unclassified(undesignated, ("tunnel", "knotting-arc"))


@dataclass(frozen=True)
class Transition:
    """Possible classes of the looped graph, given the class of the source."""

    targets: tuple[GraphClass, ...]
    note: str | None = None


# Where looping sends each class; a knot looping of tau3 lands in h4 only.
_LOOPING_TARGETS = {
    "tau1": ("h3",), "tau2": ("h4",), "tau3": ("h3", "h4"), "tau4": ("h4",),
    "h1": ("h1",), "h2": ("h2",), "h3": ("h2",), "h4": ("h2",),
}


def looping_transition(source: GraphClass, kind: str = "plain") -> Transition:
    """Where looping can send each class of atoroidal graph.

    The looping of a theta-curve or a handcuff graph is a handcuff graph,
    so all targets are handcuff classes. For the knot-with-tunnel class the
    answer depends on which looping is performed, hence the kind argument
    ("tunnel", "knot" or "plain"; plain means undetermined).
    """
    if kind not in _META_VALUES["looping-kind"]:
        raise ValueError(f"unknown looping kind {kind!r}")
    code = source.code
    targets = ("h4",) if code == "tau3" and kind == "knot" else _LOOPING_TARGETS[code]
    note = "the looped graph carries the handlebody-knot 2_1" if code == "tau1" else None
    return Transition(tuple(map(GraphClass, targets)), note)


def type_three_two_linking_test(lk: int) -> bool:
    """Whether an essential annulus pattern of the mixed type tolerates this
    linking number between its core and the spine loop. Absolute value one
    is the single excluded case."""
    return lk not in (1, -1)


# --- annulus predictions --------------------------------------------------------


# The pinned ring annulus diagrams as annulus-file text, one slot left to fill.
_LOOP = "node v hollow genus=2\nedge v v label={}\n"
_LOOP_WITH_CUT = "node v hollow genus=2\nnode s solid\nedge v v label=h2\nedge v s label={}\n"
_THETA = "node v {} genus=2\nnode s solid\n" + "edge v s label=h2\n" * 2 + "edge v s label=l0\n"


@dataclass(frozen=True)
class AnnulusPrediction:
    """What the looping provenance of a code promises about ring annuli."""

    annulus_type: str | None  # "2-1" | "2-2"
    annulus_count: int
    unknotting: bool | None
    exterior_irreducible_atoroidal: bool | None
    unique: bool | None
    diagram: AnnulusDiagram | None
    notes: tuple[str, ...] = ()


def predicted_annulus(g: SpatialGraphCode, facts: FactSet) -> AnnulusPrediction:
    """Predict the ring annulus data of a looped code from its provenance.

    Facts describe the looping source. Asserting that the source is
    atoroidal and nonplanar activates the generic predictions; family
    provenance pins the diagram outright. Codes without looping provenance
    get an empty prediction.
    """
    _require_valid(g)
    pv = g.provenance
    if pv is None or pv.origin != "looping":
        return AnnulusPrediction(None, 0, None, None, None, None,
                                 ("the code does not record a looping",))
    from .labeling import parse_annulus

    source_ok = facts.get("atoroidal") is True and facts.get("planar") is False

    if pv.loopings >= 2:
        notes = ["two loopings give two non-isotopic ring annuli, both of the second type"]
        if source_ok:
            return AnnulusPrediction("2-2", 2, None, True, False,
                                     parse_annulus(_THETA.format("hollow")), tuple(notes))
        notes.append("assert atoroidal and nonplanar on the source to pin the diagram")
        return AnnulusPrediction("2-2", 2, None, None, None, None, tuple(notes))

    if pv.source_kind == "theta":
        knot_nontrivial = any(
            entry.key.startswith("knot-trivial:") and entry.value is False
            for entry in facts.entries()
        )
        if pv.looping_kind == "tunnel" and knot_nontrivial:
            unique = True if facts.get("atoroidal") is True else None
            return AnnulusPrediction(
                "2-1", 1, True, True, unique, parse_annulus(_LOOP.format("h1")),
                ("tunnel looping of a nontrivial knot: the ring annulus unknots the handlebody",))
        if source_ok:
            return AnnulusPrediction(
                "2-1", 1, None, True, True, parse_annulus(_LOOP.format("h1")),
                ("the ring annulus is the unique annulus of the first type",))
        return AnnulusPrediction(
            "2-1", 1, None, None, None, None,
            ("assert atoroidal and nonplanar on the source to pin the diagram",))

    # Handcuff source.
    if pv.family == "torus-link" and pv.variant == "tunnel" and pv.n is not None:
        n = pv.n
        if n == 2:
            return AnnulusPrediction(
                "2-2", 1, True, True, False, parse_annulus(_THETA.format("solid")),
                ("equivalent to 4_1",
                 "the two annuli of the second type are swapped by a symmetry"))
        if n % 2 == 0:
            return AnnulusPrediction(
                "2-2", 1, True, True, True,
                parse_annulus(_LOOP_WITH_CUT.format(f"k2({n // 2})")),
                (f"closed 2-braid family with {n} crossings, linking number {n // 2}",))
    if pv.family == "odd-ringed" and pv.variant in ("one", "both"):
        diagram = _LOOP.format("h2") if pv.variant == "one" else _LOOP_WITH_CUT.format("k1")
        return AnnulusPrediction(
            "2-2", 1, True, True, True, parse_annulus(diagram),
            (f"ringed odd family, ring around {pv.variant}",))

    nonsplit = facts.get("split") is False
    if nonsplit and facts.get("tunnel") is not None:
        return AnnulusPrediction(
            "2-2", 1, True, True, None, None,
            ("looping a non-split link with tunnel bridge unknots the handlebody",
             "the diagram is one of the five of the second type"))
    if source_ok:
        return AnnulusPrediction(
            "2-2", 1, None, True, None, None,
            ("the diagram is one of the five of the second type",))
    return AnnulusPrediction(
        "2-2", 1, None, None, None, None,
        ("assert atoroidal and nonplanar on the source to pin the exterior",))


# --- families -------------------------------------------------------------------


def closed_braid(word, strands: int) -> SpatialGraphCode:
    """The closure of a braid word as a link code.

    word is a sequence of (i, s) pairs: generator index i (1-based, acting
    on strand positions i-1 and i) and sign s. In a positive letter the
    strand entering from the left passes over. One resulting circle is
    named "k"; two are named "a" and "b"; more get "c1", "c2", ...
    """
    letters = list(word)
    if strands < 1:
        raise StructureError("a braid needs at least one strand")
    journeys: list[list[Pass]] = [[] for _ in range(strands)]
    pos_to_token = list(range(strands))
    crossings = []
    for step, (i, s) in enumerate(letters, start=1):
        if not 1 <= i < strands:
            raise StructureError(f"braid letter {i} out of range for {strands} strands")
        if s not in (1, -1):
            raise StructureError("braid letter signs must be +1 or -1")
        x = f"x{step}"
        left, right = pos_to_token[i - 1], pos_to_token[i]
        if s == 1:
            journeys[left].append(Pass(x, "over"))
            journeys[right].append(Pass(x, "under"))
        else:
            journeys[left].append(Pass(x, "under"))
            journeys[right].append(Pass(x, "over"))
        crossings.append(Crossing(x, s))
        pos_to_token[i - 1], pos_to_token[i] = right, left

    end_pos = {tok: pos for pos, tok in enumerate(pos_to_token)}
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for t in range(strands):
        if t in seen:
            continue
        cycle = [t]
        seen.add(t)
        u = end_pos[t]
        while u != t:
            cycle.append(u)
            seen.add(u)
            u = end_pos[u]
        cycles.append(cycle)

    if len(cycles) == 1:
        names = ["k"]
    elif len(cycles) == 2:
        names = ["a", "b"]
    else:
        names = [f"c{j + 1}" for j in range(len(cycles))]
    edges = tuple(
        EdgeCode(name, None, None,
                 tuple(itertools.chain.from_iterable(journeys[t] for t in cycle)))
        for name, cycle in zip(names, cycles)
    )
    return SpatialGraphCode("link", (), edges, tuple(crossings))


# Far beyond any n the invariants are computed at; a larger n is a typo.
_MAX_FAMILY_N = 100_000


def family_torus_link(n: int, tunnel: bool = False, mirror: bool = False) -> SpatialGraphCode:
    """The closed 2-braid with n positive crossings, optionally with tunnel.

    Even n gives a 2-component link with linking number n/2; adding the
    tunnel joins the components into a handcuff graph. Odd n gives a knot;
    the tunnel then splits its circle into a theta-curve whose nontrivial
    constituent is the closed braid and whose other two constituents are
    trivial.
    """
    if not 2 <= n <= _MAX_FAMILY_N:
        raise StructureError(f"the closed 2-braid family runs from n = 2 to {_MAX_FAMILY_N}")
    base = closed_braid([(1, 1)] * n, 2)
    prov = Provenance(origin="family", family="torus-link", n=n,
                      variant="tunnel" if tunnel else "closed")
    if not tunnel:
        g = SpatialGraphCode("link", (), base.edges, base.crossings, prov)
    elif n % 2 == 0:
        a, b = base.edge("a"), base.edge("b")
        edges = (
            replace(a, tail="u", head="u"),
            replace(b, tail="v", head="v"),
            EdgeCode("t", "u", "v", ()),
        )
        vertices = (
            VertexCode("u", (("a", 0), ("a", 1), ("t", 0))),
            VertexCode("v", (("b", 0), ("b", 1), ("t", 1))),
        )
        g = SpatialGraphCode("handcuff", vertices, edges, base.crossings, prov)
    else:
        k = base.edge("k")
        ka = EdgeCode("ka", "u", "v", k.passes[:n])
        kb = EdgeCode("kb", "v", "u", k.passes[n:])
        t = EdgeCode("t", "u", "v", ())
        vertices = (
            VertexCode("u", (("ka", 0), ("kb", 1), ("t", 0))),
            VertexCode("v", (("ka", 1), ("kb", 0), ("t", 1))),
        )
        g = SpatialGraphCode("theta", vertices, (ka, kb, t), base.crossings, prov)
    return mirror_code(g) if mirror else g


def family_odd_ringed(n: int, ring: str = "one", mirror: bool = False) -> SpatialGraphCode:
    """An odd closed 2-braid knot with a small ring, joined by a bridge.

    The ring either encircles one strand of the braid (linking number one
    with the knot) or both strands (linking number two). Either way the
    result is a handcuff graph over a non-split link whose bridge is a
    tunnel.
    """
    if not 3 <= n <= _MAX_FAMILY_N or n % 2 == 0:
        raise StructureError(f"the ringed family needs odd n from 3 to {_MAX_FAMILY_N}")
    if ring not in ("one", "both"):
        raise StructureError('ring must be "one" or "both"')
    base = closed_braid([(1, 1)] * n, 2)
    k = base.edge("k")
    j0, j1 = k.passes[:n], k.passes[n:]
    if ring == "one":
        ring_passes = (Pass("y1", "over"), Pass("y2", "under"))
        prefix0 = (Pass("y1", "under"), Pass("y2", "over"))
        prefix1: tuple[Pass, ...] = ()
        extra = (Crossing("y1", 1), Crossing("y2", 1))
    else:
        ring_passes = (Pass("y1", "over"), Pass("y2", "over"),
                       Pass("y3", "under"), Pass("y4", "under"))
        prefix0 = (Pass("y1", "under"), Pass("y4", "over"))
        prefix1 = (Pass("y2", "under"), Pass("y3", "over"))
        extra = tuple(Crossing(f"y{i}", 1) for i in (1, 2, 3, 4))
    loop_k = EdgeCode("k", "u", "u", prefix0 + j0 + prefix1 + j1)
    ring_e = EdgeCode("r", "v", "v", ring_passes)
    bridge = EdgeCode("t", "u", "v", ())
    vertices = (
        VertexCode("u", (("k", 0), ("k", 1), ("t", 0))),
        VertexCode("v", (("r", 0), ("r", 1), ("t", 1))),
    )
    prov = Provenance(origin="family", family="odd-ringed", n=n, variant=ring)
    g = SpatialGraphCode("handcuff", vertices, (loop_k, ring_e, bridge),
                         base.crossings + extra, prov)
    return mirror_code(g) if mirror else g


# --- text format ---------------------------------------------------------------


def format_code(g: SpatialGraphCode) -> str:
    """Serialize a code in the line-oriented text format."""
    lines = [f"graph {g.kind}"]
    for v in g.vertices:
        ends = " ".join(f"{eid}.{side}" for eid, side in v.ends)
        lines.append(f"vertex {v.id} ends {ends}")
    for e in g.edges:
        if e.is_circle:
            lines.append(f"edge {e.id}")
        elif e.is_vertex_loop:
            lines.append(f"edge {e.id} loop from {e.tail} to {e.head}")
        else:
            lines.append(f"edge {e.id} from {e.tail} to {e.head}")
    signs = g._signs
    for e in g.edges:
        for p in e.passes:
            sign = "+" if signs[p.crossing] == 1 else "-"
            lines.append(f"pass {e.id} {p.crossing} {p.position} sign={sign}")
    if g.provenance is not None:
        lines.append("meta " + " ".join(f"{k}={v}" for k, v in g.provenance.meta_items()))
    return "\n".join(lines) + "\n"


def _check_id(token: str, lineno: int) -> str:
    if not _ID_RE.fullmatch(token):
        raise StructureError(f"bad identifier {token!r}", lineno)
    return token


def parse_code(text: str) -> SpatialGraphCode:
    """Parse the line-oriented text format back into a code without violations.

    Anything else raises StructureError at the last line needed to see the
    defect: the latest line declaring an element it is about (a crossing is
    declared by its passes), or the graph line for the whole code's kind or shape.
    """
    kind: str | None = None
    graph_line = lineno = None
    vertices: list[VertexCode] = []
    edge_reads: list[tuple[str, str | None, str | None, list[Pass]]] = []
    passes: dict[str, list[Pass]] = {}  # by edge id
    signs: dict[str, int] = {}
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    lines: dict[str, dict[str, int]] = {"vertex": {}, "edge": {}, "crossing": {}}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "graph":
            if kind is not None:
                raise StructureError("second graph line", lineno)
            if len(tokens) != 2:
                raise StructureError("graph line needs: graph <kind>", lineno)
            kind, graph_line = tokens[1], lineno
        elif directive == "vertex":
            if len(tokens) < 3 or tokens[2] != "ends":
                raise StructureError("vertex line needs: vertex <id> ends <e.side>...", lineno)
            ends = []
            for token in tokens[3:]:
                eid, _, side = token.rpartition(".")
                if side not in ("0", "1") or not eid:
                    raise StructureError(f"bad end token {token!r}", lineno)
                ends.append((_check_id(eid, lineno), int(side)))
            vertices.append(VertexCode(_check_id(tokens[1], lineno), tuple(ends)))
            lines["vertex"][tokens[1]] = lineno
        elif directive == "edge":
            if len(tokens) == 2:
                name, tail, head = _check_id(tokens[1], lineno), None, None
            else:
                rest = tokens[2:]
                if rest and rest[0] == "loop":
                    rest = rest[1:]
                if len(rest) != 4 or rest[0] != "from" or rest[2] != "to":
                    raise StructureError(
                        "edge line needs: edge <id> [loop] from <v> to <v>", lineno)
                name = _check_id(tokens[1], lineno)
                tail, head = _check_id(rest[1], lineno), _check_id(rest[3], lineno)
            lines["edge"][name] = lineno
            passes[name] = []
            edge_reads.append((name, tail, head, passes[name]))
        elif directive == "pass":
            sign = _SIGNS.get(tokens[-1])
            if len(tokens) != 5 or sign is None and not tokens[4].startswith("sign="):
                raise StructureError(
                    "pass line needs: pass <edge> <crossing> over|under sign=+|-", lineno)
            _, name, cid, position, sign_token = tokens
            if cid not in signs:  # not checked on an earlier line
                _check_id(cid, lineno)
            if name not in passes:
                raise StructureError(f"pass for undeclared edge {name!r}", lineno)
            if position not in ("over", "under"):
                raise StructureError(f"bad pass position {position!r}", lineno)
            if sign is None:
                raise StructureError(f"bad sign {sign_token[len('sign='):]!r}", lineno)
            if signs.setdefault(cid, sign) != sign:
                raise StructureError(f"crossing {cid} has conflicting signs", lineno)
            passes[name].append(Pass(cid, position))
            lines["crossing"][cid] = lineno
        elif directive == "meta":
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                if not eq:
                    raise StructureError(f"bad meta token {token!r}", lineno)
                meta[key], meta_lines[key] = value, lineno
        else:
            raise StructureError(f"unknown directive {directive!r}", lineno)

    if kind is None:
        raise StructureError("missing graph line", lineno)
    edges = tuple(EdgeCode(name, tail, head, tuple(visits))
                  for name, tail, head, visits in edge_reads)
    crossings = tuple(Crossing(cid, s) for cid, s in signs.items())
    g = SpatialGraphCode(kind, tuple(vertices), edges, crossings,
                         _prov_from_meta(meta, meta_lines))
    if g.violations:
        v = g.violations[0]
        raise StructureError(v.message, max((lines[k][i] for k, i in v.where), default=graph_line))
    return g


def _meta_int(meta: dict[str, str], lines: dict[str, int], key: str) -> int | None:
    if key not in meta:
        return None
    try:
        return int(meta[key])
    except ValueError:
        raise StructureError(
            f"meta {key} must be an integer, got {meta[key]!r}", lines[key]) from None


def _prov_from_meta(meta: dict[str, str], lines: dict[str, int]) -> Provenance | None:
    """Provenance from `meta` tokens; `lines` holds each key's line number."""
    if not meta:
        return None
    if "origin" not in meta:
        raise StructureError("meta needs an origin", min(lines.values()))
    for key in meta:
        if key not in _META_KEYS:
            raise StructureError(f"unknown meta key {key!r}", lines[key])
    values = {f.name: f.default for f in fields(Provenance)}
    values.update((_META_KEYS[key], value) for key, value in meta.items())
    values.update(loopings=_meta_int(meta, lines, "loopings") or 0, n=_meta_int(meta, lines, "n"))
    if meta.get("mirror", "false") not in _META_VALUES["mirror"]:
        raise StructureError(_meta_value_message("mirror", meta["mirror"]), lines["mirror"])
    values["mirror"] = meta.get("mirror") == "true"
    try:
        return Provenance(**values)
    except StructureError as err:
        key, _ = _broken_provenance_rule(values)
        raise StructureError(str(err), lines[key]) from None

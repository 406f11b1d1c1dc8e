"""Marked loops evaluated in H1 of a complement, kept as a test oracle.

hkdiag.wirtinger.h1_complement gives each edge's meridian coordinates.
This module reads the class of other loops from them (Rolfsen, Knots and
Links, 3.D): a meridian, a word of signed under-passes, or the push-off of
a closed walk along graph edges. A loop's class is the signed sum of the
meridians of the strands it dives under, so its coordinates count
crossings one by one, which is how the tests read linking numbers
independently of spatial.linking_number.
"""

from dataclasses import dataclass

from hkdiag.errors import StructureError
from hkdiag.wirtinger import h1_complement


@dataclass(frozen=True)
class LoopClass:
    """Coordinates of a loop's first-homology class in the meridian basis."""

    coords: tuple[int, ...]

    def __add__(self, other: "LoopClass") -> "LoopClass":
        if len(self.coords) != len(other.coords):
            raise ValueError("coordinate lengths disagree")
        return LoopClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LoopClass":
        return LoopClass(tuple(-a for a in self.coords))

    def scaled(self, c: int) -> "LoopClass":
        return LoopClass(tuple(c * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


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


def _meridian(coords, edge_id) -> LoopClass:
    try:
        return LoopClass(coords[edge_id])
    except KeyError:
        raise StructureError(f"no edge named {edge_id!r}") from None


def _over_edge(g, crossing_id) -> str:
    for eid, _, position in g.crossing_passes().get(crossing_id, ()):
        if position == "over":
            return eid
    raise StructureError(f"crossing {crossing_id} has no over pass")


def _check_walk(g, steps) -> None:
    if not steps:
        raise StructureError("a walk needs at least one step")
    start = cur = None
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


def loop_class(g, marked: MarkedLoop, coords=None) -> LoopClass:
    """The class of a marked loop, from `coords` (the meridian coordinates
    of h1_complement(g), computed if not given)."""
    if coords is None:
        _, coords = h1_complement(g)
    if isinstance(marked, Meridian):
        return _meridian(coords, marked.edge)
    total = LoopClass((0,) * len(next(iter(coords.values()))))
    if isinstance(marked, UnderPassWord):
        for crossing_id, sign in marked.passes:
            if sign not in (1, -1):
                raise StructureError("under-pass signs must be +1 or -1")
            total = total + _meridian(coords, _over_edge(g, crossing_id)).scaled(sign)
        return total
    if isinstance(marked, EdgeWalk):
        _check_walk(g, marked.steps)
        for eid, direction in marked.steps:
            for p in g.edge(eid).passes:
                if p.position != "under":
                    continue
                over = _over_edge(g, p.crossing)
                factor = direction * g.sign(p.crossing)
                total = total + _meridian(coords, over).scaled(factor)
        return total
    raise TypeError(f"not a marked loop: {marked!r}")

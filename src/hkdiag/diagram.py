"""Characteristic diagrams of genus-2 handlebody-knot exteriors.

A characteristic diagram is a finite multigraph (loops allowed) whose nodes
are decorated solid or hollow, with exactly one node carrying a genus label.
Solid nodes stand for I-fibered pieces of the exterior's characteristic
decomposition, hollow nodes for simple pieces, and edges for the annuli they
are glued along. The constraints checked by `validate` cut the possible
shapes down to thirteen isomorphism classes, enumerated by `enumerate_valid`.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Sequence

from . import _EXPORTS
from .errors import StructureError

__all__ = [*_EXPORTS["diagram"], "StructureError"]


class NodeKind(enum.Enum):
    SOLID = "solid"
    HOLLOW = "hollow"


@dataclass(frozen=True)
class Node:
    """A decorated node whose id, kind and genus the file format can carry:
    anything else raises StructureError naming the node."""

    id: str
    kind: NodeKind
    genus: int | None = None

    def __post_init__(self):
        i = self.id
        if not isinstance(i, str) or i.split() != [i] or "#" in i:
            raise StructureError(f"node id {i!r} is not one token without '#'")
        if not isinstance(self.kind, NodeKind):
            raise StructureError(f"node {i!r}: kind {self.kind!r} is not a NodeKind")
        if self.genus is not None and type(self.genus) is not int:
            raise StructureError(f"node {i!r}: genus {self.genus!r} is not an int")

    @property
    def is_labeled(self) -> bool:
        return self.genus is not None


@dataclass(frozen=True)
class DiagramType:
    """The isomorphism invariant (e, l, b, labeled-node kind).

    e is the number of edges, l the number of loops, b the number of bigons
    (for a pair of nodes joined by m parallel edges, m*(m-1)/2 of them).
    """

    edges: int
    loops: int
    bigons: int
    labeled_kind: NodeKind

    def as_tuple(self) -> tuple[int, int, int, str]:
        return (self.edges, self.loops, self.bigons, self.labeled_kind.value)

    def __str__(self) -> str:
        return f"({self.edges},{self.loops},{self.bigons},{self.labeled_kind.value})"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    # (kind, id) of each element it is about, e.g. ("vertex", "u"), for a reader's line
    where: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class CharDiagram:
    """An immutable multigraph with decorated nodes.

    Nodes and edges are stored as tuples, edges as endpoint pairs in input
    order, each pair sorted by node id; parallel edges simply repeat.
    Structural sanity (no dangling endpoints, no duplicate ids) is enforced
    at construction, the domain constraints are checked by `validate`.

    Connectivity and cut edges come from a plain component count per query,
    which may leave one edge out. That is enough because a valid diagram has
    at most three edges: each one meets the labeled node (C-iv), whose
    degree is at most three (C-vii).
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        for n in self.nodes:
            if not isinstance(n, Node):
                raise StructureError(f"node {n!r} is not a Node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise StructureError("duplicate node id")
        known = set(ids)
        for e in self.edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise StructureError(f"edge {e!r} is not a pair of node ids")
            for end in e:
                if not isinstance(end, str) or end not in known:
                    raise StructureError(f"edge endpoint {end!r} is not a node")
        object.__setattr__(self, "edges", tuple(tuple(sorted(e)) for e in self.edges))

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @cached_property
    def labeled_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.is_labeled)

    @property
    def labeled_node(self) -> Node:
        labeled = self.labeled_nodes
        if len(labeled) != 1:
            raise ValueError("diagram does not have a unique labeled node")
        return labeled[0]

    @cached_property
    def _degrees(self) -> dict[str, int]:
        degrees = dict.fromkeys((n.id for n in self.nodes), 0)
        for a, b in self.edges:
            degrees[a] += 1
            degrees[b] += 1
        return degrees

    def degree(self, node_id: str) -> int:
        """Number of edge ends at the node; a loop contributes two."""
        return self._degrees.get(node_id, 0)

    def is_loop(self, index: int) -> bool:
        a, b = self.edges[index]
        return a == b

    @cached_property
    def loop_count(self) -> int:
        return sum(1 for a, b in self.edges if a == b)

    @cached_property
    def bigon_count(self) -> int:
        families = Counter(e for e in self.edges if e[0] != e[1])
        return sum(m * (m - 1) // 2 for m in families.values())

    def _components(self, without: int | None = None) -> int:
        """Connected components, with edge `without` left out if given."""
        adjacency: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for i, (a, b) in enumerate(self.edges):
            if i != without:
                adjacency[a].append(b)
                adjacency[b].append(a)
        components = 0
        while adjacency:  # each node's list is taken out once, when it is reached
            components += 1
            _, stack = adjacency.popitem()
            while stack:
                stack += adjacency.pop(stack.pop(), ())
        return components

    def is_connected(self) -> bool:
        return self._components() <= 1

    def is_cut_edge(self, index: int) -> bool:
        """Whether removing one copy of the edge disconnects the diagram.

        In a diagram that is already disconnected every non-loop edge does.
        """
        return not self.is_loop(index) and self._components(index) > 1

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate of this diagram, computed once."""
        return tuple(validate(self))


def validate(d: CharDiagram) -> list[Violation]:
    """Check the characteristic-diagram constraints; return all violations."""
    out: list[Violation] = []
    labeled = d.labeled_nodes
    if len(labeled) != 1:
        out.append(Violation("C-i", f"expected exactly one labeled node, found {len(labeled)}"))
    elif labeled[0].genus != 2:
        out.append(Violation("C-i", f"labeled node must carry genus 2, found {labeled[0].genus}"))
    for n in d.nodes:
        if not n.is_labeled and n.kind is not NodeKind.SOLID:
            out.append(Violation("C-ii", f"unlabeled node {n.id} must be solid"))
    for i in range(len(d.edges)):
        if d.is_loop(i) and d.node(d.edges[i][0]).kind is NodeKind.SOLID:
            out.append(Violation("C-iii", f"loop at solid node {d.edges[i][0]}"))
    if len(labeled) == 1:
        lid = labeled[0].id
        for a, b in d.edges:
            if lid not in (a, b):
                out.append(Violation("C-iv", f"edge {a}-{b} is not adjacent to the labeled node"))
        if (
            labeled[0].kind is NodeKind.SOLID
            and len(d.nodes) == 2
            and len(d.edges) == 2
            and d.loop_count == 0
            and d.bigon_count == 1
        ):
            out.append(Violation("C-vi", "solid-labeled diagram must not be a single bigon"))
    for n in d.nodes:
        if d.degree(n.id) > 3:
            out.append(Violation("C-vii", f"node {n.id} has degree {d.degree(n.id)} > 3"))
    if not d.edges:
        out.append(Violation("C-cyl", "diagram has no edges"))
    if not d.is_connected():
        out.append(Violation("conn", "diagram is not connected"))
    return out


def classify_type(d: CharDiagram) -> DiagramType:
    """The (e, l, b, kind) invariant; requires a uniquely labeled diagram."""
    return DiagramType(
        edges=len(d.edges),
        loops=d.loop_count,
        bigons=d.bigon_count,
        labeled_kind=d.labeled_node.kind,
    )


def are_isomorphic(d1: CharDiagram, d2: CharDiagram) -> bool:
    """Node-decoration-preserving multigraph isomorphism."""
    return canonical_form(d1) == canonical_form(d2)


def canonical_form(d: CharDiagram, labels: Sequence[str] | None = None) -> str:
    """A string equal for two diagrams exactly when they are isomorphic.

    With `labels`, one string per edge, each label is appended to its
    edge's endpoint pair, so the isomorphism must carry labels along; without
    them the edges are bare. Minimizes a plain-text encoding over all node
    orderings; the diagrams here never exceed four nodes, so the search is
    trivial.
    """
    suffixes = [""] * len(d.edges) if labels is None else [f":{lab}" for lab in labels]
    best = None
    for perm in itertools.permutations(range(len(d.nodes))):
        index = {d.nodes[orig].id: new for new, orig in enumerate(perm)}
        nodes_part = ",".join(
            f"{d.nodes[orig].kind.value}:{d.nodes[orig].genus if d.nodes[orig].genus is not None else '-'}"
            for orig in perm
        )
        edges_part = ",".join(
            f"{i}-{j}{suffix}"
            for i, j, suffix in sorted(
                (min(index[a], index[b]), max(index[a], index[b]), suffix)
                for (a, b), suffix in zip(d.edges, suffixes, strict=True)
            )
        )
        encoding = nodes_part + "|" + edges_part
        if best is None or encoding < best:
            best = encoding
    return best


_UNKNOWN_REALIZATION = {
    (2, 0, 0, "solid"),
    (3, 0, 1, "hollow"),
    (3, 0, 1, "solid"),
    (3, 0, 0, "hollow"),
    (3, 0, 0, "solid"),
}


def realization_status(t: DiagramType) -> str:
    """"realized" if an exterior with this diagram is known, else "unknown"."""
    return "unknown" if t.as_tuple() in _UNKNOWN_REALIZATION else "realized"


def solid_base_annotation(d: CharDiagram) -> str | None:
    """Base surface of the I-fibered piece at a solid labeled node.

    The base is read off the node's degree (its boundary-annulus count);
    hollow labeled nodes have no such annotation.
    """
    labeled = d.labeled_node
    if labeled.kind is not NodeKind.SOLID:
        return None
    deg = d.degree(labeled.id)
    return {
        1: "I-bundle over a Klein bottle minus an open disk",
        2: "I-bundle over a Moebius band minus an open disk",
        3: "I-bundle over a pair of pants",
    }.get(deg)


def enumerate_valid(single_bigon_rule: bool = True) -> tuple[CharDiagram, ...]:
    """All valid diagrams up to isomorphism, one representative per class.

    Generation is deliberately wider than the answer: up to three unlabeled
    solid nodes, up to three edges over every node pair including loops and
    pairs avoiding the labeled node. `validate` does the narrowing, so the
    thirteen classes really are cut out by the constraints rather than by
    the generator. With `single_bigon_rule` false, rule C-vi ("a solid-labeled
    diagram is not a single bigon") is ignored, so that its effect can be
    measured by ablation. Representatives come back sorted by type. The
    answer is computed once per process for each value of the flag, and
    every call returns that same immutable tuple.
    """
    return _enumerate_valid(bool(single_bigon_rule))


@cache
def _enumerate_valid(single_bigon_rule: bool) -> tuple[CharDiagram, ...]:
    found: dict[str, CharDiagram] = {}
    for kind in (NodeKind.HOLLOW, NodeKind.SOLID):
        for extra in range(0, 4):
            nodes = [Node("v", kind, 2)] + [Node(f"s{i + 1}", NodeKind.SOLID) for i in range(extra)]
            ids = [n.id for n in nodes]
            pairs = [(a, a) for a in ids] + list(itertools.combinations(ids, 2))
            for count in range(1, 4):
                for combo in itertools.combinations_with_replacement(pairs, count):
                    d = CharDiagram(nodes, combo)
                    if any(single_bigon_rule or v.code != "C-vi" for v in d.violations):
                        continue
                    key = canonical_form(d)
                    if key not in found:
                        found[key] = d
    return tuple(sorted(found.values(), key=lambda d: classify_type(d).as_tuple()))


# --- JSON -----------------------------------------------------------------------
# The text format of diagram files, plain or labeled, is read and written by
# labeling.parse_annulus and labeling.format_annulus.


def diagram_to_json_dict(d: CharDiagram, edges: list | None = None) -> dict:
    """d's nodes, then its edges: `edges` when given (a labeled diagram's),
    else the endpoint pairs."""
    return {
        "nodes": [
            {"id": n.id, "kind": n.kind.value, "genus": n.genus} for n in d.nodes
        ],
        "edges": [[a, b] for a, b in d.edges] if edges is None else edges,
    }

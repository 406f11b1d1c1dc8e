"""Edge labels for characteristic diagrams and the rules that govern them.

Each edge of a characteristic diagram can be annotated with the type of the
annulus it stands for:

    h1      non-separating annulus whose attachment leaves a solid torus
    h2      separating annulus of the same kind on the other side
    k1      annulus running along a knotted core, integral framing
    k2(r)   same with nonintegral boundary slope r (r never 0, never 1/m)
    l(r,s)  annulus with both boundary circles on the genus-2 node, slopes r,s
    l0      the trivial-slope version of l
    em      annulus separating a once-punctured torus piece

Labels live on top of a valid diagram. `slope_pair_classify` gives the shape
of an l label's slope pair; `validate_labels` checks the rule set R1..R8
below; `label_catalog` enumerates every rule-consistent labeling of the
thirteen diagram classes up to isomorphism; `symmetry_bounds` reads off what
the labeled diagram forces about the symmetry groups of the underlying
handlebody-knot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property

from . import _EXPORTS
from .diagram import (
    CharDiagram,
    DiagramType,
    Node,
    NodeKind,
    Violation,
    canonical_form,
    classify_type,
    diagram_to_json_dict,
    enumerate_valid,
    realization_status,
    solid_base_annotation,
)
from .errors import StructureError

__all__ = list(_EXPORTS["labeling"])

LABEL_KINDS = ("h1", "h2", "k1", "k2", "l", "l0", "em")
H_KINDS = ("h1", "h2")
CUT_KINDS = ("k1", "k2", "em")
NONCUT_KINDS = ("h1", "h2", "l", "l0")


def slope_pair_classify(r1, r2) -> str:
    """Classify an unordered slope pair on the two boundary circles.

    The shape is "trivial" (both slopes 0), "reciprocal" ({p/q, q/p}),
    "product" ({p/q, p*q}) or "invalid".

    >>> slope_pair_classify(Fraction(2, 3), Fraction(3, 2))
    'reciprocal'
    >>> slope_pair_classify(Fraction(2, 3), 6)
    'product'
    >>> slope_pair_classify(0, 0)
    'trivial'
    >>> slope_pair_classify(0, 5)
    'invalid'
    """
    a = Fraction(r1)
    b = Fraction(r2)
    if a == 0 and b == 0:
        return "trivial"
    for x, y in ((a, b), (b, a)):
        p, q = x.numerator, x.denominator
        if p != 0 and y == Fraction(q, p):
            return "reciprocal"
    for x, y in ((a, b), (b, a)):
        p, q = x.numerator, x.denominator
        if p != 0 and y == p * q:
            return "product"
    return "invalid"


@dataclass(frozen=True)
class EdgeLabel:
    """One annulus-type label: EdgeLabel("h2"), EdgeLabel("k2", slope=r) or
    EdgeLabel("l", slopes=(r, s)). A label `parse_label` could not read back
    from its str (see the module docstring) raises ValueError."""

    kind: str
    slope: Fraction | None = None
    slopes: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown label {self.kind!r}")
        if (self.slope is not None, self.slopes is not None) != (self.kind == "k2", self.kind == "l"):
            raise ValueError("k2 takes a slope and l a slope pair; no other label takes either")
        if self.kind == "k2":
            r = _fraction(self.slope)
            if r == 0 or abs(r.numerator) == 1:
                raise ValueError(
                    f"k2 slope must be nonzero and never a reciprocal of an integer, got {r}"
                )
            object.__setattr__(self, "slope", r)
        elif self.kind == "l":
            if not isinstance(self.slopes, tuple) or len(self.slopes) != 2:
                raise ValueError(f"label l needs two slopes, got {self.slopes!r}")
            r1, r2 = (_fraction(r) for r in self.slopes)
            shape = slope_pair_classify(r1, r2)
            if shape == "trivial":
                raise ValueError("the trivial slope pair is written l0, not l(0,0)")
            if shape == "invalid":
                raise ValueError(f"slope pair ({r1}, {r2}) fits no annulus of this kind")
            object.__setattr__(self, "slopes", tuple(sorted((r1, r2))))

    @property
    def slope_shape(self) -> str | None:
        if self.kind == "l":
            return slope_pair_classify(*self.slopes)
        if self.kind == "l0":
            return slope_pair_classify(0, 0)
        return None

    def __str__(self) -> str:
        if self.kind == "k2":
            return f"k2({self.slope})"
        if self.kind == "l":
            return f"l({self.slopes[0]},{self.slopes[1]})"
        return self.kind


def parse_label(token: str) -> EdgeLabel:
    """Parse one label token, e.g. "k2(5/2)" or "l(2/3,3/2)".

    The trivial pair l(0,0) is normalized to l0 so that each label has one
    spelling.
    """
    token = token.strip()
    if token in ("h1", "h2", "k1", "l0", "em"):
        return EdgeLabel(token)
    if token.startswith("k2(") and token.endswith(")"):
        return EdgeLabel("k2", slope=token[3:-1])
    if token.startswith("l(") and token.endswith(")"):
        parts = token[2:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"label l needs two slopes, got {token!r}")
        slopes = tuple(_fraction(p) for p in parts)
        return EdgeLabel("l0") if slopes == (0, 0) else EdgeLabel("l", slopes=slopes)
    raise ValueError(f"unknown label {token!r}")


def _fraction(value) -> Fraction:
    try:
        return Fraction(value.strip() if isinstance(value, str) else value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad slope {value!r}: {exc}") from exc


@dataclass(frozen=True)
class AnnulusDiagram:
    """A characteristic diagram with a label slot per edge.

    labels[i] annotates base.edges[i]; None marks an unlabeled edge, so plain
    diagrams embed as annulus diagrams with no labels at all.
    """

    base: CharDiagram
    labels: tuple[EdgeLabel | None, ...]

    def __post_init__(self):
        if not isinstance(self.base, CharDiagram):
            raise StructureError(f"base {self.base!r} is not a CharDiagram")
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.base.edges):
            raise StructureError("one label slot per edge required")
        for lab in self.labels:
            if lab is not None and not isinstance(lab, EdgeLabel):
                raise StructureError(f"label slot {lab!r} is neither None nor an EdgeLabel")

    @classmethod
    def unlabeled(cls, base: CharDiagram) -> "AnnulusDiagram":
        return cls(base, (None,) * len(base.edges))

    @property
    def is_fully_labeled(self) -> bool:
        return all(lab is not None for lab in self.labels)

    @property
    def label_kinds(self) -> tuple[str, ...]:
        return tuple(sorted(lab.kind for lab in self.labels if lab is not None))

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """validate_labels of this diagram, computed once."""
        return tuple(validate_labels(self))


def validate_labels(ad: AnnulusDiagram) -> list[Violation]:
    """Structural constraints plus the labeling rules R1..R8.

    Label rules are only meaningful on a structurally valid diagram, so if
    the base has violations those are returned alone. A diagram with no
    labels at all passes vacuously; a partially labeled one is rejected.

    R1  loops and parallel edges carry h1/h2/l/l0; bridges carry k1/k2/em
    R2  h1 occurs only as the sole label of the single-loop diagram
    R3  an l label with a reciprocal slope pair occurs only alone
    R4  a theta-shape diagram is labeled exactly {h2, h2, l0}
    R5  em never coexists with any of h1/h2/l/l0
    R6  the companion edge of an h2 loop is labeled k1 or k2
    R7  two h2 labels never coexist with a k-labeled edge
    R8  h2 on a non-loop edge occurs only in a theta-shape diagram
    """
    out = list(ad.base.violations)
    if out:
        return out
    if not any(lab is not None for lab in ad.labels):
        return []
    if not ad.is_fully_labeled:
        missing = [i for i, lab in enumerate(ad.labels) if lab is None]
        a, b = ad.base.edges[missing[0]]
        out.append(Violation("labels", f"edge {a}-{b} is unlabeled"))
        return out

    d = ad.base
    dtype = classify_type(d)
    theta_shape = (dtype.edges, dtype.loops, dtype.bigons) == (3, 0, 3)
    kinds = [lab.kind for lab in ad.labels]

    for i, lab in enumerate(ad.labels):
        a, b = d.edges[i]
        if d.is_cut_edge(i):
            if lab.kind not in CUT_KINDS:
                out.append(Violation("R1", f"cut edge {a}-{b} cannot carry {lab}"))
        else:
            if lab.kind not in NONCUT_KINDS:
                out.append(Violation("R1", f"non-cut edge {a}-{b} cannot carry {lab}"))

    if "h1" in kinds:
        if dtype.as_tuple() != (1, 1, 0, "hollow") or kinds != ["h1"]:
            out.append(Violation("R2", "h1 occurs only as the sole label of the single-loop diagram"))

    for lab in ad.labels:
        if lab.slope_shape == "reciprocal" and len(d.edges) != 1:
            out.append(Violation("R3", "a reciprocal slope pair forces a single-edge diagram"))

    if theta_shape and sorted(kinds) != ["h2", "h2", "l0"]:
        out.append(Violation("R4", "a theta-shape diagram is labeled exactly {h2, h2, l0}"))

    if "em" in kinds and any(k in ("h1", "h2", "l", "l0") for k in kinds):
        out.append(Violation("R5", "em never coexists with h or l labels"))

    for i, lab in enumerate(ad.labels):
        if lab.kind == "h2" and d.is_loop(i):
            for j, other in enumerate(ad.labels):
                if j != i and d.is_cut_edge(j) and other.kind not in ("k1", "k2"):
                    a, b = d.edges[j]
                    out.append(Violation("R6", f"the companion edge {a}-{b} of an h2 loop must carry k1 or k2"))

    if kinds.count("h2") >= 2 and any(k in ("k1", "k2") for k in kinds):
        out.append(Violation("R7", "two h2 labels never coexist with a k label"))

    for i, lab in enumerate(ad.labels):
        if lab.kind == "h2" and not d.is_loop(i) and not theta_shape:
            out.append(Violation("R8", "h2 on a non-loop edge occurs only in a theta-shape diagram"))

    return out


def _labeled_key(ad: AnnulusDiagram) -> str:
    return canonical_form(ad.base, [str(lab) for lab in ad.labels])


def labeled_isomorphic(ad1: AnnulusDiagram, ad2: AnnulusDiagram) -> bool:
    """Isomorphism of the bases carrying the labels along."""
    return _labeled_key(ad1) == _labeled_key(ad2)


# --- what a valid labeled diagram implies ------------------------------------


class GroupBound(Enum):
    """A constraint on a finite group, ordered by the subgroups it allows."""

    TRIVIAL = "1"
    AT_MOST_Z2 = "<= Z2"
    EXACTLY_Z2 = "Z2"
    AT_MOST_Z2XZ2 = "<= Z2 x Z2"
    EXACTLY_Z2XZ2 = "Z2 x Z2"

    def allows(self, group: str) -> bool:
        """Whether a group named "1", "Z2" or "Z2xZ2" satisfies the bound."""
        return group in _ALLOWED[self]


# The groups each bound allows, smallest first; the widest bound lists them all.
_ALLOWED = {
    GroupBound.TRIVIAL: ("1",),
    GroupBound.AT_MOST_Z2: ("1", "Z2"),
    GroupBound.EXACTLY_Z2: ("Z2",),
    GroupBound.AT_MOST_Z2XZ2: ("1", "Z2", "Z2xZ2"),
    GroupBound.EXACTLY_Z2XZ2: ("Z2xZ2",),
}


def _largest(bound: GroupBound) -> int:
    """Size rank of the largest group a bound allows."""
    return _ALLOWED[GroupBound.AT_MOST_Z2XZ2].index(_ALLOWED[bound][-1])


@dataclass(frozen=True)
class SymmetryBounds:
    """Bounds on the orientation-preserving and full symmetry groups.

    `exact` is True when both groups are pinned rather than merely bounded.
    The full group always dominates the orientation-preserving one.
    """

    sym_plus: GroupBound
    sym: GroupBound
    exact: bool

    def __post_init__(self):
        if _largest(self.sym) < _largest(self.sym_plus):
            raise ValueError("the full symmetry bound cannot sit below the chiral one")


def symmetry_bounds(ad: AnnulusDiagram) -> SymmetryBounds | None:
    """Symmetry-group bounds implied by a valid labeled diagram.

    Returns None when the labels carry no h1/h2 edge: the classification of
    type-2 annuli then says nothing, and no bound is derived. Raises
    ValueError on an invalid diagram.
    """
    if ad.violations:
        raise ValueError(f"invalid diagram: {ad.violations[0]}")
    kinds = ad.label_kinds
    dtype = classify_type(ad.base)
    key = dtype.as_tuple()
    if "h1" in kinds:
        return SymmetryBounds(GroupBound.AT_MOST_Z2, GroupBound.AT_MOST_Z2XZ2, exact=False)
    if "h2" not in kinds:
        return None
    if key == (1, 1, 0, "hollow"):
        return SymmetryBounds(GroupBound.TRIVIAL, GroupBound.AT_MOST_Z2, exact=False)
    if key == (2, 1, 0, "hollow"):
        return SymmetryBounds(GroupBound.TRIVIAL, GroupBound.TRIVIAL, exact=True)
    if key == (3, 0, 3, "hollow"):
        return SymmetryBounds(GroupBound.AT_MOST_Z2, GroupBound.AT_MOST_Z2XZ2, exact=False)
    if key == (3, 0, 3, "solid"):
        return SymmetryBounds(GroupBound.EXACTLY_Z2, GroupBound.EXACTLY_Z2XZ2, exact=True)
    return None


def is_fourone(ad: AnnulusDiagram) -> bool:
    """Whether the diagram characterizes the figure-eight handlebody-knot.

    The theta-shape diagram with a solid labeled node occurs for 4_1 and for
    no other handlebody-knot, so this is an if-and-only-if test.
    """
    if ad.violations:
        return False
    return classify_type(ad.base).as_tuple() == (3, 0, 3, "solid")


@dataclass(frozen=True)
class Fact:
    code: str
    text: str
    provenance: str = "rule"


def derived_facts(ad: AnnulusDiagram) -> list[Fact]:
    """Everything the rule base can read off a valid (possibly unlabeled) diagram."""
    if ad.violations:
        raise ValueError(f"invalid diagram: {ad.violations[0]}")
    d = ad.base
    dtype = classify_type(d)
    key = dtype.as_tuple()
    kinds = ad.label_kinds
    facts: list[Fact] = []

    if key == (1, 0, 0, "solid"):
        facts.append(Fact("annuli-count", "the exterior contains exactly five essential annuli up to isotopy"))
    elif key == (2, 0, 0, "solid"):
        facts.append(Fact("annuli-count", "the exterior contains infinitely many pairwise non-isotopic essential annuli"))
    elif key[:3] == (3, 0, 3):
        facts.append(Fact("annuli-count", "the exterior contains exactly three essential annuli up to isotopy"))
    else:
        facts.append(Fact("annuli-count", "the exterior contains at most three essential annuli up to isotopy"))

    if key[:3] == (3, 0, 3):
        facts.append(Fact(
            "theta-shape",
            "the unlabeled node is a Seifert fibered solid torus without exceptional fibers",
        ))
        if key[3] == "solid":
            facts.append(Fact("fourone", "the handlebody-knot is equivalent to 4_1"))

    base = solid_base_annotation(d)
    if base is not None:
        facts.append(Fact("solid-base", f"the labeled node is an {base}"))

    if "h1" in kinds:
        facts.append(Fact("uniqueness", "the type 2-1 annulus is the unique essential annulus, up to isotopy"))
    if "h2" in kinds and key == (1, 1, 0, "hollow"):
        facts.append(Fact("uniqueness", "the type 2-2 annulus is the unique type 2-2 annulus, up to isotopy"))
    if "h2" in kinds and key == (2, 1, 0, "hollow"):
        facts.append(Fact("uniqueness", "the type 2-2 annulus is the unique type 2-2 annulus, up to isotopy"))
        facts.append(Fact("second-type", "an essential annulus of another type is present"))

    for lab in ad.labels:
        if lab is None:
            continue
        if lab.slope_shape == "reciprocal":
            facts.append(Fact("uniqueness", "the annulus is the unique essential annulus, up to isotopy"))
    if "l0" in kinds:
        facts.append(Fact("uniqueness", "the trivial-slope annulus is the unique annulus of its type, up to isotopy"))
    if "l" in kinds or "l0" in kinds:
        facts.append(Fact("l-count", "at most two non-isotopic annuli of the l kind exist"))

    if kinds and not any(k in H_KINDS for k in kinds):
        facts.append(Fact("unconstrained", "the labels are not constrained by the type-2 classification"))

    if realization_status(dtype) == "unknown":
        facts.append(Fact("realization", "no known handlebody-knot realizes this diagram type"))

    return facts


# --- the exhaustive catalog ---------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    diagram: AnnulusDiagram
    dtype: DiagramType
    kinds: tuple[str, ...]
    realization: str
    constrained: bool


def _alphabet_for(d: CharDiagram, index: int) -> list[EdgeLabel]:
    if d.is_cut_edge(index):
        return [EdgeLabel("k1"), EdgeLabel("k2", slope=2), EdgeLabel("em")]
    return [
        EdgeLabel("h1"),
        EdgeLabel("h2"),
        EdgeLabel("l", slopes=(Fraction(2, 3), Fraction(3, 2))),
        EdgeLabel("l", slopes=(Fraction(2, 3), 6)),
        EdgeLabel("l0"),
    ]


@cache
def label_catalog() -> tuple[CatalogEntry, ...]:
    """Every rule-consistent labeling of the thirteen classes, up to isomorphism.

    Parameterized labels appear with one representative slope each, so the
    catalog is finite; entries are distinguished by base class and label
    multiset. Its 66 entries count labelings up to the slope values within
    a shape: k2(2) stands for every k2 slope, and l(2/3,3/2) and l(2/3,6)
    for every reciprocal and product pair. Exactly six entries carry an h
    label: the single h1 diagram and the five h2 diagrams. The catalog is
    computed once per process, and every call returns that same immutable
    tuple.
    """
    entries: list[CatalogEntry] = []
    for d in enumerate_valid():
        alphabets = [_alphabet_for(d, i) for i in range(len(d.edges))]
        kept: dict[str, AnnulusDiagram] = {}
        for assignment in itertools.product(*alphabets):
            ad = AnnulusDiagram(d, assignment)
            if not ad.violations:
                kept.setdefault(_labeled_key(ad), ad)
        for ad in kept.values():
            dtype = classify_type(d)
            kinds = ad.label_kinds
            entries.append(CatalogEntry(
                diagram=ad,
                dtype=dtype,
                kinds=kinds,
                realization=realization_status(dtype),
                constrained=any(k in H_KINDS for k in kinds),
            ))
    return tuple(entries)


# --- the text format and JSON ---------------------------------------------------


def parse_annulus(text: str) -> AnnulusDiagram:
    """Parse a diagram file: node lines, and edge lines with an optional label=.

    This is the one reader of the format; a plain diagram is
    `parse_annulus(text).base`. Of several defects the first reported is a
    line-level one in file order, then an edge endpoint that names no node,
    then a bad label token in edge order.
    """
    nodes: list[Node] = []
    node_ids: set[str] = set()
    edges: list[tuple[str, str, int, str | None]] = []  # endpoints, line, label token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) not in (3, 4):
                raise StructureError("node line needs: node <id> <solid|hollow> [genus=<n>]", lineno)
            genus = None
            if len(parts) == 4:
                if not parts[3].startswith("genus="):
                    raise StructureError(f"unexpected token {parts[3]!r}", lineno)
                try:
                    genus = int(parts[3][len("genus="):])
                except ValueError:
                    raise StructureError("genus must be an integer", lineno) from None
            try:
                kind = NodeKind(parts[2])
            except ValueError:
                raise StructureError(f"unknown node kind {parts[2]!r}", lineno) from None
            if parts[1] in node_ids:
                raise StructureError("duplicate node id", lineno)
            node_ids.add(parts[1])
            nodes.append(Node(parts[1], kind, genus))
        elif parts[0] == "edge":
            if len(parts) not in (3, 4):
                raise StructureError("edge line needs: edge <id> <id> [label=<label>]", lineno)
            token = None
            if len(parts) == 4:
                if not parts[3].startswith("label="):
                    raise StructureError(f"unexpected token {parts[3]!r}", lineno)
                token = parts[3][len("label="):]
            edges.append((parts[1], parts[2], lineno, token))
        else:
            raise StructureError(f"unknown directive {parts[0]!r}", lineno)
    for a, b, lineno, _ in edges:
        for end in (a, b):
            if end not in node_ids:
                raise StructureError(f"edge endpoint {end!r} is not a node", lineno)
    labels: list[EdgeLabel | None] = []
    for _, _, lineno, token in edges:
        try:
            labels.append(None if token is None else parse_label(token))
        except ValueError as exc:
            raise StructureError(str(exc), lineno) from exc
    return AnnulusDiagram(CharDiagram(nodes, [(a, b) for a, b, _, _ in edges]), labels)


def format_annulus(ad: AnnulusDiagram) -> str:
    """The one writer of the format; a plain diagram d is written as
    `format_annulus(AnnulusDiagram.unlabeled(d))`."""
    lines = []
    for n in ad.base.nodes:
        suffix = f" genus={n.genus}" if n.genus is not None else ""
        lines.append(f"node {n.id} {n.kind.value}{suffix}")
    for (a, b), lab in zip(ad.base.edges, ad.labels):
        suffix = f" label={lab}" if lab is not None else ""
        lines.append(f"edge {a} {b}{suffix}")
    return "\n".join(lines) + "\n"


def _label_to_json(lab: EdgeLabel | None):
    if lab is None:
        return None
    data: dict = {"kind": lab.kind}
    if lab.slope is not None:
        data["slope"] = str(lab.slope)
    if lab.slopes is not None:
        data["slopes"] = [str(s) for s in lab.slopes]
    return data


def annulus_to_json_dict(ad: AnnulusDiagram) -> dict:
    return diagram_to_json_dict(ad.base, [
        {"ends": list(e), "label": _label_to_json(lab)}
        for e, lab in zip(ad.base.edges, ad.labels)
    ])

"""The two-ladder classification of atoroidal graphs, kept as a test oracle.

hkdiag.spatial.classify_atoroidal runs one decision ladder for both
families. This module keeps the construction it replaced: one ladder for
theta-curves, over the three constituent knots, and one for handcuff
graphs, over the constituent link and the bridge. Both read the fact set
only; the constituent names and the bridge are worked out here, and only
the result and error types come from the library.
"""

from hkdiag.spatial import ContradictionError, GraphClass, StructureError, Unclassified


def _constituents(g):
    """(name, rest) for each constituent knot of a theta code: the edges
    in id order, paired as (0, 1), (0, 2), (1, 2), and the arc left out."""
    e = sorted(edge.id for edge in g.edges)
    return [(f"{e[0]}+{e[1]}", e[2]), (f"{e[0]}+{e[2]}", e[1]), (f"{e[1]}+{e[2]}", e[0])]


def two_ladder_classify(g, facts):
    """The class of g from facts alone; the same contract as
    hkdiag.spatial.classify_atoroidal."""
    if g.violations:
        raise StructureError(f"invalid code: {g.violations[0]}")
    if g.kind == "link":
        raise StructureError("classification applies to theta and handcuff codes")

    if facts.get("atoroidal") is not True:
        return Unclassified("the exterior must be known atoroidal", ("atoroidal",))
    planar = facts.get("planar")

    if g.kind == "theta":
        comps = _constituents(g)
        status = [facts.get(f"knot-trivial:{name}") for name, _ in comps]
        knotted = [c for c, s in zip(comps, status) if s is False]
        if planar is True:
            if knotted:
                raise ContradictionError(
                    f"a planar theta-curve has trivial constituents, yet {knotted[0][0]} is knotted")
            return GraphClass("tau1")
        if planar is False:
            if all(s is True for s in status):
                return GraphClass("tau2")
            if knotted:
                _, arc = knotted[0]
                if facts.get("tunnel") == arc:
                    return GraphClass("tau3")
                if facts.get("knotting-arc") == arc:
                    return GraphClass("tau4")
                return Unclassified(
                    f"the arc {arc} must be designated a tunnel or a knotting arc",
                    ("tunnel", "knotting-arc"))
            return Unclassified(
                "constituent knot types are unknown",
                tuple(f"knot-trivial:{name}" for name, _ in comps))
        return Unclassified("planarity is unknown", ("planar",))

    if planar is True:
        if facts.get("split") is False:
            raise ContradictionError("a planar handcuff graph has a split constituent link")
        return GraphClass("h1")
    if planar is False:
        split = facts.get("split")
        if split is True:
            return GraphClass("h2")
        if split is False:
            bridge = next(e.id for e in g.edges if e.tail is not None and e.tail != e.head)
            if facts.get("tunnel") == bridge:
                return GraphClass("h3")
            if facts.get("knotting-arc") == bridge:
                return GraphClass("h4")
            return Unclassified(
                f"the bridge {bridge} must be designated a tunnel or a knotting arc",
                ("tunnel", "knotting-arc"))
        return Unclassified("splitness of the constituent link is unknown", ("split",))
    return Unclassified("planarity is unknown", ("planar",))

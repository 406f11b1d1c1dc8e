"""Spatial graph codes: constituents, looping, families, and predictions."""

import contextlib
import itertools
from dataclasses import replace
from importlib import resources
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from sympy import Matrix

from classify_oracle import two_ladder_classify
from h1_oracle import arc_h1
from loop_class_oracle import EdgeWalk, Meridian, UnderPassWord, loop_class
from loop_oracle import two_branch_loop_at
from parse_oracle import token_by_token_parse_code

from hkdiag import spatial, wirtinger
from hkdiag.diagram import Violation
from hkdiag.homology import LaurentPoly, subgroup_index
from hkdiag.spatial import (
    ContradictionError,
    Crossing,
    EdgeCode,
    FactSet,
    GraphClass,
    Pass,
    Provenance,
    SpatialGraphCode,
    StructureError,
    Unclassified,
    VertexCode,
    bridge_of,
    classify_atoroidal,
    closed_braid,
    constituent_links,
    family_odd_ringed,
    family_torus_link,
    format_code,
    linking_number,
    loop_at,
    looping_kind,
    looping_transition,
    mirror_code,
    parse_code,
    predicted_annulus,
    resolve_end,
    type_three_two_linking_test,
    validate_code,
)
from hkdiag.wirtinger import (
    alexander_polynomial,
    attach_evidence,
    constituent_invariants,
    h1_complement,
)


def braid(*signed):
    return [(abs(i), 1 if i > 0 else -1) for i in signed]


def over_sum(g, a, b):
    """Signed count of crossings where circle a passes over circle b.

    Every crossing between the two circles has exactly one over pass, so
    this sum equals the linking number without any halving; it is a second
    route to the same quantity, used as an oracle.
    """
    over = {}
    under = {}
    for e in g.edges:
        for p in e.passes:
            (over if p.position == "over" else under)[p.crossing] = e.id
    return sum(
        c.sign for c in g.crossings if over.get(c.id) == a and under.get(c.id) == b
    )


TREFOIL_DELTA = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
FIG8_DELTA = LaurentPoly.from_dict({0: 1, 1: -3, 2: 1})


# --- braid closures ---------------------------------------------------------------


def test_closed_braid_component_count():
    assert len(closed_braid(braid(1, 1), 2).edges) == 2
    assert len(closed_braid(braid(1, 1, 1), 2).edges) == 1
    assert len(closed_braid([], 3).edges) == 3


def test_closed_braid_names():
    assert [e.id for e in closed_braid(braid(1, 1, 1), 2).edges] == ["k"]
    assert [e.id for e in closed_braid(braid(1, 1), 2).edges] == ["a", "b"]
    assert [e.id for e in closed_braid([], 3).edges] == ["c1", "c2", "c3"]


def test_closed_braid_validates():
    for word, strands in [(braid(1, 1, 1), 2), (braid(1, -2, 1, -2), 3), ([], 1)]:
        assert validate_code(closed_braid(word, strands)) == []


def test_closed_braid_rejects_bad_letters():
    with pytest.raises(StructureError):
        closed_braid([(2, 1)], 2)
    with pytest.raises(StructureError):
        closed_braid([(1, 3)], 2)
    with pytest.raises(StructureError):
        closed_braid([], 0)


def test_hopf_link():
    g = closed_braid(braid(1, 1), 2)
    assert linking_number(g, "a", "b") == 1
    assert over_sum(g, "a", "b") == 1
    assert over_sum(g, "b", "a") == 1


# --- linking numbers against the oracle ---------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_torus_family_linking(n):
    g = family_torus_link(n)
    assert linking_number(g, "a", "b") == n // 2
    assert over_sum(g, "a", "b") == n // 2
    assert over_sum(g, "b", "a") == n // 2


def test_mirror_negates_linking():
    g = mirror_code(family_torus_link(4))
    assert linking_number(g, "a", "b") == -2
    assert over_sum(g, "a", "b") == -2


def test_mirror_is_an_involution():
    g = family_torus_link(4, tunnel=True)
    assert mirror_code(mirror_code(g)) == g


def test_mixed_sign_linking():
    g = closed_braid(braid(1, 1, -1, -1), 2)
    assert linking_number(g, "a", "b") == 0
    assert over_sum(g, "a", "b") == 0


def test_linking_rejects_nonsense():
    g = family_torus_link(4)
    with pytest.raises(StructureError):
        linking_number(g, "a", "a")
    with pytest.raises(StructureError):
        linking_number(g, "a", "z")
    with pytest.raises(StructureError):
        linking_number(family_torus_link(3, tunnel=True), "ka", "kb")


def test_type_three_two_linking_test():
    assert not type_three_two_linking_test(1)
    assert not type_three_two_linking_test(-1)
    assert type_three_two_linking_test(0)
    assert type_three_two_linking_test(2)
    assert type_three_two_linking_test(-5)


# --- families -----------------------------------------------------------------------


def test_torus_family_shapes():
    assert family_torus_link(4).kind == "link"
    assert family_torus_link(4, tunnel=True).kind == "handcuff"
    assert family_torus_link(3, tunnel=True).kind == "theta"
    with pytest.raises(StructureError):
        family_torus_link(1)
    with pytest.raises(StructureError, match="from n = 2 to 100000"):
        family_torus_link(10**20)


def test_torus_family_tunnel_is_crossing_free():
    g = family_torus_link(4, tunnel=True)
    assert bridge_of(g).passes == ()
    theta = family_torus_link(3, tunnel=True)
    assert theta.edge("t").passes == ()


def test_torus_family_constituent_link():
    g = family_torus_link(6, tunnel=True)
    (link,) = constituent_links(g)
    assert linking_number(link, "a", "b") == 3


def test_theta_constituents():
    g = family_torus_link(3, tunnel=True)
    pieces = constituent_links(g)
    names = sorted("+".join(e.id for e in p.edges) for p in pieces)
    assert names == ["ka+kb", "ka+t", "kb+t"]
    deltas = {
        "+".join(e.id for e in p.edges): alexander_polynomial(p) for p in pieces
    }
    assert deltas["ka+kb"] == TREFOIL_DELTA
    assert deltas["ka+t"] == LaurentPoly.constant(1)
    assert deltas["kb+t"] == LaurentPoly.constant(1)


def test_constituents_drop_mixed_crossings():
    g = family_torus_link(4, tunnel=True)
    (link,) = constituent_links(g)
    for e in link.edges:
        for p in e.passes:
            owners = [
                eid for eid, _, _ in link.crossing_passes()[p.crossing]
            ]
            assert set(owners) <= {"a", "b"}


def test_odd_ringed_family():
    one = family_odd_ringed(3, "one")
    assert one.kind == "handcuff"
    assert validate_code(one) == []
    (link,) = constituent_links(one)
    assert abs(linking_number(link, "k", "r")) == 1

    both = family_odd_ringed(5, "both")
    (link,) = constituent_links(both)
    assert abs(linking_number(link, "k", "r")) == 2
    assert bridge_of(both).passes == ()


def test_odd_ringed_rejects_bad_n():
    with pytest.raises(StructureError):
        family_odd_ringed(4)
    with pytest.raises(StructureError):
        family_odd_ringed(1)
    with pytest.raises(StructureError, match="from 3 to 100000"):
        family_odd_ringed(100_001)
    with pytest.raises(StructureError):
        family_odd_ringed(3, "neither")


# --- looping ------------------------------------------------------------------------


def tunnel_loop(n):
    g = family_torus_link(n, tunnel=True)
    pair = (resolve_end(g, "u", "ka"), resolve_end(g, "u", "kb"))
    return loop_at(g, "u", pair, tunnel="t")


def test_loop_of_theta_is_handcuff():
    g = family_torus_link(3, tunnel=True)
    looped = tunnel_loop(3)
    assert looped.kind == "handcuff"
    assert validate_code(looped) == []
    assert len(looped.crossings) == len(g.crossings) + 2
    names = sorted(e.id for e in looped.edges)
    assert names == ["c1", "ka+kb", "t"]
    assert looped.provenance.loopings == 1
    assert looped.provenance.looping_kind == "tunnel"
    assert looped.provenance.source_kind == "theta"


def test_loop_ring_encircles_merged_strand():
    looped = tunnel_loop(3)
    (link,) = constituent_links(looped)
    assert abs(linking_number(link, "c1", "ka+kb")) == 1
    ring = looped.edge("c1")
    assert len(ring.passes) == 2


def test_loop_preserves_knot_type():
    """The merged strand still carries the trefoil after the splice."""
    knots, _ = constituent_invariants(tunnel_loop(3))
    assert knots["ka+kb"] == TREFOIL_DELTA


def test_loop_mirror_flips_ring():
    g = family_torus_link(3, tunnel=True)
    pair = (resolve_end(g, "u", "ka"), resolve_end(g, "u", "kb"))
    plain = loop_at(g, "u", pair)
    mirrored = loop_at(g, "u", pair, mirror=True)
    (link_p,) = constituent_links(plain)
    (link_m,) = constituent_links(mirrored)
    assert linking_number(link_p, "c1", "ka+kb") == -linking_number(
        link_m, "c1", "ka+kb"
    )


def test_loop_of_handcuff():
    g = family_torus_link(2, tunnel=True)
    pair = (resolve_end(g, "u", "a.0"), resolve_end(g, "u", "t"))
    looped = loop_at(g, "u", pair)
    assert looped.kind == "handcuff"
    assert validate_code(looped) == []
    assert sorted(e.id for e in looped.edges) == ["b", "c1", "t+a"]
    assert looped.provenance.source_kind == "handcuff"


def test_loop_self_splice_disconnects():
    g = family_torus_link(2, tunnel=True)
    pair = (resolve_end(g, "u", "a.0"), resolve_end(g, "u", "a.1"))
    with pytest.raises(ValueError, match="disconnect"):
        loop_at(g, "u", pair)


def test_double_loop():
    once = tunnel_loop(3)
    pair = (resolve_end(once, "v", "ka+kb.0"), resolve_end(once, "v", "t"))
    twice = loop_at(once, "v", pair)
    assert validate_code(twice) == []
    assert twice.provenance.loopings == 2
    loops = sorted(e.id for e in twice.edges if e.is_vertex_loop)
    assert loops == ["c1", "c2"]


def test_loop_rejects_wrong_inputs():
    g = family_torus_link(3, tunnel=True)
    end = resolve_end(g, "u", "ka")
    with pytest.raises(StructureError):
        loop_at(g, "u", (end, end))
    with pytest.raises(StructureError):
        loop_at(g, "u", (end, ("kb", 0)))  # kb.0 is at v, not u
    with pytest.raises(StructureError):
        loop_at(closed_braid(braid(1, 1), 2), "u", (end, end))


def test_loop_at_unknown_vertex_is_a_structure_error():
    g = family_torus_link(3, tunnel=True)
    with pytest.raises(StructureError, match="^no vertex named 'zz'$"):
        loop_at(g, "zz", (("ka", 0), ("kb", 1)))
    with pytest.raises(StructureError, match="^no vertex named 'zz'$"):
        resolve_end(g, "zz", "ka")


def test_resolve_end():
    g = family_torus_link(2, tunnel=True)
    assert resolve_end(g, "u", "t") == ("t", 0)
    assert resolve_end(g, "u", "a.1") == ("a", 1)
    with pytest.raises(StructureError):
        resolve_end(g, "u", "a")  # both ends of the loop are here
    with pytest.raises(StructureError):
        resolve_end(g, "u", "b")
    with pytest.raises(StructureError, match="^bad end token 'a.2'$"):
        resolve_end(g, "u", "a.2")
    with pytest.raises(StructureError, match="^end t.1 is not at vertex u$"):
        resolve_end(g, "u", "t.1")


def test_only_a_handcuff_has_a_bridge():
    with pytest.raises(StructureError, match="^only handcuff codes have a bridge$"):
        bridge_of(family_torus_link(3, tunnel=True))


def test_looping_kind_designation():
    g = family_torus_link(3, tunnel=True)
    ka0, kb1, t0 = ("ka", 0), ("kb", 1), ("t", 0)
    assert looping_kind(g, (ka0, kb1), "t") == "tunnel"
    assert looping_kind(g, (ka0, t0), "t") == "knot"
    assert looping_kind(g, (ka0, kb1), None) == "plain"
    h = family_torus_link(2, tunnel=True)
    assert looping_kind(h, (("a", 0), ("t", 0)), "t") == "plain"
    for code, pair in ((g, (ka0, kb1)), (h, (("a", 0), ("t", 0)))):
        with pytest.raises(StructureError, match="^no edge named 'zz'$"):
            looping_kind(code, pair, "zz")


LOOPING_SOURCES = (
    *(family_torus_link(n, tunnel=True, mirror=m) for n in (2, 3, 4, 5) for m in (False, True)),
    family_odd_ringed(3, "one"),
    family_odd_ringed(3, "both", mirror=True),
    parse_code(resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()),
)


@seed(20291)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LOOPING_SOURCES), st.data())
def test_loop_at_matches_the_two_branch_oracle(g, data):
    """1-4 loopings at random ends, with or without a designated tunnel, of
    either handedness: loop_at writes the code the two-branch rewrite writes
    for the looping kind of that designation, or raises what it raises."""
    for _ in range(data.draw(st.integers(1, 4))):
        v = data.draw(st.sampled_from(g.vertices))
        pair = (data.draw(st.sampled_from(v.ends)), data.draw(st.sampled_from(v.ends)))
        tunnel = data.draw(st.sampled_from((None, *(e.id for e in g.edges))))
        mirror = data.draw(st.booleans())
        try:
            expected = format_code(two_branch_loop_at(
                g, v.id, pair, looping_kind(g, pair, tunnel), mirror))
        except (StructureError, ContradictionError) as err:
            expected = type(err)
        try:
            looped = loop_at(g, v.id, pair, tunnel, mirror)
        except (StructureError, ContradictionError) as err:
            assert type(err) is expected
        else:
            assert format_code(looped) == expected
            g = looped


def test_loop_at_records_the_looping_kind():
    """Every splice of every looping source and of a looped theta-curve,
    with each designation of a tunnel: the looping kind on the looped code
    is looping_kind's."""
    seen = set()
    for g in (*LOOPING_SOURCES, tunnel_loop(3)):
        for v in g.vertices:
            for pair in itertools.permutations(v.ends, 2):
                if pair[0][0] == pair[1][0]:
                    continue
                for tunnel in (None, *(e.id for e in g.edges)):
                    kind = looping_kind(g, pair, tunnel)
                    assert loop_at(g, v.id, pair, tunnel).provenance.looping_kind == kind
                    seen.add(kind)
    assert seen == {"plain", "tunnel", "knot"}


# --- homology of complements ---------------------------------------------------------


def test_h1_ranks():
    for g, rank in [
        (family_torus_link(3, tunnel=True), 2),
        (family_torus_link(4, tunnel=True), 2),
        (tunnel_loop(3), 2),
        (family_torus_link(4), 2),
        (closed_braid(braid(1, 1, 1), 2), 1),
        (closed_braid([], 3), 3),
    ]:
        group, _ = h1_complement(g)
        assert group.free_rank == rank
        assert group.invariant_factors == ()


def test_bridge_meridian_vanishes():
    g = family_torus_link(4, tunnel=True)
    _, coords = h1_complement(g)
    assert coords["t"] == (0, 0)
    assert subgroup_index([coords["a"], coords["b"]]) == 1


def test_theta_meridian_relation():
    """At a trivalent vertex the three meridians satisfy one balance relation."""
    g = family_torus_link(3, tunnel=True)
    _, coords = h1_complement(g)
    assert coords["t"] == tuple(b - a for a, b in zip(coords["ka"], coords["kb"]))


def test_loop_class_meridian():
    g = family_torus_link(3, tunnel=True)
    assert loop_class(g, Meridian("ka")).coords == h1_complement(g)[1]["ka"]


def test_loop_class_under_pass_word():
    g = family_torus_link(3, tunnel=True)
    _, coords = h1_complement(g)
    # ka dives under at x2, where kb passes over
    got = loop_class(g, UnderPassWord((("x2", 1),)), coords)
    assert got.coords == coords["kb"]


def test_loop_class_edge_walk():
    g = family_torus_link(3, tunnel=True)
    _, coords = h1_complement(g)
    walk = EdgeWalk((("ka", 1), ("kb", 1)))
    got = loop_class(g, walk, coords)
    assert got.coords == tuple(2 * a + b for a, b in zip(coords["ka"], coords["kb"]))


def test_edge_walk_must_close():
    g = family_torus_link(3, tunnel=True)
    with pytest.raises(StructureError):
        loop_class(g, EdgeWalk((("ka", 1),)))
    with pytest.raises(StructureError):
        loop_class(g, EdgeWalk((("ka", 1), ("kb", -1))))


@pytest.mark.parametrize("call", [
    lambda g: loop_class(g, Meridian("zz")),
    lambda g: loop_class(g, UnderPassWord((("nope", 1),))),
    lambda g: loop_class(g, EdgeWalk((("zz", 1),))),
    lambda g: h1_complement(parse_code("graph theta\nvertex u ends a.0\n")),
], ids=["meridian", "under-pass-word", "edge-walk", "invalid-code"])
def test_h1_bad_input_raises_structure_error(call):
    with pytest.raises(StructureError):
        call(family_torus_link(3, tunnel=True))


@pytest.mark.parametrize("build", [
    lambda: Pass("x1", "sideways"),
    lambda: Crossing("x1", 0),
    lambda: Crossing("x1", 2),
    lambda: EdgeCode("a", "u", None),
    lambda: EdgeCode("a", None, "v"),
], ids=["pass-position", "crossing-sign-zero", "crossing-sign-two", "edge-head-missing",
        "edge-tail-missing"])
def test_code_parts_check_their_fields(build):
    with pytest.raises(StructureError):
        build()


def bundled_spine():
    return parse_code(resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text())


def test_meridian_basis_is_pinned():
    """The coordinates printed by analyze: the README example, and the
    identity basis of a link code."""
    spine = bundled_spine()
    pair = (resolve_end(spine, "u", "ka"), resolve_end(spine, "u", "kb"))
    once = loop_at(spine, "u", pair, tunnel="t")
    _, coords = h1_complement(once)
    assert list(coords.items()) == [("ka+kb", (1, 0)), ("t", (0, 0)), ("c1", (0, 1))]

    link = closed_braid(braid(1, 1, 2, 2), 3)
    assert [e.id for e in link.edges] == ["c1", "c2", "c3"]
    group, coords = h1_complement(link)
    assert str(group) == "Z^3"
    assert coords == {"c1": (1, 0, 0), "c2": (0, 1, 0), "c3": (0, 0, 1)}


@st.composite
def braid_closures(draw):
    strands = draw(st.integers(min_value=1, max_value=4))
    letter = st.tuples(st.integers(min_value=1, max_value=max(strands - 1, 1)),
                       st.sampled_from((1, -1)))
    word = draw(st.lists(letter, max_size=40 if strands > 1 else 0))
    return closed_braid(word, strands)


@st.composite
def tunnel_families(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    return family_torus_link(n, tunnel=True, mirror=draw(st.booleans()))


@st.composite
def spine_loopings(draw):
    g = bundled_spine()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        v = draw(st.sampled_from(g.vertices))
        pairs = [(p, q) for p, q in itertools.combinations(v.ends, 2) if p[0] != q[0]]
        g = loop_at(g, v.id, draw(st.sampled_from(pairs)), mirror=draw(st.booleans()))
    return g


@settings(max_examples=120, deadline=None)
@given(st.one_of(braid_closures(), tunnel_families(), spine_loopings()))
def test_h1_agrees_with_the_arc_presentation(g):
    """Same group as the arc presentation, and meridian coordinates that
    differ from the oracle's by a unimodular change of basis: N = O U."""
    group, coords = h1_complement(g)
    oracle_group, oracle = arc_h1(g)
    assert group == oracle_group
    assert list(coords) == [e.id for e in g.edges]
    o = Matrix([oracle[e.id] for e in g.edges])
    n = Matrix([coords[e.id] for e in g.edges])
    # The meridians generate H1, so o has full column rank and U is unique.
    u = (o.T * o).inv() * o.T * n
    assert all(x.is_integer for x in u)
    assert o * u == n
    assert u.det() in (1, -1)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.builds(lambda k, mirror: family_torus_link(2 * k, tunnel=True, mirror=mirror),
              st.integers(min_value=1, max_value=20), st.booleans()),
    spine_loopings()))
def test_loop_push_off_reads_the_linking_number(g):
    """On a handcuff, the push-off of loop a has coefficient lk(a, b) on the
    meridian of loop b: the oracle's EdgeWalk class against spatial's count."""
    assume(g.kind == "handcuff")
    (link,) = constituent_links(g)
    _, coords = h1_complement(g)
    loops = [e.id for e in g.edges if e.is_vertex_loop]
    for a, b in (loops, loops[::-1]):
        ma, mb = coords[a], coords[b]
        walk = loop_class(g, EdgeWalk(((a, 1),)), coords).coords
        # the two loop meridians are a basis, so Cramer's rule reads off the
        # coefficient on mb
        basis = ma[0] * mb[1] - ma[1] * mb[0]
        assert basis in (1, -1)
        assert (ma[0] * walk[1] - ma[1] * walk[0]) * basis == linking_number(link, a, b)


@st.composite
def braid_links(draw):
    """Closures of braids on 2-5 strands with at least two components; a
    letter may come squared, which keeps two strands apart."""
    strands = draw(st.integers(min_value=2, max_value=5))
    syllable = st.tuples(st.integers(min_value=1, max_value=strands - 1),
                         st.sampled_from((1, -1)), st.integers(min_value=1, max_value=2))
    word = [(i, s) for i, s, k in draw(st.lists(syllable, max_size=20)) for _ in range(k)]
    g = closed_braid(word, strands)
    assume(len(g.edges) >= 2)
    return g


@settings(max_examples=100, deadline=None)
@given(braid_links())
def test_under_pass_word_reads_the_linking_number(g):
    """The word of circle a's under-passes, each signed as its crossing, has
    coordinate lk(a, b) on the meridian of b. The oracle counts only the
    crossings where a passes under b; linking_number halves the signed sum
    over all crossings of a and b. The two agree on planar codes, such as
    braid closures, and may differ on virtual ones."""
    _, coords = h1_complement(g)
    names = [e.id for e in g.edges]
    for a, b in itertools.permutations(names, 2):
        word = UnderPassWord(tuple((p.crossing, g.sign(p.crossing))
                                   for p in g.edge(a).passes if p.position == "under"))
        # a link code's meridians are the unit vectors, in code order
        assert loop_class(g, word, coords).coords[names.index(b)] == linking_number(g, a, b)


# --- Alexander polynomials ------------------------------------------------------------


def test_alexander_unknot():
    assert alexander_polynomial(closed_braid([], 1)) == LaurentPoly.constant(1)
    assert alexander_polynomial(closed_braid(braid(1), 2)) == LaurentPoly.constant(1)


def test_alexander_trefoil():
    assert alexander_polynomial(closed_braid(braid(1, 1, 1), 2)) == TREFOIL_DELTA


def test_alexander_figure_eight():
    g = closed_braid(braid(1, -2, 1, -2), 3)
    assert alexander_polynomial(g) == FIG8_DELTA


def test_alexander_torus_knot_five():
    g = closed_braid(braid(1, 1, 1, 1, 1), 2)
    assert alexander_polynomial(g) == LaurentPoly.from_dict(
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    )


@pytest.mark.parametrize("n", [31, 41, 101])
def test_alexander_torus_knot_closed_form(n):
    """Delta(T(2,n)) = 1 - t + ... + t^(n-1), from a minor of order n - 1:
    out of reach of a determinant that grows exponentially with it."""
    g = closed_braid(braid(*[1] * n), 2)
    assert alexander_polynomial(g) == LaurentPoly.from_dict({k: (-1) ** k for k in range(n)})


def test_alexander_mirror_invariant():
    g = closed_braid(braid(1, 1, 1), 2)
    assert alexander_polynomial(mirror_code(g)) == TREFOIL_DELTA


def test_alexander_connected_sum():
    """Concatenating journeys forms the connected sum; Delta multiplies."""
    one = closed_braid(braid(1, 1, 1), 2).edge("k")
    other = closed_braid(braid(1, 1, 1), 2)
    renamed = {f"x{i}": f"y{i}" for i in (1, 2, 3)}
    two_passes = tuple(
        Pass(renamed[p.crossing], p.position) for p in other.edge("k").passes
    )
    crossings = tuple(Crossing(f"x{i}", 1) for i in (1, 2, 3)) + tuple(
        Crossing(f"y{i}", 1) for i in (1, 2, 3)
    )
    granny = SpatialGraphCode(
        "link", (), (EdgeCode("k", None, None, one.passes + two_passes),), crossings
    )
    assert validate_code(granny) == []
    assert alexander_polynomial(granny) == TREFOIL_DELTA * TREFOIL_DELTA


def test_alexander_rejects_links():
    with pytest.raises(StructureError):
        alexander_polynomial(closed_braid(braid(1, 1), 2))
    with pytest.raises(StructureError):
        alexander_polynomial(family_torus_link(3, tunnel=True))


def test_attach_evidence():
    g = family_torus_link(3, tunnel=True)
    facts = attach_evidence(g, FactSet())
    assert facts.get("knot-trivial:ka+kb") is False
    assert facts.entry("knot-trivial:ka+kb").provenance == "computed"
    assert facts.get("knot-trivial:ka+t") is None

    h = family_torus_link(4, tunnel=True)
    facts = attach_evidence(h, FactSet())
    assert facts.get("split") is False
    assert facts.entry("split").provenance == "computed"


def test_attach_evidence_contradiction():
    g = family_torus_link(3, tunnel=True)
    facts = FactSet()
    facts.set("knot-trivial:ka+kb", True)
    with pytest.raises(ContradictionError):
        attach_evidence(g, facts)


# --- classification --------------------------------------------------------------------


def theta_facts(**kw):
    facts = FactSet()
    for key, value in kw.items():
        facts.set(key.replace("_", "-"), value)
    return facts


def test_a_repeated_fact_keeps_its_first_provenance():
    facts = FactSet()
    facts.set("split", False, "computed")
    facts.set("split", False)
    assert facts.entry("split").provenance == "computed"
    facts.set("planar", True)
    facts.set("planar", True, "computed")
    assert facts.entry("planar").provenance == "asserted"
    assert [e.key for e in facts.entries()] == ["planar", "split"]


def test_a_fact_needs_a_known_provenance_and_a_class_a_known_code():
    with pytest.raises(ValueError, match="^unknown provenance 'guessed'$"):
        FactSet().set("split", False, "guessed")
    with pytest.raises(ValueError, match="^unknown class 'tau9'$"):
        GraphClass("tau9")


def test_classify_needs_atoroidal():
    g = family_torus_link(3, tunnel=True)
    got = classify_atoroidal(g, FactSet())
    assert isinstance(got, Unclassified)
    assert got.needed == ("atoroidal",)


def test_classify_tau1():
    g = family_torus_link(3, tunnel=True)
    facts = theta_facts(atoroidal=True, planar=True)
    assert classify_atoroidal(g, facts) == GraphClass("tau1")


def test_classify_tau1_contradiction():
    g = family_torus_link(3, tunnel=True)
    facts = theta_facts(atoroidal=True, planar=True)
    facts.set("knot-trivial:ka+kb", False)
    with pytest.raises(ContradictionError):
        classify_atoroidal(g, facts)


def test_classify_tau2():
    g = family_torus_link(3, tunnel=True)
    facts = theta_facts(atoroidal=True, planar=False)
    for comp in ("ka+kb", "ka+t", "kb+t"):
        facts.set(f"knot-trivial:{comp}", True)
    assert classify_atoroidal(g, facts) == GraphClass("tau2")


def test_classify_tau3_tau4():
    g = family_torus_link(3, tunnel=True)
    base = dict(atoroidal=True, planar=False)
    facts = theta_facts(**base)
    facts.set("knot-trivial:ka+kb", False)
    got = classify_atoroidal(g, facts)
    assert isinstance(got, Unclassified)
    assert "tunnel" in got.needed

    facts = theta_facts(**base, tunnel="t")
    facts.set("knot-trivial:ka+kb", False)
    assert classify_atoroidal(g, facts) == GraphClass("tau3")

    facts = theta_facts(**base)
    facts.set("knotting-arc", "t")
    facts.set("knot-trivial:ka+kb", False)
    assert classify_atoroidal(g, facts) == GraphClass("tau4")


def test_classify_handcuff():
    g = family_torus_link(4, tunnel=True)
    facts = attach_evidence(g, theta_facts(atoroidal=True, planar=False, tunnel="t"))
    assert classify_atoroidal(g, facts) == GraphClass("h3")
    # the nonzero linking number was recorded as computed evidence
    assert facts.entry("split").provenance == "computed"

    facts = attach_evidence(g, theta_facts(atoroidal=True, planar=False))
    facts.set("knotting-arc", "t")
    assert classify_atoroidal(g, facts) == GraphClass("h4")


def test_classify_handcuff_split():
    g = family_torus_link(2, tunnel=True)
    looped = loop_at(g, "u", (("a", 0), ("t", 0)))
    double = loop_at(looped, "v", (resolve_end(looped, "v", "b.0"),
                                   resolve_end(looped, "v", "t+a")))
    facts = theta_facts(atoroidal=True, planar=False, split=True)
    assert classify_atoroidal(double, facts) == GraphClass("h2")


def test_classify_handcuff_computes_split_when_alone():
    """attach_evidence computes lk = 2 and so contradicts an asserted split
    link; classify_atoroidal reads the facts only and takes the assertion."""
    g = family_torus_link(4, tunnel=True)
    facts = theta_facts(atoroidal=True, planar=False, split=True)
    with pytest.raises(ContradictionError, match="split"):
        attach_evidence(g, facts)
    assert classify_atoroidal(g, facts) == GraphClass("h2")


def test_classify_planar_handcuff_contradiction():
    g = family_torus_link(4, tunnel=True)
    facts = attach_evidence(g, theta_facts(atoroidal=True, planar=True))
    with pytest.raises(ContradictionError):
        classify_atoroidal(g, facts)


def fact_combinations(g):
    """Every fact set the ladder can tell apart on g: atoroidal, planar and
    split (handcuff) or each knot-trivial:* (theta) true, false or unset, and
    tunnel and knotting-arc unset or each edge."""
    if g.kind == "theta":
        simple_keys = [f"knot-trivial:{e1.id}+{e2.id}"
                       for e1, e2 in itertools.combinations(sorted(g.edges, key=lambda e: e.id), 2)]
    else:
        simple_keys = ["split"]
    keys = ["atoroidal", "planar", *simple_keys]
    arcs = (None, *(e.id for e in g.edges))
    for values in itertools.product((True, False, None), repeat=len(keys)):
        for tunnel, knotting in itertools.product(arcs, repeat=2):
            facts = FactSet()
            for key, value in zip(keys, values):
                if value is not None:
                    facts.set(key, value)
            if tunnel is not None:
                facts.set("tunnel", tunnel)
            if knotting is not None:
                facts.set("knotting-arc", knotting)
            yield facts


def outcome(classify, g, facts):
    try:
        return classify(g, facts)
    except ContradictionError as err:
        return ("contradiction", str(err))


def test_classify_matches_the_two_ladder_oracle():
    """One ladder for both families gives the two ladders' class, reason,
    needed facts and contradiction message on every fact combination."""
    seen = {}
    for g in (family_torus_link(3, tunnel=True), family_torus_link(4, tunnel=True)):
        combinations, outcomes = 0, set()
        for facts in fact_combinations(g):
            want = outcome(two_ladder_classify, g, facts)
            assert outcome(classify_atoroidal, g, facts) == want, [
                (e.key, e.value) for e in facts.entries()]
            combinations += 1
            outcomes.add(want)
        seen[g.kind] = (combinations, len(outcomes))
    # every rung is reached: 4 classes, 3 Unclassified reasons, and the
    # contradiction and the arc to designate, one per knotted constituent
    # of the theta, one bridge of the handcuff
    assert seen == {"theta": (3 ** 5 * 4 ** 2, 4 + 3 + 3 + 3),
                    "handcuff": (3 ** 3 * 4 ** 2, 4 + 3 + 1 + 1)}


def test_classify_computes_no_invariant():
    """classify_atoroidal reads facts only: it builds no constituent link and
    computes no linking number or Alexander polynomial."""
    names = ("constituent_links", "linking_number", "alexander_polynomial")
    cases = [
        (family_torus_link(3, tunnel=True), theta_facts(atoroidal=True, planar=False, tunnel="t")),
        (family_torus_link(4, tunnel=True), theta_facts(atoroidal=True, planar=False, tunnel="t")),
    ]
    for g, facts in cases:
        attach_evidence(g, facts)
    with contextlib.ExitStack() as stack:
        calls = [stack.enter_context(mock.patch.object(module, name, side_effect=AssertionError))
                 for name in names for module in (spatial, wirtinger) if hasattr(module, name)]
        assert [classify_atoroidal(g, facts) for g, facts in cases] == [
            GraphClass("tau3"), GraphClass("h3")]
    assert len(calls) == 5 and not any(c.called for c in calls)


def test_classify_rejects_links():
    with pytest.raises(StructureError):
        classify_atoroidal(family_torus_link(4), FactSet())


# --- the transition table ----------------------------------------------------------------


def targets(code, kind="plain"):
    return tuple(t.code for t in looping_transition(GraphClass(code), kind).targets)


def test_transition_table():
    assert targets("tau1") == ("h3",)
    assert targets("tau2") == ("h4",)
    assert targets("tau3", "knot") == ("h4",)
    assert targets("tau3", "tunnel") == ("h3", "h4")
    assert targets("tau3", "plain") == ("h3", "h4")
    assert targets("tau4") == ("h4",)
    assert targets("h1") == ("h1",)
    assert targets("h2") == ("h2",)
    assert targets("h3") == ("h2",)
    assert targets("h4") == ("h2",)


def test_transition_note():
    t = looping_transition(GraphClass("tau1"))
    assert "2_1" in t.note


def test_transition_rejects_bad_kind():
    with pytest.raises(ValueError):
        looping_transition(GraphClass("tau1"), "backwards")


# --- predictions ---------------------------------------------------------------------------


def assert_diagram(prediction, expected_type, expected_kinds):
    assert prediction.diagram is not None
    from hkdiag.diagram import classify_type

    assert str(classify_type(prediction.diagram.base)) == expected_type
    assert list(prediction.diagram.label_kinds) == sorted(expected_kinds)


def test_prediction_requires_looping():
    g = family_torus_link(3, tunnel=True)
    p = predicted_annulus(g, FactSet())
    assert p.annulus_type is None
    assert "does not record a looping" in p.notes[0]


def test_prediction_tunnel_loop_of_knot():
    looped = tunnel_loop(3)
    facts = attach_evidence(looped, theta_facts(atoroidal=True, planar=False))
    p = predicted_annulus(looped, facts)
    assert p.annulus_type == "2-1"
    assert p.unknotting is True
    assert p.exterior_irreducible_atoroidal is True
    assert p.unique is True
    assert_diagram(p, "(1,1,0,hollow)", ["h1"])


def test_prediction_fourone():
    g = family_torus_link(2, tunnel=True)
    looped = loop_at(g, "u", (("a", 0), ("t", 0)), tunnel="t")
    facts = attach_evidence(looped, theta_facts(atoroidal=True, planar=False))
    p = predicted_annulus(looped, facts)
    assert p.annulus_type == "2-2"
    assert p.unknotting is True
    assert p.unique is False
    assert any("4_1" in note for note in p.notes)
    assert_diagram(p, "(3,0,3,solid)", ["h2", "h2", "l0"])


def test_prediction_torus_family():
    g = family_torus_link(6, tunnel=True)
    looped = loop_at(g, "u", (("a", 0), ("t", 0)), tunnel="t")
    p = predicted_annulus(looped, theta_facts(atoroidal=True, planar=False))
    assert p.unique is True
    assert_diagram(p, "(2,1,0,hollow)", ["h2", "k2"])
    assert p.diagram.labels[1].slope == 3


def test_prediction_odd_ringed():
    one = family_odd_ringed(3, "one")
    looped = loop_at(one, "u", (("k", 0), ("t", 0)))
    p = predicted_annulus(looped, FactSet())
    assert_diagram(p, "(1,1,0,hollow)", ["h2"])

    both = family_odd_ringed(3, "both")
    looped = loop_at(both, "u", (("k", 0), ("t", 0)))
    p = predicted_annulus(looped, FactSet())
    assert_diagram(p, "(2,1,0,hollow)", ["h2", "k1"])


def test_prediction_double_loop():
    once = tunnel_loop(3)
    pair = (resolve_end(once, "v", "ka+kb.0"), resolve_end(once, "v", "t"))
    twice = loop_at(once, "v", pair)
    p = predicted_annulus(twice, theta_facts(atoroidal=True, planar=False))
    assert p.annulus_type == "2-2"
    assert p.annulus_count == 2
    assert p.unique is False
    assert_diagram(p, "(3,0,3,hollow)", ["h2", "h2", "l0"])

    unpinned = predicted_annulus(twice, FactSet())
    assert unpinned.diagram is None


def test_predicted_diagrams_are_admissible():
    """Each diagram predicted_annulus pins passes R1-R8 and has the type and
    label kinds of a catalog entry."""
    from hkdiag.diagram import classify_type
    from hkdiag.labeling import label_catalog

    catalog = {(str(e.dtype), e.kinds) for e in label_catalog()}
    once = tunnel_loop(3)
    twice = loop_at(once, "v", (resolve_end(once, "v", "ka+kb.0"), resolve_end(once, "v", "t")))
    looped = [once, twice]
    looped += [loop_at(family_torus_link(n, tunnel=True), "u", (("a", 0), ("t", 0)), tunnel="t")
               for n in (2, 4, 6, 10)]
    looped += [loop_at(family_odd_ringed(3, ring), "u", (("k", 0), ("t", 0)))
               for ring in ("one", "both")]
    seen = []
    for g in looped:
        ad = predicted_annulus(g, theta_facts(atoroidal=True, planar=False)).diagram
        assert ad.violations == ()
        assert (str(classify_type(ad.base)), ad.label_kinds) in catalog
        seen.append(f"{classify_type(ad.base)} {{{', '.join(map(str, ad.labels))}}}")
    assert seen == [
        "(1,1,0,hollow) {h1}", "(3,0,3,hollow) {h2, h2, l0}", "(3,0,3,solid) {h2, h2, l0}",
        "(2,1,0,hollow) {h2, k2(2)}", "(2,1,0,hollow) {h2, k2(3)}", "(2,1,0,hollow) {h2, k2(5)}",
        "(1,1,0,hollow) {h2}", "(2,1,0,hollow) {h2, k1}",
    ]


def test_prediction_generic_nonsplit_tunnel():
    g = family_torus_link(2, tunnel=True)
    looped = loop_at(g, "u", (("a", 0), ("t", 0)))
    looped = SpatialGraphCode(
        looped.kind, looped.vertices, looped.edges, looped.crossings,
        # forget the family pin, keep the looping
        type(looped.provenance)(origin="looping", source_kind="handcuff",
                                looping_kind="plain", loopings=1),
    )
    facts = theta_facts(split=False, tunnel="t+a")
    p = predicted_annulus(looped, facts)
    assert p.unknotting is True
    assert p.diagram is None
    assert any("five of the second type" in note for note in p.notes)


def test_prediction_of_a_handcuff_looping_without_family():
    g = replace(family_torus_link(2, tunnel=True), provenance=None)
    looped = loop_at(g, "u", (("a", 0), ("t", 0)))
    assert looped.provenance == Provenance(
        "looping", source_kind="handcuff", looping_kind="plain", loopings=1)
    pinned = predicted_annulus(looped, theta_facts(atoroidal=True, planar=False))
    assert (pinned.annulus_type, pinned.exterior_irreducible_atoroidal, pinned.diagram) == (
        "2-2", True, None)
    assert pinned.notes == ("the diagram is one of the five of the second type",)
    bare = predicted_annulus(looped, FactSet())
    assert (bare.annulus_type, bare.exterior_irreducible_atoroidal, bare.diagram) == (
        "2-2", None, None)
    assert bare.notes == ("assert atoroidal and nonplanar on the source to pin the exterior",)


# --- the text format -------------------------------------------------------------------------


def test_round_trip_families():
    for g in [
        family_torus_link(2),
        family_torus_link(5),
        family_torus_link(2, tunnel=True),
        family_torus_link(3, tunnel=True),
        family_odd_ringed(3, "one"),
        family_odd_ringed(5, "both"),
        tunnel_loop(3),
        mirror_code(family_torus_link(3, tunnel=True)),
    ]:
        assert parse_code(format_code(g)) == g


def test_parse_comments_and_blanks():
    text = "# a circle\n\ngraph link\nedge k\n"
    g = parse_code(text)
    assert g.edges[0].is_circle


def test_parse_rejects_garbage():
    with pytest.raises(StructureError):
        parse_code("graph moose\n")
    with pytest.raises(StructureError):
        parse_code("edge k\n")  # no graph line
    with pytest.raises(StructureError):
        parse_code("graph link\nedge k.bad\n")
    with pytest.raises(StructureError):
        parse_code("graph link\npass k x1 over sign=+\n")


def _replaced(g, lineno, line):
    """format_code(g) with its line number lineno replaced by line."""
    lines = format_code(g).splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, line, message", [
    (_replaced(family_torus_link(3, tunnel=True), 2, "vertex u ends ka.0 kb.1"),
     2, "vertex u has 2 ends, expected 3"),
    ("graph link\nedge k\npass k x1 over sign=+\n",
     3, "crossing x1 needs exactly one over and one under pass"),
    (_replaced(family_torus_link(2), 6, "pass b x1 over sign=+"),
     6, "crossing x1 needs exactly one over and one under pass"),
    (_replaced(family_torus_link(2, tunnel=True), 3, "vertex u ends b.0 b.1 t.1"),
     3, "duplicate vertex id"),
    (_replaced(family_torus_link(2, tunnel=True), 6, "edge a from u to v"),
     6, "duplicate edge id"),
    (_replaced(family_torus_link(2, tunnel=True), 3, "vertex v ends b.0 b.1 t.0"),
     3, "end t.0 claimed by two vertices"),
    (_replaced(family_torus_link(2, tunnel=True), 6, "edge t from u to w"),
     6, "edge t endpoint 'w' is not a vertex"),
    (_replaced(family_torus_link(2, tunnel=True), 1, "graph foo"),
     1, "unknown graph kind 'foo'"),
    (_replaced(family_torus_link(2, tunnel=True), 1, "graph theta"),
     1, "theta edge a must join the two vertices"),
    ("edge k\npass k x1 over sign=+\npass k x1 under sign=+\n\n", 4, "missing graph line"),
    ("graph link\nedge k\ngraph link\n", 3, "second graph line"),
    ("graph link extra\nedge k\n", 1, "graph line needs: graph <kind>"),
    (_replaced(family_torus_link(4), 7, "pass b x4 under sign=+"),
     10, "closed strands a and b cross an odd number of times"),
    ("graph link\nedge k\npass k x1 over sign=x\n", 3, "bad sign 'x'"),
], ids=["arity", "lone-pass", "two-overs", "repeated-vertex", "repeated-edge", "shared-end",
        "unknown-endpoint", "kind", "shape", "no-graph-line", "second-graph-line",
        "graph-tokens", "odd-crossings", "bad-sign"])
def test_parse_names_the_last_line_needed_to_see_the_defect(text, line, message):
    with pytest.raises(StructureError) as err:
        parse_code(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_violation_location_leaves_equality_and_text_alone():
    lone = EdgeCode("k", None, None, (Pass("x1", "over"),))
    located = validate_code(SpatialGraphCode("link", (), (lone,), (Crossing("x1", 1),)))
    assert [v.where for v in located] == [(("crossing", "x1"),)]
    bare = Violation("passes", "crossing x1 needs exactly one over and one under pass")
    assert located == [bare]
    assert str(located[0]) == str(bare) == f"[passes] {bare.message}"
    assert hash(located[0]) == hash(bare)


def test_unknown_kind_is_a_violation_of_a_hand_built_code():
    g = SpatialGraphCode("moose", (), (), ())
    assert validate_code(g) == [Violation("shape", "unknown graph kind 'moose'")]
    with pytest.raises(StructureError, match="invalid code: \\[shape\\] unknown graph kind"):
        constituent_links(g)


@pytest.mark.parametrize("token", ["n=abc", "loopings=abc", "loopings=-1", "origin=nonsense",
                                   "n=0", "n=-2", "mirror=yes", "source-kind=moose",
                                   "looping-kind=banana"])
def test_parse_rejects_bad_meta(token):
    with pytest.raises(StructureError) as err:
        parse_code(f"graph link\nedge k\nmeta origin=family\nmeta {token}\n")
    assert err.value.line == 4


@pytest.mark.parametrize("origin, record", [
    ("looping", ""), ("looping", "source-kind=theta"),
    ("looping", "source-kind=handcuff looping-kind=plain"),
    ("looping", "source-kind=handcuff looping-kind=plain loopings=0"),
    ("family", "loopings=3 looping-kind=knot"), ("family", "source-kind=theta"),
    ("family", "loopings=1"), ("family", "looping-kind=tunnel"),
])
def test_parse_rejects_a_partial_or_misplaced_looping_record(origin, record):
    """source-kind, looping-kind and loopings >= 1 come together and only
    with origin=looping; the error names the origin's line."""
    body = "".join(line for line in format_code(family_torus_link(2, tunnel=True))
                   .splitlines(keepends=True) if not line.startswith("meta"))
    text = f"{body}meta {record}\nmeta origin={origin}\n"
    with pytest.raises(StructureError, match="only with origin=looping") as err:
        parse_code(text)
    assert err.value.line == text.count("\n")


def test_provenance_refuses_a_record_no_looping_writes():
    for values in ({"origin": "looping"},
                   {"origin": "looping", "source_kind": "theta", "looping_kind": "plain"},
                   {"origin": "family", "loopings": 1}, {"origin": "family", "source_kind": "theta"}):
        with pytest.raises(StructureError, match="^meta source-kind") as err:
            Provenance(**values)
        assert err.value.line is None


@pytest.mark.parametrize("values, message", [
    ({"origin": "banana", "family": "torus-link", "n": 1},
     "meta origin must be family or looping, got 'banana'"),
    ({"origin": "family", "n": 1}, "meta n must be at least 2, got 1"),
    ({"origin": "family", "loopings": -1}, "meta loopings must not be negative"),
    ({"origin": "looping", "source_kind": "moose", "looping_kind": "knot", "loopings": 1},
     "meta source-kind must be theta or handcuff, got 'moose'"),
    ({"origin": "family", "family": "torus link"}, "meta family must be one token, got 'torus link'"),
    ({"origin": "family", "variant": "a#b"}, "meta variant must be one token, got 'a#b'"),
])
def test_provenance_refuses_values_its_meta_line_cannot_carry(values, message):
    with pytest.raises(StructureError) as err:
        Provenance(**values)
    assert str(err.value) == message and err.value.line is None


@st.composite
def provenance_values(draw):
    """Provenance field values: a looping record drawn for origin=looping
    only, and every field ranging over allowed and refused values."""
    origin = draw(st.sampled_from(("family", "looping", "banana")))
    record = {"loopings": draw(st.integers(-1, 1))}
    if origin == "looping":
        record = {"source_kind": draw(st.sampled_from(("theta", "handcuff", "moose"))),
                  "looping_kind": draw(st.sampled_from(("plain", "tunnel", "knot", "banana"))),
                  "loopings": draw(st.integers(-1, 4))}
    return dict(origin=origin, **record, family=draw(st.none() | st.text(max_size=6)),
                n=draw(st.none() | st.integers(-1, 30)),
                variant=draw(st.none() | st.text(max_size=6)), mirror=draw(st.booleans()))


@seed(20264)
@settings(max_examples=300, deadline=None)
@given(provenance_values())
def test_every_provenance_that_constructs_reads_back_equal(values):
    try:
        prov = Provenance(**values)
    except StructureError as err:
        assert err.line is None
        return
    code = replace(family_torus_link(2, tunnel=True), provenance=prov)
    assert parse_code(format_code(code)).provenance == prov


def test_a_looping_origin_needs_a_handcuff_code():
    spine = bundled_spine()
    looped = replace(spine, provenance=Provenance(
        "looping", source_kind="theta", looping_kind="tunnel", loopings=1))
    assert validate_code(looped) == [
        Violation("shape", "a looping gives a handcuff code, not a theta code")]
    with pytest.raises(StructureError, match="^line 1: a looping gives a handcuff code"):
        parse_code(format_code(looped))


def test_validate_catches_unpaired_crossing():
    g = SpatialGraphCode(
        "link", (),
        (EdgeCode("k", None, None, (Pass("x1", "over"),)),),
        (Crossing("x1", 1),),
    )
    assert any(v.code == "passes" for v in validate_code(g))


def _handcuff_crossing_once(bridge_crosses):
    """A handcuff with one crossing: between its loops, or between its
    bridge and loop a."""
    other = "t" if bridge_crosses else "b"
    return SpatialGraphCode(
        "handcuff",
        (VertexCode("u", (("a", 0), ("a", 1), ("t", 0))),
         VertexCode("v", (("b", 0), ("b", 1), ("t", 1)))),
        tuple(EdgeCode(e, tail, head, (Pass("x1", pos),) if e in ("a", other) else ())
              for e, tail, head, pos in (("a", "u", "u", "over"), ("b", "v", "v", "under"),
                                         ("t", "u", "v", "under"))),
        (Crossing("x1", 1),),
    )


def test_validate_catches_closed_strands_crossing_oddly():
    located = validate_code(_handcuff_crossing_once(bridge_crosses=False))
    assert located == [Violation("passes", "closed strands a and b cross an odd number of times")]
    assert located[0].where == (("crossing", "x1"),)
    # an arc may end inside a loop, so the bridge may cross it once
    assert validate_code(_handcuff_crossing_once(bridge_crosses=True)) == []


def test_validate_catches_bad_shape():
    g = SpatialGraphCode(
        "theta",
        (VertexCode("u", (("a", 0), ("a", 1), ("b", 0))),
         VertexCode("v", (("b", 1), ("c", 0), ("c", 1))),),
        (EdgeCode("a", "u", "u"), EdgeCode("b", "u", "v"), EdgeCode("c", "v", "v")),
        (),
    )
    assert any(v.code == "shape" for v in validate_code(g))


def test_validate_catches_shared_constituent_names():
    # w+z followed by w+z+w and w+z+w followed by z+w spell one name
    g = SpatialGraphCode(
        "theta",
        (VertexCode("u", (("w+z", 0), ("w+z+w", 0), ("z+w", 0))),
         VertexCode("v", (("w+z", 1), ("w+z+w", 1), ("z+w", 1))),),
        (EdgeCode("w+z", "u", "v"), EdgeCode("w+z+w", "u", "v"), EdgeCode("z+w", "u", "v")),
        (),
    )
    assert [v.code for v in validate_code(g)] == ["ids"]
    with pytest.raises(StructureError, match="both named w\\+z\\+w\\+z\\+w"):
        constituent_links(g)
    with pytest.raises(StructureError) as err:
        parse_code(format_code(g))
    assert err.value.line == 6


def test_validate_catches_each_branch_of_a_link_code():
    """A link code with a vertex, an open edge, an undeclared and an unvisited
    crossing: each defect is named with the elements it is about."""
    g = SpatialGraphCode(
        "link",
        (VertexCode("u", (("k", 0), ("a", 0), ("a", 1))),),
        (EdgeCode("k", None, None, (Pass("x1", "over"), Pass("x1", "under"), Pass("x9", "over"))),
         EdgeCode("a", "u", "u")),
        (Crossing("x1", 1), Crossing("x2", -1)),
    )
    assert validate_code(g) == [
        Violation("ends", "circle k is attached to a vertex"),
        Violation("passes", "pass references undeclared crossing x9"),
        Violation("passes", "crossing x2 is never visited"),
        Violation("shape", "a link code has no vertices"),
        Violation("shape", "edge a of a link must be a circle"),
    ]
    assert [v.where for v in g.violations] == [
        (("edge", "k"), ("vertex", "u")), (("crossing", "x9"),), (("crossing", "x2"),), (), ()]


# ids of at most three characters; '.', ' ', '#', a newline and '' make bad ones
ID_TEXT = st.text(alphabet="ab1+_.# \n", max_size=3)


def _renamed_ids(g, edges, vertices, crossings):
    """g with edge, vertex and crossing ids renamed by the three maps."""
    e, v, c = (lambda i, m=m: m.get(i, i) for m in (edges, vertices, crossings))
    return SpatialGraphCode(
        g.kind,
        tuple(VertexCode(v(x.id), tuple((e(i), side) for i, side in x.ends)) for x in g.vertices),
        tuple(EdgeCode(e(x.id), x.tail and v(x.tail), x.head and v(x.head),
                       tuple(Pass(c(p.crossing), p.position) for p in x.passes))
              for x in g.edges),
        tuple(Crossing(c(x.id), x.sign) for x in g.crossings),
        g.provenance,
    )


@pytest.mark.parametrize("bad", ["t.1", "t 1", "t#", "", "t\n"])
def test_a_bad_edge_id_is_a_violation(bad):
    g = _renamed_ids(family_torus_link(3, tunnel=True), {"t": bad}, {}, {})
    assert validate_code(g) == [Violation("ids", f"bad edge identifier {bad!r}")]
    assert g.violations[0].where == (("edge", bad),)


def test_a_bad_vertex_or_crossing_id_is_a_violation():
    theta = _renamed_ids(family_torus_link(3, tunnel=True), {}, {"u": "u.0"}, {})
    assert validate_code(theta) == [Violation("ids", "bad vertex identifier 'u.0'")]
    link = _renamed_ids(family_torus_link(4), {}, {}, {"x1": "x 1"})
    assert validate_code(link) == [Violation("ids", "bad crossing identifier 'x 1'")]
    assert link.violations[0].where == (("crossing", "x 1"),)


def test_an_id_that_is_no_string_is_a_violation():
    """Hand-built ids of the wrong type are flagged, not a TypeError."""
    link = _renamed_ids(family_torus_link(4), {}, {}, {f"x{k}": k - 1 for k in range(1, 5)})
    assert validate_code(link) == [Violation("ids", f"bad crossing identifier {k}") for k in range(4)]
    assert link.violations[0].where == (("crossing", 0),)
    theta = _renamed_ids(family_torus_link(3, tunnel=True), {"t": 7}, {"u": 5}, {})
    assert validate_code(theta) == [Violation("ids", "bad edge identifier 7"),
                                    Violation("ids", "bad vertex identifier 5")]
    with pytest.raises(StructureError, match="bad edge identifier 7"):
        constituent_links(theta)


def test_a_reference_that_is_no_string_is_a_violation():
    """A pass whose crossing reference is no str, in a code whose ids are
    all strings, is flagged by name, not a TypeError."""
    g = family_torus_link(3, tunnel=True)
    ka, *rest = g.edges
    first, *later = ka.passes
    bad = replace(g, edges=(replace(ka, passes=(replace(first, crossing=0), *later)), *rest))
    assert validate_code(bad) == [
        Violation("passes", "pass references undeclared crossing 0"),
        Violation("passes", f"crossing {first.crossing} needs exactly one over and one under pass"),
    ]
    assert bad.violations[0].where == (("crossing", 0),)
    with pytest.raises(StructureError, match="undeclared crossing 0"):
        h1_complement(bad)


@st.composite
def renamed_codes(draw):
    """A family code or a looping of one, some of its ids redrawn from an
    alphabet that holds '.', ' ', '#' and a newline."""
    g = draw(st.one_of(family_codes(), loop_chains()))
    maps = [{x.id: draw(ID_TEXT) for x in xs if draw(st.booleans())}
            for xs in (g.edges, g.vertices, g.crossings)]
    return _renamed_ids(g, *maps)


@settings(max_examples=150, deadline=None)
@given(renamed_codes())
def test_every_hand_built_code_without_violations_reads_back_equal(g):
    if not validate_code(g):
        assert parse_code(format_code(g)) == g


# --- derived codes and the text path ---------------------------------------------------


@st.composite
def family_codes(draw):
    """T(2,n) closed and tunnel codes and odd-ringed codes, plain or mirrored."""
    mirror = draw(st.booleans())
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=30))
        return family_torus_link(n, tunnel=draw(st.booleans()), mirror=mirror)
    n = draw(st.sampled_from((3, 5, 7, 9)))
    return family_odd_ringed(n, draw(st.sampled_from(("one", "both"))), mirror=mirror)


@st.composite
def braid_graphs(draw):
    """A braid closure; a knot is cut into a theta-curve at a random pass
    and a 2-component link joined into a handcuff by a crossing-free bridge."""
    g = draw(braid_closures())
    t = EdgeCode("t", "u", "v", ())
    if len(g.edges) == 1:
        passes = g.edges[0].passes
        i = draw(st.integers(min_value=0, max_value=len(passes)))
        edges = (EdgeCode("ka", "u", "v", passes[:i]), EdgeCode("kb", "v", "u", passes[i:]), t)
        vertices = (VertexCode("u", (("ka", 0), ("kb", 1), ("t", 0))),
                    VertexCode("v", (("ka", 1), ("kb", 0), ("t", 1))))
        return SpatialGraphCode("theta", vertices, edges, g.crossings)
    if len(g.edges) == 2:
        a, b = g.edges
        edges = (EdgeCode("a", "u", "u", a.passes), EdgeCode("b", "v", "v", b.passes), t)
        vertices = (VertexCode("u", (("a", 0), ("a", 1), ("t", 0))),
                    VertexCode("v", (("b", 0), ("b", 1), ("t", 1))))
        return SpatialGraphCode("handcuff", vertices, edges, g.crossings)
    return g


@st.composite
def loop_chains(draw):
    """1-4 loopings of a looping source, at random ends, with or without a
    designated tunnel, of either handedness, never splicing a loop's two ends
    onto each other."""
    g = draw(st.sampled_from(LOOPING_SOURCES))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        v = draw(st.sampled_from(g.vertices))
        pairs = [(p, q) for p, q in itertools.permutations(v.ends, 2) if p[0] != q[0]]
        g = loop_at(g, v.id, draw(st.sampled_from(pairs)),
                    draw(st.sampled_from((None, *(e.id for e in g.edges)))), draw(st.booleans()))
    return g


@settings(max_examples=80, deadline=None)
@given(st.one_of(family_codes(), braid_graphs(), loop_chains()))
def test_every_derived_code_is_valid(g):
    """validate_code, recomputed rather than read from the cache, finds nothing
    in the constituent links, in the single-loop knots constituent_invariants
    builds, or in any looping of the code."""
    for piece in constituent_links(g):
        assert validate_code(piece) == []
    with mock.patch.object(wirtinger, "alexander_polynomial",
                           wraps=wirtinger.alexander_polynomial) as alexander:
        wirtinger.constituent_invariants(g)
    for call in alexander.call_args_list:
        assert validate_code(call.args[0]) == []
    for v in g.vertices:
        for p, q in itertools.permutations(v.ends, 2):
            if p[0] != q[0]:
                assert validate_code(loop_at(g, v.id, (p, q))) == []


@settings(max_examples=120, deadline=None)
@given(st.one_of(braid_closures(), family_codes(), loop_chains()))
def test_format_then_parse_is_the_identity(g):
    assert parse_code(format_code(g)) == g


PARSE_SOURCES = (*LOOPING_SOURCES, family_torus_link(4), closed_braid(braid(1, -2, 1, -2), 3),
                 tunnel_loop(3))
MUTANT_TOKENS = ("x1", "x2", "x!1", "k", "a", "ka", "u", "w", "over", "under", "sideways",
                 "sign=+", "sign=-", "sign=*", "sign=", "sgn=+", "ends", "from", "to", "loop",
                 "a.0", "a.2", ".1", "u.", "meta", "origin=family", "n=x", "pass", "edge",
                 "vertex", "graph", "link", "#")


@st.composite
def malformed_texts(draw):
    """A formatted code with 1-3 mutations: a line deleted, duplicated or
    swapped, a token replaced, a stray #, or a pass line with one or more
    bad fields inserted after the edge lines."""
    lines = format_code(draw(st.sampled_from(PARSE_SOURCES))).splitlines()
    edges = sorted({line.split()[1] for line in lines if line.startswith("edge ")})
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "token", "hash", "pass")))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token" and lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(min_value=0, max_value=len(tokens) - 1))] = draw(
                st.sampled_from(MUTANT_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "hash":
            k = draw(st.integers(min_value=0, max_value=len(lines[i])))
            lines[i] = lines[i][:k] + "#" + lines[i][k:]
        elif op == "pass":
            fields = [draw(st.sampled_from((*edges, "zz"))),
                      draw(st.sampled_from(("x1", "x2", "x!1", "x99"))),
                      draw(st.sampled_from(("over", "under", "sideways"))),
                      draw(st.sampled_from(("sign=+", "sign=-", "sign=*", "sgn=+", "sign=++")))]
            if draw(st.booleans()):
                del fields[draw(st.integers(min_value=0, max_value=3))]
            after_edges = max((j + 1 for j, line in enumerate(lines) if line.startswith("edge")),
                              default=0)
            lines.insert(draw(st.integers(min_value=after_edges, max_value=len(lines))),
                         " ".join(["pass", *fields]))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except StructureError as err:
        return type(err), str(err), err.line


@seed(51107)
@settings(max_examples=300, deadline=None)
@given(malformed_texts())
def test_parse_matches_the_token_by_token_oracle(text):
    """parse_code returns the code the token-by-token reader returns, or
    raises the same exception with the same message and line."""
    assert _outcome(parse_code, text) == _outcome(token_by_token_parse_code, text)


def test_parse_checks_a_pass_line_whole_before_its_ids():
    text = "graph link\nedge k\npass k x!1 over sgn=+\n"
    expected = (StructureError,
                "line 3: pass line needs: pass <edge> <crossing> over|under sign=+|-", 3)
    assert _outcome(parse_code, text) == _outcome(token_by_token_parse_code, text) == expected
    text = "graph link\nedge k\npass k x1 over sign=+\npass k x!1 under sign=+\n"
    expected = (StructureError, "line 4: bad identifier 'x!1'", 4)
    assert _outcome(parse_code, text) == _outcome(token_by_token_parse_code, text) == expected


TEXT_SOUP = st.lists(
    st.lists(st.one_of(st.sampled_from(MUTANT_TOKENS), st.text(max_size=4)), max_size=6)
    .map(" ".join), max_size=12).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), TEXT_SOUP, malformed_texts()))
def test_any_text_parses_or_names_a_line_inside_it(text):
    try:
        parse_code(text)
    except StructureError as err:
        assert err.line is None or 1 <= err.line <= len(text.splitlines())


def test_unknown_edge_is_a_structure_error():
    g = family_torus_link(3, tunnel=True)
    with pytest.raises(StructureError, match="^no edge named 'zz'$"):
        g.edge("zz")
    with pytest.raises(StructureError, match="^no edge named 'zz'$"):
        loop_class(g, EdgeWalk((("zz", 1),)))

"""Slope pairs, label syntax, the rules R1..R8, the catalog, and symmetry bounds."""

import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from iso_oracle import brute_force_isomorphic
from label_search_oracle import candidate_labelings

from hkdiag.diagram import (
    CharDiagram,
    Node,
    NodeKind,
    StructureError,
    canonical_form,
    classify_type,
    enumerate_valid,
)
from hkdiag.labeling import (
    AnnulusDiagram,
    EdgeLabel,
    GroupBound,
    SymmetryBounds,
    derived_facts,
    format_annulus,
    is_fourone,
    label_catalog,
    labeled_isomorphic,
    parse_annulus,
    parse_label,
    slope_pair_classify,
    symmetry_bounds,
    validate_labels,
)

HOLLOW = NodeKind.HOLLOW
SOLID = NodeKind.SOLID


def diagram(kind, extra_solid, edges):
    nodes = [Node("v", kind, 2)] + [Node(f"s{i}", SOLID) for i in range(1, extra_solid + 1)]
    return CharDiagram(nodes, edges)


def labeled(kind, extra_solid, edges, labels):
    return AnnulusDiagram(diagram(kind, extra_solid, edges), labels)


LOOP = [("v", "v")]
LOOP_BRIDGE = [("v", "v"), ("v", "s1")]
THETA = [("v", "s1")] * 3


# --- label syntax ---------------------------------------------------------------


@pytest.mark.parametrize("token", ["h1", "h2", "k1", "l0", "em", "k2(5/2)", "k2(-7/3)", "l(2/3,3/2)", "l(2/3,6)"])
def test_parse_label_round_trip(token):
    assert str(parse_label(token)) == token


def test_trivial_pair_normalizes_to_l0():
    assert parse_label("l(0,0)") == EdgeLabel("l0")


@pytest.mark.parametrize("token", ["h3", "k2(0)", "k2(1/2)", "k2(-1/3)", "l(0,5)", "l(1/3,1/2)", "l(2/3)", "k2(1/0)"])
def test_parse_label_rejects(token):
    with pytest.raises(ValueError):
        parse_label(token)


def test_k2_slope_guard():
    with pytest.raises(ValueError):
        EdgeLabel("k2", slope=Fraction(1, 4))
    assert EdgeLabel("k2", slope=Fraction(5, 2)).slope == Fraction(5, 2)


@pytest.mark.parametrize(
    "r1, r2, kind",
    [
        (0, 0, "trivial"),
        (Fraction(2, 3), Fraction(3, 2), "reciprocal"),
        (Fraction(3, 2), Fraction(2, 3), "reciprocal"),
        (Fraction(2, 3), 6, "product"),
        (6, Fraction(2, 3), "product"),
        (Fraction(-1, 2), -2, "reciprocal"),
        (0, 5, "invalid"),
        (Fraction(1, 3), Fraction(1, 2), "invalid"),
    ],
)
def test_slope_pair_classify(r1, r2, kind):
    assert slope_pair_classify(r1, r2) == kind


def test_l_label_sorts_slopes():
    assert (EdgeLabel("l", slopes=(Fraction(3, 2), Fraction(2, 3)))
            == EdgeLabel("l", slopes=(Fraction(2, 3), Fraction(3, 2))))


# --- the rules -------------------------------------------------------------------


def test_unlabeled_diagram_passes():
    ad = AnnulusDiagram.unlabeled(diagram(HOLLOW, 0, LOOP))
    assert validate_labels(ad) == []


def test_partial_labeling_is_rejected():
    ad = labeled(HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("h2"), None])
    assert [v.code for v in validate_labels(ad)] == ["labels"]


def test_invalid_base_short_circuits():
    ad = labeled(SOLID, 0, LOOP, [EdgeLabel("h1")])
    codes = [v.code for v in validate_labels(ad)]
    assert "C-iii" in codes
    assert all(not c.startswith("R") for c in codes)


@pytest.mark.parametrize(
    "kind, extra, edges, labels, rule",
    [
        # k1 sits on a loop, which no cut-edge label may do
        (HOLLOW, 0, LOOP, [EdgeLabel("k1")], "R1"),
        # h2 on the bridge, a cut edge
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l0"), EdgeLabel("h2")], "R1"),
        # h1 must be alone on the single-loop diagram
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("h1"), EdgeLabel("k1")], "R2"),
        # a reciprocal slope pair on a two-edge diagram
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l", slopes=(Fraction(2, 3), Fraction(3, 2))), EdgeLabel("k1")], "R3"),
        # theta shape must carry exactly {h2, h2, l0}
        (HOLLOW, 1, THETA, [EdgeLabel("h2")] * 3, "R4"),
        (SOLID, 1, THETA, [EdgeLabel("l0")] * 3, "R4"),
        # em excludes h and l labels
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l0"), EdgeLabel("em")], "R5"),
        # companion of an h2 loop must carry k1 or k2
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("h2"), EdgeLabel("em")], "R6"),
        # h2 on a non-loop edge outside the theta shape
        (HOLLOW, 1, [("v", "s1"), ("v", "s1")], [EdgeLabel("h2"), EdgeLabel("l0")], "R8"),
    ],
)
def test_rule_violations(kind, extra, edges, labels, rule):
    ad = labeled(kind, extra, edges, labels)
    assert rule in [v.code for v in validate_labels(ad)]


def test_r7_two_h2_with_k():
    base = [("v", "s1"), ("v", "s1"), ("v", "s2")]
    ad = labeled(HOLLOW, 2, base, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("k1")])
    assert "R7" in [v.code for v in validate_labels(ad)]


@pytest.mark.parametrize(
    "kind, extra, edges, labels",
    [
        (HOLLOW, 0, LOOP, [EdgeLabel("h1")]),
        (HOLLOW, 0, LOOP, [EdgeLabel("h2")]),
        (HOLLOW, 0, LOOP, [EdgeLabel("l", slopes=(Fraction(2, 3), Fraction(3, 2)))]),
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("h2"), EdgeLabel("k2", slope=Fraction(5, 2))]),
        (HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l0"), EdgeLabel("k1")]),
        (HOLLOW, 1, THETA, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("l0")]),
        (SOLID, 1, THETA, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("l0")]),
        (SOLID, 1, [("v", "s1")], [EdgeLabel("em")]),
    ],
)
def test_valid_labelings(kind, extra, edges, labels):
    ad = labeled(kind, extra, edges, labels)
    assert validate_labels(ad) == []


# --- symmetry bounds -------------------------------------------------------------


def test_bounds_h1():
    ad = labeled(HOLLOW, 0, LOOP, [EdgeLabel("h1")])
    b = symmetry_bounds(ad)
    assert b == SymmetryBounds(GroupBound.AT_MOST_Z2, GroupBound.AT_MOST_Z2XZ2, exact=False)


def test_bounds_h2_loop():
    ad = labeled(HOLLOW, 0, LOOP, [EdgeLabel("h2")])
    b = symmetry_bounds(ad)
    assert b.sym_plus is GroupBound.TRIVIAL
    assert b.sym is GroupBound.AT_MOST_Z2
    assert not b.exact


def test_bounds_h2_with_companion():
    ad = labeled(HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("h2"), EdgeLabel("k2", slope=Fraction(5, 2))])
    b = symmetry_bounds(ad)
    assert b == SymmetryBounds(GroupBound.TRIVIAL, GroupBound.TRIVIAL, exact=True)


def test_bounds_theta_solid_is_exact():
    ad = labeled(SOLID, 1, THETA, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("l0")])
    b = symmetry_bounds(ad)
    assert b == SymmetryBounds(GroupBound.EXACTLY_Z2, GroupBound.EXACTLY_Z2XZ2, exact=True)
    assert is_fourone(ad)


def test_bounds_theta_hollow_not_exact():
    ad = labeled(HOLLOW, 1, THETA, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("l0")])
    b = symmetry_bounds(ad)
    assert b == SymmetryBounds(GroupBound.AT_MOST_Z2, GroupBound.AT_MOST_Z2XZ2, exact=False)
    assert not is_fourone(ad)


def test_no_h_label_no_bound():
    ad = labeled(HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l0"), EdgeLabel("k1")])
    assert symmetry_bounds(ad) is None


def test_bounds_rejects_invalid():
    ad = labeled(HOLLOW, 0, LOOP, [EdgeLabel("k1")])
    with pytest.raises(ValueError):
        symmetry_bounds(ad)


def test_group_bound_allows():
    assert GroupBound.TRIVIAL.allows("1")
    assert not GroupBound.TRIVIAL.allows("Z2")
    assert GroupBound.AT_MOST_Z2.allows("1")
    assert GroupBound.AT_MOST_Z2.allows("Z2")
    assert not GroupBound.AT_MOST_Z2.allows("Z2xZ2")
    assert GroupBound.EXACTLY_Z2XZ2.allows("Z2xZ2")
    assert not GroupBound.EXACTLY_Z2XZ2.allows("Z2")


def test_bounds_ordering_guard():
    with pytest.raises(ValueError):
        SymmetryBounds(GroupBound.EXACTLY_Z2XZ2, GroupBound.TRIVIAL, exact=True)


# --- derived facts ----------------------------------------------------------------


def fact_codes(ad):
    return [f.code for f in derived_facts(ad)]


def test_fourone_fact():
    ad = labeled(SOLID, 1, THETA, [EdgeLabel("h2"), EdgeLabel("h2"), EdgeLabel("l0")])
    facts = derived_facts(ad)
    assert any("4_1" in f.text for f in facts)
    assert any(f.code == "annuli-count" and "exactly three" in f.text for f in facts)


def test_annuli_counts():
    five = AnnulusDiagram.unlabeled(diagram(SOLID, 1, [("v", "s1")]))
    assert any("exactly five" in f.text for f in derived_facts(five))
    infinite = AnnulusDiagram.unlabeled(diagram(SOLID, 2, [("v", "s1"), ("v", "s2")]))
    assert any("infinitely many" in f.text for f in derived_facts(infinite))


def test_uniqueness_facts():
    h1 = labeled(HOLLOW, 0, LOOP, [EdgeLabel("h1")])
    assert "uniqueness" in fact_codes(h1)
    reciprocal = labeled(HOLLOW, 0, LOOP, [EdgeLabel("l", slopes=(Fraction(2, 3), Fraction(3, 2)))])
    assert "uniqueness" in fact_codes(reciprocal)


def test_unconstrained_fact():
    ad = labeled(HOLLOW, 1, LOOP_BRIDGE, [EdgeLabel("l0"), EdgeLabel("k1")])
    assert "unconstrained" in fact_codes(ad)


def test_realization_fact():
    ad = AnnulusDiagram.unlabeled(
        diagram(HOLLOW, 3, [("v", "s1"), ("v", "s2"), ("v", "s3")])
    )
    assert "realization" in fact_codes(ad)


def test_derived_facts_rejects_invalid():
    with pytest.raises(ValueError):
        derived_facts(labeled(HOLLOW, 0, LOOP, [EdgeLabel("k1")]))


# --- the catalog -------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog():
    return label_catalog()


def test_catalog_size(catalog):
    assert len(catalog) == 66


def test_a_wider_label_alphabet_finds_the_same_catalog(catalog):
    """Over three k2 slopes and six l slope pairs, the valid labelings fall
    into the catalog's 66 entries when each label is read as its kind and
    slope shape. Read as kinds alone, both sides give 65: the single-loop
    diagram's reciprocal and product l labels become one."""
    def keys(diagrams, name):
        return {canonical_form(ad.base, [name(lab) for lab in ad.labels]) for ad in diagrams}

    found = [ad for ad in candidate_labelings() if not ad.violations]
    entries = [e.diagram for e in catalog]
    for name, count in ((lambda lab: f"{lab.kind}:{lab.slope_shape}", 66),
                        (lambda lab: lab.kind, 65)):
        expected = keys(entries, name)
        assert keys(found, name) == expected
        assert len(expected) == count


def test_catalog_h_split(catalog):
    constrained = [e for e in catalog if e.constrained]
    assert len(constrained) == 6
    h1_entries = [e for e in constrained if "h1" in e.kinds]
    h2_entries = [e for e in constrained if "h2" in e.kinds]
    assert len(h1_entries) == 1
    assert len(h2_entries) == 5
    assert h1_entries[0].dtype.as_tuple() == (1, 1, 0, "hollow")


def test_catalog_bounds_agree_with_constraint(catalog):
    for e in catalog:
        assert (symmetry_bounds(e.diagram) is not None) == e.constrained


def test_catalog_derives_no_bounds():
    label_catalog.cache_clear()
    with mock.patch("hkdiag.labeling.symmetry_bounds", wraps=symmetry_bounds) as counter:
        assert len(label_catalog()) == 66
    assert counter.call_count == 0


def test_catalog_covers_all_classes(catalog):
    assert len({e.dtype.as_tuple() for e in catalog}) == 13


def test_catalog_entries_validate(catalog):
    for e in catalog:
        assert validate_labels(e.diagram) == []


def test_catalog_entries_distinct(catalog):
    for i, e1 in enumerate(catalog):
        for e2 in catalog[i + 1:]:
            a, b = e1.diagram, e2.diagram
            assert not brute_force_isomorphic(a.base, b.base, a.labels, b.labels)


# --- labeled canonical form ----------------------------------------------------------

# the catalog alphabet plus slopes whose spelling has commas and minus signs
LABEL_TOKENS = ("h1", "h2", "k1", "k2(2)", "em", "l(2/3,3/2)", "l(2/3,6)", "l0",
                "k2(5/2)", "k2(-5/2)")


@st.composite
def labeled_diagrams(draw):
    kind = draw(st.sampled_from([HOLLOW, SOLID]))
    extra = draw(st.integers(min_value=0, max_value=3))
    ids = ["v"] + [f"s{i}" for i in range(1, extra + 1)]
    pairs = [(a, a) for a in ids] + list(itertools.combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3))
    tokens = draw(st.lists(st.sampled_from(LABEL_TOKENS),
                           min_size=len(edges), max_size=len(edges)))
    return labeled(kind, extra, edges, [parse_label(t) for t in tokens])


def _relabeled(ad, rng):
    """The same labeled diagram under a random node renaming and edge reordering."""
    nodes = list(ad.base.nodes)
    rng.shuffle(nodes)
    rename = {n.id: f"n{i}" for i, n in enumerate(nodes)}
    edges = [((rename[a], rename[b]), lab) for (a, b), lab in zip(ad.base.edges, ad.labels)]
    rng.shuffle(edges)
    base = CharDiagram([Node(rename[n.id], n.kind, n.genus) for n in nodes],
                       [e for e, _ in edges])
    return AnnulusDiagram(base, [lab for _, lab in edges])


def _key(ad):
    return canonical_form(ad.base, [str(lab) for lab in ad.labels])


@settings(max_examples=150, deadline=None)
@given(labeled_diagrams(), labeled_diagrams(), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=2), st.sampled_from(LABEL_TOKENS))
def test_labeled_canonical_form_decides_isomorphism(ad, other, seed, index, token):
    renamed = _relabeled(ad, random.Random(seed))
    assert _key(renamed) == _key(ad)
    labels = list(renamed.labels)
    if labels:
        labels[index % len(labels)] = parse_label(token)
    mutated = AnnulusDiagram(renamed.base, labels)
    for candidate in (renamed, mutated, other):
        expected = brute_force_isomorphic(ad.base, candidate.base, ad.labels, candidate.labels)
        assert (_key(ad) == _key(candidate)) == expected
        assert labeled_isomorphic(ad, candidate) == expected


# --- formats -----------------------------------------------------------------------


def test_text_round_trip(catalog):
    for e in catalog[:20]:
        assert parse_annulus(format_annulus(e.diagram)) == e.diagram


# any id that Node accepts: one token without '#'
NODE_IDS = st.text(min_size=1, max_size=6).filter(lambda s: s.split() == [s] and "#" not in s)


@settings(max_examples=50, deadline=None)
@given(st.lists(NODE_IDS, min_size=4, max_size=4, unique=True))
def test_text_round_trip_with_any_node_ids(catalog, ids):
    for e in catalog:
        nodes = e.diagram.base.nodes
        rename = {n.id: new for n, new in zip(nodes, ids)}
        base = CharDiagram([Node(rename[n.id], n.kind, n.genus) for n in nodes],
                           [(rename[a], rename[b]) for a, b in e.diagram.base.edges])
        ad = AnnulusDiagram(base, e.diagram.labels)
        assert parse_annulus(format_annulus(ad)) == ad


def test_plain_text_round_trip():
    for d in enumerate_valid():
        ad = AnnulusDiagram.unlabeled(d)
        assert parse_annulus(format_annulus(ad)) == ad


def test_parse_annulus_accepts_plain_diagram():
    ad = parse_annulus("node v hollow genus=2\nedge v v\n")
    assert ad.labels == (None,)
    assert classify_type(ad.base).as_tuple() == (1, 1, 0, "hollow")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("node v\n", 1, "node line needs: node <id> <solid|hollow> [genus=<n>]"),
        ("node v hollow g=2\n", 1, "unexpected token 'g=2'"),
        ("node v hollow genus=two\n", 1, "genus must be an integer"),
        ("node v round genus=2\n", 1, "unknown node kind 'round'"),
        ("node v hollow genus=2\nedge v v\nnode v solid\n", 3, "duplicate node id"),
        ("node v hollow genus=2\nedge v\n", 2, "edge line needs: edge <id> <id> [label=<label>]"),
        ("node v hollow genus=2\nedge v v lab=h1\n", 2, "unexpected token 'lab=h1'"),
        ("node v hollow genus=2\nedge v v label=k2(1)\n", 2,
         "k2 slope must be nonzero and never a reciprocal of an integer, got 1"),
        ("vertex v hollow\n", 1, "unknown directive 'vertex'"),
        ("node v hollow genus=2\nedge v w\n", 2, "edge endpoint 'w' is not a node"),
        # two defects: a line-level defect is reported before an earlier
        # dangling endpoint, and a dangling endpoint before an earlier bad label
        ("node v hollow genus=2\nedge v w\nvertex v\n", 3, "unknown directive 'vertex'"),
        ("node v hollow genus=2\nedge v v label=h3\nedge v w\n", 3,
         "edge endpoint 'w' is not a node"),
    ],
)
def test_parse_annulus_errors_name_their_line(text, line, message):
    with pytest.raises(StructureError) as err:
        parse_annulus(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_reports_line_numbers():
    text = "node v hollow genus=2\nedge v w\n"
    with pytest.raises(StructureError) as err:
        parse_annulus(text)
    assert "w" in str(err.value)
    assert err.value.line == 2


def test_parse_names_the_line_of_a_repeated_node():
    with pytest.raises(StructureError) as err:
        parse_annulus("node v hollow genus=2\nedge v v\nnode v solid\n")
    assert str(err.value) == "line 3: duplicate node id"


def test_parse_reads_nodes_declared_after_their_edges():
    ad = parse_annulus("edge v s\nnode v solid genus=2\nnode s solid\n")
    assert ad.base.edges == (("s", "v"),)


def test_parse_rejects_unknown_directive():
    with pytest.raises(StructureError) as err:
        parse_annulus("vertex v hollow\n")
    assert err.value.line == 1


def test_parse_rejects_bad_genus():
    with pytest.raises(StructureError):
        parse_annulus("node v hollow genus=two\n")


def test_parse_skips_comments_and_blanks():
    text = "# a diagram\n\nnode v hollow genus=2\nedge v v # loop\n"
    ad = parse_annulus(text)
    assert classify_type(ad.base).as_tuple() == (1, 1, 0, "hollow")


# --- every value that builds is one its file reads back -----------------------------

SLOPES = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@st.composite
def label_fields(draw):
    """(kind, slope, slopes), the slope pair often reciprocal or product."""
    kind = draw(st.sampled_from(("h1", "h2", "k1", "k2", "l", "l0", "em", "k3", "")))
    slope = draw(st.none() | SLOPES | st.integers(-6, 6))
    r = draw(SLOPES)
    pair = st.sampled_from([
        (r, 1 / r if r else r), (r, r.numerator * r.denominator), (r, draw(SLOPES)), (0, 0)])
    slopes = draw(st.none() | pair | st.tuples(SLOPES, SLOPES, SLOPES))
    return kind, slope, slopes


@settings(max_examples=300, deadline=None)
@given(label_fields())
def test_every_label_that_builds_reads_back_equal(fields):
    kind, slope, slopes = fields
    try:
        lab = EdgeLabel(kind, slope=slope, slopes=slopes)
    except ValueError:
        return
    assert parse_label(str(lab)) == lab


@st.composite
def annulus_diagrams(draw):
    """Any AnnulusDiagram that builds from labels that build and one-token ids,
    with node kinds and genera that need not be NodeKinds and ints."""
    ids = draw(st.lists(NODE_IDS, min_size=1, max_size=3, unique=True))
    nodes = []
    for i in ids:
        kind = draw(st.sampled_from([HOLLOW, SOLID, "hollow"]))
        genus = draw(st.sampled_from([None, 2, 3, "2", True]))
        try:
            nodes.append(Node(i, kind, genus))
        except StructureError:
            nodes.append(Node(i, SOLID))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    labels = []
    for _ in edges:
        kind, slope, slopes = draw(label_fields())
        try:
            labels.append(EdgeLabel(kind, slope=slope, slopes=slopes))
        except ValueError:
            labels.append(draw(st.sampled_from([None, "h1"])))
    try:
        return AnnulusDiagram(CharDiagram(nodes, edges), labels)
    except StructureError:
        return AnnulusDiagram.unlabeled(CharDiagram(nodes, edges))


@settings(max_examples=200, deadline=None)
@given(annulus_diagrams())
def test_every_annulus_diagram_that_builds_reads_back_equal(ad):
    assert parse_annulus(format_annulus(ad)) == ad


TAKES = "k2 takes a slope and l a slope pair; no other label takes either"


@pytest.mark.parametrize(
    "kind, slope, slopes, message",
    [
        ("k2", None, None, TAKES),
        ("h2", Fraction(5, 2), None, TAKES),
        ("l", None, None, TAKES),
        ("l", None, (1, 5), "slope pair (1, 5) fits no annulus of this kind"),
        ("l", None, (0, 0), "the trivial slope pair is written l0, not l(0,0)"),
        ("l0", None, (0, 0), TAKES),
        ("k2", Fraction(1, 3), None,
         "k2 slope must be nonzero and never a reciprocal of an integer, got 1/3"),
        ("k2", "x", None, "bad slope 'x': "),
        ("k3", None, None, "unknown label 'k3'"),
    ],
)
def test_a_label_its_file_cannot_carry_is_refused(kind, slope, slopes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        EdgeLabel(kind, slope=slope, slopes=slopes)


def test_label_slopes_are_stored_as_fractions():
    lab = EdgeLabel("k2", slope=5)
    assert type(lab.slope) is Fraction and lab == parse_label("k2(5)")
    assert EdgeLabel("l", slopes=(6, Fraction(2, 3))).slopes == (Fraction(2, 3), Fraction(6))


@pytest.mark.parametrize(
    "kind, genus, message",
    [
        ("hollow", 2, "node 'v': kind 'hollow' is not a NodeKind"),
        (HOLLOW, "2", "node 'v': genus '2' is not an int"),
        (HOLLOW, True, "node 'v': genus True is not an int"),
    ],
)
def test_a_node_its_file_cannot_carry_is_refused(kind, genus, message):
    with pytest.raises(StructureError) as err:
        Node("v", kind, genus)
    assert str(err.value) == message


def test_a_label_slot_holds_none_or_a_label():
    with pytest.raises(StructureError, match="^label slot 'h1' is neither None nor an EdgeLabel$"):
        AnnulusDiagram(diagram(HOLLOW, 0, LOOP), ["h1"])


def test_an_annulus_diagram_is_built_on_a_char_diagram():
    with pytest.raises(StructureError, match="^base 'v' is not a CharDiagram$"):
        AnnulusDiagram("v", [])


def test_diagrams_store_their_fields_as_tuples():
    ad = AnnulusDiagram(CharDiagram(iter([Node("v", HOLLOW, 2)]), iter([("v", "v")])),
                        iter([EdgeLabel("h1")]))
    assert ad == parse_annulus("node v hollow genus=2\nedge v v label=h1\n")

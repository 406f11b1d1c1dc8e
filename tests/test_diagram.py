"""Characteristic-diagram model: constraints, enumeration, canonical forms."""

import itertools
import random

import diagram_oracle
import pytest
from diagram_search_oracle import candidate_diagrams
from hypothesis import given, settings, strategies as st
from iso_oracle import brute_force_isomorphic

from hkdiag.diagram import (
    CharDiagram,
    Node,
    NodeKind,
    StructureError,
    are_isomorphic,
    canonical_form,
    classify_type,
    enumerate_valid,
    realization_status,
    solid_base_annotation,
    validate,
)

HOLLOW = NodeKind.HOLLOW
SOLID = NodeKind.SOLID

# the classification of valid shapes, as (edges, loops, bigons, kind)
EXPECTED_TYPES = [
    (1, 0, 0, "hollow"),
    (1, 0, 0, "solid"),
    (1, 1, 0, "hollow"),
    (2, 0, 0, "hollow"),
    (2, 0, 0, "solid"),
    (2, 0, 1, "hollow"),
    (2, 1, 0, "hollow"),
    (3, 0, 0, "hollow"),
    (3, 0, 0, "solid"),
    (3, 0, 1, "hollow"),
    (3, 0, 1, "solid"),
    (3, 0, 3, "hollow"),
    (3, 0, 3, "solid"),
]


def diagram(kind, extra_solid, edges):
    nodes = [Node("v", kind, 2)] + [Node(f"s{i}", SOLID) for i in range(1, extra_solid + 1)]
    return CharDiagram(nodes, edges)


def test_enumeration_gives_thirteen_classes():
    reps = enumerate_valid()
    assert len(reps) == 13
    types = sorted(classify_type(d).as_tuple() for d in reps)
    assert types == sorted(EXPECTED_TYPES)


def test_a_wider_search_finds_the_same_thirteen_classes():
    """Up to four extra solid nodes and four edges, the valid candidates
    fall into exactly the classes of enumerate_valid. No 4-edge candidate
    is valid: each edge meets the labeled node (C-iv), whose degree is at
    most three (C-vii)."""
    candidates = list(candidate_diagrams(max_extra=4, max_edges=4))
    assert len(candidates) == 10_244
    keys = {canonical_form(d) for d in candidates if not d.violations}
    assert keys == {canonical_form(d) for d in enumerate_valid()}
    assert len(keys) == 13
    four_edges = [d for d in candidates if len(d.edges) == 4]
    assert four_edges
    for d in four_edges:
        assert {v.code for v in d.violations} & {"C-iv", "C-vii", "conn"}, d


def test_enumeration_reps_are_pairwise_nonisomorphic():
    reps = enumerate_valid()
    for d1, d2 in itertools.combinations(reps, 2):
        assert not brute_force_isomorphic(d1, d2)
        assert canonical_form(d1) != canonical_form(d2)


def test_bigon_rule_ablation():
    """Dropping the single-bigon rule admits exactly one extra class."""
    with_rule = {canonical_form(d) for d in enumerate_valid()}
    without_rule = {canonical_form(d) for d in enumerate_valid(single_bigon_rule=False)}
    assert with_rule < without_rule
    extra = without_rule - with_rule
    assert len(extra) == 1
    gained = [
        d for d in enumerate_valid(single_bigon_rule=False)
        if canonical_form(d) in extra
    ]
    assert classify_type(gained[0]).as_tuple() == (2, 0, 1, "solid")


def test_realization_status_split():
    reps = enumerate_valid()
    unknown = sorted(
        classify_type(d).as_tuple() for d in reps
        if realization_status(classify_type(d)) == "unknown"
    )
    assert unknown == [
        (2, 0, 0, "solid"),
        (3, 0, 0, "hollow"),
        (3, 0, 0, "solid"),
        (3, 0, 1, "hollow"),
        (3, 0, 1, "solid"),
    ]


def test_validate_accepts_loop_diagram():
    d = diagram(HOLLOW, 0, [("v", "v")])
    assert validate(d) == []
    assert classify_type(d).as_tuple() == (1, 1, 0, "hollow")


@pytest.mark.parametrize(
    "kind, extra, edges, code",
    [
        (SOLID, 0, [("v", "v")], "C-iii"),
        (HOLLOW, 2, [("v", "s1"), ("s1", "s2")], "C-iv"),
        (SOLID, 1, [("v", "s1"), ("v", "s1")], "C-vi"),
        (HOLLOW, 1, [("v", "s1"), ("v", "s1"), ("v", "s1"), ("v", "s1")], "C-vii"),
        (HOLLOW, 0, [], "C-cyl"),
    ],
)
def test_single_violations(kind, extra, edges, code):
    d = diagram(kind, extra, edges)
    codes = [v.code for v in validate(d)]
    assert code in codes


def test_wrong_genus_is_a_violation_not_an_error():
    d = CharDiagram([Node("v", HOLLOW, 3)], [("v", "v")])
    codes = [v.code for v in validate(d)]
    assert codes == ["C-i"]


def test_two_labeled_nodes_violate():
    d = CharDiagram(
        [Node("v", HOLLOW, 2), Node("w", HOLLOW, 2)], [("v", "w")]
    )
    assert any(v.code == "C-i" for v in validate(d))


def test_unlabeled_hollow_node_violates():
    d = CharDiagram(
        [Node("v", HOLLOW, 2), Node("w", HOLLOW)], [("v", "w")]
    )
    assert any(v.code == "C-ii" for v in validate(d))


def test_disconnected_diagram_violates():
    d = CharDiagram(
        [Node("v", HOLLOW, 2), Node("s1", SOLID)], [("v", "v")]
    )
    assert any(v.code == "conn" for v in validate(d))


def test_hollow_bigon_is_fine():
    d = diagram(HOLLOW, 1, [("v", "s1"), ("v", "s1")])
    assert validate(d) == []


def test_dangling_endpoint_is_structural():
    with pytest.raises(StructureError):
        CharDiagram([Node("v", HOLLOW, 2)], [("v", "w")])


def test_duplicate_node_id_is_structural():
    with pytest.raises(StructureError):
        CharDiagram([Node("v", HOLLOW, 2), Node("v", SOLID)], [])


@pytest.mark.parametrize("node_id", ["v#1", "a b", ""])
def test_node_id_must_be_one_token(node_id):
    """An id that the file format could not read back is refused."""
    with pytest.raises(StructureError, match=f"^node id {node_id!r} is not one token"):
        CharDiagram([Node(node_id, HOLLOW, 2)], [(node_id, node_id)])


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        (["v"], [], "node 'v' is not a Node"),
        ([Node("v", HOLLOW, 2)], [("v",)], "edge ('v',) is not a pair of node ids"),
        ([Node("v", HOLLOW, 2)], ["vv"], "edge 'vv' is not a pair of node ids"),
        ([Node("v", HOLLOW, 2)], [(["v"], "v")], "edge endpoint ['v'] is not a node"),
    ],
)
def test_a_diagram_of_other_values_is_refused(nodes, edges, message):
    with pytest.raises(StructureError) as err:
        CharDiagram(nodes, edges)
    assert str(err.value) == message


def test_solid_base_annotation_by_degree():
    pants = diagram(SOLID, 3, [("v", "s1"), ("v", "s2"), ("v", "s3")])
    assert solid_base_annotation(pants) == "I-bundle over a pair of pants"
    moebius = diagram(SOLID, 2, [("v", "s1"), ("v", "s2")])
    assert "Moebius" in solid_base_annotation(moebius)
    klein = diagram(SOLID, 1, [("v", "s1")])
    assert "Klein" in solid_base_annotation(klein)
    hollow = diagram(HOLLOW, 0, [("v", "v")])
    assert solid_base_annotation(hollow) is None


# --- isomorphism and canonical form -------------------------------------------


def _relabeled(d, rng):
    """The same diagram under a random node renaming and reordering."""
    perm = list(d.nodes)
    rng.shuffle(perm)
    rename = {n.id: f"n{i}" for i, n in enumerate(perm)}
    nodes = [Node(rename[n.id], n.kind, n.genus) for n in perm]
    edges = [(rename[a], rename[b]) for a, b in d.edges]
    rng.shuffle(edges)
    return CharDiagram(nodes, edges)


@st.composite
def small_diagrams(draw):
    kind = draw(st.sampled_from([HOLLOW, SOLID]))
    extra = draw(st.integers(min_value=0, max_value=3))
    ids = ["v"] + [f"s{i}" for i in range(1, extra + 1)]
    pairs = [(a, a) for a in ids] + list(itertools.combinations(ids, 2))
    n_edges = draw(st.integers(min_value=0, max_value=3))
    edges = [draw(st.sampled_from(pairs)) for _ in range(n_edges)]
    nodes = [Node("v", kind, 2)] + [Node(i, SOLID) for i in ids[1:]]
    return CharDiagram(nodes, edges)


@settings(max_examples=150, deadline=None)
@given(small_diagrams(), st.integers(min_value=0, max_value=10**6))
def test_canonical_form_is_relabeling_invariant(d, seed):
    other = _relabeled(d, random.Random(seed))
    assert brute_force_isomorphic(d, other)
    assert canonical_form(d) == canonical_form(other)


@settings(max_examples=150, deadline=None)
@given(small_diagrams(), small_diagrams())
def test_canonical_form_decides_isomorphism(d1, d2):
    expected = brute_force_isomorphic(d1, d2)
    assert (canonical_form(d1) == canonical_form(d2)) == expected
    assert are_isomorphic(d1, d2) == expected


def test_canonical_form_of_the_empty_diagram():
    # permutations of no nodes yield one empty ordering, encoded as "|"
    empty = CharDiagram([], [])
    assert canonical_form(empty) == canonical_form(empty, labels=[]) == "|"


@settings(max_examples=100, deadline=None)
@given(small_diagrams())
def test_validate_is_relabeling_invariant(d):
    other = _relabeled(d, random.Random(0))
    assert sorted(v.code for v in validate(d)) == sorted(v.code for v in validate(other))


# --- the per-diagram index --------------------------------------------------------


@st.composite
def multigraphs(draw):
    """Any decorated multigraph on at most four nodes and four edges,
    loops, parallel edges, isolated nodes and several genus labels allowed."""
    size = draw(st.integers(min_value=0, max_value=4))
    nodes = [
        Node(f"n{i}", draw(st.sampled_from([HOLLOW, SOLID])), draw(st.sampled_from([None, 2, 3])))
        for i in range(size)
    ]
    ids = [n.id for n in nodes]
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4)
                 if ids else st.just([]))
    return CharDiagram(nodes, edges)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_index_agrees_with_counting_and_search(d):
    assert d.labeled_nodes == diagram_oracle.labeled_nodes(d)
    assert d.loop_count == diagram_oracle.loop_count(d)
    assert d.bigon_count == diagram_oracle.bigon_count(d)
    for n in d.nodes:
        assert d.degree(n.id) == diagram_oracle.degree(d, n.id)
    assert d.is_connected() == diagram_oracle.is_connected([n.id for n in d.nodes], d.edges)
    for i in range(len(d.edges)):
        assert d.is_cut_edge(i) == diagram_oracle.is_cut_edge(d, i), i
    assert d.violations == tuple(validate(d))
    assert d.violations is d.violations

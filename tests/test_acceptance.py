"""Acceptance checks, one per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" line so a full run
reads as a checklist; use ``pytest tests/test_acceptance.py -s`` to see
the lines as they happen.
"""

import functools
import io
import json
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from hkdiag.cli import main
from hkdiag.diagram import canonical_form, classify_type, enumerate_valid
from hkdiag.homology import (
    INFINITE,
    IntMatrix,
    LaurentPoly,
    meridional_pair_predict,
    smith_normal_form,
    subgroup_index,
)
from hkdiag.labeling import (
    GroupBound,
    SymmetryBounds,
    derived_facts,
    is_fourone,
    label_catalog,
    parse_annulus,
    symmetry_bounds,
)
from hkdiag.spatial import (
    Crossing,
    EdgeCode,
    FactSet,
    GraphClass,
    Pass,
    SpatialGraphCode,
    closed_braid,
    family_torus_link,
    linking_number,
    loop_at,
    looping_transition,
    parse_code,
    predicted_annulus,
    resolve_end,
    type_three_two_linking_test,
)
from hkdiag.wirtinger import alexander_polynomial, attach_evidence


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run_checked(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL: {title}", flush=True)
                raise
            print(f"criterion {number:02d} PASS: {title}", flush=True)
        return run_checked
    return wrap


def braid(*signed):
    return [(abs(i), 1 if i > 0 else -1) for i in signed]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


THIRTEEN = [
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


@criterion(1, "enumeration yields the 13 classes in under a second")
def test_criterion_01_enumeration():
    start = time.perf_counter()
    reps = enumerate_valid()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    assert sorted(classify_type(d).as_tuple() for d in reps) == THIRTEEN


@criterion(2, "dropping the single-bigon rule admits exactly one extra class")
def test_criterion_02_bigon_ablation():
    with_rule = {canonical_form(d): classify_type(d) for d in enumerate_valid()}
    without = {
        canonical_form(d): classify_type(d)
        for d in enumerate_valid(single_bigon_rule=False)
    }
    assert set(with_rule) < set(without)
    extra = [without[k] for k in set(without) - set(with_rule)]
    assert [t.as_tuple() for t in extra] == [(2, 0, 1, "solid")]


@criterion(3, "the label catalog holds 66 entries, six of them h-labeled")
def test_criterion_03_catalog():
    entries = label_catalog()
    assert len(entries) == 66
    h1 = [e for e in entries if "h1" in e.kinds]
    h2 = [e for e in entries if "h2" in e.kinds]
    assert len(h1) == 1 and len(h2) == 5
    assert str(h1[0].dtype) == "(1,1,0,hollow)"
    constrained = {id(e) for e in entries if e.constrained}
    assert constrained == {id(e) for e in h1 + h2}


@criterion(4, "the solid theta diagram pins the 4_1 exterior exactly")
def test_criterion_04_fourone():
    entries = [
        e for e in label_catalog()
        if str(e.dtype) == "(3,0,3,solid)" and "h2" in e.kinds
    ]
    assert len(entries) == 1
    ad = entries[0].diagram
    assert is_fourone(ad)
    assert any("4_1" in f.text for f in derived_facts(ad))
    assert symmetry_bounds(ad) == SymmetryBounds(
        GroupBound.EXACTLY_Z2, GroupBound.EXACTLY_Z2XZ2, exact=True
    )


@criterion(5, "known symmetry groups respect the derived bounds")
def test_criterion_05_symmetry_consistency():
    # three knots whose loop diagram carries a companion label; their
    # computed symmetry groups are trivial, and the bound says they must be
    exact_trivial = parse_annulus(
        "node v hollow genus=2\nnode s solid\n"
        "edge v v label=h2\nedge v s label=k1\n"
    )
    bounds = symmetry_bounds(exact_trivial)
    for group in ("1", "1", "1"):  # 5_1, 6_1, 6_11
        assert bounds.sym.allows(group)
        assert bounds.sym_plus.allows(group)
    assert bounds.exact
    assert not bounds.sym.allows("Z2")

    # one knot with a bare h2 loop: full group Z2 sits inside the bound,
    # so the bound is attained but not forced
    loop_only = parse_annulus("node v hollow genus=2\nedge v v label=h2\n")
    bounds = symmetry_bounds(loop_only)
    assert bounds.sym.allows("Z2")  # 6_4
    assert bounds.sym.allows("1")
    assert not bounds.sym.allows("Z2xZ2")
    assert bounds.sym_plus.allows("1") and not bounds.sym_plus.allows("Z2")
    assert not bounds.exact


@criterion(6, "torus-link linking numbers match an independent count")
def test_criterion_06_linking():
    def over_sum(g, a, b):
        over, under = {}, {}
        for e in g.edges:
            for p in e.passes:
                (over if p.position == "over" else under)[p.crossing] = e.id
        return sum(
            c.sign
            for c in g.crossings
            if over.get(c.id) == a and under.get(c.id) == b
        )

    outcomes = {}
    for n in (2, 4, 6, 8):
        g = family_torus_link(n)
        lk = linking_number(g, "a", "b")
        assert lk == n // 2
        assert over_sum(g, "a", "b") == lk
        assert over_sum(g, "b", "a") == lk
        outcomes[n] = type_three_two_linking_test(lk)
    assert outcomes == {2: False, 4: True, 6: True, 8: True}


@criterion(7, "meridional pairs span index-|p| subgroups over 100 samples")
def test_criterion_07_meridional_pairs():
    rng = random.Random(73)
    for _ in range(100):
        p = rng.choice([x for x in range(-50, 51) if x != 0])
        p1 = rng.randint(-50, 50)
        mirror = rng.random() < 0.5
        pair = meridional_pair_predict(p, 1, p1, mirror=mirror)
        assert subgroup_index(pair) == abs(p)
    degenerate = meridional_pair_predict(0, 1, 3)
    assert subgroup_index(degenerate) is INFINITE


@criterion(8, "Smith normal form is exact on 1000 random matrices")
def test_criterion_08_snf():
    rng = random.Random(424242)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [x for x in d.diagonal() if x]
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


@criterion(9, "Alexander polynomials hit the table values")
def test_criterion_09_alexander():
    one = LaurentPoly.constant(1)
    assert alexander_polynomial(closed_braid([], 1)) == one
    assert alexander_polynomial(closed_braid(braid(1), 2)) == one

    trefoil = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert alexander_polynomial(closed_braid(braid(1, 1, 1), 2)) == trefoil

    fig8 = LaurentPoly.from_dict({0: 1, 1: -3, 2: 1})
    assert alexander_polynomial(closed_braid(braid(1, -2, 1, -2), 3)) == fig8

    # connected sum of two trefoils: concatenate the journeys
    first = closed_braid(braid(1, 1, 1), 2).edge("k")
    second = closed_braid(braid(1, 1, 1), 2).edge("k")
    renamed = tuple(Pass(p.crossing.replace("x", "y"), p.position)
                    for p in second.passes)
    crossings = tuple(Crossing(f"x{i}", 1) for i in (1, 2, 3)) + tuple(
        Crossing(f"y{i}", 1) for i in (1, 2, 3)
    )
    granny = SpatialGraphCode(
        "link", (), (EdgeCode("k", None, None, first.passes + renamed),), crossings
    )
    assert alexander_polynomial(granny) == trefoil * trefoil


@criterion(10, "all ten looping transitions land where they should")
def test_criterion_10_transitions():
    expected = {
        ("tau1", "plain"): ("h3",),
        ("tau2", "plain"): ("h4",),
        ("tau3", "knot"): ("h4",),
        ("tau3", "tunnel"): ("h3", "h4"),
        ("tau3", "plain"): ("h3", "h4"),
        ("tau4", "plain"): ("h4",),
        ("h1", "plain"): ("h1",),
        ("h2", "plain"): ("h2",),
        ("h3", "plain"): ("h2",),
        ("h4", "plain"): ("h2",),
    }
    for (source, kind), targets in expected.items():
        t = looping_transition(GraphClass(source), kind)
        assert tuple(x.code for x in t.targets) == targets
    assert "2_1" in looping_transition(GraphClass("tau1")).note


@criterion(11, "looping the bundled spine predicts the right annulus diagrams")
def test_criterion_11_spine_predictions():
    def pinned(g):
        facts = FactSet()
        facts.set("atoroidal", True)
        facts.set("planar", False)
        return attach_evidence(g, facts)

    def diagram_of(prediction):
        t = str(classify_type(prediction.diagram.base))
        return t, list(prediction.diagram.label_kinds)

    # library route
    text = resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text()
    g = parse_code(text)
    pair = (resolve_end(g, "u", "ka"), resolve_end(g, "u", "kb"))
    once = loop_at(g, "u", pair, tunnel="t")
    p = predicted_annulus(once, pinned(once))
    assert p.annulus_type == "2-1"
    assert diagram_of(p) == ("(1,1,0,hollow)", ["h1"])

    pair = (resolve_end(once, "v", "ka+kb.0"), resolve_end(once, "v", "t"))
    twice = loop_at(once, "v", pair)
    p = predicted_annulus(twice, pinned(twice))
    assert p.annulus_type == "2-2" and p.annulus_count == 2
    assert diagram_of(p) == ("(3,0,3,hollow)", ["h2", "h2", "l0"])

    # command line route
    with tempfile.TemporaryDirectory() as tmp:
        spine = str(Path(tmp) / "spine.txt")
        one_loop = str(Path(tmp) / "once.txt")
        two_loops = str(Path(tmp) / "twice.txt")
        assert run_cli(["family", "spine-5-2", "-o", spine])[0] == 0
        assert run_cli(["loop", spine, "--vertex", "u", "--pair", "ka,kb",
                        "--tunnel", "t", "-o", one_loop])[0] == 0
        assert run_cli(["loop", one_loop, "--vertex", "v",
                        "--pair", "ka+kb.0,t.1", "-o", two_loops])[0] == 0

        asserts = ["--assert", "atoroidal=true", "--assert", "planar=false"]
        code, out = run_cli(["analyze", one_loop, "--format", "json", *asserts])
        assert code == 0
        pred = json.loads(out)["prediction"]
        assert pred["diagram"] == "(1,1,0,hollow) labels {h1}"

        code, out = run_cli(["analyze", two_loops, "--format", "json", *asserts])
        assert code == 0
        pred = json.loads(out)["prediction"]
        assert pred["diagram"] == "(3,0,3,hollow) labels {h2, h2, l0}"

"""One `analyze` report for every spelling of a diagram code.

Each example re-encodes a code with one to three moves (reverse an edge,
rotate a circle's passes, rotate a vertex's ends), maybe renames every id
and maybe shuffles the lines (`reencode_oracle.py`), then compares
`analyze --format json` of both texts, with the benchmark's assertions and
without. Rotating a knot's passes moves which under-pass row of its Fox
matrix is dropped, and reversing an edge reverses the row chain, so this
also runs the unit eliminations of `alexander_polynomial` on many chains of
one knot.
"""

import io
import itertools
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from hkdiag.cli import main
from hkdiag.errors import ContradictionError, StructureError
from hkdiag.spatial import closed_braid, family_torus_link, format_code, loop_at, parse_code
from reencode_oracle import (
    rename,
    report_key,
    reverse_edge,
    rotate_circle,
    rotate_vertex,
    shuffle_lines,
)

# the assertions of the benchmark's `analyze` requests (perfbench/gen.py)
BENCHMARK_ASSERTS = ("atoroidal=true", "planar=false", "tunnel=t")

SPINE = parse_code(resources.files("hkdiag").joinpath("data", "spine_5_2.txt").read_text())


def _single_loopings(sources):
    """Every looping of each source at one vertex, by each ordered pair of
    ends of two edges, with and without t as the tunnel, of either
    handedness."""
    out = []
    for g in sources:
        for v in g.vertices:
            for pair in itertools.permutations(v.ends, 2):
                if pair[0][0] == pair[1][0]:
                    continue
                for tunnel, mirror in itertools.product((None, "t"), (False, True)):
                    try:
                        out.append(loop_at(g, v.id, pair, tunnel, mirror))
                    except (StructureError, ContradictionError):
                        pass
    return out


FAMILIES = [family_torus_link(n, tunnel, mirror)
            for n in range(2, 9) for tunnel in (False, True) for mirror in (False, True)]
CODES = [*FAMILIES, SPINE, *_single_loopings(
    [family_torus_link(n, tunnel=True) for n in (3, 4, 5)] + [SPINE])]


@st.composite
def braid_closures(draw):
    strands = draw(st.integers(2, 4))
    word = draw(st.lists(st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1))),
                         min_size=1, max_size=10))
    return closed_braid(word, strands)


def analyze(text: str, assertions) -> tuple[int, dict, str]:
    """Exit code, JSON report and stderr of `analyze --format json`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.txt"
        path.write_text(text)
        argv = ["analyze", str(path), "--format", "json"]
        for a in assertions:
            argv += ["--assert", a]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, json.loads(out.getvalue()), err.getvalue()


@seed(20300)
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(CODES), braid_closures()), st.data())
def test_every_spelling_of_a_code_gets_one_analyze_report(g, data):
    spelled, turned = g, set()
    for _ in range(data.draw(st.integers(1, 3))):
        circles = [e.id for e in spelled.edges if e.is_circle and e.passes]
        moves = ["reverse", *(["circle"] if circles else []),
                 *(["vertex"] if spelled.vertices else [])]
        move = data.draw(st.sampled_from(moves))
        if move == "reverse":
            eid = data.draw(st.sampled_from([e.id for e in spelled.edges]))
            spelled, turned = reverse_edge(spelled, eid), turned ^ {eid}
        elif move == "circle":
            eid = data.draw(st.sampled_from(circles))
            k = data.draw(st.integers(1, len(spelled.edge(eid).passes) - 1 or 1))
            spelled = rotate_circle(spelled, eid, k)
        else:
            v = data.draw(st.sampled_from(spelled.vertices))
            spelled = rotate_vertex(spelled, v.id, data.draw(st.integers(1, 2)))
    back = None
    if data.draw(st.booleans(), label="rename"):
        spelled, back = rename(spelled)
    text = format_code(spelled)
    if data.draw(st.booleans(), label="shuffle"):
        text = shuffle_lines(text, data.draw(st.randoms(use_true_random=False)))
    assertions = data.draw(st.sampled_from(((), BENCHMARK_ASSERTS)))
    forward = {old: new for new, old in (back or {}).items()}
    respelled_assertions = []
    for a in assertions:
        key, _, value = a.partition("=")
        respelled_assertions.append(f"{key}={forward.get(value, value)}")

    code, report, err = analyze(format_code(g), assertions)
    code2, report2, err2 = analyze(text, respelled_assertions)
    assert (code2, err2) == (code, err)
    assert (report_key(report2, [e.id for e in spelled.edges], back, turned)
            == report_key(report, [e.id for e in g.edges]))

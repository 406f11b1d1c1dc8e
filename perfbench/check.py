"""Reply checks for the hkdiag benchmark.

Each check takes a request's expectation, its exit code and its standard
output, and returns None when the reply is right or a one-line reason when
it is not. Expectations are closed forms for the T(2,n) families and values
recorded at the commit that defined the benchmark (expected.json) for the
braid, spine and catalog inputs.

Polynomials are compared up to units and meridian coordinates only up to a
change of basis: by the group, by the lattice the meridians span and by the
vertex relation they satisfy, never as raw vectors.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path


def parse_poly(text: str) -> dict[int, int]:
    """Read a printed Laurent polynomial such as "2*t^2 - 3*t + 2"."""
    body = text.replace(" ", "").replace("^-", "^~").replace("-", "+-").replace("^~", "^-")
    terms: dict[int, int] = {}
    for piece in filter(None, body.split("+")):
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("-")
        if "t" in piece:
            coeff, _, power = piece.partition("t")
            c = int(coeff.rstrip("*") or 1)
            e = int(power[1:]) if power.startswith("^") else 1
        else:
            c, e = int(piece), 0
        terms[e] = terms.get(e, 0) + sign * c
    return {e: c for e, c in terms.items() if c}


def normalized(poly: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Shift to lowest degree 0 and make the leading coefficient positive."""
    if not poly:
        return ()
    low, high = min(poly), max(poly)
    sign = 1 if poly[high] > 0 else -1
    return tuple(sorted((e - low, sign * c) for e, c in poly.items()))


def torus_knot_poly(n: int) -> dict[int, int]:
    """Delta of the T(2,n) torus knot: 1 - t + t^2 - ... + t^(n-1)."""
    return {i: (-1) ** i for i in range(n)}


def _same_poly(got: str, want) -> bool:
    if isinstance(want, str):
        want = parse_poly(want)
    return normalized(parse_poly(got)) == normalized(want)


def _spans_z2(vectors) -> bool:
    """The vectors generate Z^2: the gcd of their 2x2 minors is 1."""
    g = 0
    for i, (a, b) in enumerate(vectors):
        for c, d in vectors[i + 1:]:
            g = math.gcd(g, a * d - b * c)
    return g == 1


def _check_theta_homology(data) -> str | None:
    homology = data["homology"]
    if homology["group"] != "Z^2":
        return f"group {homology['group']}, expected Z^2"
    m = {k: tuple(v) for k, v in homology["meridians"].items()}
    if not _spans_z2(list(m.values())):
        return "meridians do not generate the group"
    # vertex u joins ka.0, kb.1 and t.0, so kb = ka + t in every basis
    if tuple(x + y for x, y in zip(m["ka"], m["t"])) != m["kb"]:
        return "meridians break the vertex relation kb = ka + t"
    return None


def _check_theta(data, alexander: dict, klass) -> str | None:
    if data.get("kind") != "theta":
        return f"kind {data.get('kind')}, expected theta"
    got = {c["component"]: c["alexander"] for c in data["constituents"]}
    if sorted(got) != sorted(alexander):
        return f"constituents {sorted(got)}"
    for name, want in alexander.items():
        if not _same_poly(got[name], want):
            return f"alexander of {name} is {got[name]}"
    if data.get("class") != klass:
        return f"class {data.get('class')}, expected {klass}"
    return _check_theta_homology(data)


def _check_handcuff(data, expect) -> str | None:
    if data.get("kind") != "handcuff":
        return f"kind {data.get('kind')}, expected handcuff"
    (link,) = data["constituents"]
    if link["components"] != expect["components"]:
        return f"components {link['components']}"
    if link["linking_number"] != expect["linking_number"]:
        return f"lk {link['linking_number']}, expected {expect['linking_number']}"
    if data.get("class") != "h3":
        return f"class {data.get('class')}, expected h3"
    homology = data["homology"]
    if homology["group"] != "Z^2":
        return f"group {homology['group']}, expected Z^2"
    m = homology["meridians"]
    a, b = expect["components"]
    if any(m["t"]) or not _spans_z2([tuple(m[a]), tuple(m[b])]):
        return "loop meridians are not a basis with a null bridge meridian"
    return None


def _check_loop_file(text: str, crossings: int, loopings: int) -> str | None:
    """A looping adds a handcuff ring with two crossings and bumps the count."""
    if not text.startswith("graph handcuff\n"):
        return "looping did not produce a handcuff code"
    passes = text.count("\npass ")
    if passes != 2 * crossings:
        return f"{passes // 2} crossings after looping, expected {crossings}"
    if f"loopings={loopings}" not in text.rsplit("\n", 2)[-2].split():
        return f"meta does not record {loopings} loopings"
    return None


def _violation_codes(data) -> list[str]:
    return sorted({v["code"] for v in data.get("violations", [])})


def check(expect: dict, rc, out: str) -> str | None:
    """None if the reply meets the expectation, else the reason it fails."""
    kind = expect["check"]
    want_rc = 1 if kind == "mutant" and expect["violations"] else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if kind == "loop":
        if not out.startswith("wrote "):
            return "loop did not report its output file"
        try:
            text = Path(expect["file"]).read_text()
        except OSError as err:
            return f"cannot read the looped code: {err}"
        return _check_loop_file(text, expect["crossings"], expect["loopings"])
    try:
        data = json.loads(out)
        if kind == "torus-theta":
            n = expect["n"]
            return _check_theta(data, {"ka+kb": torus_knot_poly(n), "ka+t": {0: 1}, "kb+t": {0: 1}},
                                "tau3")
        if kind == "theta":
            return _check_theta(data, expect["alexander"], expect["class"])
        if kind == "handcuff":
            return _check_handcuff(data, expect)
        if kind == "linking":
            lk = expect["linking_number"]
            if data["linking_number"] != lk:
                return f"lk {data['linking_number']}, expected {lk}"
            if data["mixed_type_annulus_possible"] != (abs(lk) != 1):
                return "wrong mixed-type annulus verdict"
            return None
        if kind in ("validate", "classify", "symmetry", "mutant"):
            codes = _violation_codes(data)
            want = expect.get("violations", [])
            if codes != want:
                return f"violations {codes}, expected {want}"
        if kind in ("validate", "classify") and data["type"] != expect["type"]:
            return f"type {data['type']}, expected {expect['type']}"
        if kind == "classify":
            if data["realization"] != expect["realization"]:
                return f"realization {data['realization']}"
            if sorted(f["code"] for f in data["facts"]) != expect["facts"]:
                return "derived facts differ"
        if kind == "symmetry" and data["bounds"] != expect["bounds"]:
            return f"bounds {data['bounds']}, expected {expect['bounds']}"
        if kind == "enumerate":
            if Counter(d["type"] for d in data["diagrams"]) != Counter(expect["types"]):
                return "diagram classes differ"
        if kind == "labels":
            got = Counter((e["type"], tuple(sorted(e["labels"]))) for e in data["entries"])
            if got != Counter((t, tuple(labels)) for t, labels in expect["entries"]):
                return "labeled catalog differs"
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable reply: {err!r}"
    return None

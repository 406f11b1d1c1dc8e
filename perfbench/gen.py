"""Seeded input generators for the hkdiag benchmark.

Every input file comes from the workload seed: one seed always gives the
same files, byte for byte. Spatial graph codes are built with the public
constructors only (closed_braid, family_torus_link, family_odd_ringed,
EdgeCode, VertexCode) and written with format_code; annulus files are
recorded catalog texts, possibly with one label changed. The program under
test sees nothing but these files.

A plan is the list of requests of one pass over a workload, each with the
expectation its reply is checked against (see check.py).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
sys.path.insert(0, str(SRC))

from hkdiag.spatial import (  # noqa: E402
    EdgeCode,
    SpatialGraphCode,
    VertexCode,
    closed_braid,
    family_odd_ringed,
    family_torus_link,
    format_code,
)

# Facts a user would assert about a tunnel theta or handcuff, so that the
# classification step runs too.
ASSERTS = ["--assert", "atoroidal=true", "--assert", "planar=false", "--assert", "tunnel=t"]

THETA_LADDER = range(5, 19, 2)  # capped where one seed pass still takes seconds
BRAID_CROSSINGS = range(10, 17)
BRAIDS_PER_CROSSING = 16  # drawn from a recorded pool of POOL_PER_CROSSING
POOL_PER_CROSSING = 40
# 23 even n spread evenly over 10..200, every other one mirrored. The sizes
# and orientations are fixed because both move the Smith normal form cost
# (a mirror alone by up to 30%), which would make the quantiles depend on the
# seed. With the two ringed codes a pass has 25 requests, so the median and
# p90 (0.9 * 25 = 22.5) fall inside the repeats of one request.
HANDCUFF_LADDER = tuple(10 + 2 * round(95 * k / 22) for k in range(23))
RING_NS = (3, 5, 7, 9)
CHAIN_LENGTH = 200
CHAIN_THETAS = (3, 5, 7)
CATALOG_COMMANDS = ("validate", "classify", "symmetry")
MUTANTS, VIOLATING_MUTANTS = 20, 6
ENUMERATES, LABEL_ENUMERATES = 12, 24  # sized so p90 falls inside the label requests
MUTANT_LABELS = ("h1", "h2", "k1", "k2(2)", "k2(5/2)", "l(2/3,3/2)", "l(2/3,6)", "l0", "em")


# --- braid words ---------------------------------------------------------------


def braid_strands(crossings: int) -> int:
    """A closure is a knot only when the permutation is one cycle: a 3-cycle
    is even and a 4-cycle odd, so the parity of the word fixes the strands."""
    return 3 if crossings % 2 == 0 else 4


def _journeys(word, strands: int) -> tuple[list[int], list[int]]:
    """Where each strand ends, and how many crossings it meets."""
    pos_to_token = list(range(strands))
    lengths = [0] * strands
    for i, _ in word:
        left, right = pos_to_token[i - 1], pos_to_token[i]
        lengths[left] += 1
        lengths[right] += 1
        pos_to_token[i - 1], pos_to_token[i] = right, left
    end = [0] * strands
    for pos, token in enumerate(pos_to_token):
        end[token] = pos
    return end, lengths


def braid_word(rng: random.Random, crossings: int) -> list[tuple[int, int]]:
    """A random braid word whose closure is a knot with this many crossings."""
    strands = braid_strands(crossings)
    while True:
        word = [(rng.randrange(1, strands), rng.choice((1, -1))) for _ in range(crossings)]
        end, _ = _journeys(word, strands)
        token, length = end[0], 1
        while token != 0:
            token, length = end[token], length + 1
        if length == strands:
            return word


def braid_theta(word) -> SpatialGraphCode:
    """The closed braid split into arcs ka and kb plus a crossing-free bridge t.

    ka is the journey of one strand whose closing arc lies next to the one it
    started from, so t can join the two without crossing anything. A braid
    strand never crosses itself, so ka + t is always the unknot.
    """
    strands = braid_strands(len(word))
    end, lengths = _journeys(word, strands)
    knot = closed_braid(word, strands)
    passes = knot.edge("k").passes
    cycle = [0]
    while end[cycle[-1]] != 0:
        cycle.append(end[cycle[-1]])
    start = 0
    for token in cycle:
        if abs(end[token] - token) == 1:
            break
        start += lengths[token]
    stop = start + lengths[token]
    edges = (
        EdgeCode("ka", "u", "v", passes[start:stop]),
        EdgeCode("kb", "v", "u", passes[stop:] + passes[:start]),
        EdgeCode("t", "u", "v", ()),
    )
    vertices = (
        VertexCode("u", (("ka", 0), ("kb", 1), ("t", 0))),
        VertexCode("v", (("ka", 1), ("kb", 0), ("t", 1))),
    )
    return SpatialGraphCode("theta", vertices, edges, knot.crossings)


def mirror_word(word):
    return [(i, -s) for i, s in word]


def braid_pool(crossings: int) -> list[list[tuple[int, int]]]:
    """The fixed pool of words whose answers expected.json records."""
    rng = random.Random(f"braid-pool-{crossings}")
    return [braid_word(rng, crossings) for _ in range(POOL_PER_CROSSING)]


def word_text(word) -> str:
    return " ".join(str(i * s) for i, s in word)


def word_from_text(text: str) -> list[tuple[int, int]]:
    return [(abs(x), 1 if x > 0 else -1) for x in map(int, text.split())]


# --- catalog -------------------------------------------------------------------


def mutant_text(text: str, edge: int, label: str) -> str:
    """An annulus file with the label of one edge line replaced."""
    lines = text.splitlines()
    edge_lines = [k for k, line in enumerate(lines) if line.startswith("edge ")]
    head, _, _ = lines[edge_lines[edge]].partition(" label=")
    lines[edge_lines[edge]] = f"{head} label={label}"
    return "\n".join(lines) + "\n"


def mutant_space(entries) -> list[tuple[int, int, str]]:
    """Every single-label change of a catalog entry."""
    out = []
    for i, entry in enumerate(entries):
        edge_lines = [line for line in entry["text"].splitlines() if line.startswith("edge ")]
        for j, line in enumerate(edge_lines):
            current = line.partition(" label=")[2]
            out.extend((i, j, label) for label in MUTANT_LABELS if label != current)
    return out


def mutant_key(i: int, j: int, label: str) -> str:
    return f"{i}:{j}:{label}"


# --- plans -----------------------------------------------------------------------


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _theta_plan(rng, workdir, expected):
    requests = []
    for n in THETA_LADDER:
        mirror = rng.random() < 0.5
        path = _write(workdir, f"torus-{n}.txt",
                      format_code(family_torus_link(n, tunnel=True, mirror=mirror)))
        requests.append({"argv": ["analyze", path, "--format", "json", *ASSERTS],
                         "expect": {"check": "torus-theta", "n": n}})
    path = _write(workdir, "spine.txt", (SRC / "hkdiag" / "data" / "spine_5_2.txt").read_text())
    requests.append({"argv": ["analyze", path, "--format", "json", *ASSERTS],
                     "expect": {"check": "theta", **expected["spine"]}})
    for c in BRAID_CROSSINGS:
        pool = expected["braids"][str(c)]
        for k in sorted(rng.sample(range(len(pool)), BRAIDS_PER_CROSSING)):
            word = word_from_text(pool[k]["word"])
            if rng.random() < 0.5:
                word = mirror_word(word)
            path = _write(workdir, f"braid-{c}-{k}.txt", format_code(braid_theta(word)))
            requests.append({"argv": ["analyze", path, "--format", "json", *ASSERTS],
                             "expect": {"check": "theta", **pool[k]["answer"]}})
    return requests


def _handcuff_plan(rng, workdir, expected):
    requests = []
    for k, n in enumerate(HANDCUFF_LADDER):
        mirror = k % 2 == 1
        path = _write(workdir, f"handcuff-{n}.txt",
                      format_code(family_torus_link(n, tunnel=True, mirror=mirror)))
        requests.append({"argv": ["analyze", path, "--format", "json", *ASSERTS],
                         "expect": {"check": "handcuff", "components": ["a", "b"],
                                    "linking_number": -(n // 2) if mirror else n // 2}})
    for ring, lk in (("one", 1), ("both", 2)):
        n = rng.choice(RING_NS)
        mirror = rng.random() < 0.5
        path = _write(workdir, f"ringed-{ring}-{n}.txt",
                      format_code(family_odd_ringed(n, ring=ring, mirror=mirror)))
        requests.append({"argv": ["analyze", path, "--format", "json", *ASSERTS],
                         "expect": {"check": "handcuff", "components": ["k", "r"],
                                    "linking_number": -lk if mirror else lk}})
    return requests


def _chain_plan(rng, workdir, expected):
    """Two looping chains; each step names its choices by index, because
    the ids they resolve to exist only once the previous step has run."""
    starts = [("spine", (SRC / "hkdiag" / "data" / "spine_5_2.txt").read_text())]
    n = rng.choice(CHAIN_THETAS)
    starts.append((f"torus-{n}", format_code(family_torus_link(n, tunnel=True))))
    chains = []
    for name, text in starts:
        chains.append({
            "start": _write(workdir, f"chain-{name}-start.txt", text),
            "steps": [[rng.randrange(2), rng.randrange(6), rng.random() < 0.5]
                      for _ in range(CHAIN_LENGTH)],
        })
    return chains


def _catalog_plan(rng, workdir, expected):
    catalog = expected["catalog"]
    entries = catalog["entries"]
    commands = [c for c in CATALOG_COMMANDS for _ in range(len(entries) // len(CATALOG_COMMANDS))]
    rng.shuffle(commands)
    requests = []
    for i, (entry, command) in enumerate(zip(entries, commands)):
        path = _write(workdir, f"entry-{i}.txt", entry["text"])
        requests.append({"argv": [command, path, "--format", "json"],
                         "expect": {"check": command, **entry["answer"]}})
    violating = catalog["violating_mutants"]
    space = mutant_space(entries)
    bad = [m for m in space if mutant_key(*m) in violating]
    good = [m for m in space if mutant_key(*m) not in violating]
    mutants = rng.sample(bad, VIOLATING_MUTANTS) + rng.sample(good, MUTANTS - VIOLATING_MUTANTS)
    for k, (i, j, label) in enumerate(mutants):
        path = _write(workdir, f"mutant-{k}.txt", mutant_text(entries[i]["text"], j, label))
        requests.append({"argv": ["validate", path, "--format", "json"],
                         "expect": {"check": "mutant",
                                    "violations": violating.get(mutant_key(i, j, label), [])}})
    requests += [{"argv": ["enumerate", "--format", "json"],
                  "expect": {"check": "enumerate", "types": catalog["types"]}}] * ENUMERATES
    requests += [{"argv": ["enumerate", "--labels", "--format", "json"],
                  "expect": {"check": "labels", "entries": catalog["labeled"]}}] * LABEL_ENUMERATES
    return requests


_PLANNERS = {
    "theta-alexander": _theta_plan,
    "handcuff-homology": _handcuff_plan,
    "looping-chain": _chain_plan,
    "catalog": _catalog_plan,
}


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of one workload into workdir and return its plan.

    Requests run in a seeded order; the looping chains run in step order.
    """
    rng = random.Random(f"{workload}-{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    body = _PLANNERS[workload](rng, workdir, expected)
    if workload == "looping-chain":
        return {"workload": workload, "chains": body}
    rng.shuffle(body)
    return {"workload": workload, "requests": body}

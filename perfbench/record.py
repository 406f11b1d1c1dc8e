"""Record the answers the benchmark checks replies against.

    python3 perfbench/record.py

writes perfbench/expected.json from the program in src/: the analyze
answers for the pool of braid words and for the bundled spine, the 66
catalog entries as annulus texts with their validate, classify and symmetry
answers, and the violated rules of every single-label mutant. Rerun it only
when a change to the program's answers is intended; the file pins what the
benchmark calls correct.
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import gen
from hkdiag import cli
from hkdiag.labeling import format_annulus, label_catalog

WORK = gen.ROOT / ".bench_work" / "record"


def _run(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {rc}")
    return json.loads(out.getvalue())


def _theta_answer(text: str) -> dict:
    path = WORK / "theta.txt"
    path.write_text(text)
    data = _run(["analyze", str(path), "--format", "json", *gen.ASSERTS])
    return {
        "alexander": {c["component"]: c["alexander"] for c in data["constituents"]},
        "class": data.get("class"),
    }


def _catalog() -> dict:
    entries = []
    path = WORK / "entry.txt"
    for entry in label_catalog():
        text = format_annulus(entry.diagram)
        path.write_text(text)
        answer = {}
        for command in gen.CATALOG_COMMANDS:
            data = _run([command, str(path), "--format", "json"])
            answer.update({k: data[k] for k in ("type", "realization", "bounds") if k in data})
            if "facts" in data:
                answer["facts"] = sorted(f["code"] for f in data["facts"])
        entries.append({"text": text, "answer": answer})
    violating = {}
    for i, j, label in gen.mutant_space(entries):
        path.write_text(gen.mutant_text(entries[i]["text"], j, label))
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(["validate", str(path), "--format", "json"])
        codes = sorted({v["code"] for v in json.loads(out.getvalue())["violations"]})
        if rc != (1 if codes else 0):
            raise SystemExit(f"mutant {i}:{j}:{label}: exit code {rc} with violations {codes}")
        if codes:
            violating[gen.mutant_key(i, j, label)] = codes
    enum = _run(["enumerate", "--format", "json"])
    labeled = _run(["enumerate", "--labels", "--format", "json"])
    return {
        "entries": entries,
        "types": sorted(d["type"] for d in enum["diagrams"]),
        "labeled": sorted([e["type"], sorted(e["labels"])] for e in labeled["entries"]),
        "violating_mutants": violating,
    }


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        spine = (gen.SRC / "hkdiag" / "data" / "spine_5_2.txt").read_text()
        expected = {
            "spine": _theta_answer(spine),
            "braids": {
                str(c): [
                    {"word": gen.word_text(word),
                     "answer": _theta_answer(gen.format_code(gen.braid_theta(word)))}
                    for word in gen.braid_pool(c)
                ]
                for c in gen.BRAID_CROSSINGS
            },
            "catalog": _catalog(),
        }
    finally:
        shutil.rmtree(WORK)
    gen.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it. The call counts asserted below are the program's at the commit
that defined the benchmark; a change that moves them on purpose fails that
test by design, as the per-layer counts predict.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from hkdiag.spatial import family_torus_link, format_code  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("theta-alexander", "handcuff-homology", "looping-chain", "catalog")


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = gen.ROOT / ".bench_work" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    for workload in WORKLOADS:
        first, second = tmp_path / f"{workload}-1", tmp_path / f"{workload}-2"
        gen.make_plan(workload, 7, first)
        gen.make_plan(workload, 7, second)
        assert _files(first) == _files(second)
        other = tmp_path / f"{workload}-3"
        gen.make_plan(workload, 8, other)
        assert _files(first) != _files(other)


def _analyze(tmp_path, code, name="code.txt") -> tuple[str, str]:
    path = tmp_path / name
    path.write_text(format_code(code))
    _, rc, out, _ = worker.call(["analyze", str(path), "--format", "json", *gen.ASSERTS])
    assert rc == 0
    return str(path), out


def test_planted_wrong_alexander_or_linking_number_fails(tmp_path):
    _, out = _analyze(tmp_path, family_torus_link(7, tunnel=True))
    expect = {"check": "torus-theta", "n": 7}
    assert check.check(expect, 0, out) is None
    data = json.loads(out)
    data["constituents"][0]["alexander"] = "t^6 - t^5 + t^4 - 2*t^3 + t^2 - t + 1"
    assert "alexander" in check.check(expect, 0, json.dumps(data))

    path, out = _analyze(tmp_path, family_torus_link(10, tunnel=True))
    expect = {"check": "handcuff", "components": ["a", "b"], "linking_number": 5}
    assert check.check(expect, 0, out) is None
    data = json.loads(out)
    data["constituents"][0]["linking_number"] = 4
    assert "lk" in check.check(expect, 0, json.dumps(data))

    argv = ["analyze", path, "--format", "json", *gen.ASSERTS]
    plan = {"workload": "handcuff-homology", "requests": [
        {"argv": argv, "expect": expect},
        {"argv": argv, "expect": {**expect, "linking_number": -5}},
    ]}
    assert len(worker.Pass(plan).failures) == 1


def test_meridians_are_compared_up_to_change_of_basis(tmp_path):
    _, out = _analyze(tmp_path, family_torus_link(5, tunnel=True))
    data = json.loads(out)
    m = data["homology"]["meridians"]
    # the basis change (x, y) -> (x + y, y) keeps every relation
    data["homology"]["meridians"] = {k: [x + y, y] for k, (x, y) in m.items()}
    assert check.check({"check": "torus-theta", "n": 5}, 0, json.dumps(data)) is None
    data["homology"]["meridians"]["t"] = [0, 2]
    assert check.check({"check": "torus-theta", "n": 5}, 0, json.dumps(data)) is not None


def _traced(plan) -> dict[str, float]:
    tracer = Tracer()
    tracer.install()
    try:
        run = worker.Pass(plan, tracer)
    finally:
        tracer.uninstall()
    assert not run.failures
    return tracer.metrics(1)


def test_traced_run_reproduces_the_seed_counts(tmp_path):
    theta, _ = _analyze(tmp_path, family_torus_link(5, tunnel=True), "theta.txt")
    counts = _traced({"workload": "theta-alexander", "requests": [
        {"argv": ["analyze", theta, "--format", "json", *gen.ASSERTS],
         "expect": {"check": "torus-theta", "n": 5}}]})
    assert counts["wirtinger.alexander_polynomial.calls"] == 6
    assert counts["homology.smith_normal_form.calls"] == 2
    assert counts["spatial.validate_code.calls"] == 4

    handcuff, _ = _analyze(tmp_path, family_torus_link(10, tunnel=True), "handcuff.txt")
    counts = _traced({"workload": "handcuff-homology", "requests": [
        {"argv": ["analyze", handcuff, "--format", "json", *gen.ASSERTS],
         "expect": {"check": "handcuff", "components": ["a", "b"], "linking_number": 5}}]})
    assert counts["wirtinger.alexander_polynomial.calls"] == 2
    assert counts["homology.smith_normal_form.calls"] == 2
    assert counts["spatial.validate_code.calls"] == 8

    for workload in ("looping-chain", "catalog"):
        plan = gen.make_plan(workload, 1, tmp_path / workload)
        if workload == "looping-chain":
            for chain in plan["chains"]:
                del chain["steps"][3:]
        else:
            plan["requests"] = [r for r in plan["requests"] if r["argv"][0] != "enumerate"][:10]
        counts = _traced(plan)
        assert counts["wirtinger.alexander_polynomial.calls"] == 0
        assert counts["homology.smith_normal_form.calls"] == 0
        assert counts["spatial.loop_at.calls" if workload == "looping-chain"
                      else "labeling.validate_labels.calls"] > 0

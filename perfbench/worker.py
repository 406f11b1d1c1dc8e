"""Run one workload plan in its own process, as one closed-loop client.

    python3 perfbench/worker.py PLAN SECONDS TRACE

Requests go to hkdiag.cli.main in this process, one at a time, each sent
after the previous reply; stdout and stderr are captured and every reply is
checked. An untimed warm-up pass comes first. With TRACE 0 whole passes
repeat until the next one would run past SECONDS (and at least MIN_SAMPLES
requests are in); with TRACE 1 one untraced and one traced pass run, so
counts repeat exactly for a seed. The last stdout line is a JSON summary.
"""

from __future__ import annotations

import io
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import gen
from hkdiag import cli
from spans import Tracer

MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it


def call(argv) -> tuple[int, object, str, str]:
    """Latency in ns, exit code (None if main raised), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed request, not a dead benchmark
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter_ns() - start, rc, out.getvalue(), err.getvalue()


def _header(path: str) -> tuple[list[tuple[str, list[str]]], list[str]]:
    """Vertex lines and vertex-loop edge names, read up to the first pass."""
    vertices, loops = [], []
    with open(path) as f:
        for line in f:
            tokens = line.split() or [""]
            if tokens[0] == "vertex":
                vertices.append((tokens[1], tokens[3:]))
            elif tokens[0] == "edge" and tokens[2:3] == ["loop"]:
                loops.append(tokens[1])
            elif tokens[0] == "pass":
                break
    return vertices, loops


def _chain_requests(chain):
    """A looping chain; each step's vertex and pair indices are resolved
    against the code the previous step wrote."""
    path = chain["start"]
    text = Path(path).read_text()
    kind = next(line.split()[1] for line in text.splitlines() if line.startswith("graph "))
    crossings = text.count("\npass ") // 2
    for step, (vertex_pick, pair_pick, mirror) in enumerate(chain["steps"], start=1):
        vertices, _ = _header(path)
        vertex, ends = vertices[vertex_pick % len(vertices)]
        pairs = [(a, b) for a, b in itertools.combinations(ends, 2)
                 if a.rpartition(".")[0] != b.rpartition(".")[0]]
        a, b = pairs[pair_pick % len(pairs)]
        out = path.rsplit("-", 1)[0] + f"-{step % 2}.txt"
        crossings += 2
        yield (["loop", path, "--vertex", vertex, "--pair", f"{a},{b}", "-o", out]
               + (["--mirror"] if mirror else []),
               {"check": "loop", "file": out, "crossings": crossings, "loopings": step})
        try:
            _, loops = _header(out)
        except OSError:
            return  # the loop failed and was counted; the chain cannot go on
        lk = (-1 if mirror else 1) if kind == "theta" else 0
        yield (["linking", out, "--components", ",".join(loops), "--format", "json"],
               {"check": "linking", "linking_number": lk})
        path, kind = out, "handcuff"


def requests(plan):
    """(argv, expectation) for every request of one pass."""
    if plan["workload"] == "looping-chain":
        for chain in plan["chains"]:
            yield from _chain_requests(chain)
    else:
        for request in plan["requests"]:
            yield request["argv"], request["expect"]


class Pass:
    """Latencies and failures of one pass over the plan."""

    def __init__(self, plan, tracer: Tracer | None = None):
        self.latencies: list[int] = []
        self.failures: list[str] = []
        start = time.perf_counter_ns()
        for argv, expect in requests(plan):
            if tracer is not None:
                tracer.request = len(self.latencies)
            latency, rc, out, err = call(argv)
            self.latencies.append(latency)
            reason = check.check(expect, rc, out)
            if reason is not None:
                self.failures.append(f"{' '.join(argv[:2])}: {reason} {err.strip()[-300:]}")
        self.wall_ns = time.perf_counter_ns() - start

    @property
    def per_s(self) -> float:
        """Requests per second of time spent waiting on replies."""
        return len(self.latencies) / (sum(self.latencies) / 1e9)


def main(plan_path: str, seconds: float, traced: bool) -> dict:
    plan = json.loads(Path(plan_path).read_text())
    Pass(plan)  # warm-up
    if traced:
        base = Pass(plan)
        tracer = Tracer()
        tracer.install()
        try:
            run = Pass(plan, tracer)
        finally:
            tracer.uninstall()
        tracer.write(gen.ROOT / ".bench_work" / f"spans-{plan['workload']}.tsv")
        metrics = tracer.metrics(len(run.latencies))
        metrics["trace.overhead_ratio"] = run.per_s / base.per_s
        passes = [base, run]
    else:
        passes = []
        start = time.perf_counter_ns()
        while True:
            passes.append(Pass(plan))
            done = sum(len(p.latencies) for p in passes)
            elapsed = time.perf_counter_ns() - start
            if done >= MIN_SAMPLES and elapsed + passes[-1].wall_ns > seconds * 1e9:
                break
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "req_p50_ms": statistics.median(latencies) / 1e6,
            "req_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
            "req_per_s": len(latencies) / (sum(latencies) / 1e9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    failures = [f for p in passes for f in p.failures]
    return {
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "passes": len(passes),
        "failures": failures[:5],
        "metrics": metrics,
    }


if __name__ == "__main__":
    plan_arg, seconds_arg, trace_arg = sys.argv[1:]
    print(json.dumps(main(plan_arg, float(seconds_arg), trace_arg == "1")))

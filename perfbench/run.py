"""Run one workload of the hkdiag benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed fixes the generated input
files (gen.py); the workload then runs in a child process of its own
(worker.py), so that peak_rss_mb belongs to it. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of one traced pass (spans.py). Replies are checked throughout
(check.py); any failed check makes "correct" false.

setup_s is the median wall time of a fresh `python -c "import hkdiag.cli"`,
the start-up cost every command line invocation pays before its request.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("theta-alexander", "handcuff-homology", "looping-chain", "catalog")
SETUP_RUNS = 11
TIME_LIMIT_S = 170


def _setup_s(env) -> float:
    def once() -> float:
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import hkdiag.cli"], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    once()  # compiles the bytecode cache, as an installed package would have
    return statistics.median(once() for _ in range(SETUP_RUNS))


def _environment() -> str:
    gil = "free-threaded" if sysconfig.get_config_var("Py_GIL_DISABLED") else "GIL"
    return f"python {platform.python_version()} ({gil} build), nproc {os.cpu_count()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if not (SRC / "hkdiag" / "cli.py").is_file():
        print(f"error: no hkdiag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        import gen

        plan = gen.make_plan(args.workload, args.seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        metrics = {}
        if args.trace == "0":
            metrics["setup_s"] = _setup_s(env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(args.seconds), args.trace],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return 1

    result = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(result["metrics"])
    if args.trace == "0":
        units = {"setup_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    else:
        from spans import LAYER_METRICS

        units = dict(LAYER_METRICS)
    print(f"# {args.workload} seed {args.seed}: {_environment()}")
    print(f"# {result['attempted']} requests in {result['passes']} passes, "
          f"fail_ratio {result['failed'] / result['attempted']}")
    for failure in result["failures"]:
        print(f"# failed: {failure}")
    for name, unit in units.items():
        print(f"# {name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

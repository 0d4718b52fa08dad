"""Benchmark entry point.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh single-threaded worker process
(bench/worker.py), one after another, until ``--seconds`` have gone by.
With ``--trace 1`` it runs one untraced pass and two traced ones instead,
and checks that the traced work counters repeat exactly.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` (verdicts that differ from the known answer) over all
passes, and the end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``), each with its unit.  The two lines before it carry the
machine facts and the run details (pass count, verdict sample count and
median, digests).
Exits 2 without a result when the idemx sources are not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import counters, metric_units  # noqa: E402

WORKLOADS = ("campaign", "verdicts", "retractions")
MIN_PASSES = 2
# set-up samples per run; when there are fewer passes, workers that stop
# after set-up make up the rest
SETUPS = 7
RUN_LIMIT_S = 170.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_facts() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload: str, seed: int, trace: int, deadline: float,
             setup_only: bool = False) -> dict:
    env = dict(
        os.environ,
        IDEMX_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + ["--setup-only"] * setup_only
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: a {workload} pass ran past the {RUN_LIMIT_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: {workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(passes: list[dict], setups: list[float], ms: list[float]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    decided = sum(p["decided"] for p in passes)
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "verdict_ms_p99": (percentile(ms, 0.99), "ms"),
        "decided_frac": (decided / attempted, "fraction"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    units = metric_units()
    values = {}
    for name in units:
        if name == "trace.overhead_s":
            continue
        vals = [p["layers"][name] for p in traced]
        values[name] = statistics.mean(vals) if units[name] == "s" else vals[0]
    values["trace.overhead_s"] = (
        statistics.mean(p["wall_s"] for p in traced) - untraced["wall_s"]
    )
    return {name: (values[name], units[name]) for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "idemx" / "__init__.py").is_file():
        print(f"error: no idemx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if args.trace:
        passes = [run_pass(args.workload, args.seed, t, deadline) for t in (0, 1, 1)]
    else:
        # stop when one more pass would end further past --seconds than
        # stopping now falls short of it
        passes = []
        while True:
            passes.append(run_pass(args.workload, args.seed, 0, deadline))
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break

    setups = [p["setup_s"] for p in passes]
    if not args.trace:
        setups += [run_pass(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUPS - len(setups))]
    ms = [x for p in passes for x in p["ms"]]
    attempted = sum(p["attempted"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    problems = [d for p in passes for d in p["wrong_detail"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "verdict_samples": len(ms),
        "verdict_ms_p50": percentile(ms, 0.50),
        "wrong_frac": wrong / attempted,
        "idemx_threads": passes[0]["idemx_threads"],
        "numpy": passes[0]["numpy"],
    }
    if args.workload == "campaign":
        detail["report_digests"] = sorted({p["digest"] for p in passes if p.get("digest")})
        detail["recorded_digest"] = passes[0].get("expected_digest")
    if args.trace:
        first, second = (counters(p["layers"]) for p in passes[1:])
        drift = sorted(k for k in first if first[k] != second[k])
        if drift:
            problems.append(f"traced counters differ between runs: {drift}")
        metrics = per_layer(passes[0], passes[1:])
    else:
        metrics = end_to_end(passes, setups, ms)
    detail["problems"] = problems[:10]

    print("machine: " + json.dumps(machine_facts()))
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

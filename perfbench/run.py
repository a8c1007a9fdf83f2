"""Benchmark of quiveralg: census suites and CLI requests, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload brauer-census --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

* ``brauer-census``: ``thm-1-1`` then ``thm-1-3`` at the default bounds;
* ``gentle-census``: ``thm-1-2`` at 5 vertices and 5 arrows, then ``lemma-2-1``;
* ``cli-roundtrip``: ``cli.main`` requests on census instances.

Every pass runs in a fresh interpreter (``worker.py``); this script only
starts the passes one after another (a closed loop with one client) and
aggregates them.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one untraced and one traced pass of
equal work.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output checked
out, 1 when some did not, and 2 when the benchmark could not run.
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

from worker import CENSUS_SUITES, OUT_DIR, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run at least; setup_s is their median
# Whole census passes, until the timed phase reaches --seconds.  Two at
# least, because one pass alone swings by 20% on a shared machine.
MIN_CENSUS_PASSES = 2
CLI_PASSES = 3  # CLI passes per timed run, each with its own set-up
CLI_MIN_REQUESTS = 1000  # per timed run
TRACE_REQUESTS = 1000  # per pass of a traced CLI run
DEADLINE_S = 170  # every pass of a run must end within this
# End-to-end metrics in the JSON line: the ones every workload has and that
# are never 0.  The workload-specific ones (suite_s.*, request_p50_ms,
# request_p99_ms) and fail_ratio are printed above it.
JSON_END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    # A fixed hash seed makes set and dict orders, and so the work done,
    # repeat from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [*cmd, *flags],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not end within {DEADLINE_S} s of the run's start") from None
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    """Passes until about ``seconds`` of timed phase; end-to-end metrics."""
    passes = []
    if workload in CENSUS_SUITES:
        while len(passes) < MIN_CENSUS_PASSES or sum(p["timed_s"] for p in passes) < seconds:
            passes.append(run_pass(workload, seed, deadline))
    else:
        offset = 0
        for _ in range(CLI_PASSES):
            flags = [
                "--offset", str(offset),
                "--requests", str(math.ceil(CLI_MIN_REQUESTS / CLI_PASSES)),
                "--budget", str(seconds / CLI_PASSES),
            ]  # fmt: skip
            passes.append(run_pass(workload, seed, deadline, *flags))
            offset += passes[-1]["ops"]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUPS:
        setups.append(run_pass(workload, seed, deadline, "--setup-only")["setup_s"])

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(p["ops"] for p in passes) / sum(p["timed_s"] for p in passes), "1/s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups", "ops_per_s": f"{len(passes)} passes"}
    if workload in CENSUS_SUITES:
        for suite, _, _ in CENSUS_SUITES[workload]:
            metrics[f"suite_s.{suite}"] = (statistics.median(p["suite_s"][suite] for p in passes), "s")
            notes[f"suite_s.{suite}"] = f"median of {len(passes)} passes"
    else:
        latencies = [t * 1000 for p in passes for t in p["latencies_s"]]
        cuts = statistics.quantiles(latencies, n=100)
        metrics["request_p50_ms"] = (statistics.median(latencies), "ms")
        metrics["request_p99_ms"] = (cuts[98], "ms")
        for name in ("request_p50_ms", "request_p99_ms"):
            notes[name] = f"{len(latencies)} samples"
    return passes, metrics, notes


def traced_run(workload: str, seed: int, deadline: float):
    """One untraced and one traced pass of equal work; per-layer metrics."""
    flags = ["--requests", str(TRACE_REQUESTS)] if workload not in CENSUS_SUITES else []
    plain = run_pass(workload, seed, deadline, *flags)
    traced = run_pass(workload, seed, deadline, "--trace", *flags)
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "ratio"
        metrics[name] = (value, unit)
    metrics["tracing_overhead"] = (traced["timed_s"] / plain["timed_s"], "ratio")
    notes = {
        "tracing_overhead": f"traced {traced['timed_s']:.3f} s / untraced {plain['timed_s']:.3f} s",
        "other.self_s": "timed time inside no span",
    }
    for name in traced["absent"]:
        notes[f"{name}.calls"] = "absent: no such function"
    return [plain, traced], metrics, notes


def git_commit() -> str:
    """The checked-out commit, read from ``.git``; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed phase per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quiveralg" / "__init__.py").is_file():
        print(f"no quiveralg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes, metrics, notes = traced_run(args.workload, args.seed, deadline)
        else:
            passes, metrics, notes = timed_run(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(" ".join(f"{k}={v}" for k, v in environment.items()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>14.6g} {unit}{note}")
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    for problem in (f for p in passes for f in p["failures"]):
        print(f"FAIL {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if args.trace or name in JSON_END_TO_END
        },
    }
    per_pass = [{k: v for k, v in p.items() if k != "latencies_s"} for p in passes]
    record = {"environment": environment, "notes": notes, "all_metrics": metrics, **result,
              "passes": per_pass}  # fmt: skip
    path = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

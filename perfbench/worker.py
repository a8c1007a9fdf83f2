"""One pass of a benchmark workload in a fresh interpreter.

``run.py`` starts this script once per pass, because every ``quiveralg``
command a user runs starts an interpreter and pays its cold start.  A pass
has three phases:

* set-up (timed as ``setup_s``): import ``quiveralg`` and make the inputs;
* the timed phase: the suite calls or CLI requests, and nothing else;
* the checks, outside the timed phase, which feed ``failed``.

The pass prints one JSON object on its last line of standard output.
Usage, from the repository root::

    python3 perfbench/worker.py --workload cli-roundtrip --seed 1 --budget 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from math import prod
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# (suite, Bounds fields, expected instance count).  Bounds never gets
# ``threads``, so the workloads keep working if that option is removed.
CENSUS_SUITES = {
    "brauer-census": (("thm-1-1", {}, 2952), ("thm-1-3", {}, 133)),
    "gentle-census": (
        ("thm-1-2", {"max_vertices": 5, "max_arrows": 5}, 1133),
        ("lemma-2-1", {}, 876),
    ),
}
WORKLOADS = (*CENSUS_SUITES, "cli-roundtrip")

# CLI input pools: Brauer graphs with up to 3 edges and multiplicity 3
# (the multiplicity-one ones feed ``cuts``) and gentle algebras with up to
# 4 vertices and 4 arrows (they feed ``convert --mode trivext``).  They keep
# set-up near a second, so that most of a run is spent on requests.
CLI_BRAUER_BOUNDS = (3, 3)
CLI_GENTLE_BOUNDS = (4, 4)
CLI_KINDS = ("bg-to-alg", "alg-to-bg", "trivext", "iso-bg", "iso-alg", "cuts")


def import_quiveralg():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quiveralg
    import quiveralg.cli
    import quiveralg.suites

    if src not in Path(quiveralg.__file__).resolve().parents:
        raise SystemExit(f"quiveralg imported from {quiveralg.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Census workloads
# ---------------------------------------------------------------------------


def census_pass(workload: str, seed: int) -> tuple[dict, list]:
    """The timed phase: the workload's suites, one after another."""
    from quiveralg.suites import Bounds, run_suite

    suite_s, reports = {}, []
    for suite, fields, _ in CENSUS_SUITES[workload]:
        bounds = Bounds(seed=seed, **fields)
        start = time.perf_counter()
        reports.append(run_suite(suite, bounds))
        suite_s[suite] = time.perf_counter() - start
    measured = {
        "timed_s": sum(suite_s.values()),
        "ops": sum(r.instances for r in reports),
        "suite_s": suite_s,
    }
    return measured, reports


def check_census(workload: str, reports) -> tuple[int, int, list[str]]:
    """Each report must be ok with its expected instance count.

    A suite with a wrong or zero count fails as a whole; otherwise each
    instance with a failure report counts once.
    """
    attempted = failed = 0
    failures = []
    for (suite, _, expected), report in zip(CENSUS_SUITES[workload], reports):
        attempted += expected
        if report.instances != expected:
            failed += expected
            failures.append(f"{suite}: {report.instances} instances, expected {expected}")
        elif not report.ok:
            failed += len({instance for instance, _, _ in report.failures})
            failures.append(f"{suite}: {len(report.failures)} failures")
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


@dataclass
class CliInputs:
    work: Path
    graphs: list  # BrauerGraph, written as g<i>.bg, g<i>.alg and relabeled copies
    mult_one: list  # indices into graphs whose multiplicities are all one
    algebras: list  # GentleAlgebra, written as a<i>.gentle


def cli_setup(seed: int, work: Path) -> tuple[CliInputs, dict[str, str]]:
    """Census instances as input texts, with seeded relabeled copies.

    Returns the inputs and the files to write under ``work``: per graph
    ``g<i>.bg``, ``g<i>.alg`` and relabeled ``g<i>.rel.bg``, ``g<i>.rel.alg``;
    per gentle algebra ``a<i>.gentle``.
    """
    from quiveralg import brauer, census, quiver

    graphs = list(census.connected_brauer_graphs(*CLI_BRAUER_BOUNDS))
    algebras = list(census.gentle_algebras(*CLI_GENTLE_BOUNDS))
    rng = random.Random(seed)
    files = {}
    for i, g in enumerate(graphs):
        copy = brauer.relabel_brauer_graph(g, rng)
        files[f"g{i}.bg"] = brauer.serialize_brauer_graph(g)
        files[f"g{i}.rel.bg"] = brauer.serialize_brauer_graph(copy)
        for name, h in ((f"g{i}.alg", g), (f"g{i}.rel.alg", copy)):
            files[name] = quiver.serialize_presentation(brauer.algebra_of(h).presentation)
    for i, a in enumerate(algebras):
        files[f"a{i}.gentle"] = quiver.serialize_presentation(a.presentation)
    mult_one = [i for i, g in enumerate(graphs) if set(g.multiplicities.values()) == {1}]
    return CliInputs(work, graphs, mult_one, algebras), files


def write_files(work: Path, files: dict[str, str]) -> None:
    work.mkdir(parents=True)
    for name, text in files.items():
        (work / name).write_text(text)


def request_stream(seed: int, n_graphs: int, n_mult_one: int, n_algebras: int):
    """Endless (kind, index) requests drawn from ``seed``; indices are into
    the graphs, the multiplicity-one graphs or the algebras, by kind."""
    rng = random.Random(seed)
    while True:
        kind = rng.choice(CLI_KINDS)
        size = {"cuts": n_mult_one, "trivext": n_algebras}.get(kind, n_graphs)
        yield kind, rng.randrange(size)


def request_argv(kind: str, index: int, inputs: CliInputs) -> list[str]:
    w = inputs.work
    if kind == "cuts":
        return ["cuts", "--enumerate", "--verify", str(w / f"g{inputs.mult_one[index]}.alg")]
    if kind == "trivext":
        return ["convert", "--mode", "trivext", str(w / f"a{index}.gentle")]
    if kind == "bg-to-alg":
        return ["convert", "--mode", "bg-to-alg", str(w / f"g{index}.bg")]
    if kind == "alg-to-bg":
        return ["convert", "--mode", "alg-to-bg", str(w / f"g{index}.alg")]
    ext = "bg" if kind == "iso-bg" else "alg"
    return ["iso", "--kind", ext, str(w / f"g{index}.{ext}"), str(w / f"g{index}.rel.{ext}")]


def check_request(kind: str, index: int, code: int, out: str, inputs: CliInputs) -> str | None:
    """None if the request's output is right, else what is wrong with it."""
    from quiveralg import brauer, cut, quiver, ssb

    if code != 0:
        return f"exit code {code}"
    try:
        if kind == "bg-to-alg":
            back = ssb.graph_of_ssb(ssb.ssb_presentation(quiver.parse_presentation(out)))
            ok = brauer.is_isomorphic(back, inputs.graphs[index])
        elif kind == "alg-to-bg":
            ok = brauer.is_isomorphic(brauer.parse_brauer_graph(out), inputs.graphs[index])
        elif kind == "trivext":
            ext = ssb.ssb_presentation(quiver.parse_presentation(out))
            ok = ext.dimension == 2 * inputs.algebras[index].dimension
        elif kind in ("iso-bg", "iso-alg"):
            ok = out.splitlines()[:1] == ["isomorphic"]
        else:
            algebra = brauer.algebra_of(inputs.graphs[inputs.mult_one[index]])
            lines = out.splitlines()
            expected = prod(len(c) for c in cut.vertex_cycles(algebra))
            ok = len(lines) == expected and all(s.endswith(" roundtrip=true") for s in lines)
    except Exception as exc:  # a corrupted output may break the parsers in any way
        return f"{type(exc).__name__}: {exc}"
    return None if ok else "wrong output"


def cli_pass(seed: int, inputs: CliInputs, offset: int, requests: int, budget: float):
    """The timed phase: at least ``requests`` requests, continuing until
    ``budget`` seconds have passed, from position ``offset`` of the stream."""
    from quiveralg import cli

    stream = request_stream(seed, len(inputs.graphs), len(inputs.mult_one), len(inputs.algebras))
    for _ in range(offset):
        next(stream)
    done, latencies = [], []
    start = time.perf_counter()
    while len(done) < requests or time.perf_counter() - start < budget:
        kind, index = next(stream)
        argv = request_argv(kind, index, inputs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t = time.perf_counter()
            code = cli.main(argv)
            latencies.append(time.perf_counter() - t)
        done.append((kind, index, code, out.getvalue()))
    measured = {"timed_s": time.perf_counter() - start, "ops": len(done), "latencies_s": latencies}
    return measured, done


def check_cli(done, inputs: CliInputs) -> tuple[int, int, list[str]]:
    failures = []
    for kind, index, code, text in done:
        problem = check_request(kind, index, code, text, inputs)
        if problem:
            failures.append(f"{kind} #{index}: {problem}")
    return len(done), len(failures), failures


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure_pass(args) -> dict:
    start = time.perf_counter()
    import_quiveralg()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.offset}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = files = None
        if args.workload == "cli-roundtrip":
            inputs, files = cli_setup(args.seed, work)
        result = {"setup_s": time.perf_counter() - start}
        # Writing the files is the harness's own I/O and the noisiest part
        # of set-up on a shared disk, so setup_s leaves it out.
        if files:
            write_files(work, files)
        if args.setup_only:
            return result
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            if inputs is None:
                measured, outputs = census_pass(args.workload, args.seed)
            else:
                measured, outputs = cli_pass(
                    args.seed, inputs, args.offset, args.requests, args.budget
                )
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(measured)
        if inputs is None:
            attempted, failed, failures = check_census(args.workload, outputs)
        else:
            attempted, failed, failures = check_cli(outputs, inputs)
        result.update(attempted=attempted, failed=failed, failures=failures[:20])
        if tracer is not None:
            result["layers"] = tracer.metrics(result["timed_s"])
            result["absent"] = tracer.absent
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--trace", action="store_true", help="record spans in the timed phase")
    parser.add_argument("--offset", type=int, default=0, help="first request of the stream")
    parser.add_argument("--requests", type=int, default=1, help="minimum CLI requests")
    parser.add_argument("--budget", type=float, default=0.0, help="CLI time budget, seconds")
    args = parser.parse_args(argv)
    print(json.dumps(measure_pass(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

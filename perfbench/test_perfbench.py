"""Tests of the benchmark itself: tracing, output checks, request streams.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

worker.import_quiveralg()

from quiveralg import census, cli, suites  # noqa: E402


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()

    def inner(n):
        return sum(range(n))

    wrapped_inner = t._wrap("inner", inner)

    def outer():
        return wrapped_inner(20000) + wrapped_inner(30000)

    t._wrap("outer", outer)()
    (root,) = [s for s in t.spans if s[1] == "outer"]
    children = [s for s in t.spans if s[4] == root[0]]
    assert len(children) == 2 and all(s[5] == root[5] for s in children)
    selfs = tracer.self_times(t.spans)
    child_time = sum(end - start for _, _, start, end, _, _ in children)
    assert selfs["outer"] == pytest.approx(root[3] - root[2] - child_time)
    assert selfs["inner"] == pytest.approx(child_time)
    metrics = t.metrics(wall_s=root[3] - root[2] + 0.5)
    assert metrics["other.self_s"] == pytest.approx(0.5)


def test_self_times_on_given_spans():
    # (id, name, start, end, parent, request): a with children b and c, b with child c
    spans = [(2, "c", 1.0, 1.5, 1, 0), (1, "b", 0.5, 2.0, 0, 0), (3, "c", 3.0, 4.0, 0, 0),
             (0, "a", 0.0, 10.0, None, 0)]  # fmt: skip
    assert tracer.self_times(spans) == {"a": 7.5, "b": 1.0, "c": 1.5}


def test_generator_spans_keep_laziness():
    t = tracer.Tracer()
    produced = []

    def numbers():
        for i in range(3):
            produced.append(i)
            yield i

    it = t._wrap("gen", numbers)()
    assert produced == []
    assert next(it) == 0 and produced == [0]
    assert list(it) == [1, 2]
    assert t.calls["gen"] == 1 and t.yielded["gen"] == 3
    assert sum(1 for s in t.spans if s[1] == "gen") == 5  # the call, 3 items, the end


def test_install_rebinds_every_namespace_and_reports_absent(monkeypatch):
    targets = dict(tracer.TARGETS, census=(*tracer.TARGETS["census"], "no_such_function"))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    original = census.connected_brauer_graphs
    t = tracer.Tracer()
    t.install()
    try:
        assert suites.connected_brauer_graphs is census.connected_brauer_graphs
        assert census.connected_brauer_graphs is not original
        assert len(list(suites.connected_brauer_graphs(2, 1))) == len(list(original(2, 1)))
    finally:
        t.uninstall()
    assert suites.connected_brauer_graphs is original is census.connected_brauer_graphs
    assert t.absent == ["census.no_such_function"]
    assert t.metrics(1.0)["census.no_such_function.calls"] == 0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.JSON_END_TO_END)
    layers = [*tracer.Tracer().metrics(1.0), "tracing_overhead"]
    assert [m["name"] for m in spec["per_layer"]] == layers


def test_request_stream_depends_on_the_seed_only():
    def first(seed):
        stream = worker.request_stream(seed, 50, 10, 20)
        return [next(stream) for _ in range(300)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert {kind for kind, _ in first(7)} == set(worker.CLI_KINDS)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setattr(worker, "CLI_BRAUER_BOUNDS", (2, 2))
    patch.setattr(worker, "CLI_GENTLE_BOUNDS", (2, 2))
    try:
        inputs, files = worker.cli_setup(3, tmp_path_factory.mktemp("cli") / "work")
        worker.write_files(inputs.work, files)
        yield inputs
    finally:
        patch.undo()


def _request(kind, index, inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(worker.request_argv(kind, index, inputs))
    return code, out.getvalue()


def _corrupt(kind, text):
    if kind in ("iso-bg", "iso-alg"):
        return text.replace("isomorphic", "not isomorphic", 1)
    if kind == "cuts":
        return text.replace("roundtrip=true", "roundtrip=false", 1)
    if kind == "alg-to-bg":
        return re.sub(r"mult=(\d+)", lambda m: f"mult={int(m[1]) + 1}", text, count=1)
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-1])  # drop the last relation


@pytest.mark.parametrize("kind", worker.CLI_KINDS)
def test_checker_accepts_real_and_catches_corrupted_output(kind, small_inputs):
    index = 1 if kind != "cuts" else 0
    code, out = _request(kind, index, small_inputs)
    assert worker.check_request(kind, index, code, out, small_inputs) is None
    assert worker.check_request(kind, index, code, _corrupt(kind, out), small_inputs)
    assert worker.check_request(kind, index, 2, out, small_inputs) == "exit code 2"


def test_cuts_checker_counts_lines(small_inputs):
    code, out = _request("cuts", 0, small_inputs)
    doubled = out + out
    assert worker.check_request("cuts", 0, code, doubled, small_inputs) == "wrong output"


def test_census_check_fails_wrong_empty_and_failing_reports():
    ok = [suites.CheckReport("a", 2952, ()), suites.CheckReport("b", 133, ())]
    assert worker.check_census("brauer-census", ok) == (3085, 0, [])
    empty = [suites.CheckReport("a", 0, ()), ok[1]]
    assert worker.check_census("brauer-census", empty)[1] == 2952
    failing = [ok[0], suites.CheckReport("b", 133, (("x", "p", "d"), ("x", "q", "d")))]
    assert worker.check_census("brauer-census", failing)[1] == 1


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys, tmp_path):
    failed_pass = {"setup_s": 0.1, "timed_s": 1.0, "ops": 10, "latencies_s": [0.1] * 10,
                   "rss_kb": 1024, "attempted": 10, "failed": 1, "failures": ["iso-bg #1: x"]}  # fmt: skip
    monkeypatch.setattr(run, "run_pass", lambda *args, **kwargs: dict(failed_pass))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "cli-roundtrip", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 3 and result["attempted"] == 30

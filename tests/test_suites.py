"""Sharded suite runs: the report is the same on one, two and three shards,
and a shard that does not finish makes the run raise, with no child
process left behind either way, not even when the caller is killed."""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import suppress
from pathlib import Path

import pytest

from quiveralg import census, suites
from quiveralg.brauer import serialize_brauer_graph, structural_dimension
from quiveralg.census import _cuts_by_map, connected_brauer_graphs
from quiveralg.cut import admissible_cut, enumerate_cutting_sets
from quiveralg.errors import CuttingSetError, ValidationError
from quiveralg.gentle import socle_basis
from quiveralg.quiver import Problem, serialize_presentation
from quiveralg.trivext import projectives_oracle

BOUNDS = suites.Bounds(max_edges=3, max_mult=2, max_vertices=3, max_arrows=3)


def _text(algebra) -> str:
    """An algebra's presentation text, on one line."""
    return suites._one_line(serialize_presentation(algebra.presentation))


def _unlucky(text: str, odds: float = 0.3) -> bool:
    """A coin seeded by ``text``: the same in every process and hash seed."""
    return random.Random(text).random() < odds


def _cuts(ssb):
    text = serialize_presentation(ssb.presentation)
    if _unlucky(text, 0.1):
        raise CuttingSetError("seeded")
    cuts = enumerate_cutting_sets(ssb)
    return cuts[1:] if _unlucky(text) else cuts


def _gluing(algebra, v):
    basis = projectives_oracle(algebra, v)
    return basis[:-1] if _unlucky(serialize_presentation(algebra.presentation) + v) else basis


# (suite, name in ``suites``, a replacement that fails a seeded part of the
# census).  The thm-1-3 one also raises a QuiverAlgError on some instances.
SEEDED_FAILURES = [
    ("thm-1-1", "structural_dimension",
     lambda g: structural_dimension(g) + _unlucky(serialize_brauer_graph(g))),
    ("thm-1-2", "projectives_oracle", _gluing),
    ("thm-1-3", "enumerate_cutting_sets", _cuts),
    ("lemma-2-1", "socle_basis",
     lambda a: [] if _unlucky(serialize_presentation(a.presentation)) else socle_basis(a)),
]


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "suite,name,replacement", SEEDED_FAILURES, ids=[row[0] for row in SEEDED_FAILURES]
)
def test_the_report_does_not_depend_on_the_shard_count(monkeypatch, suite, name, replacement):
    monkeypatch.setattr(suites, name, replacement)
    reports = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        reports.append(suites.run_suite(suite, BOUNDS))
    failed = {instance for instance, _, _ in reports[0].failures}
    assert 1 < len(failed) < reports[0].instances
    assert reports[1] == reports[0] and reports[2] == reports[0]
    _assert_no_child_left()


def test_one_shard_forks_nothing(monkeypatch):
    _cpus(monkeypatch, 1)

    def fork():
        raise AssertionError("one shard must not fork")

    monkeypatch.setattr(suites.os, "fork", fork)
    report = suites.run_suite("thm-1-3", BOUNDS)
    assert (report.instances, report.ok) == (26, True)


def test_the_shard_count(monkeypatch):
    _cpus(monkeypatch, 3)
    assert suites._shard_count() == 3
    monkeypatch.delattr(suites.os, "sched_getaffinity")
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 5)
    assert suites._shard_count() == 5
    monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
    assert suites._shard_count() == 1
    monkeypatch.delattr(suites.os, "fork")
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 5)
    assert suites._shard_count() == 1


def _in_children(action):
    """A structural_dimension that runs ``action`` in every forked shard."""
    parent = os.getpid()

    def replacement(g):
        if os.getpid() != parent:
            action()
        return structural_dimension(g)

    return replacement


def _raise():
    raise ZeroDivisionError("seeded child error")


@pytest.mark.parametrize(
    "action,message",
    [
        (_raise, r"shard [12] of 3 raised:\nTraceback(.|\n)*ZeroDivisionError: seeded child error"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), r"shard [12] of 3 was killed by signal 9"),
        (lambda: os._exit(3), r"shard [12] of 3 exited with code 3 after writing 0 bytes"),
        (lambda: os._exit(0), r"shard [12] of 3 exited with code 0 after writing 0 bytes"),
    ],
    ids=["raises", "killed", "nonzero-exit", "empty-pipe"],
)
def test_a_shard_that_does_not_finish_makes_the_run_raise(monkeypatch, action, message):
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(suites, "structural_dimension", _in_children(action))
    with pytest.raises(RuntimeError, match=message):
        suites.run_suite("thm-1-1", BOUNDS)
    _assert_no_child_left()


@pytest.mark.parametrize("suite", ["thm-1-2", "lemma-2-1"])
def test_each_shard_builds_exactly_the_instances_it_checks(monkeypatch, tmp_path, suite):
    """Every process logs the map algebras and the cuts it builds.  On any
    shard count, each instance is built once, so only by the shard that
    checks it; each map algebra is built once, in the process that makes
    its cuts; the shares are balanced up to one map's cuts; and the report
    is the same."""
    log = tmp_path / "builds"

    def logged(build, kind):
        def replacement(source, *args):
            made = build(source, *args)
            texts = [source, made] if kind == "cut" else [made]  # a cut names its map
            with open(log, "a") as out:  # one short append per line: whole lines
                out.write("\t".join([kind, str(os.getpid()), *map(_text, texts)]) + "\n")
            return made

        return replacement

    def builds():
        lines = [line.split("\t") for line in log.read_text().splitlines()]
        log.unlink()
        return [[tuple(line[1:]) for line in lines if line[0] == kind] for kind in ("map", "cut")]

    monkeypatch.setattr(census, "algebra_of", logged(census.algebra_of, "map"))
    monkeypatch.setattr(census, "admissible_cut", logged(census.admissible_cut, "cut"))
    census_groups = _cuts_by_map(BOUNDS.max_vertices, BOUNDS.max_arrows)
    groups = [(count, list(cuts)) for count, cuts in census_groups]
    assert all(count == len(cuts) for count, cuts in groups)
    texts = sorted(_text(cut) for _, cuts in groups for cut in cuts)
    maps = sorted(text for _, text in builds()[0])
    most = max(count for count, _ in groups)
    assert len(set(maps)) == len(maps) == len(groups) and 1 < most < len(texts) / 3
    reports = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        reports.append(suites.run_suite(suite, BOUNDS))
        map_builds, cut_builds = builds()
        assert sorted(text for _, _, text in cut_builds) == texts
        assert sorted(text for _, text in map_builds) == maps
        assert {(pid, ssb) for pid, ssb, _ in cut_builds} == set(map_builds)
        shares = Counter(pid for pid, _, _ in cut_builds)
        assert len(shares) == cpus and str(os.getpid()) in shares
        assert max(shares.values()) - min(shares.values()) <= most
    assert reports[0].instances == len(texts) and reports[0].ok
    assert reports[1] == reports[0] and reports[2] == reports[0]
    _assert_no_child_left()


@pytest.mark.parametrize("where", ["calling shard", "child"])
def test_a_build_error_makes_the_run_raise(monkeypatch, where):
    """A census item that cannot be built is an error of the census, not an
    ``exception`` failure of its instance."""
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def broken(ssb, cutting_set):
        if (os.getpid() == parent) == (where == "calling shard"):
            raise ValidationError([Problem("seeded", "seeded build error")])
        return admissible_cut(ssb, cutting_set)

    monkeypatch.setattr(census, "admissible_cut", broken)
    if where == "calling shard":
        expected = pytest.raises(ValidationError, match="seeded build error")
    else:
        expected = pytest.raises(
            RuntimeError,
            match=r"shard 1 of 2 raised:\n(.|\n)*ValidationError: \[seeded\] seeded build error",
        )
    with expected:
        suites.run_suite("lemma-2-1", BOUNDS)
    _assert_no_child_left()


def test_a_shard_that_counts_another_census_makes_the_run_raise(monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def census(*bounds):
        graphs = list(connected_brauer_graphs(*bounds))
        return iter(graphs if os.getpid() == parent else graphs[:-1])

    monkeypatch.setattr(suites, "connected_brauer_graphs", census)
    with pytest.raises(RuntimeError, match="shard 1 of 2 counted 25 instances, shard 0 26"):
        suites.run_suite("thm-1-3", BOUNDS)
    _assert_no_child_left()


def test_an_error_in_the_calling_shard_stops_the_children(monkeypatch):
    _cpus(monkeypatch, 3)
    parent = os.getpid()

    def replacement(g):
        if os.getpid() == parent:
            raise ZeroDivisionError("seeded parent error")
        time.sleep(60)  # a child still at work is killed, not waited for
        return structural_dimension(g)

    monkeypatch.setattr(suites, "structural_dimension", replacement)
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="seeded parent error"):
        suites.run_suite("thm-1-1", BOUNDS)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


# A two-shard thm-1-3 run whose check sleeps, so that a shard would run for
# about 17 s after its caller's death if nothing stopped it; the caller
# prints the shard's pid once it is forked.
ORPHANED_RUN = """
import time
from quiveralg import suites

def slow(g, bounds):
    time.sleep(0.2)
    return []

fork = suites._fork_shard

def announce(*args):
    pid, pipe = fork(*args)
    print(pid, flush=True)
    return pid, pipe

suites._shard_count = lambda: 2
suites._fork_shard = announce
suites.SUITES["admissible-cut"] = suites.SUITES["admissible-cut"]._replace(check=slow)
suites.run_suite("thm-1-3", suites.Bounds())
"""


def test_a_shard_ends_soon_after_its_caller_is_killed():
    """SIGKILL on the caller leaves its shard orphaned; the shard exits
    before its next instance.  The shard holds the write end of the stdout
    pipe, so the pipe reaches end of file once both processes have ended,
    whether or not anything reaps the orphan."""
    src = str(Path(suites.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.Popen(
        [sys.executable, "-c", ORPHANED_RUN],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
    )
    try:
        assert run.stdout.readline().strip().isdigit()  # the shard is forked
        os.kill(run.pid, signal.SIGKILL)
        run.wait()
        ended, _, _ = select.select([run.stdout], [], [], 5)
        assert ended and os.read(run.stdout.fileno(), 1) == b""
    finally:
        with suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.stdout.close()

"""Sharded suite runs: the report is the same on one, two and three shards,
and a shard that does not finish makes the run raise, with no child
process left behind either way."""

from __future__ import annotations

import os
import random
import signal
import time

import pytest

from quiveralg import suites
from quiveralg.brauer import serialize_brauer_graph, structural_dimension
from quiveralg.census import connected_brauer_graphs
from quiveralg.cut import enumerate_cutting_sets
from quiveralg.errors import CuttingSetError
from quiveralg.gentle import socle_basis
from quiveralg.quiver import serialize_presentation
from quiveralg.trivext import projectives_oracle

BOUNDS = suites.Bounds(max_edges=3, max_mult=2, max_vertices=3, max_arrows=3)


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

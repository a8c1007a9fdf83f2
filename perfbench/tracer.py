"""Spans around the public functions of each quiveralg layer.

A traced pass installs a wrapper around every function in ``TARGETS`` and
records one span per call: an id, a name, a start, an end, the id of the
enclosing span and a request id (one per root span, which is one
``run_suite`` or ``cli.main`` call).  Spans are kept in memory and written
out when the pass ends.  A function that returns an iterator, like the
census generators, gets one span for the call and one for every ``next()``,
so that laziness is kept and the enumeration work lands where it happens.

Wrappers are installed by rebinding the function in every ``quiveralg.*``
namespace that binds it, because ``suites`` and ``census`` import names
directly; rebinding only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Iterator

TARGETS: dict[str, tuple[str, ...]] = {
    "census": ("connected_brauer_graphs", "gentle_algebras", "canonical_presentation_key"),
    "brauer": (
        "canonical_form",
        "find_isomorphism",
        "algebra_of",
        "relabel_brauer_graph",
        "structural_dimension",
        "validate_brauer_graph",
        "parse_brauer_graph",
        "serialize_brauer_graph",
    ),
    "ssb": ("validate_ssb", "graph_of_ssb", "projective_basis", "find_ssb_isomorphism"),
    "gentle": ("validate_gentle", "nonzero_paths", "socle_basis"),
    "trivext": ("graph_of_gentle", "trivial_extension", "projectives_oracle"),
    "cut": ("enumerate_cutting_sets", "admissible_cut", "verify_roundtrip"),
    "quiver": ("parse_presentation", "serialize_presentation"),
    "suites": ("run_suite",),
    "cli": ("main",),
}

# (census generator, function whose calls inside it count as attempts)
YIELDS = {
    "census.brauer.yield": ("census.connected_brauer_graphs", "brauer.canonical_form"),
    "census.gentle.yield": ("census.gentle_algebras", "census.canonical_presentation_key"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[tuple[int, int]] = []  # (span id, request id) of open spans
        self._next_span = 0
        self._next_request = 0
        self._rebound: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None, int]:
        sid = self._next_span
        self._next_span += 1
        if self._stack:
            parent, request = self._stack[-1]
        else:
            parent, request = None, self._next_request
            self._next_request += 1
        self._stack.append((sid, request))
        return sid, parent, request

    def _close(self, name: str, token: tuple[int, int | None, int], start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, request = token
        self.spans.append((sid, name, start, end, parent, request))

    def _iterate(self, name: str, it: Iterator) -> Iterator:
        while True:
            token = self._open()
            start = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(name, token, start)
            self.yielded[name] += 1
            yield item

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            token = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, token, start)
            if isinstance(result, Iterator):
                return self._iterate(name, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "quiveralg"]
        for module, names in TARGETS.items():
            home = sys.modules.get(f"quiveralg.{module}")
            for fn_name in names:
                name = f"{module}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._rebound.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._rebound):
            setattr(namespace, attr, original)
        self._rebound.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced phase that took ``wall_s`` seconds."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for module, names in TARGETS.items():
            module_self = 0.0
            for fn_name in names:
                name = f"{module}.{fn_name}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = selfs.get(name, 0.0)
                module_self += selfs.get(name, 0.0)
            out[f"{module}.self_s"] = module_self
        out["other.self_s"] = wall_s - sum(selfs.values())
        name_of = {sid: name for sid, name, *_ in self.spans}
        for metric, (generator, attempt) in YIELDS.items():
            attempts = sum(
                1
                for _, name, _, _, parent, _ in self.spans
                if name == attempt and name_of.get(parent) == generator
            )
            out[metric] = self.yielded.get(generator, 0) / attempts if attempts else 0.0
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\trequest\n")
            for sid, name, start, end, parent, request in self.spans:
                parent_text = "" if parent is None else parent
                f.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent_text}\t{request}\n")


def self_times(spans) -> dict[str, float]:
    """Per name, the span durations minus the time their child spans cover.

    Spans nest (one thread, closed in stack order), so the children of a
    span are disjoint and their durations can be summed.
    """
    covered: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name] += end - start - covered[sid]
    return dict(out)

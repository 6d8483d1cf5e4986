"""Span tracing of the qmarginal layers from outside the package.

``Tracer.install`` wraps every public function and every class constructor
of each ``qmarginal`` module, and rebinds each name under which another
``qmarginal`` module (or the package itself) imported the original.  The
source files stay untouched, yet a call from ``reconstruct`` into
``panels.panel_of_pure`` becomes a child span of the ``reconstruct`` span.
Spans are kept in memory as ``(name, start, end, parent, item)`` tuples
until ``summary`` folds them into per-item self times.

A few wrappers also read the values flowing through them, to count the
work a layer did or wasted (classifier branches, reconstruction outcomes,
descents and objective evaluations, oracle trials, bytes moved by io).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "tensors",
    "panels",
    "classifier",
    "stabilizer",
    "reconstruct",
    "unitary_fit",
    "oracle",
    "io",
    "cli",
)

# Spans are timed in CPU time of the process (every thread), so that time
# the host gives to other guests does not count; see README.md.
CLOCK = time.process_time

# A descent counts as reaching zero cost below the sibling search's default
# tolerance squared (oracle.DEFAULT_SEARCH_TOL = 1e-6).
ZERO_COST = 1e-12

ROOT = "bench.item"


def _is_public_class(obj, module_name: str) -> bool:
    return (
        inspect.isclass(obj)
        and obj.__module__ == module_name
        and not issubclass(obj, BaseException)
    )


def _is_public_function(obj, module_name: str) -> bool:
    return inspect.isfunction(obj) and obj.__module__ == module_name


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: Counter = Counter()  # keyed by (item, name)
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def call(self, name_id: int, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append((name_id, 0.0, 0.0, parent, self.item))
        self._stack.append(slot)
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans[slot] = (name_id, start, end, parent, self.item)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.item, name)] += n

    def within(self, name: str) -> bool:
        """Is a span of this name open right now?"""
        return any(self.names[self.spans[s][0]] == name for s in self._stack)

    def root(self, item: int, fn, *args):
        """Run ``fn(*args)`` as the benchmark's own span for one item."""
        self.item = item
        try:
            return self.call(self._name_id(ROOT), fn, args, {})
        finally:
            self.item = -1

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name_id, fn, args, kwargs)
            if observe is not None and tracer.item >= 0:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of every qmarginal module."""
        package = importlib.import_module("qmarginal")
        modules = {m: importlib.import_module(f"qmarginal.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_public_function(obj, mod.__name__):
                    observe = OBSERVERS.get(f"{short}.{attr}")
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj, observe)
                    self._set(mod, attr, replaced[id(obj)])
                elif _is_public_class(obj, mod.__name__):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        self._set(obj, "__init__", self._wrap(f"{short}.{attr}", init))
        residuals = modules["unitary_fit"].PanelObjective.residuals
        self._set(
            modules["unitary_fit"].PanelObjective,
            "residuals",
            self._wrap("unitary_fit.PanelObjective.residuals", residuals, _count_objective),
        )
        # names bound by ``from .x import f`` elsewhere in the package
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and mod.__dict__[attr] is not wrapper:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding ----------------------------------------------------------

    def summary(self) -> dict[int, dict]:
        """Per-item calls and self time of every span name, and counts.

        A span's self time is its duration minus the durations of its
        direct children; the root span's self time is the benchmark's own
        remainder inside the item.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_item: dict[int, dict] = defaultdict(
            lambda: {"self": Counter(), "calls": Counter(), "counts": Counter()}
        )
        for i, (name_id, start, end, parent, item) in enumerate(self.spans):
            name = self.names[name_id]
            per_item[item]["self"][name] += end - start - child[i]
            per_item[item]["calls"][name] += 1
        for (item, name), n in self.counts.items():
            per_item[item]["counts"][name] += n
        return dict(per_item)


# -- observers: counts read from the values crossing a layer boundary ------


def _count_classify(tracer, args, kwargs, result):
    tracer.count(f"classifier.branch.{result.diagnostics.branch}.count")
    tracer.count("classifier.ill_conditioned.count", int(result.diagnostics.ill_conditioned))


def _count_reconstruct(tracer, args, kwargs, result):
    tracer.count(f"reconstruct.outcome.{result.outcome}.count")


def _count_fit(tracer, args, kwargs, result):
    tracer.count("unitary_fit.descents.count", len(result))
    tracer.count("unitary_fit.zero_cost.count", sum(r.cost < ZERO_COST for r in result))
    if tracer.within("oracle.search_sibling"):
        tracer.count("oracle.descents.count", len(result))


def _count_objective(tracer, args, kwargs, result):
    tracer.count("unitary_fit.objective_evals.count")


def _count_search(tracer, args, kwargs, result):
    tracer.count("oracle.trials.count", result.trials)
    tracer.count("oracle.found.count", int(result.found))


def _count_bytes(key):
    def observe(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(kwargs.get("path") or args[0]))

    return observe


OBSERVERS = {
    "classifier.classify": _count_classify,
    "reconstruct.reconstruct": _count_reconstruct,
    "unitary_fit.fit_pivot_unitary": _count_fit,
    "oracle.search_sibling": _count_search,
    "io.load_panel": _count_bytes("io.load_panel.bytes"),
    "io.save_state": _count_bytes("io.save_state.bytes"),
}


def traced_cli_main(out_path: str, argv: list[str]) -> int:
    """Run the qmarginal CLI under a tracer; write its summary as JSON."""
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["qmarginal.cli"]
    try:
        code = tracer.root(0, cli.main, argv)
    finally:
        tracer.uninstall()
        folded = tracer.summary().get(0, {"self": {}, "calls": {}, "counts": {}})
        with open(out_path, "w") as fh:
            json.dump(folded, fh)
    return code

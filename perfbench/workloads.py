"""The four workloads: corpus slots, the timed call per item, and its check.

Every workload is a closed loop with one client: items run one after the
other, in a fixed order, and a run repeats the whole corpus (a cycle)
until the measured time is used up.  Stopping only at cycle boundaries
keeps the mix of item kinds identical from run to run, which is what keeps
the median and tail latencies steady across seeds.

``run`` is the only part that is timed; ``check`` runs after the clock
stops and returns ``None`` for a correct output or the reason it is wrong.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import qmarginal as qm
from qmarginal import io as qio

import corpus

# the package re-exports the function ``reconstruct`` under the module's name
RECONSTRUCT_TOL = importlib.import_module("qmarginal.reconstruct").DEFAULT_TOL


@dataclass
class Item:
    kind: str
    n: int
    group: str
    expect: object
    payload: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.group}/{self.kind} n={self.n}"


def _expand(slots) -> list[tuple[int, str, str]]:
    """(n, kind, group, copies) slots -> one (n, kind, group) per copy."""
    return [(n, kind, group) for n, kind, group, copies in slots for _ in range(copies)]


# ---------------------------------------------------------------------------
# analyze-batch


class AnalyzeBatch:
    """classify -> undetermined_by_dimension, plus sibling -> panels for GHZ."""

    name = "analyze-batch"
    # highest of 50/75/90/95/99 with at least ten samples beyond it at the
    # baseline sample count (about 420 items in 20 s)
    tail_percentile = 95
    # Per cycle, from the slowest: 1 GHZ-class n = 10 item (hot spot 1,
    # half of the cycle's time), 5 Haar n = 10 (p95 falls among them), 2
    # GHZ-class n = 8, 48 Haar n = 8 (the median falls among them), then
    # 14 cheap items.  The median and p95 thus sit inside blocks of items
    # that spend their time in BLAS (stabilizer SVDs, hot spot 2) and take
    # a fair share of the run; the latency of the sub-5 ms, pure-Python
    # items varies up to twofold from cycle to cycle on a shared host,
    # which would make both unsteady.  A second GHZ-class n = 10 item
    # would halve the number of cycles a run fits.
    slots = [
        *[(n, kind, "ghz", 1) for n in (3, 5, 8) for kind in corpus.GHZ_KINDS],
        (10, "ghz-orbit", "ghz", 1),
        *[(n, kind, "other", 1) for n in (3, 5, 8, 10) for kind in ("product", "hybrid")],
        *[(n, "haar", "other", copies) for n, copies in ((3, 1), (5, 1), (8, 48), (10, 5))],
    ]
    tiny_slots = [(3, "ghz-orbit", "ghz", 1), (3, "haar", "other", 1), (5, "product", "other", 1)]

    def build(self, seed: int, work_dir: Path, tiny: bool) -> list[Item]:
        layout = _expand(self.tiny_slots if tiny else self.slots)
        seeds = corpus.slot_seeds(seed, len(layout))
        return [
            Item(kind, n, group, kind in corpus.GHZ_KINDS, {"psi": corpus.state(kind, n, s)})
            for (n, kind, group), s in zip(layout, seeds)
        ]

    def run(self, item: Item):
        psi = item.payload["psi"]
        cls = qm.classify(psi)
        by_dim = qm.undetermined_by_dimension(psi)
        partner = shared = None
        if cls.ghz_class:
            partner = qm.sibling(psi, cls.certificate)
            shared = qm.panels_equal(qm.panel_of_pure(psi), qm.panel_of_pure(partner), 1e-8)
        return cls, by_dim, partner, shared

    def check(self, item: Item, out) -> str | None:
        cls, by_dim, partner, shared = out
        if cls.ghz_class != item.expect:
            return f"verdict {cls.verdict}, generated kind {item.kind}"
        if (by_dim == "undetermined") != item.expect:
            return f"dimension criterion says {by_dim} for {cls.verdict}"
        if cls.ghz_class:
            if not shared:
                return "sibling does not share the panel within 1e-8"
            if qm.equal_up_to_phase(item.payload["psi"], partner):
                return "sibling is phase-equal to the source"
        return None


# ---------------------------------------------------------------------------
# reconstruct-files

# reconstruct's branch for a panel of each generated kind
PANEL_GROUP = {
    "haar": "nondegenerate",
    "hybrid": "nondegenerate",
    "ghz-orbit": "nondegenerate",
    "ghz-balanced": "degenerate",
    "bell-bell": "degenerate",
    "mixed": "incompatible",
    "perturbed": "incompatible",
}
RECONSTRUCT_EXPECT = {
    "haar": "unique",
    "hybrid": "unique",
    "bell-bell": "unique",
    "ghz-orbit": "ghz-family",
    "ghz-balanced": "ghz-family",
    "mixed": "incompatible",
    "perturbed": "incompatible",
}


class ReconstructFiles:
    """load_panel -> reconstruct -> save_state on panel files written in set-up."""

    name = "reconstruct-files"
    tail_percentile = 90  # about 250 items in 20 s
    slots = [
        *[(n, kind, "nondegenerate", 1) for n in (3, 5, 8) for kind in ("haar", "ghz-orbit", "hybrid")],
        *[(n, "ghz-balanced", "degenerate", 1) for n in (3, 4, 5, 6)],
        (4, "bell-bell", "degenerate", 1),
        *[(n, kind, "incompatible", 1) for n in (3, 5) for kind in ("mixed", "perturbed")],
    ]
    tiny_slots = [
        (3, "haar", "nondegenerate", 1),
        (3, "ghz-balanced", "degenerate", 1),
        (3, "mixed", "incompatible", 1),
    ]

    def build(self, seed: int, work_dir: Path, tiny: bool) -> list[Item]:
        layout = _expand(self.tiny_slots if tiny else self.slots)
        seeds = corpus.slot_seeds(seed, len(layout))
        items = []
        for i, ((n, kind, group), s) in enumerate(zip(layout, seeds)):
            source = None
            if kind == "mixed":
                panel = corpus.mixed_panel(n, s)
            elif kind == "perturbed":
                panel = corpus.perturbed_panel(n, s)
            else:
                source = corpus.state(kind, n, s)
                panel = qm.panel_of_pure(source)
            path = work_dir / f"panel_{i}.txt"
            qio.save_panel(path, panel)
            payload = {"path": path, "out": work_dir / f"recovered_{i}.txt", "source": source}
            items.append(Item(kind, n, group, RECONSTRUCT_EXPECT[kind], payload))
        return items

    def run(self, item: Item):
        panel = qio.load_panel(item.payload["path"])
        result = qm.reconstruct(panel)
        if result.state is not None:
            qio.save_state(item.payload["out"], result.state)
        return panel, result

    def check(self, item: Item, out) -> str | None:
        panel, result = out
        if result.outcome != item.expect:
            return f"outcome {result.outcome}, expected {item.expect} ({result.reason})"
        if result.state is None:
            return None
        residual = qm.check_panel(result.state, panel)
        if residual > RECONSTRUCT_TOL:
            return f"returned state misses the panel by {residual:.3e}"
        if result.outcome == "unique" and not qm.equal_up_to_phase(result.state, item.payload["source"]):
            return "unique state is not phase-equal to the source"
        return None


# ---------------------------------------------------------------------------
# sibling-oracle


class SiblingOracle:
    """search_sibling(psi, budget=64, seed=item_seed) on mixed states."""

    name = "sibling-oracle"
    tail_percentile = 75  # about 60 items in 20 s
    budget = 64
    slots = [(n, kind, "oracle", 1) for n in (3, 4, 5) for kind in ("haar", "ghz-orbit", "product", "hybrid")]
    tiny_slots = [(3, kind, "oracle", 1) for kind in ("haar", "ghz-orbit")]

    def build(self, seed: int, work_dir: Path, tiny: bool) -> list[Item]:
        layout = _expand(self.tiny_slots if tiny else self.slots)
        seeds = corpus.slot_seeds(seed, len(layout))
        return [
            Item(kind, n, group, kind in corpus.GHZ_KINDS, {"psi": corpus.state(kind, n, s), "seed": s})
            for (n, kind, group), s in zip(layout, seeds)
        ]

    def run(self, item: Item):
        return qm.search_sibling(item.payload["psi"], budget=self.budget, seed=item.payload["seed"])

    def check(self, item: Item, out) -> str | None:
        ghz = qm.classify(item.payload["psi"]).ghz_class
        if out.found != ghz:
            return f"search found={out.found} but classify ghz_class={ghz}"
        if out.found != item.expect:
            return f"search found={out.found} for generated kind {item.kind}"
        return None


# ---------------------------------------------------------------------------
# cli-files


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliFiles:
    """One ``python -m qmarginal.cli`` child per item, one child at a time."""

    name = "cli-files"
    # about 25 children in 20 s: only the median has ten samples beyond it
    tail_percentile = 50
    timeout_s = 120
    slots = [
        (3, "ghz-orbit", "analyze", 1),
        (5, "haar", "analyze", 1),
        (8, "ghz-balanced", "analyze", 1),
        (3, "ghz-balanced", "reconstruct", 1),
        (5, "haar", "reconstruct", 1),
        (3, "ghz-orbit", "sibling-search", 1),
        (4, "chi", "demo-chi", 1),
        (0, "none", "help", 1),
    ]
    tiny_slots = [(3, "haar", "analyze", 1), (0, "none", "help", 1)]

    def __init__(self, root: Path):
        self.root = root
        self.env = cli_env(root)

    def build(self, seed: int, work_dir: Path, tiny: bool) -> list[Item]:
        layout = _expand(self.tiny_slots if tiny else self.slots)
        seeds = corpus.slot_seeds(seed, len(layout))
        items = []
        for i, ((n, kind, group), s) in enumerate(zip(layout, seeds)):
            if group in ("analyze", "sibling-search"):
                path = work_dir / f"state_{i}.txt"
                qio.save_state(path, corpus.state(kind, n, s), label=kind)
                ghz = kind in corpus.GHZ_KINDS
                argv = [group, str(path)]
                if group == "analyze":
                    expect = (10 if ghz else 0, "verdict", "ghz-class" if ghz else "determined")
                else:
                    argv += ["--seed", str(s % 1000)]
                    expect = (10 if ghz else 0, "sibling", "found" if ghz else "not found")
            elif group == "reconstruct":
                path = work_dir / f"panel_{i}.txt"
                qio.save_panel(path, qm.panel_of_pure(corpus.state(kind, n, s)))
                argv = [group, str(path), "--out", str(work_dir / f"recovered_{i}.txt")]
                expect = (0, "outcome", RECONSTRUCT_EXPECT[kind])
            elif group == "demo-chi":
                argv, expect = ["demo-chi"], (0, None, None)
            else:
                argv, expect = ["--help"], (0, "usage", None)
            items.append(Item(kind, n, group, expect, {"argv": argv}))
        return items

    def command(self, item: Item) -> list[str]:
        return [sys.executable, "-m", "qmarginal.cli", *item.payload["argv"]]

    def traced_command(self, item: Item, trace_out: Path) -> list[str]:
        script = self.root / "perfbench" / "traced_cli.py"
        return [sys.executable, str(script), str(trace_out), *item.payload["argv"]]

    def spawn(self, argv: list[str]):
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=self.timeout_s
        )

    def run(self, item: Item):
        return self.spawn(self.command(item))

    def check(self, item: Item, out) -> str | None:
        code, key, value = item.expect
        if out.returncode != code:
            return f"exit code {out.returncode}, expected {code}: {out.stderr.strip()[-200:]}"
        lines = out.stdout.splitlines()
        if item.group == "demo-chi":
            if not lines or any(not line.startswith("[PASS]") for line in lines[1:]):
                return "demo-chi printed a failing check"
            return None
        if key == "usage":
            return None if lines and lines[0].startswith("usage:") else "help text lacks a usage line"
        found = [line.split(":", 1)[1].strip() for line in lines if line.startswith(f"{key}:")]
        if found != [value]:
            return f"{key}: line reads {found}, expected {value!r}"
        return None

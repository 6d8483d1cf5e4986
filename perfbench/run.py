#!/usr/bin/env python3
"""qmarginal benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload analyze-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, taken from cycles run under the span tracer and
interleaved with untraced cycles that give the tracing overhead.  The
lines before it report provenance, every failed item with its reason,
and the tail percentile with its sample count.  See perfbench/README.md.

Every time is CPU time (user plus system) rather than wall time: of this
process for in-process items and set-up, of the child for a cli-files
item.  One client runs one item at a time and nothing waits on anything
but the CPU, so on an idle machine the two agree; on a shared host, CPU
time leaves out the time the host gives to other guests.  BLAS is held to
one thread so that a spinning second thread does not count either.

A shared host also runs faster or slower for seconds at a time.  The
end-to-end times are therefore steadied twice: each cycle's times are
scaled by how fast the host ran a fixed reference kernel between that
cycle's items, against the kernel's nominal time (see ``HostSpeed``), and
each item's latency is then its median over the run's cycles.  The
unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# before numpy is imported, here or in a cli child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("analyze-batch", "reconstruct-files", "sibling-oracle", "cli-files")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_CHOICES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10
# CPU time of one reference kernel on a host of nominal speed: about the
# median on the 2-vCPU Xeon the baseline in README.md was measured on
NOMINAL_REFERENCE_S = 0.012
REFERENCE_EVERY_S = 0.25  # of item time
LAYERS = ("tensors", "panels", "classifier", "stabilizer", "reconstruct", "unitary_fit", "oracle", "io", "cli")
CLI_COMMANDS = ("analyze", "reconstruct", "sibling-search", "demo-chi")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest corpus, for the smoke test")
    parser.add_argument(
        "--inject-wrong-expectation",
        action="store_true",
        help="flip the expected answer of the first item, so the checker must report it",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root`` itself; never looks above it."""
    git = root / ".git"
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
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def children_cpu() -> float:
    """CPU time (s) of every child that has ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def item_clock(workload):
    return children_cpu if workload.name == "cli-files" else time.process_time


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    The kernel mixes what the program spends its time on, interpreter
    loops and small dense eigenproblems, and uses nothing of qmarginal,
    so no change to the program moves it.  ``scale`` turns a time measured
    while the given samples were taken into one on a host of nominal speed.
    """

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0).standard_normal((96, 96))
        self._eigh = np.linalg.eigh
        self._matrix = g + g.T
        self.samples: list[float] = []
        self._spent = self._due = 0.0

    def sample(self) -> None:
        start = time.process_time()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        for _ in range(6):
            self._eigh(self._matrix)
        self.samples.append(time.process_time() - start)

    def after_item(self, latency: float) -> None:
        """Sample once per REFERENCE_EVERY_S of item time, outside the items."""
        self._spent += latency
        if self._spent >= self._due:
            self.sample()
            self._due = self._spent + REFERENCE_EVERY_S

    def scale(self, samples: list[float]) -> float:
        return NOMINAL_REFERENCE_S / statistics.median(samples or self.samples)


def run_cycle(workload, items, call, after_item=None):
    """One pass over the corpus: per-item latency (CPU s) and failure reasons."""
    clock = item_clock(workload)
    latencies, failures = [], []
    for i, item in enumerate(items):
        start = clock()
        try:
            out = call(i, item)
        except Exception as err:  # an item that raises is a failed item, never fatal
            latencies.append(clock() - start)
            failures.append((i, f"raised {type(err).__name__}: {err}"))
            continue
        latencies.append(clock() - start)
        try:
            reason = workload.check(item, out)
        except Exception as err:
            reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            failures.append((i, reason))
        if after_item is not None:
            after_item(latencies[-1])
    return latencies, failures


def wrong(expect):
    """An expected answer that no correct output matches."""
    if isinstance(expect, bool):
        return not expect
    if isinstance(expect, tuple):
        return (expect[0] ^ 1, *expect[1:])
    return expect[::-1]


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """The workload's tail percentile, lowered until ten samples lie beyond it."""
    n = len(latencies)
    choice = next((p for p in TAIL_CHOICES if p <= percentile and n * (100 - p) / 100 >= MIN_BEYOND), 50)
    return quantile(latencies, choice), choice


def quantile(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * percentile / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def report_failures(items, failures, cycle: int) -> None:
    for i, reason in failures:
        print(f"FAIL cycle {cycle} item {i} ({items[i].label}): {reason}")


# ---------------------------------------------------------------------------
# end-to-end run


def timing_metrics(latencies: list[float], passed: int, setup_s: float, tail_percentile: int) -> dict:
    tail_s, tail_p = tail(latencies, tail_percentile)
    return {
        "setup_s": setup_s,
        "items_per_s": passed / sum(latencies),
        "item_ms.p50": statistics.median(latencies) * 1e3,
        "item_ms.tail": tail_s * 1e3,
    }, tail_p, tail_s


def end_to_end(workload, items, args, setup_s: float, setup_scale: float, host: HostSpeed, in_process: bool):
    cycles, scales, failed = [], [], 0
    while True:
        first_sample = len(host.samples)
        lat, failures = run_cycle(workload, items, lambda i, item: workload.run(item), host.after_item)
        report_failures(items, failures, len(cycles))
        cycles.append(lat)
        scales.append(host.scale(host.samples[first_sample:]))
        failed += len(failures)
        if sum(map(sum, cycles)) >= args.seconds:
            break
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw = [x for lat in cycles for x in lat]
    attempted = len(raw)
    # every sample of an item becomes that item's median over the cycles,
    # each cycle on the host-speed scale of its own reference samples
    item_s = [statistics.median(lat[i] * k for lat, k in zip(cycles, scales)) for i in range(len(items))]
    steady = item_s * len(cycles)
    timing, tail_p, tail_s = timing_metrics(steady, attempted - failed, setup_s * setup_scale, workload.tail_percentile)
    beyond = sum(x > tail_s for x in steady)
    unscaled, _, _ = timing_metrics(raw, attempted - failed, setup_s, workload.tail_percentile)
    print(
        f"tail: item_ms.tail is p{tail_p} of {attempted} samples ({beyond} beyond it); "
        f"{len(cycles)} cycles of {len(items)} items"
    )
    print(
        f"host: reference kernel median {statistics.median(host.samples) * 1e3:.3f} ms CPU "
        f"over {len(host.samples)} samples, nominal {NOMINAL_REFERENCE_S * 1e3:g} ms; "
        f"cycles scaled by {min(scales):.4f} to {max(scales):.4f}, set-up by {setup_scale:.4f}"
    )
    print("unscaled, every sample: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items()))
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted})")
    metrics = {
        "setup_s": (timing["setup_s"], "s"),
        "items_per_s": (timing["items_per_s"], "1/s"),
        "item_ms.p50": (timing["item_ms.p50"], "ms"),
        "item_ms.tail": (timing["item_ms.tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# traced run


def fold(per_item: dict, items, latencies) -> dict:
    """One traced cycle -> self time per span name, layer and panel group,
    and counts, over all items and over the GHZ-class items alone."""
    import corpus
    import tracer
    import workloads

    rec = {k: Counter() for k in ("self", "calls", "layer", "group", "counts", "ghz_counts")}
    for i, data in per_item.items():
        if i < 0:
            continue  # spans from the checks, outside every item
        for name, s in data["self"].items():
            if name == tracer.ROOT:
                continue
            layer = name.split(".", 1)[0]
            rec["self"][name] += s
            rec["layer"][layer] += s
            rec["group"][(layer, workloads.PANEL_GROUP.get(items[i].kind))] += s
        rec["calls"].update({k: v for k, v in data["calls"].items() if k != tracer.ROOT})
        rec["counts"].update(data["counts"])
        if items[i].kind in corpus.GHZ_KINDS:
            rec["ghz_counts"].update(data["counts"])
    rec["wall"] = sum(latencies)
    rec["remainder"] = rec["wall"] - sum(rec["layer"].values())
    return rec


def traced(workload, items, args, work_dir: Path, root: Path, setup_self: Counter):
    import tracer

    is_cli = workload.name == "cli-files"
    untraced_lat, traced_lat, records = [], [], []
    attempted = failed = 0

    def note(lat, failures):
        nonlocal attempted, failed
        report_failures(items, failures, len(untraced_lat) + len(traced_lat))
        attempted += len(lat)
        failed += len(failures)

    def untraced_cycle():
        lat, failures = run_cycle(workload, items, lambda i, item: workload.run(item))
        note(lat, failures)
        untraced_lat.append(lat)

    def traced_cycle():
        if is_cli:
            per_item = {}

            def call(i, item):
                out_path = work_dir / f"trace_{i}.json"
                out_path.unlink(missing_ok=True)
                proc = workload.spawn(workload.traced_command(item, out_path))
                per_item[i] = json.loads(out_path.read_text())
                return proc

            lat, failures = run_cycle(workload, items, call)
        else:
            tr = tracer.Tracer()
            tr.install()
            try:
                lat, failures = run_cycle(workload, items, lambda i, item: tr.root(i, workload.run, item))
            finally:
                tr.uninstall()
            per_item = tr.summary()
        note(lat, failures)
        traced_lat.append(lat)
        records.append(fold(per_item, items, lat))

    # U T U T ... U: the first untraced cycle also warms caches and is left
    # out of the overhead, which compares the traced cycles with the rest
    untraced_cycle()
    while True:
        traced_cycle()
        untraced_cycle()
        if sum(map(sum, untraced_lat)) + sum(map(sum, traced_lat)) >= args.seconds:
            break

    repeat = all(r["counts"] == records[0]["counts"] and r["calls"] == records[0]["calls"] for r in records)
    print(
        f"trace: {len(records)} traced cycles interleaved with {len(untraced_lat)} untraced; "
        f"counts repeat across traced cycles: {repeat}"
    )
    metrics = layer_metrics(records, untraced_lat, setup_self)
    metrics.update(cli_metrics(untraced_lat, items, root, workload.env) if is_cli else cli_metrics())
    print(
        "trace accounting: traced item time {:.6f} s = layer self times {:.6f} s + benchmark remainder {:.6f} s".format(
            metrics["bench.traced_item_s"][0],
            sum(metrics[f"layer.{m}.self_s"][0] for m in LAYERS),
            metrics["bench.remainder_s"][0],
        )
    )
    return metrics, attempted, failed


def layer_metrics(records, untraced_lat, setup_self: Counter) -> dict:
    """Per-layer metrics: times are means per traced cycle, counts come
    from the first traced cycle (every cycle runs the same items)."""
    k = len(records)

    def mean(key, name):
        return float(sum(r[key][name] for r in records) / k)

    first = records[0]
    calls, counts = first["calls"], first["counts"]
    out = {}
    for name in (
        "tensors.DensityMatrix",
        "panels.panel_of_pure",
        "classifier.classify",
        "stabilizer.stabilizer_subalgebra",
    ):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in (
        "tensors.DensityMatrix",
        "tensors.Ket",
        "tensors.apply_local",
        "tensors.spectral_decompose",
        "tensors.schmidt_split",
        "tensors.partial_trace",
        "panels.panel_of_pure",
        "panels.panel_consistency",
        "panels.panel_distance",
        "classifier.classify",
        "classifier.degenerate_ghz_test",
        "classifier.sibling",
        "stabilizer.stabilizer_subalgebra",
        "stabilizer.undetermined_by_dimension",
        "unitary_fit.fit_pivot_unitary",
        "oracle.search_sibling",
        "io.load_panel",
        "io.load_state",
        "io.save_state",
    ):
        out[f"{name}.self_s"] = (mean("self", name), "s")
    out["io.save_panel.self_s"] = (float(setup_self["io.save_panel"]), "s")
    for branch in ("pure-marginal", "unequal-spectra", "degenerate", "non-degenerate"):
        key = f"classifier.branch.{branch}.count"
        out[key] = (counts[key], "count")
    for key in (
        "classifier.ill_conditioned.count",
        "unitary_fit.descents.count",
        "unitary_fit.objective_evals.count",
        "oracle.trials.count",
        "oracle.found.count",
    ):
        out[key] = (counts[key], "count")
    for group in ("nondegenerate", "degenerate", "incompatible"):
        out[f"reconstruct.self_s.{group}"] = (mean("group", ("reconstruct", group)), "s")
    for outcome in ("unique", "ghz-family", "incompatible"):
        key = f"reconstruct.outcome.{outcome}.count"
        out[key] = (counts[key], "count")
    descents = counts["unitary_fit.descents.count"]
    oracle_descents = counts["oracle.descents.count"]
    out["unitary_fit.zero_cost_frac"] = (counts["unitary_fit.zero_cost.count"] / descents if descents else 0.0, "ratio")
    out["oracle.useful_descent_frac"] = (counts["oracle.trials.count"] / oracle_descents if oracle_descents else 0.0, "ratio")
    ghz = first["ghz_counts"]
    ghz_descents = ghz["oracle.descents.count"]
    out["oracle.useful_descent_frac.ghz"] = (ghz["oracle.trials.count"] / ghz_descents if ghz_descents else 0.0, "ratio")
    out["io.load_panel.mb"] = (counts["io.load_panel.bytes"] / 1e6, "MB")
    out["io.save_state.mb"] = (counts["io.save_state.bytes"] / 1e6, "MB")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (mean("layer", layer), "s")
    out["bench.remainder_s"] = (sum(r["remainder"] for r in records) / k, "s")
    out["bench.traced_item_s"] = (sum(r["wall"] for r in records) / k, "s")
    untraced = sum(map(sum, untraced_lat[1:])) / len(untraced_lat[1:])
    out["trace_overhead_frac"] = (out["bench.traced_item_s"][0] / untraced - 1.0, "ratio")
    return out


def cli_metrics(untraced_lat=None, items=(), root: Path | None = None, env=None) -> dict:
    """Child wall time per subcommand and the import breakdown; all 0
    unless given the untraced cycles of cli-files."""
    out = {f"cli.{cmd}.ms": (0.0, "ms") for cmd in CLI_COMMANDS}
    out.update({"cli.startup_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms"), "cli.import_ms.scipy": (0.0, "ms")})
    if untraced_lat is None:
        return out
    by_group: dict[str, list[float]] = {}
    for lat in untraced_lat:
        for item, x in zip(items, lat):
            by_group.setdefault(item.group, []).append(x)
    for cmd in CLI_COMMANDS:
        if cmd in by_group:
            out[f"cli.{cmd}.ms"] = (statistics.median(by_group[cmd]) * 1e3, "ms")
    if "help" in by_group:
        out["cli.startup_ms"] = (statistics.median(by_group["help"]) * 1e3, "ms")
    totals, scipy_parts = [], []
    for _ in range(IMPORTTIME_REPEATS):
        total, scipy_part = import_breakdown(root, env)
        totals.append(total)
        scipy_parts.append(scipy_part)
    out["cli.import_ms"] = (statistics.median(totals), "ms")
    out["cli.import_ms.scipy"] = (statistics.median(scipy_parts), "ms")
    return out


IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_breakdown(root: Path, env) -> tuple[float, float]:
    """Self import time (ms) of everything ``import qmarginal.cli`` loads, and of scipy's modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qmarginal.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    total = scipy_part = 0.0
    for line in proc.stderr.splitlines():
        m = IMPORTTIME_LINE.match(line)
        if m is None:
            continue
        us = int(m.group(1))
        total += us
        if m.group(3).strip().startswith("scipy"):
            scipy_part += us
    return total / 1e3, scipy_part / 1e3


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "qmarginal"
    if not (package / "__init__.py").is_file():
        print(f"error: no qmarginal sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    start = time.process_time()
    import numpy  # noqa: F401  (timed as part of set-up)
    import qmarginal
    import qmarginal.cli  # noqa: F401
    import qmarginal.io  # noqa: F401

    import_s = time.process_time() - start
    if Path(qmarginal.__file__).resolve().parent != package.resolve():
        print(f"error: imported qmarginal from {qmarginal.__file__}, not from {package}", file=sys.stderr)
        return 2

    import tracer
    import workloads

    workload = {
        "analyze-batch": workloads.AnalyzeBatch,
        "reconstruct-files": workloads.ReconstructFiles,
        "sibling-oracle": workloads.SiblingOracle,
        "cli-files": lambda: workloads.CliFiles(root),
    }[args.workload]()
    print("provenance: " + json.dumps(provenance(root, args.seed)))
    print(f"workload: {workload.name}, closed loop, one client; seed {args.seed}; {args.seconds} s; trace {args.trace}")

    work_dir = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            setup_tracer = tracer.Tracer()
            setup_tracer.install()
            try:
                items = setup_tracer.root(0, workload.build, args.seed, work_dir, args.tiny)
            finally:
                setup_tracer.uninstall()
        else:
            # set-up is scaled by reference samples taken around the builds
            host = HostSpeed()
            host.sample()
            builds = []
            for _ in range(1 if args.tiny else SETUP_REPEATS):
                t = time.process_time()
                items = workload.build(args.seed, work_dir, args.tiny)
                builds.append(time.process_time() - t)
                host.sample()
            setup_scale = host.scale(host.samples)
        if args.inject_wrong_expectation:
            items[0].expect = wrong(items[0].expect)
        if args.trace:
            setup_self = setup_tracer.summary()[0]["self"]
            metrics, attempted, failed = traced(workload, items, args, work_dir, root, setup_self)
        else:
            setup_s = import_s + statistics.median(builds)
            metrics, attempted, failed = end_to_end(
                workload, items, args, setup_s, setup_scale, host, in_process=workload.name != "cli-files"
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

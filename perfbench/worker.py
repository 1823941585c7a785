"""One fresh benchmark process: set up one workload, then time passes over it.

``run.py`` starts this script in a new single-threaded interpreter for every
sample; it prints one JSON object on stdout. Modes:

* ``setup``: import the package, build the inputs, report the set-up time.
* ``measure``: then run untraced passes until the time budget is spent,
  timing them in calibrated seconds (see ``calibrate.py``).
* ``trace``: then alternate an untraced and a traced pass until the budget is
  spent, and report per-layer figures from the traced passes.

Set-up time runs from ``--spawned-at`` (the parent's ``perf_counter`` just
before it started this process; on Linux both read the same monotonic clock)
to the moment the first item could be timed, less the time spent in the
speed probes of ``calibrate.py``, which run from the start of ``main``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
# A measuring child runs at least this many passes, so every item has a
# median over at least two samples, even when a pass takes most of the budget.
MIN_PASSES = 2


def run_pass(items, tracer=None, meter=None):
    """Time every item once; failures are recorded, never raised.

    With a ``meter`` (a running ``calibrate.Speedometer``) the time spent in
    its probes is left out of each latency. ``windows`` holds each item's
    start and end, to look up the CPU's speed over it afterwards.
    """
    latencies, windows, results, failures = [], [], [], []
    start = perf_counter()
    for name, fn in items:
        if tracer is not None:
            tracer.item = name
            span = tracer.open("bench.item")
        spent = meter.spent if meter is not None else 0.0
        t = perf_counter()
        try:
            results.append(fn())
        except Exception as exc:  # a failed item never aborts the pass
            results.append("failed")
            failures.append(f"{name}: " + "".join(traceback.format_exception_only(exc)).strip())
        end = perf_counter()
        latencies.append(end - t - (meter.spent - spent if meter is not None else 0.0))
        windows.append((t, end))
        if tracer is not None:
            tracer.close(span)
    wall = perf_counter() - start
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()[:16]
    return wall, latencies, windows, digest, failures


def layer_metrics(tracer) -> dict:
    import tracing

    self_s, total_s, calls = tracer.layer_times()
    counts = tracer.counts
    out = {}
    for name in tracing.TIMED:
        out[name + ".s"] = self_s.get(name, 0.0)
        out[name + ".total_s"] = total_s.get(name, 0.0)
        out[name + ".calls"] = calls[name]
    for name in tracing.ENUM_PATHS:
        out[name + ".s"] = self_s.get(name, 0.0)
        out[name + ".calls"] = counts[name + ".calls"]
    for name in (
        "equilibria.records_yielded",
        "equilibria.one_step_equilibria.calls",
        "dpp.selections",
        "model.tree_nodes",
        "hjb.steps",
        "hjb.coupled_cost.calls",
    ):
        out[name] = counts[name]
    steps = counts["hjb.steps"]
    out["hjb.ms_per_step"] = 1000 * total_s.get("hjb.solve_w", 0.0) / steps if steps else 0.0
    out["hjb.cells_per_step"] = counts["hjb.cells"] / steps if steps else 0.0
    out["hjb.check_bounds.s"] = self_s.get("hjb.check_bounds", 0.0)
    out["bench.item.s"] = self_s.get("bench.item", 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    # The probes run from here on, so set-up time is calibrated by the
    # speed the CPU ran at during set-up itself.
    meter = calibrate.Speedometer()
    meter.start()
    t0 = perf_counter()
    import gameval.cli  # noqa: F401  the whole package, as a CLI user loads it

    import_s = perf_counter() - t0
    import gameval
    import numpy

    src = (Path(args.root) / "src").resolve()
    if Path(gameval.__file__).resolve().parent.parent != src:
        print(f"gameval was imported from {gameval.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    notes: dict = {}
    items = workloads.WORKLOADS[args.workload](args.seed, notes)
    ready = perf_counter()
    setup_s = ready - args.spawned_at - meter.spent
    if args.mode != "measure":
        meter.stop()
    out = {
        "setup_s": setup_s,
        "setup_cal_s": setup_s * meter.factor(args.spawned_at, ready),
        "import_s": import_s,
        "items": len(items),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

    if args.mode == "measure":
        walls, latencies, digests, failures = [], [], [], []
        raw = []
        while True:
            wall, lat, windows, digest, fails = run_pass(items, meter=meter)
            walls.append(wall)
            raw.append((lat, windows))
            digests.append(digest)
            failures += fails
            ends_at = perf_counter() - ready + statistics.median(walls)
            if len(walls) >= MIN_PASSES and ends_at > args.budget:
                break
        meter.stop()
        for lat, windows in raw:
            latencies.append([x * meter.factor(*w) for x, w in zip(lat, windows)])
        out.update(
            walls=walls,
            latencies=latencies,
            digests=digests,
            failures=failures,
            probes=len(meter.times),
            probe_share=meter.spent / (perf_counter() - args.spawned_at),
        )

    elif args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        untraced, traced, runs, digests, failures = [], [], [], [], []
        while True:
            wall, _, _, digest, fails = run_pass(items)
            untraced.append(wall)
            digests.append(digest)
            failures += fails
            tracer.reset()
            tracer.install()
            try:
                wall, _, _, digest, fails = run_pass(items, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            digests.append(digest)
            failures += fails
            runs.append(layer_metrics(tracer))
            if perf_counter() - ready + untraced[-1] + traced[-1] > args.budget:
                break
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        spans = results / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans)
        layers = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
        layers["cli.import_s"] = import_s
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.traced_wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        out.update(
            walls=untraced,
            digests=digests,
            failures=failures,
            layers=layers,
            spans_file=str(spans.relative_to(Path(args.root).resolve())),
        )

    out["notes"] = notes
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of the
tree this file sits in. Every sample runs in a fresh single-threaded child
process (``worker.py``), one child at a time.

``--trace 0`` starts a few set-up-only children, then one child that runs
untraced passes for the rest of the time, and prints the end-to-end metrics
of ``BENCHMARK.json`` in calibrated seconds (see ``calibrate.py``). ``--trace 1`` starts one child that alternates
untraced and traced passes, and prints the per-layer metrics instead; the
spans of its last traced pass go to ``perfbench/results/``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds the run's details: the
environment, the result digest of every pass, the sample counts and the
percentile the tail latency was read at. The exit code is 0 only when every
child ran; an item that fails its check is counted, not fatal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "gameval"

# Set-up is sampled in this many set-up-only children, plus the measuring
# child, and reported as the median.
SETUP_CHILDREN = 4
# Every child of a run must have ended this long after the run started.
RUN_LIMIT_S = 170.0
# Thread pools of numpy's BLAS and of OpenMP, pinned to one thread.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing, so dict and set layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, budget: float, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--budget", repr(budget),
        "--root", str(ROOT),
    ]
    spawned_at = perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(PACKAGE).as_posix().encode())
            digest.update(path.read_bytes())
    git_hash = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_hash = proc.stdout.strip() or None
    return {
        "git": git_hash,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def tail(per_item: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with 10 items beyond it.

    With 10 items or fewer no such percentile exists; the slowest item is
    reported and the percentile reads 100.
    """
    ranked = sorted(per_item)
    n = len(ranked)
    if n <= 10:
        return ranked[-1], 100.0
    return ranked[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    try:
        if args.trace:
            run = spawn(args, "trace", args.seconds, deadline)
            setups = [run]
            wanted = spec["per_layer"]
        else:
            setups = [spawn(args, "setup", 0.0, deadline) for _ in range(SETUP_CHILDREN)]
            used = perf_counter() - started + statistics.median(r["setup_s"] for r in setups)
            run = spawn(args, "measure", args.seconds - used, deadline)
            setups.append(run)
            wanted = spec["end_to_end"]
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1

    walls = run["walls"]
    attempted = run["items"] * len(run["digests"])
    failed = len(run["failures"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**environment(), "python": run["python"], "numpy": run["numpy"]},
        "items_per_pass": run["items"],
        "passes": len(walls),
        "digests": sorted(set(run["digests"])),
        "fail_ratio": failed / attempted,
        "failures": run["failures"][:20],
        "setup_raw_s": [r["setup_s"] for r in setups],
        "setup_cal_s": [r["setup_cal_s"] for r in setups],
        "walls_raw_s": walls,
        "notes": run["notes"],
    }
    if args.trace:
        measured = run["layers"]
        details["spans_file"] = run["spans_file"]
    else:
        passes = [sum(lat) for lat in run["latencies"]]
        per_item = [statistics.median(lat) for lat in zip(*run["latencies"])]
        tail_s, tail_pct = tail(per_item)
        details["walls_cal_s"] = passes
        details["item_samples"] = {"items": len(per_item), "passes": len(walls)}
        details["tail_percentile"] = tail_pct
        details["probes"] = {"count": run["probes"], "share": run["probe_share"]}
        measured = {
            "setup_s": statistics.median(r["setup_cal_s"] for r in setups),
            "wall_s": statistics.median(passes),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * tail_s,
            "peak_rss_mb": run["peak_rss_kb"] / 1024,
        }
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and len(details["digests"]) == 1
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

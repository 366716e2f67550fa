"""Benchmark of the groupcodes pipeline: four workloads, outside-in trace.

Run from the repository root:

    python3 perfbench/run.py --workload census-d10 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload runs in a fresh single-threaded process (``all`` starts one
child process per workload).  A run derives its inputs from ``--seed``,
times ``setup_s`` as the median of repeated cold constructions of the
workload's decompositions (field caches cleared each time; a block of them
before the warm-up, another after the passes), runs a discarded warm-up, then
runs whole passes until the next pass would not end within ``--seconds``;
at least one pass runs.  Every pass's output is checked outside the timed
phase.

The host's speed is sampled during every pass and every set-up block
(``speedometer.py``), and both timings are counted in reference-seconds,
seconds at a fixed reference speed of the host, rather than in wall-clock
seconds: ``items_per_ref_s`` is the items completed ÷ the passes' time in
reference-seconds, and ``setup_s`` is the median set-up time in
reference-seconds.  A shared host's slow stretches lengthen the timed work
and the reference samples alike, so they cancel; a faster program still
completes more items per reference-second.  The wall-clock figures are
printed and recorded beside them.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures: ``setup_s``, ``items_per_ref_s`` and
``peak_rss_mb``.  ``error_rate`` (failed items / attempted items) is the
``failed`` and ``attempted`` fields of that object; it is printed above it
but is not a metric, because at a correct commit it is exactly zero.  With
``--trace 1`` the same passes run untraced and then traced, the two captured
outputs must be byte-identical, and the metrics are the per-layer figures
of ``tracer.py`` plus ``trace.overhead_ratio``.  Spans are written to
``.perfbench/`` in the working directory.

Workloads (see BENCHMARK.json for why each was chosen):

* ``census-d10``: ``css-search --q 9 --n 10 --metric hermitian``, the whole
  census of 1,089 specs; item = emitted record.
* ``css-d16``: ``css-search --q 9 --n 16 --metric hermitian --spec FILE`` on
  a fixed uniform sample of 80 of the 41,085 specs; item = emitted record.
  The full census (about 2 h) does not fit a run.
* ``certify-c6``: criterion 6's codes A and B: ISD on both, then the
  exhaustive scan of B; item = scanned projective message.
* ``verify-matrix``: ``verify`` on the default 7-system matrix; item = one
  spec-dual or element-product check.

The tier-1 pytest run is not a workload: it takes about 45 s and overlaps
``certify-c6`` and ``verify-matrix``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one thread per process: pin native thread pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench")
NAMES = ("census-d10", "css-d16", "certify-c6", "verify-matrix")

# Set-up is timed in two blocks, one before the warm-up and one after the
# timed passes, because the speed of a shared machine drifts over tens of
# seconds.  A block repeats the cold set-up at least its minimum number of
# times and then until it has lasted SETUP_BLOCK_S or made SETUP_MAX
# repeats; a block of at least a second gives the speedometer some twenty
# samples.
SETUP_MIN_BEFORE = 2
SETUP_MIN_AFTER = 1
SETUP_BLOCK_S = 1.0
SETUP_MAX = 1000
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(w, clear, min_repeats: int) -> tuple[list, list]:
    """One block of cold set-ups: (wall seconds, reference-seconds) of each."""
    from speedometer import Speedometer

    walls, own = [], []
    with Speedometer() as speed:
        start = time.perf_counter()
        while len(walls) < min_repeats or (
                time.perf_counter() - start < SETUP_BLOCK_S
                and len(walls) < SETUP_MAX):
            clear()
            busy = speed.busy_s
            t0 = time.perf_counter()
            w.build()
            walls.append(time.perf_counter() - t0)
            own.append(walls[-1] - (speed.busy_s - busy))
            # decompositions hold reference cycles; free each one before
            # the next, so that peak_rss_mb does not grow with the repeats
            gc.collect()
    return walls, [speed.ref_seconds(t) for t in own]


def one_pass(w, i: int, sample_speed: bool = False):
    """(duration, reference-seconds, output, items, failed) of pass ``i``;
    checked untimed.  Reference-seconds are None unless ``sample_speed``."""
    from speedometer import Speedometer

    speed = Speedometer() if sample_speed else contextlib.nullcontext()
    with speed:
        t0 = time.perf_counter()
        p = w.run_pass(i)
        duration = time.perf_counter() - t0
    ref_s = (speed.ref_seconds(duration - speed.busy_s) if sample_speed
             else None)
    return duration, ref_s, p.output, p.items, w.check(i, p)


def run_passes(w, seconds: float, sample_speed: bool):
    """Passes until the next one would overrun ``seconds``; at least one.

    Returns (pass durations, pass reference-seconds, outputs, items,
    failed); reference-seconds are None unless ``sample_speed``."""
    durations, ref_s, outputs, items, failed = [], [], [], 0, 0
    while not durations or (sum(durations) + statistics.mean(durations)
                            <= seconds):
        d, r, out, n, f = one_pass(w, len(durations), sample_speed)
        durations.append(d)
        ref_s.append(r)
        outputs.append(out)
        items += n
        failed += f
    return durations, ref_s, outputs, items, failed


def traced_passes(w, workloads, tracing, outputs):
    """Cold set-up and the same passes again, traced.

    Returns (tracer, traced set-up seconds, pass durations, items, failed,
    whether every traced output is byte-identical to the untraced one)."""
    tr = tracing.install()
    try:
        tr.set_item(0)
        workloads.clear_field_caches()
        t0 = time.perf_counter()
        w.build()
        setup = time.perf_counter() - t0
        durations, items, failed, identical = [], 0, 0, True
        for i, untraced in enumerate(outputs):
            tr.set_item(i + 1)
            d, _, out, n, f = one_pass(w, i)
            durations.append(d)
            items += n
            failed += f
            identical = identical and out == untraced
    finally:
        tr.uninstall()
    return tr, setup, durations, items, failed, identical


def run_workload(args) -> dict:
    import numpy as np

    import tracer as tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    WORKDIR.mkdir(exist_ok=True)
    w.make_inputs(args.seed, WORKDIR)

    setup_wall, setup = time_setup(w, workloads.clear_field_caches,
                                   SETUP_MIN_BEFORE)
    w.warm_up()
    durations, ref_s, outputs, items, failed = run_passes(
        w, args.seconds, sample_speed=not args.trace)
    wall = sum(durations)
    after_wall, after = time_setup(w, workloads.clear_field_caches,
                                   SETUP_MIN_AFTER)
    setup_wall += after_wall
    setup += after

    record = {
        "workload": w.name,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "sizes": w.sizes(),
        "setup_repeats": len(setup),
        "setup_wall_s": round(statistics.median(setup_wall), 6),
        "passes": [round(d, 4) for d in durations],
        "passes_ref_s": [r and round(r, 4) for r in ref_s],
        "items": items,
        "failed": failed,
    }
    print(f"{w.name}: {len(durations)} pass(es), {items} items in "
          f"{wall:.3f} s, seed {args.seed}")

    if args.trace:
        tr, setup_traced, t_durations, t_items, t_failed, identical = \
            traced_passes(w, workloads, tracing, outputs)
        if not identical:
            print("error: traced output differs from untraced output",
                  file=sys.stderr)
        items += t_items
        failed += t_failed
        layer = tracing.layer_metrics(tr)
        layer["setup.traced_s"] = setup_traced
        layer["trace.wall_s"] = sum(t_durations)
        layer["trace.overhead_ratio"] = sum(t_durations) / wall
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in per_layer}
        record["span_calls"] = {name: s["calls"]
                                for name, s in tr.per_span().items()}
        record["traced_identical"] = identical
        tr.write(WORKDIR / f"trace-{w.name}-seed{args.seed}.npz")
    else:
        identical = True
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "items_per_ref_s": {"value": items / sum(ref_s),
                                "unit": "items/ref-s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }

    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall clock, not BENCHMARK.json metrics (they move with the "
              f"host's speed): items_per_s = {items / wall:.6g} items/s, "
              f"setup = {statistics.median(setup_wall):.6g} s")
    print(f"  error_rate = {failed / items:.6g} ratio ({failed}/{items})")
    return {"correct": failed == 0 and identical, "attempted": items,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own child process; metrics keyed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with "
                               f"{proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        result["correct"] = result["correct"] and child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, m in child["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = m
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupcodes" / "__init__.py").is_file():
        print(f"error: no groupcodes sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Benchmark of the vpfa toolkit: three workloads, a golden-hash gate and a layer trace.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload desk_pipeline --seed 7 --seconds 12 --trace 0

Workloads (see ``workloads.py``; BENCHMARK.json records why each was chosen):

* ``desk_pipeline`` -- gen (set-up), then stats, eval, train (dim 64, hidden
  64, 120 epochs x 5000 pairs), apply, eval, centroids, project, binary
  format.  Small-tensor Python overhead dominates; train is ~19 of ~21 s.
* ``prod_shape`` -- gen of 4000 records at 3840-d (set-up), then train
  (hidden 2048, 24,139,520 parameters, 1 epoch x 640 pairs = 20 Adam steps
  at batch 32), apply, eval.  Memory-bound Adam and large BLAS calls dominate.
* ``gallery_csv`` -- gen of a 12,000-record 256-d CSV corpus (600 ids x 5
  per resolution, rates 2,3,4) and a short seeded train (set-up), then
  stats, eval, apply, eval, centroids in CSV.  9,000 LR queries rank a
  3,000-record HR gallery.  A 40k-record eval is not used: its 20k x 20k
  float64 score matrix plus argsort needs over 6 GB of this 7 GB machine.

Each run is one process issuing CLI commands back to back through
``vpfa.cli.dispatch`` (a closed loop, one client, at most ``nproc`` BLAS
threads).  Set-up runs several times and ``setup_s`` is the median.  The
timed pass repeats until ``--seconds`` have passed (at least once).  Then
the short stages behind the throughputs (apply and eval, or the set-up
train on gallery_csv) run a few more times, interleaved with the second
half of the set-ups, so that they are medians of runs spread over the
process's life.  ``wall_s`` is the median pass;
each throughput is the median over the runs of its stage (for eval, over
the summed eval stages of a pass).  Every pass is checked
(``workloads.check``) outside the timed region.

The end-to-end metrics and where they come from:

* ``setup_s`` -- set-up wall time (the gen, and on gallery_csv the short
  train, that make the timed run's inputs);
* ``wall_s`` -- one timed pass;
* ``train_pairs_per_s`` -- epochs x pairs / train-stage seconds; on
  gallery_csv this is the set-up train, as its timed pass does not train;
* ``apply_records_per_s`` -- panned LR records / apply-stage seconds;
* ``eval_queries_per_s`` -- LR queries / eval-stage seconds;
* ``peak_rss_mb`` -- peak resident memory of the process (set-up included).

A failed operation is a command that exits non-zero or whose output fails
its check; ``failed`` / ``attempted`` in the result is the error rate,
which the detail line also gives as ``error_rate``.

With ``--trace 1`` the run instead does one traced set-up, one untraced
pass and one traced pass, reports per-layer metrics from the spans (see
``tracing.py``) and ``trace.overhead_s`` = traced minus untraced pass wall
time, and writes the spans to ``.perfbench_out/trace-<workload>-seed<n>.jsonl``.

Stdout ends with three JSON lines: the environment, the run's detail
(stage times, check results, artifact hashes), and the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracing import Tracer, metric_units
from workloads import GOLDEN_SEED, WORKLOADS, check, flag

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_pairs_per_s": "1/s",
    "apply_records_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def import_cli():
    """Import ``vpfa.cli`` from this checkout's ``src``, or exit non-zero."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import vpfa.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import vpfa from {src}: {exc}")
    if src not in Path(vpfa.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: vpfa imported from {vpfa.cli.__file__}, not {src}")
    return vpfa.cli


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k, "unknown") for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "system_settings": (
            "No system-wide setting was touched: huge pages, the CPU frequency "
            "governor and the page cache are as the host left them, and other "
            "tenants share the machine. The numbers carry that limitation."
        ),
        "computed_counts": (
            "vpnet.*.gflop (matmul FLOPs) and trainer.adam_step.bytes "
            "(7 x 8 B x parameters per step) are computed from tensor shapes, "
            "not measured. No roofline ratio is reported: peak memory bandwidth "
            "is not measured here."
        ),
    }


def run_stages(cli, argvs, phase: str, tracer=None) -> tuple[float, list[dict]]:
    """Run CLI commands back to back; returns wall seconds and stage records."""
    records = []
    start = time.perf_counter()
    for argv in argvs:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), span:
            try:
                rc = cli.dispatch(list(argv))
            except Exception:  # a crash is a failed stage, not a failed run
                traceback.print_exc()
                rc = -1
        records.append({"phase": phase, "argv": argv, "s": time.perf_counter() - t0,
                        "rc": rc, "problems": []})
    return time.perf_counter() - start, records


def record_check(wl, work: Path, seed: int, tiny: bool, records: list[dict]) -> dict:
    """Check all artifacts; attach problems to the latest run of each producer."""
    problems, hashes = check(wl, work, seed, tiny)
    for artifact, messages in problems.items():
        producer = wl.producer(artifact)
        latest = next(r for r in reversed(records) if r["argv"] == producer)
        for msg in messages:
            text = f"{artifact}: {msg}"
            if text not in latest["problems"]:
                latest["problems"].append(text)
                print(f"perfbench: check failed: {text}", file=sys.stderr)
    return hashes


def end_to_end(wl, setup_walls, pass_walls, records) -> dict[str, float]:
    def runs_of(command):
        return [r for r in records if r["argv"][0] == command]

    trains = [flag(r["argv"], "--epochs") * flag(r["argv"], "--pairs") / r["s"]
              for r in runs_of("train")]
    applies = [wl.lr_records / r["s"] for r in runs_of("apply")]
    evals = []
    for phase in sorted({r["phase"] for r in runs_of("eval")}):
        stage = [r for r in runs_of("eval") if r["phase"] == phase]
        evals.append(wl.lr_records * len(stage) / sum(r["s"] for r in stage))
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(pass_walls),
        "train_pairs_per_s": statistics.median(trains),
        "apply_records_per_s": statistics.median(applies),
        "eval_queries_per_s": statistics.median(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_run(cli, wl, args, work, tiny) -> tuple[dict, list[dict], dict]:
    records: list[dict] = []
    setup_walls = []

    def set_up(rep):
        wall, recs = run_stages(cli, wl.setup, f"setup{rep}")
        setup_walls.append(wall)
        records.extend(recs)

    first = (wl.setup_reps + 1) // 2
    for rep in range(first):
        set_up(rep)
    pass_walls = []
    start = time.perf_counter()
    while True:
        wall, recs = run_stages(cli, wl.stages, f"pass{len(pass_walls)}")
        pass_walls.append(wall)
        records += recs
        hashes = record_check(wl, work, args.seed, tiny, records)
        if time.perf_counter() - start >= args.seconds:
            break
    # The rest of the set-ups and the repeats of short stages follow the
    # passes, interleaved.  Machine speed here drifts over seconds, so
    # spreading a metric's samples over more of the run steadies its median.
    # Re-runs rewrite identical files; the final check covers them.
    later = wl.setup_reps - first
    for i in range(max(wl.repeat_reps, later)):
        if i < wl.repeat_reps:
            _, recs = run_stages(cli, wl.repeat, f"repeat{i}")
            records += recs
        if i < later:
            set_up(first + i)
    if wl.repeat_reps or later:
        hashes = record_check(wl, work, args.seed, tiny, records)
    return end_to_end(wl, setup_walls, pass_walls, records), records, hashes


def traced_run(cli, wl, args, work, tiny) -> tuple[dict, list[dict], dict]:
    tracer = Tracer()
    run_id = f"{wl.name}-seed{args.seed}"
    with tracer.installed(f"{run_id}-setup"):
        _, records = run_stages(cli, wl.setup, "setup0", tracer)
    untraced_wall, recs = run_stages(cli, wl.stages, "pass0")
    records += recs
    record_check(wl, work, args.seed, tiny, records)
    with tracer.installed(f"{run_id}-pass"):
        traced_wall, recs = run_stages(cli, wl.stages, "pass1", tracer)
    records += recs
    hashes = record_check(wl, work, args.seed, tiny, records)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    tracer.write(OUT_DIR / f"trace-{run_id}.jsonl")
    return metrics, records, hashes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed pass until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for a smoke check of the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cli = import_cli()
    args = parse_args(argv)
    tiny = args.size == "tiny"
    wl = WORKLOADS[args.workload](args.seed, tiny)
    work = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    here = Path.cwd()
    os.chdir(work)
    try:
        runner = traced_run if args.trace else timed_run
        values, records, hashes = runner(cli, wl, args, work, tiny)
    finally:
        os.chdir(here)
        shutil.rmtree(work)

    units = metric_units() if args.trace else END_TO_END_UNITS
    failed = sum(1 for r in records if r["rc"] != 0 or r["problems"])
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "gate": ("golden hashes + quality" if args.seed == GOLDEN_SEED and not tiny
                 else "quality"),
        "stages": [{"phase": r["phase"], "command": r["argv"][0], "s": r["s"],
                    "rc": r["rc"], "problems": r["problems"]} for r in records],
        "hashes": hashes,
        "error_rate": failed / len(records),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the checks on their outputs.

Every workload is a list of set-up commands, which make the inputs, and a
list of timed commands, all run in-process through ``vpfa.cli.dispatch``
from one working directory with relative paths (report files name their
inputs, so the paths are part of the golden bytes).  Inputs come only from
the seed: the seed goes to ``gen``; training seeds stay at their defaults.

Checks:

* hash gate -- at the golden seed and full size, the first 16 hex digits of
  sha256 of each artifact listed in ``golden.json`` must match.  For
  ``desk_pipeline``, s.vpfa, vp.vpnp, panned.vpfa, after.txt and stats.txt
  are ROADMAP's golden hashes; every other entry is a reference hash
  recorded when the benchmark was added.  The ``prod_shape`` parameters
  hashed the same with OpenBLAS on 1 and on 2 threads, so they are checked
  exactly, not within a tolerance;
* quality gate -- at every seed, each workload's outputs must pass the
  property checks below (for example Rank-1 after alignment at least Rank-1
  before, and a mean centroid reduction above 0.9).

A failed check names its artifact and counts against the stage that wrote it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_SEED = 7
GOLDEN_FILE = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[tuple[str, ...], ...]
    stages: tuple[tuple[str, ...], ...]
    lr_records: int  # records that `apply` pans and `eval` uses as queries
    quality: Callable[[Path], dict[str, list[str]]]
    setup_reps: int  # set-up runs per benchmark run; setup_s is their median
    # Short stages re-run after the passes, and how often, so that their
    # throughputs are medians of several runs.
    repeat: tuple[tuple[str, ...], ...]
    repeat_reps: int

    def producer(self, artifact: str) -> tuple[str, ...]:
        """The command that writes ``artifact``."""
        for argv in (*self.setup, *self.stages):
            if output_of(argv) == artifact:
                return argv
        raise KeyError(artifact)


def output_of(argv: tuple[str, ...]) -> str:
    return argv[argv.index("--out") + 1]


def flag(argv: tuple[str, ...], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def short_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def read_report(path: Path) -> dict[str, str]:
    """``key: value`` lines of a text report."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _alignment_gate(before: str, after: str, centroids: str) -> Callable:
    """Rank-1 must not drop after alignment; centroids must move > 90 % closer."""

    def quality(work: Path) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        rank_before = float(read_report(work / before)["rank1"])
        rank_after = float(read_report(work / after)["rank1"])
        if rank_after < rank_before:
            problems[after] = [f"rank1 {rank_after} < rank1 before alignment {rank_before}"]
        reduction = float(read_report(work / centroids)["mean_reduction"])
        if not reduction > 0.9:
            problems[centroids] = [f"mean_reduction {reduction} not above 0.9"]
        return problems

    return quality


def desk_pipeline(seed: int, tiny: bool) -> Workload:
    dim, hidden, ids, per_res, epochs, pairs = (
        (32, 32, 50, 4, 40, 1000) if tiny else (64, 64, 200, 10, 120, 5000)
    )
    gen = _argv("gen", "--dim", dim, "--ids", ids, "--per-res", per_res,
                "--seed", seed, "--out", "s.vpfa")
    stages = (
        _argv("stats", "--data", "s.vpfa", "--out", "stats.txt"),
        _argv("eval", "--data", "s.vpfa", "--out", "before.txt"),
        _argv("train", "--data", "s.vpfa", "--hidden", hidden, "--epochs", epochs,
              "--pairs", pairs, "--out", "vp.vpnp"),
        _argv("apply", "--data", "s.vpfa", "--params", "vp.vpnp", "--out", "panned.vpfa"),
        _argv("eval", "--data", "panned.vpfa", "--out", "after.txt"),
        _argv("centroids", "--data", "s.vpfa", "--params", "vp.vpnp",
              "--out", "centroids.txt"),
        _argv("project", "--data", "s.vpfa", "--data", "panned.vpfa", "--ids", 12,
              "--out", "coords.csv"),
    )
    return Workload("desk_pipeline", (gen,), stages, ids * per_res,
                    _alignment_gate("before.txt", "after.txt", "centroids.txt"),
                    setup_reps=15, repeat=(stages[1], *stages[3:5]), repeat_reps=8)


def _prod_quality(work: Path) -> dict[str, list[str]]:
    """Params finite; HR rows untouched; sampled LR rows equal forward()."""
    from vpfa.embeddings import load_set
    from vpfa.vpnet import forward, load_params

    problems: dict[str, list[str]] = {}
    params = load_params(work / "pp.vpnp")
    if not all(np.isfinite(t).all() for t in params.tensors().values()):
        problems["pp.vpnp"] = ["non-finite parameter"]
    source = load_set(work / "p.vpfa")
    panned = load_set(work / "pan.vpfa")
    hr = [i for i, r in enumerate(source.records) if r.resolution.is_hr]
    lr = [i for i, r in enumerate(source.records) if r.resolution.is_lr]
    if not np.array_equal(source.matrix[hr], panned.matrix[hr]):
        problems["pan.vpfa"] = ["HR records changed by apply"]
    # A smaller batch may take another BLAS path, so compare to a tolerance.
    sample = lr[:: max(1, len(lr) // 8)]
    expected, _ = forward(params, source.matrix[sample])
    error = float(np.max(np.abs(expected - panned.matrix[sample])))
    if error > 1e-9:
        problems.setdefault("pan.vpfa", []).append(
            f"LR rows differ from forward() by {error:.3g}"
        )
    return problems


def prod_shape(seed: int, tiny: bool) -> Workload:
    dim, hidden, ids, per_res, pairs = (
        (48, 32, 20, 4, 64) if tiny else (3840, 2048, 200, 10, 640)
    )
    gen = _argv("gen", "--dim", dim, "--ids", ids, "--per-res", per_res,
                "--seed", seed, "--out", "p.vpfa")
    stages = (
        _argv("train", "--data", "p.vpfa", "--hidden", hidden, "--epochs", 1,
              "--pairs", pairs, "--out", "pp.vpnp"),
        _argv("apply", "--data", "p.vpfa", "--params", "pp.vpnp", "--out", "pan.vpfa"),
        _argv("eval", "--data", "pan.vpfa", "--out", "pe.txt"),
    )
    return Workload("prod_shape", (gen,), stages, ids * per_res, _prod_quality,
                    setup_reps=3, repeat=stages[1:], repeat_reps=1)


def gallery_csv(seed: int, tiny: bool) -> Workload:
    dim, hidden, ids, per_res, epochs, pairs = (
        (64, 32, 50, 3, 40, 1500) if tiny else (256, 64, 600, 5, 10, 2000)
    )
    csv = ("--format", "csv")
    setup = (
        _argv("gen", "--dim", dim, "--ids", ids, "--per-res", per_res, "--rates", "2,3,4",
              "--seed", seed, *csv, "--out", "g.csv"),
        _argv("train", "--data", "g.csv", *csv, "--hidden", hidden, "--epochs", epochs,
              "--pairs", pairs, "--out", "g.vpnp"),
    )
    stages = (
        _argv("stats", "--data", "g.csv", *csv, "--out", "gstats.txt"),
        _argv("eval", "--data", "g.csv", *csv, "--out", "gbefore.txt"),
        _argv("apply", "--data", "g.csv", *csv, "--params", "g.vpnp", "--out", "gpan.csv"),
        _argv("eval", "--data", "gpan.csv", *csv, "--out", "gafter.txt"),
        _argv("centroids", "--data", "g.csv", *csv, "--params", "g.vpnp",
              "--out", "gcent.txt"),
    )
    return Workload("gallery_csv", setup, stages, ids * per_res * 3,
                    _alignment_gate("gbefore.txt", "gafter.txt", "gcent.txt"),
                    setup_reps=3, repeat=setup[1:], repeat_reps=2)


WORKLOADS = {w.__name__: w for w in (desk_pipeline, prod_shape, gallery_csv)}


def check(wl: Workload, work: Path, seed: int, tiny: bool) -> tuple[dict, dict]:
    """Problems per artifact, and the short hash of every artifact."""
    outputs = [output_of(argv) for argv in (*wl.setup, *wl.stages)]
    missing = [name for name in outputs if not (work / name).is_file()]
    problems: dict[str, list[str]] = {name: ["missing"] for name in missing}
    hashes = {name: short_hash(work / name) for name in outputs if name not in missing}
    if seed == GOLDEN_SEED and not tiny:
        for name, want in json.loads(GOLDEN_FILE.read_text())[wl.name].items():
            if name in hashes and hashes[name] != want:
                problems.setdefault(name, []).append(
                    f"sha256 {hashes[name]} != golden {want}"
                )
    if missing:
        return problems, hashes
    try:
        # Every LR record is a query and none may be skipped; the benchmark's
        # query throughput counts on it.
        for argv in wl.stages:
            if argv[0] == "eval":
                report = read_report(work / output_of(argv))
                if (report["num_queries"], report["num_skipped"]) != (str(wl.lr_records), "0"):
                    problems.setdefault(output_of(argv), []).append(
                        f"{report['num_queries']} queries, {report['num_skipped']} skipped;"
                        f" expected {wl.lr_records} and 0"
                    )
        for name, msgs in wl.quality(work).items():
            problems.setdefault(name, []).extend(msgs)
    except Exception as exc:  # an unreadable output fails the check, never the run
        problems.setdefault(output_of(wl.stages[-1]), []).append(
            f"output unreadable by the check: {exc!r}"
        )
    return problems, hashes

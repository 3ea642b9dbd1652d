"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
end-to-end criteria (7-11) share one CLI pipeline fixture: synthetic set,
120-epoch training at dim 64 / hidden 64, panning, evaluation.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from vpfa.cli import dispatch
from vpfa.embeddings import load_set
from vpfa.retrieval import apply_panning
from vpfa.stats import analyze_set, cca_with_random_baseline, grouped_pearson, split_cosine
from vpfa.synthgen import SynthConfig, generate
from vpfa.trainer import law_of_cosines_check
from vpfa.vpnet import TENSOR_ORDER, backward, forward, init_params, parameter_count


def check(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_cli(*argv):
    assert dispatch(list(argv)) == 0, f"command failed: {argv}"


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split(": ", 1)
        out[key] = value
    return out


PIPELINE_FILES = {"set": "s.vpfa", "before": "before.txt", "params": "vp.vpnp",
                  "log": "vp.vpnp.log.csv", "panned": "panned.vpfa", "after": "after.txt",
                  "centroids": "centroids.txt", "coords": "coords.csv"}


def run_pipeline(root):
    """gen -> eval -> train(120 epochs) -> apply -> eval -> centroids -> project.

    Run from ``root`` with relative paths, as the benchmark runs it: the reports'
    source lines hold ``--data`` as given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        start = time.perf_counter()
        run_cli("gen", "--dim", "64", "--ids", "200", "--per-res", "10", "--seed", "7",
                "--out", "s.vpfa")
        run_cli("eval", "--data", "s.vpfa", "--out", "before.txt")
        run_cli("train", "--data", "s.vpfa", "--hidden", "64", "--epochs", "120",
                "--out", "vp.vpnp")
        run_cli("apply", "--data", "s.vpfa", "--params", "vp.vpnp", "--out", "panned.vpfa")
        run_cli("eval", "--data", "panned.vpfa", "--out", "after.txt")
        run_cli("centroids", "--data", "s.vpfa", "--params", "vp.vpnp",
                "--out", "centroids.txt")
        run_cli("project", "--data", "s.vpfa", "--data", "panned.vpfa", "--ids", "12",
                "--out", "coords.csv")
        seconds = time.perf_counter() - start
    return {**{key: root / name for key, name in PIPELINE_FILES.items()}, "seconds": seconds}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def reference_set():
    """The statistics reference set: planted shift 1.5 at rate 2, seed 7."""
    return generate(SynthConfig(
        dim=64, num_identities=200, samples_per_res=10, id_spread=1.0,
        sample_noise=0.3, shift_noise=0.1, shift_magnitude={2: 1.5},
        rates=(2,), seed=7,
    ))


def test_criterion_01_identity_at_zero():
    eset = generate(SynthConfig(num_identities=30, samples_per_res=4, seed=1))
    params = init_params(64, 64, init_std=0.0, seed=0)
    start = time.perf_counter()
    out = apply_panning(params, eset)
    elapsed = time.perf_counter() - start
    bitwise = all(a.tobytes() == b.tobytes() for a, b in zip(out.matrix, eset.matrix))
    check(1, "identity-at-zero", bitwise and elapsed < 1.0,
          f"bitwise={bitwise}, {elapsed:.3f}s")


def test_criterion_02_gradient_correctness():
    # relative error < 1e-5 against central differences (h = 1e-5), with a
    # 1e-8 absolute floor covering the float64 resolution of the
    # finite-difference quotient on an O(1) loss
    start = time.perf_counter()
    params = init_params(4, 3, init_std=0.5, seed=11)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1, 4))
    t = rng.standard_normal((1, 4))
    zhat, trace = forward(params, z)
    grads, _ = backward(params, trace, 2.0 * (zhat - t))

    worst = 0.0
    h = 1e-5
    for name in TENSOR_ORDER:
        tensor = getattr(params, name)
        for index in np.ndindex(tensor.shape):
            orig = tensor[index]
            tensor[index] = orig + h
            up, _ = forward(params, z)
            tensor[index] = orig - h
            down, _ = forward(params, z)
            tensor[index] = orig
            numeric = (np.sum((up - t) ** 2) - np.sum((down - t) ** 2)) / (2 * h)
            analytic = getattr(grads, name)[index]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, rel)
            assert abs(analytic - numeric) <= 1e-8 + 1e-5 * max(
                abs(analytic), abs(numeric)
            ), (name, index)
    elapsed = time.perf_counter() - start
    check(2, "gradient-correctness", elapsed < 5.0,
          f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_law_of_cosines():
    rng = np.random.default_rng(3)
    worst_ratio = 0.0
    for _ in range(1000):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        bound = 1e-9 * (1.0 + np.dot(a, a) + np.dot(b, b))
        residual = law_of_cosines_check(a, b)
        worst_ratio = max(worst_ratio, residual / bound)
        assert residual <= bound
    check(3, "law-of-cosines-identity", True,
          f"1000 pairs, worst residual at {worst_ratio:.2e} of bound")


def test_criterion_04_split_cosine(reference_set):
    start = time.perf_counter()
    entry = split_cosine(reference_set, 2)
    elapsed = time.perf_counter() - start
    check(4, "split-cosine", entry.cosine >= 0.95 and elapsed < 5.0,
          f"cosine {entry.cosine:.4f} over halves {entry.half_sizes}, {elapsed:.2f}s")


def test_criterion_05_cca_ordering(reference_set):
    entry = cca_with_random_baseline(reference_set, 2, eps=1e-6, seed=0)
    margin = entry.cross_res[0] - entry.random_baseline[0]
    well_formed = all(
        0.0 <= triple[0] <= 1.0
        and triple[0] >= triple[1] >= triple[2] >= 0.0
        for triple in (entry.cross_res, entry.random_baseline)
    )
    check(5, "cca-ordering", margin >= 0.2 and well_formed,
          f"cross R1 {entry.cross_res[0]:.4f} vs random R1 "
          f"{entry.random_baseline[0]:.4f}, margin {margin:.4f}")


def test_criterion_06_grouped_pearson_gap_ordering():
    eset = generate(SynthConfig(
        dim=64, num_identities=60, samples_per_res=10, id_spread=1.0,
        sample_noise=0.3, shift_noise=0.1,
        shift_magnitude={2: 1.0, 4: 2.0}, rates=(2, 4), seed=5,
    ))
    at2 = grouped_pearson(eset, 2, num_identities=50, group_size=2, seed=0)
    at4 = grouped_pearson(eset, 4, num_identities=50, group_size=2, seed=0)
    ok = at4.mean_r >= at2.mean_r and at4.proportion_above >= at2.proportion_above
    check(6, "grouped-pearson-gap-ordering", ok,
          f"mean r {at2.mean_r:.3f} -> {at4.mean_r:.3f}, "
          f"prop>0.4 {at2.proportion_above:.3f} -> {at4.proportion_above:.3f}")


def test_criterion_07_retrieval_gain(pipeline):
    before = float(read_report(pipeline["before"])["rank1"])
    after = float(read_report(pipeline["after"])["rank1"])
    ok = after - before >= 0.10 and after >= 0.90 and pipeline["seconds"] < 60.0
    check(7, "end-to-end-retrieval-gain", ok,
          f"rank1 {before:.4f} -> {after:.4f} "
          f"(gain {after - before:+.4f}), {pipeline['seconds']:.1f}s")


def test_criterion_08_centroid_reduction(pipeline):
    report = read_report(pipeline["centroids"])
    reduction = float(report["mean_reduction"])
    check(8, "centroid-distance-reduction", reduction >= 0.25,
          f"mean reduction {reduction:.1%}")


def test_criterion_09_loss_convergence(pipeline):
    lines = pipeline["log"].read_text().splitlines()[1:]
    losses = np.array([float(line.split(",")[1]) for line in lines])
    assert len(losses) == 120
    ratio = losses[-1] / losses[0]
    ma = np.array([losses[i - 9 : i + 1].mean() for i in range(9, len(losses))])
    # trend measured at the resolution of the descent: increases up to
    # 1e-4 of the first-epoch loss are per-epoch resampling noise at the
    # converged floor, not a trend violation
    slack = 1e-4 * losses[0]
    max_rise = float(np.diff(ma).max())
    ok = ratio < 0.10 and max_rise <= slack
    check(9, "loss-convergence", ok,
          f"final/first {ratio:.4f}, max moving-average rise {max_rise:.2e} "
          f"(allowed {slack:.2e})")


def test_criterion_10_determinism(pipeline, tmp_path_factory, monkeypatch):
    # Every set the rerun reads has been through analyze_set, and the pairing train draws
    # from is kept before train asks for it, its lists reversed by an earlier caller: the
    # pairings a set keeps change no byte, and the first run's params are golden-pinned.
    def load_paired(*args):
        eset = load_set(*args)
        analyze_set(eset)
        for side in eset.paired_rows():
            side.reverse()
        return eset

    monkeypatch.setattr("vpfa.cli.load_set", load_paired)
    rerun = run_pipeline(tmp_path_factory.mktemp("pipeline_rerun"))
    same_params = (
        pipeline["params"].read_bytes() == rerun["params"].read_bytes()
    )
    same_reports = all(
        pipeline[key].read_bytes() == rerun[key].read_bytes()
        for key in ("before", "after", "centroids")
    )
    same_sets = pipeline["set"].read_bytes() == rerun["set"].read_bytes()
    ok = same_params and same_reports and same_sets
    check(10, "determinism", ok,
          f"params bitwise={same_params}, reports identical={same_reports}, "
          f"sets bitwise={same_sets}")


def test_criterion_11_cross_domain(pipeline, tmp_path):
    # set B: fresh identities (seed 11) carrying set A's planted direction
    shared = tmp_path / "b_shared.vpfa"
    run_cli("gen", "--dim", "64", "--ids", "200", "--per-res", "10",
            "--seed", "11", "--direction-seed", "7", "--out", str(shared))
    run_cli("eval", "--data", str(shared), "--out", str(tmp_path / "b0.txt"))
    run_cli("apply", "--data", str(shared), "--params", str(pipeline["params"]),
            "--out", str(tmp_path / "b_panned.vpfa"))
    run_cli("eval", "--data", str(tmp_path / "b_panned.vpfa"),
            "--out", str(tmp_path / "b1.txt"))
    before = float(read_report(tmp_path / "b0.txt")["rank1"])
    after = float(read_report(tmp_path / "b1.txt")["rank1"])

    # with an independent direction no improvement is required; observed only
    indep = tmp_path / "b_indep.vpfa"
    run_cli("gen", "--dim", "64", "--ids", "200", "--per-res", "10",
            "--seed", "11", "--out", str(indep))
    run_cli("eval", "--data", str(indep), "--out", str(tmp_path / "c0.txt"))
    run_cli("apply", "--data", str(indep), "--params", str(pipeline["params"]),
            "--out", str(tmp_path / "c_panned.vpfa"))
    run_cli("eval", "--data", str(tmp_path / "c_panned.vpfa"),
            "--out", str(tmp_path / "c1.txt"))
    indep_before = float(read_report(tmp_path / "c0.txt")["rank1"])
    indep_after = float(read_report(tmp_path / "c1.txt")["rank1"])

    check(11, "cross-domain-transfer", after - before >= 0.05,
          f"shared direction rank1 {before:.4f} -> {after:.4f} "
          f"(gain {after - before:+.4f}); independent direction "
          f"{indep_before:.4f} -> {indep_after:.4f} (no gain required)")


# First 16 hex digits of the sha256 of each artifact of the benchmark's desk pipeline, by
# file name; any change to a byte of them shows here.
DESK_GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                         .read_text())["desk_pipeline"]


def sha16(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def test_golden_artifact_hashes(pipeline):
    want = {name: digest for name, digest in DESK_GOLDEN.items() if name != "stats.txt"}
    want["vp.vpnp.log.csv"] = "33a5e87e985cc337"  # the loss log, which the benchmark leaves out
    assert {name: sha16(pipeline["set"].parent / name) for name in want} == want


def test_desk_stats_report_hash(pipeline, monkeypatch):
    # the report's source line holds --data as given: run from the set's directory
    monkeypatch.chdir(pipeline["set"].parent)
    run_cli("stats", "--data", "s.vpfa", "--out", "stats.txt")
    assert sha16("stats.txt") == DESK_GOLDEN["stats.txt"]


@pytest.mark.parametrize("gen_args, want", [
    # the desk set before panning: 2,000 x 2,000, every query keeps m = 5
    (("--dim", "64", "--ids", "200", "--per-res", "10"), "bb45cbb76dfff40e"),
    # the gallery set: 9,000 x 3,000, queries alternate m = 2 and m = 3
    (("--dim", "256", "--ids", "600", "--per-res", "5", "--rates", "2,3,4"), "020ad1aaed2091b2"),
])
def test_per_query_ap_table_hash(tmp_path, gen_args, want):
    # the report pins only 6 digits; the eval --csv table holds every AP at %.17g
    run_cli("gen", *gen_args, "--seed", "7", "--out", str(tmp_path / "s.vpfa"))
    run_cli("eval", "--data", str(tmp_path / "s.vpfa"), "--out", str(tmp_path / "e.txt"),
            "--csv", str(tmp_path / "ap.csv"))
    assert sha16(tmp_path / "ap.csv") == want


def test_criterion_12_parameter_count():
    count = parameter_count(3840, 2048)
    print(f"parameter count at dim 3840, hidden 2048: {count}")
    ok = abs(count - 24.14e6) <= 0.01 * 24.14e6
    check(12, "parameter-count", ok,
          f"{count} parameters, {count / 1e6:.2f}M vs 24.14M +/- 1%")

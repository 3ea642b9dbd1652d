"""The program names that the benchmark harness under ``perfbench/`` relies on.

The tracer patches functions by the names their callers look up, and the
``prod_shape`` output check reads a set's per-record view.  A change to the
program that breaks either fails here, not only in the benchmark's smoke run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from vpfa import trainer  # noqa: E402
from vpfa.cli import dispatch  # noqa: E402
from vpfa.embeddings import load_set  # noqa: E402
from vpfa.synthgen import SynthConfig, generate  # noqa: E402
from vpfa.vpnet import NetConfig, parameter_count  # noqa: E402

TARGETS = [target for targets, _ in tracing.LAYER_FUNCTIONS.values() for target in targets]


def current(target):
    owner, attr = tracing._resolve(target)
    return getattr(owner, attr)


def test_tracer_resolves_and_restores_every_target():
    originals = {target: current(target) for target in TARGETS}
    with tracing.Tracer().installed("t"):
        for target, original in originals.items():
            assert current(target) is not original and current(target).__wrapped__ is original
    assert {target: current(target) for target in TARGETS} == originals


def test_traced_training_records_the_pair_stages():
    s = generate(SynthConfig(dim=4, num_identities=3, samples_per_res=2, seed=1))
    tracer = tracing.Tracer()
    with tracer.installed("t"):
        cfg = trainer.TrainConfig(epochs=1, num_pairs=4)
        trainer.train(*trainer.training_pairs(s, cfg), NetConfig(dim=4, hidden=4), cfg)
        s.partition(s.rate_array == 0)
    names = {span.name for span in tracer.spans}
    assert {"trainer.build_prototype_pairs", "trainer.sample_training_pairs", "vpnet.forward",
            "vpnet.backward", "trainer.adam_step", "embeddings.partition"} <= names


def test_traced_training_counts_adam_bytes_per_parameter_and_step():
    s = generate(SynthConfig(dim=4, num_identities=3, samples_per_res=2, seed=1))
    tracer = tracing.Tracer()
    with tracer.installed("t"):
        cfg = trainer.TrainConfig(epochs=2, num_pairs=10, batch_size=4)
        trainer.train(*trainer.training_pairs(s, cfg), NetConfig(dim=4, hidden=3), cfg)
    metrics = tracer.layer_metrics()
    steps = 2 * 3  # epochs x ceil(10 pairs / batch of 4)
    assert metrics["trainer.adam_step.calls"] == metrics["vpnet.backward.calls"] == steps
    assert metrics["trainer.adam_step.bytes"] == 7 * 8 * parameter_count(4, 3) * steps
    assert metrics["vpnet.init_params.calls"] == 1


def test_record_flags_of_a_loaded_set_equal_its_rates(tmp_path):
    path = tmp_path / "s.vpfa"
    assert dispatch(["gen", "--dim", "4", "--ids", "3", "--per-res", "2", "--rates", "2,3",
                     "--out", str(path)]) == 0
    s = load_set(path)
    assert [r.resolution.is_hr for r in s.records] == (s.rate_array == 0).tolist()
    assert [r.resolution.is_lr for r in s.records] == (s.rate_array != 0).tolist()
    assert np.count_nonzero(s.rate_array == 0) == 6


def test_prod_shape_output_check_passes_on_a_tiny_run(tmp_path):
    for argv in (
        ["gen", "--dim", "6", "--ids", "4", "--per-res", "3", "--out", "p.vpfa"],
        ["train", "--data", "p.vpfa", "--hidden", "4", "--epochs", "1", "--pairs", "8",
         "--out", "pp.vpnp"],
        ["apply", "--data", "p.vpfa", "--params", "pp.vpnp", "--out", "pan.vpfa"],
    ):
        assert dispatch([str(tmp_path / a) if a.endswith(("vpfa", "vpnp")) else a
                         for a in argv]) == 0, argv
    assert workloads._prod_quality(tmp_path) == {}

import json
import os
import random
import shutil
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from vpfa import cli, embeddings
from vpfa.cli import dispatch
from vpfa.embeddings import EmbeddingSet, load_set, save_set
from vpfa.synthgen import SynthConfig, generate
from vpfa.vpnet import TENSOR_ORDER, init_params, load_params, parameter_count, save_params


def run(*argv):
    return dispatch(list(argv))


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split(": ", 1)
        out[key] = value
    return out


class TestGen:
    def test_writes_set_and_manifest(self, tmp_path):
        out = tmp_path / "s.vpfa"
        code = run(
            "gen", "--dim", "64", "--ids", "200", "--per-res", "10",
            "--alpha", "2=1.5", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        eset = load_set(out, "bin")
        assert eset.dim == 64
        assert len(eset) == 200 * 10 * 2  # HR block plus one LR rate
        manifest = json.loads((tmp_path / "s.vpfa.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["flags"]["seed"] == 7
        assert manifest["outputs"] == [str(out)]

    def test_matches_library_generation(self, tmp_path):
        out = tmp_path / "s.vpfa"
        run("gen", "--ids", "5", "--per-res", "3", "--alpha", "2=1.5",
            "--seed", "3", "--out", str(out))
        direct = generate(SynthConfig(
            num_identities=5, samples_per_res=3,
            shift_magnitude={2: 1.5}, seed=3,
        ))
        loaded = load_set(out, "bin")
        for a, b in zip(loaded.matrix, direct.matrix):
            assert a.tobytes() == b.tobytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "s.csv"
        run("gen", "--ids", "3", "--per-res", "2", "--out", str(out),
            "--format", "csv")
        assert out.read_text().startswith("dim=64\n")
        assert len(load_set(out, "csv")) == 12

    @pytest.mark.parametrize("cameras", [2**63, 2**64])
    def test_cameras_beyond_the_samples_write_the_same_set(self, tmp_path, cameras):
        gen = ("gen", "--dim", "3", "--ids", "4", "--per-res", "5", "--seed", "2")
        assert run(*gen, "--cameras", "5", "--out", str(tmp_path / "five.vpfa")) == 0
        assert run(*gen, "--cameras", str(cameras), "--out", str(tmp_path / "huge.vpfa")) == 0
        assert (tmp_path / "huge.vpfa").read_bytes() == (tmp_path / "five.vpfa").read_bytes()

    def test_rates_default_to_alpha_keys(self, tmp_path):
        out = tmp_path / "s.vpfa"
        run("gen", "--ids", "3", "--per-res", "2",
            "--alpha", "3=1.0", "--alpha", "4=2.0", "--out", str(out))
        rates = set(load_set(out, "bin").rate_array.tolist())
        assert rates == {0, 3, 4}


class TestErrorPaths:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run("frobnicate") == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run("gen", "--out", str(tmp_path / "x"), "--bogus", "1") == 2

    def test_missing_required_flag_exits_2(self):
        assert run("gen") == 2

    def test_module_error_exits_1(self, tmp_path, capsys):
        assert run("stats", "--data", str(tmp_path / "missing.vpfa"),
                   "--out", str(tmp_path / "r.txt")) == 1
        assert "error:" in capsys.readouterr().err

    def test_format_mismatch_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.vpfa"
        run("gen", "--ids", "3", "--per-res", "2", "--out", str(out))
        assert run("stats", "--data", str(out), "--format", "csv",
                   "--out", str(tmp_path / "r.txt")) == 1
        assert "error:" in capsys.readouterr().err

    def test_camera_beyond_binary_field_exits_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "s.vpfa"
        assert run("gen", "--dim", "1", "--ids", "1", "--per-res", "65537",
                   "--cameras", "70000", "--out", str(out)) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, values", [
        (["--ids", "99999999999999999999"], "--ids 99999999999999999999 x --per-res 10 x "
         "2 resolutions x --dim 64 is 127999999999999999998720 values"),
        (["--ids", "1", "--per-res", "2", "--rates", "2,3,4", "--dim", str(2**57)],
         f"--ids 1 x --per-res 2 x 4 resolutions x --dim {2**57} is {2**60} values"),
    ], ids=["ids", "dim"])
    def test_set_numpy_cannot_index_names_the_flags(self, tmp_path, capsys, argv, values):
        assert run("gen", *argv, "--out", str(tmp_path / "s.vpfa")) == 1
        limit = 2**60 - 1  # float64 values in 2**63 - 1 bytes
        assert capsys.readouterr().err == (
            f"error: {values}, over the limit of {limit} float64 values in one array\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_dim_params_exits_1_without_output(self, synth_file, tmp_path, capsys):
        params = tmp_path / "zero.vpnp"
        params.write_bytes(struct.pack("<4sIII", b"VPNP", 1, 0, 0))
        out = tmp_path / "pan.vpfa"
        assert run("apply", "--data", str(synth_file), "--params", str(params),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "non-positive" in err
        assert list(tmp_path.iterdir()) == [params]


    @pytest.mark.parametrize("argv, message", [
        (["gen", "--rates", "300"], "LR rate must be >= 2 and <= 255, got 300"),
        (["gen", "--rates", "1"], "LR rate must be >= 2 and <= 255, got 1"),
        (["gen", "--alpha", "0=1"], "LR rate must be >= 2 and <= 255, got 0"),
        (["gen", "--ids", "6", "--per-res", "3", "--rates", "2,2"],
         "LR rates must be distinct, got [2, 2]"),
        (["train", "--rates", "1"], "LR rate must be >= 2 and <= 255, got 1"),
        (["train", "--rates", "2,300"], "LR rate must be >= 2 and <= 255, got 300"),
        (["stats", "--rates", "0"], "LR rate must be >= 2 and <= 255, got 0"),
        (["stats", "--rates", "2,256"], "LR rate must be >= 2 and <= 255, got 256"),
        (["train", "--rates", "2,2"], "LR rates must be distinct, got [2, 2]"),
        (["stats", "--rates", "2,2"], "LR rates must be distinct, got [2, 2]"),
        (["gen", "--sigma-proto", "inf"], "id_spread must be finite and non-negative, got inf"),
        (["gen", "--sigma-id", "nan"], "sample_noise must be finite and non-negative, got nan"),
        (["gen", "--sigma-res=-inf"], "shift_noise must be finite and non-negative, got -inf"),
        (["gen", "--alpha", "2=inf"],
         "shift_magnitude[2] must be finite and non-negative, got inf"),
        (["gen", "--rates", "2,3", "--alpha", "3=nan"],
         "shift_magnitude[3] must be finite and non-negative, got nan"),
        (["train", "--init-std", "nan"], "init_std must be finite and non-negative, got nan"),
        (["train", "--init-std", "inf", "--epochs", "0"],
         "init_std must be finite and non-negative, got inf"),
        (["train", "--init-seed", "-1"], "init seed must be non-negative, got -1"),
        (["gen", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["gen", "--direction-seed", "-1"], "direction_seed must be non-negative, got -1"),
        (["stats", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["gen", "--dim", "0"], "dim must be positive, got 0"),
        (["gen", "--ids", "0"], "num_identities must be positive, got 0"),
        (["gen", "--per-res", "1"], "samples_per_res must be at least 2, got 1"),
        (["gen", "--cameras", "0"], "cameras must be positive, got 0"),
        (["train", "--epochs", "-1"], "epochs must be non-negative, got -1"),
        (["train", "--wd", "-1"], "weight_decay must be finite and non-negative, got -1.0"),
        (["stats", "--group-size", "1000"],  # over the 50 identities x 6 pairs of the set
         "not enough difference vectors to form a single group"),
    ], ids=["gen-300", "gen-1", "gen-alpha-0", "gen-repeated", "train-1", "train-300",
            "stats-0", "stats-256", "train-repeated", "stats-repeated", "gen-sigma-proto-inf",
            "gen-sigma-id-nan", "gen-sigma-res-inf", "gen-alpha-inf", "gen-alpha-nan",
            "train-init-std-nan", "train-init-std-inf", "train-init-seed", "gen-seed",
            "gen-direction-seed", "stats-seed", "gen-dim-0", "gen-ids-0", "gen-per-res-1",
            "gen-cameras-0", "train-epochs", "train-wd", "stats-group-size-over-pool"])
    def test_bad_flag_value_exits_1_without_output(self, synth_file, tmp_path, capsys, argv,
                                                   message):
        data = [] if argv[0] == "gen" else ["--data", str(synth_file)]
        if argv[0] == "train":  # a small network, should the value pass unchecked
            data += ["--hidden", "4", "--epochs", "1", "--pairs", "8"]
        capsys.readouterr()
        # the case's own flags come last, so they override the defaults above
        assert run(argv[0], *data, *argv[1:], "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--init-std", "nan"], "init_std must be finite and non-negative, got nan"),
        (["--init-seed", "-1"], "init seed must be non-negative, got -1"),
        (["--hidden", "0"], "hidden must be positive, got 0"),
        (["--rates", "2,300"], "LR rate must be >= 2 and <= 255, got 300"),
        (["--lr", "nan"], "learning_rate must be finite and positive, got nan"),
        (["--lr", "0"], "learning_rate must be finite and positive, got 0.0"),
        (["--batch", "0"], "batch_size must be positive, got 0"),
        (["--pairs", "0"], "num_pairs must be positive, got 0"),
        (["--train-seed", "-1"], "seed must be non-negative, got -1"),
        (["--bootstrap-frac", "2"], "bootstrap_fraction must be in (0, 1], got 2.0"),
    ], ids=["init-std", "init-seed", "hidden", "rates", "lr", "lr-0", "batch", "pairs",
            "train-seed", "bootstrap-frac"])
    def test_train_flags_are_checked_before_the_set_is_read(self, tmp_path, capsys,
                                                            monkeypatch, argv, message):
        def load_set(*args):
            raise AssertionError("train read the set before checking its flags")

        monkeypatch.setattr("vpfa.cli.load_set", load_set)
        capsys.readouterr()
        assert run("train", "--data", str(tmp_path / "s.vpfa"), *argv,
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--rates", "2,300"], "LR rate must be >= 2 and <= 255, got 300"),
        (["--rates", "2,2"], "LR rates must be distinct, got [2, 2]"),
        (["--cca-eps", "nan"], "eps must be finite and non-negative, got nan"),
        (["--cca-eps=-1"], "eps must be finite and non-negative, got -1.0"),
        (["--pearson-ids", "0"], "num_identities must be positive, got 0"),
        (["--group-size", "0"], "group_size must be positive, got 0"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
    ], ids=["rates", "repeated-rates", "cca-eps-nan", "cca-eps-negative", "pearson-ids",
            "group-size", "seed"])
    def test_stats_flags_are_checked_before_the_set_is_read(self, tmp_path, capsys,
                                                            monkeypatch, argv, message):
        def load_set(*args):
            raise AssertionError("stats read the set before checking its flags")

        monkeypatch.setattr("vpfa.cli.load_set", load_set)
        capsys.readouterr()
        assert run("stats", "--data", str(tmp_path / "s.vpfa"), *argv,
                   "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, content, argv, message", [
        ("s.csv", b"dim=abc\n", ["eval", "--data", "{path}", "--format", "csv"],
         "{path}: line 1: malformed header 'dim=abc'"),
        ("s.vpfa", struct.pack("<4sIIQ", b"VPFA", 2, 4, 0), ["eval", "--data", "{path}"],
         "{path}: unsupported version 2"),
        ("p.vpnp", b"VPNP\x01\x00", ["apply", "--data", "{synth}", "--params", "{path}"],
         "{path}: file too short for a parameter header"),
        ("s.vpfa", EmbeddingSet([[0.0, 0], [1, 0], [0, 1], [1, 1]], [0, 0, 1, 1], [0, 1, 0, 1],
                                [0, 2, 0, 2]),
         ["eval", "--data", "{path}"], "cosine metric undefined for zero-norm vectors"),
        ("s.vpfa", EmbeddingSet([[1.0, 0]], [0], [0], [0]), ["project", "--data", "{path}"],
         "2-d projection needs at least two records"),
    ], ids=["csv-header", "binary-version", "short-params", "zero-vector", "one-record"])
    def test_bad_input_exits_1_without_output(self, synth_file, tmp_path, capsys, name,
                                              content, argv, message):
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            save_set(content, path)
        names = {"path": path, "synth": synth_file}
        capsys.readouterr()
        assert run(*(a.format(**names) for a in argv), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("argv, message", [
        (["--rates", "2,x"], "argument --rates: bad rate list '2,x', expected e.g. 2,3,4"),
        (["--alpha", "2"], "argument --alpha: bad shift magnitude '2', expected R=V"),
    ], ids=["rates", "alpha"])
    def test_malformed_gen_flag_exits_2_with_usage(self, tmp_path, capsys, argv, message):
        assert run("gen", *argv, "--out", str(tmp_path / "g.vpfa")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vpfa gen ") and err.endswith(f"vpfa gen: error: {message}\n")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_identity_in_csv_exits_1(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        data.write_text("dim=2\n-3,0,HR,1,2\n")
        assert run("eval", "--data", str(data), "--format", "csv",
                   "--out", str(tmp_path / "r.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data}: line 2:" in err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("dim", [2**28, 2**31, 2**32 - 1])
    def test_huge_binary_header_dim_is_named_with_its_file(self, tmp_path, capsys, dim):
        data = tmp_path / "s.vpfa"
        data.write_bytes(struct.pack("<4sIIQ", b"VPFA", 1, dim, 0))
        for argv in (["eval"], ["stats"], ["train"], ["centroids"], ["project"],
                     ["apply", "--params", str(tmp_path / "p.vpnp")]):
            capsys.readouterr()
            assert run(*argv, "--data", str(data), "--out", str(tmp_path / "out")) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {data}: dimension {dim} too large for a record: ")
            assert err.count("\n") == 1, argv
            assert list(tmp_path.iterdir()) == [data]

    def test_huge_csv_header_dim_exits_1_at_the_first_row(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        data.write_text(f"dim={10**12}\n0,0,HR,1,2\n")
        assert run("eval", "--data", str(data), "--format", "csv",
                   "--out", str(tmp_path / "r.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{data}: line 2: expected" in err
        assert list(tmp_path.iterdir()) == [data]

    def test_non_finite_params_exits_1_without_output(self, synth_file, tmp_path, capsys):
        params = tmp_path / "nan.vpnp"
        assert run("train", "--data", str(synth_file), "--hidden", "4", "--epochs", "1",
                   "--pairs", "32", "--out", str(params)) == 0
        raw = bytearray(params.read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))
        params.write_bytes(bytes(raw))
        out = tmp_path / "pan.vpfa"
        capsys.readouterr()
        assert run("apply", "--data", str(synth_file), "--params", str(params),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(params) in err and "non-finite" in err
        assert not out.exists()


    @pytest.mark.parametrize("exc, shown", [
        (MemoryError("Unable to allocate 37.3 GiB for an array with shape (5000000, 1000)"),
         "Unable to allocate 37.3 GiB for an array with shape (5000000, 1000)"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_1_without_output(self, tmp_path, capsys, monkeypatch, exc, shown):
        def generate(cfg):  # as numpy does when an allocation fails; none is made for real
            raise exc

        monkeypatch.setattr("vpfa.cli.generate", generate)
        assert run("gen", "--dim", "1000", "--ids", "5000000",
                   "--out", str(tmp_path / "g.vpfa")) == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputOverInput:
    @pytest.mark.parametrize("argv", [
        ("eval", "--data", "{set}", "--out", "{set}"),
        ("eval", "--data", "{set}", "--out", "r.txt", "--csv", "{set_alias}"),
        ("apply", "--data", "{set}", "--params", "{params}", "--out", "{set_alias}"),
        ("apply", "--data", "{set}", "--params", "{params}", "--out", "{params}"),
        ("centroids", "--data", "{set}", "--params", "{params}", "--out", "{params}"),
        ("train", "--data", "{set}", "--hidden", "2", "--out", "p.vpnp", "--log", "{set}"),
        ("stats", "--data", "t.cca.csv", "--format", "csv", "--out", "r.txt",
         "--csv-prefix", "t"),
        ("project", "--data", "t.cca.csv", "--data", "{set}", "--out", "{set}"),
        # Outputs named by no flag: train's default loss log, and every manifest.
        ("train", "--data", "q.log.csv", "--hidden", "2", "--epochs", "1", "--pairs", "8",
         "--out", "q"),
        ("eval", "--data", "m.manifest.json", "--out", "m"),
    ])
    def test_exits_1_and_leaves_every_file_as_it_was(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--dim", "4", "--ids", "3", "--per-res", "2", "--out", "s.vpfa") == 0
        save_params(init_params(4, 2), "p.vpnp")
        (tmp_path / "sub").mkdir()
        Path("t.cca.csv").write_text("dim=4\n")
        Path("s.vpfa.manifest.json").unlink()
        for alias in ("q.log.csv", "m.manifest.json"):
            Path(alias).write_bytes(Path("s.vpfa").read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        names = {"set": "s.vpfa", "set_alias": str(tmp_path / "sub" / ".." / "s.vpfa"),
                 "params": "p.vpnp"}
        capsys.readouterr()
        assert run(*(a.format(**names) for a in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and "would overwrite input" in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class TestOutputPlan:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--dim", "4", "--ids", "3", "--per-res", "2", "--out", "s.vpfa") == 0
        Path("s.vpfa.manifest.json").unlink()
        (tmp_path / "sub").mkdir()
        return tmp_path

    @staticmethod
    def files(root):
        return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("argv, first, second", [
        (("train", "--data", "s.vpfa", "--hidden", "2", "--epochs", "1", "--pairs", "8",
          "--out", "p", "--log", "p"), "p", "p"),
        (("eval", "--data", "s.vpfa", "--out", "r", "--csv", "sub/../r"), "r", "sub/../r"),
        (("eval", "--data", "s.vpfa", "--out", "r", "--csv", "r.manifest.json"),
         "r.manifest.json", "r.manifest.json"),
        (("stats", "--data", "s.vpfa", "--out", "t.pearson.csv", "--csv-prefix", "t"),
         "t.pearson.csv", "t.pearson.csv"),
    ])
    def test_two_outputs_naming_one_file_exit_1_and_write_nothing(self, workdir, capsys,
                                                                   argv, first, second):
        before = self.files(workdir)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: outputs {first} and {second} name the same file\n"
        assert self.files(workdir) == before

    @pytest.mark.parametrize("argv, message", [
        (("eval", "--data", "s.vpfa", "--out", "r.txt", "--csv", "nodir/x.csv"),
         "output nodir/x.csv: no directory"),
        (("train", "--data", "s.vpfa", "--hidden", "2", "--epochs", "1", "--pairs", "8",
          "--out", "p.vpnp", "--log", "nodir/l.csv"), "output nodir/l.csv: no directory"),
        (("stats", "--data", "s.vpfa", "--out", "r.txt", "--csv-prefix", "nodir/t"),
         "output nodir/t.split_cosine.csv: no directory"),
        (("eval", "--data", "s.vpfa", "--out", "s.vpfa/r.txt"), "output s.vpfa/r.txt: no directory"),
        (("eval", "--data", "s.vpfa", "--out", "sub"), "output sub is a directory"),
        (("centroids", "--data", "s.vpfa", "--out", "c.txt", "--csv", "sub"),
         "output sub is a directory"),
    ])
    def test_unwritable_output_exits_1_and_writes_nothing(self, workdir, capsys, argv, message):
        before = self.files(workdir)
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert self.files(workdir) == before

    def test_symlink_loop_output_exits_1_without_traceback(self, workdir, capsys):
        Path("loop").symlink_to("loop")
        assert run("eval", "--data", "s.vpfa", "--out", "loop") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in workdir.iterdir()) == ["loop", "s.vpfa", "sub"]

    @pytest.mark.parametrize("argv, inputs, outputs", [
        (("gen", "--ids", "3", "--per-res", "2", "--out", "g.vpfa"), [], ["g.vpfa"]),
        (("gen", "--ids", "3", "--per-res", "2", "--format", "csv", "--out", "g.csv"),
         [], ["g.csv"]),
        (("stats", "--data", "s.vpfa", "--pearson-ids", "3", "--out", "st.txt"),
         ["s.vpfa"], ["st.txt"]),
        (("stats", "--data", "s.vpfa", "--pearson-ids", "3", "--out", "st.txt",
          "--csv-prefix", "sub/t"),
         ["s.vpfa"], ["st.txt", "sub/t.split_cosine.csv", "sub/t.cca.csv", "sub/t.pearson.csv"]),
        (("train", "--data", "s.vpfa", "--hidden", "2", "--epochs", "1", "--pairs", "8",
          "--out", "p.vpnp"), ["s.vpfa"], ["p.vpnp", "p.vpnp.log.csv"]),
        (("train", "--data", "s.vpfa", "--hidden", "2", "--epochs", "1", "--pairs", "8",
          "--out", "p.vpnp", "--log", "sub/loss.csv"), ["s.vpfa"], ["p.vpnp", "sub/loss.csv"]),
        (("apply", "--data", "s.vpfa", "--params", "vp.vpnp", "--out", "pan.vpfa"),
         ["s.vpfa", "vp.vpnp"], ["pan.vpfa"]),
        (("eval", "--data", "s.vpfa", "--out", "e.txt"), ["s.vpfa"], ["e.txt"]),
        (("eval", "--data", "s.vpfa", "--out", "e.txt", "--csv", "ap.csv"),
         ["s.vpfa"], ["e.txt", "ap.csv"]),
        (("centroids", "--data", "s.vpfa", "--out", "c.txt"), ["s.vpfa"], ["c.txt"]),
        (("centroids", "--data", "s.vpfa", "--params", "vp.vpnp", "--out", "c.txt",
          "--csv", "c.csv"), ["s.vpfa", "vp.vpnp"], ["c.txt", "c.csv"]),
        (("project", "--data", "s.vpfa", "--data", "a.vpfa", "--out", "xy.csv"),
         ["a.vpfa", "s.vpfa"], ["xy.csv"]),
    ])
    def test_manifest_lists_every_input_and_output_in_order(self, workdir, argv, inputs,
                                                            outputs):
        save_params(init_params(4, 2), "vp.vpnp")
        Path("a.vpfa").write_bytes(Path("s.vpfa").read_bytes())
        assert run(*argv) == 0
        manifest = json.loads(Path(f"{outputs[0]}.manifest.json").read_text())
        assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)
        assert all(Path(p).is_file() for p in outputs)


@pytest.mark.parametrize("argv, code", [
    (("gen", "--ids", "2", "--per-res", "2", "--out", "x.vpfa"), 0),
    (("eval", "--data", "missing.vpfa", "--out", "r.txt"), 1),
])
def test_python_m_runs_the_command(tmp_path, argv, code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "vpfa.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("error: ") and list(tmp_path.iterdir()) == []
    else:
        assert (tmp_path / "x.vpfa").is_file() and (tmp_path / "x.vpfa.manifest.json").is_file()


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "s.vpfa"
    assert run("gen", "--ids", "60", "--per-res", "6", "--seed", "5",
               "--out", str(path)) == 0
    return path


class TestStats:
    def test_report_and_csvs(self, synth_file, tmp_path):
        report_path = tmp_path / "stats.txt"
        prefix = str(tmp_path / "stats")
        code = run("stats", "--data", str(synth_file), "--out", str(report_path),
                   "--pearson-ids", "50", "--csv-prefix", prefix)
        assert code == 0
        report = read_report(report_path)
        assert float(report["rate2.split_cosine"]) > 0.9
        assert (tmp_path / "stats.split_cosine.csv").exists()
        assert (tmp_path / "stats.cca.csv").exists()
        assert (tmp_path / "stats.pearson.csv").exists()

    def test_identity_mean_rows_flag(self, synth_file, tmp_path):
        report_path = tmp_path / "stats.txt"
        code = run("stats", "--data", str(synth_file), "--out", str(report_path),
                   "--pearson-ids", "40", "--cca-rows", "identity_mean")
        assert code == 0
        report = read_report(report_path)
        assert report["cca_rows"] == "identity_mean"
        assert int(report["rate2.cca_components"]) == 59  # min(n-1, dim)


    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    @pytest.mark.filterwarnings("error")  # the error line is the only report
    def test_non_finite_cca_eps_exits_1_without_output(self, synth_file, tmp_path, capsys, eps):
        capsys.readouterr()
        assert run("stats", "--data", str(synth_file), "--out", str(tmp_path / "stats.txt"),
                   "--pearson-ids", "40", f"--cca-eps={eps}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps must be finite" in err and eps in err
        assert list(tmp_path.iterdir()) == []


class TestTrainApplyEval:
    @pytest.mark.parametrize("flags", [
        ("--lr", "nan"), ("--lr", "inf"), ("--wd", "nan"),
        ("--lr", "1e300"),  # finite, but the parameters overflow
    ])
    @pytest.mark.filterwarnings("error")  # the error line is the only report
    def test_non_finite_training_exits_1_without_output(self, synth_file, tmp_path, capsys,
                                                        flags):
        out = tmp_path / "p.vpnp"
        capsys.readouterr()
        assert run("train", "--data", str(synth_file), "--hidden", "4", "--epochs", "2",
                   "--pairs", "64", *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_train_frees_the_set_before_the_parameters_exist(self, synth_file, tmp_path,
                                                              monkeypatch):
        import weakref

        from vpfa import cli, vpnet

        loaded, alive_at_init = [], []
        vpnet_init = vpnet.init_params

        def load_set(*args):
            eset = embeddings.load_set(*args)
            loaded.append(weakref.ref(eset))
            return eset

        def init_params(*args):
            alive_at_init.append(loaded[0]() is not None)
            return vpnet_init(*args)

        monkeypatch.setattr(cli, "load_set", load_set)
        monkeypatch.setattr(vpnet, "init_params", init_params)
        assert run("train", "--data", str(synth_file), "--hidden", "4", "--epochs", "1",
                   "--pairs", "8", "--out", str(tmp_path / "p.vpnp")) == 0
        assert len(loaded) == 1 and alive_at_init == [False]

    @pytest.mark.parametrize("gen_flags, warns", [
        (("--dim", "4", "--alpha", "2=8"), True),  # 8 along a 4-d direction
        (("--dim", "64", "--ids", "200", "--per-res", "10", "--seed", "7"), False),  # the desk
    ])
    def test_train_warns_when_a_mean_shift_is_beyond_the_tanh_gate(self, tmp_path, capsys,
                                                                    gen_flags, warns):
        data, out = str(tmp_path / "s.vpfa"), tmp_path / "p.vpnp"
        assert run("gen", *gen_flags, "--out", data) == 0
        capsys.readouterr()
        assert run("train", "--data", data, "--hidden", "4", "--epochs", "1",
                   "--out", str(out)) == 0
        stdout, err = capsys.readouterr()
        assert stdout.startswith("trained ") and "warning" not in stdout
        if warns:
            assert err.startswith("warning: the mean HR - LR shift of the training pairs "
                                  "reaches ") and err.count("\n") == 1
        else:
            assert err == ""
        assert out.is_file() and (tmp_path / "p.vpnp.log.csv").is_file()

    def test_train_is_reproducible(self, synth_file, tmp_path):
        out1 = tmp_path / "a.vpnp"
        out2 = tmp_path / "b.vpnp"
        flags = ["--data", str(synth_file), "--hidden", "32", "--epochs", "2",
                 "--pairs", "120", "--batch", "16"]
        assert run("train", *flags, "--out", str(out1)) == 0
        assert run("train", *flags, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        log = (tmp_path / "a.vpnp.log.csv").read_text().splitlines()
        assert log[0] == "epoch,mean_loss"
        assert len(log) == 3

    def test_apply_does_not_mutate_input(self, synth_file, tmp_path):
        params_path = tmp_path / "vp.vpnp"
        run("train", "--data", str(synth_file), "--hidden", "32",
            "--epochs", "1", "--pairs", "60", "--out", str(params_path))
        before = synth_file.read_bytes()
        out = tmp_path / "panned.vpfa"
        assert run("apply", "--data", str(synth_file), "--params",
                   str(params_path), "--out", str(out)) == 0
        assert synth_file.read_bytes() == before
        assert load_set(out, "bin").dim == 64

    def test_full_pipeline_improves_rank1(self, synth_file, tmp_path):
        before_path = tmp_path / "before.txt"
        assert run("eval", "--data", str(synth_file), "--out", str(before_path)) == 0
        params_path = tmp_path / "vp.vpnp"
        assert run("train", "--data", str(synth_file), "--hidden", "64",
                   "--epochs", "25", "--pairs", "1000",
                   "--out", str(params_path)) == 0
        panned_path = tmp_path / "panned.vpfa"
        assert run("apply", "--data", str(synth_file), "--params",
                   str(params_path), "--out", str(panned_path)) == 0
        after_path = tmp_path / "after.txt"
        csv_path = tmp_path / "after.csv"
        assert run("eval", "--data", str(panned_path), "--out", str(after_path),
                   "--csv", str(csv_path)) == 0
        before = float(read_report(before_path)["rank1"])
        after = float(read_report(after_path)["rank1"])
        assert after > before
        assert csv_path.read_text().startswith("query_index,identity,ap\n")

    def test_loaded_params_match_library_types(self, synth_file, tmp_path):
        params_path = tmp_path / "vp.vpnp"
        run("train", "--data", str(synth_file), "--hidden", "16",
            "--epochs", "1", "--pairs", "60", "--out", str(params_path))
        params = load_params(params_path)
        assert params.dim == 64 and params.hidden == 16
        assert all(getattr(params, name).dtype == np.float64 for name in TENSOR_ORDER)


class TestCentroidsAndProject:
    def test_centroids_plain(self, synth_file, tmp_path):
        out = tmp_path / "c.txt"
        assert run("centroids", "--data", str(synth_file), "--out", str(out)) == 0
        report = out.read_text()
        assert "identities: 60" in report

    def test_centroids_with_params_reports_reduction(self, synth_file, tmp_path):
        params_path = tmp_path / "vp.vpnp"
        run("train", "--data", str(synth_file), "--hidden", "64",
            "--epochs", "25", "--pairs", "1000", "--out", str(params_path))
        out = tmp_path / "c.txt"
        csv_path = tmp_path / "c.csv"
        assert run("centroids", "--data", str(synth_file), "--params",
                   str(params_path), "--out", str(out), "--csv", str(csv_path)) == 0
        text = out.read_text()
        assert "mean_reduction:" in text
        mean_reduction = float(
            [l for l in text.splitlines() if l.startswith("mean_reduction")][0]
            .split(": ")[1]
        )
        assert mean_reduction > 0.25
        assert csv_path.read_text().startswith("identity,distance_before")

    def test_centroids_with_params_pans_only_the_queries(self, synth_file, tmp_path,
                                                         monkeypatch):
        params_path = tmp_path / "vp.vpnp"
        save_params(init_params(64, 8), params_path)
        seen, original = [], cli.apply_panning

        def recording(params, eset, *args, **kwargs):
            seen.append(eset)
            return original(params, eset, *args, **kwargs)

        monkeypatch.setattr("vpfa.cli.apply_panning", recording)
        assert run("centroids", "--data", str(synth_file), "--params", str(params_path),
                   "--out", str(tmp_path / "c.txt")) == 0
        num_lr = int(np.count_nonzero(load_set(synth_file, "bin").rate_array != 0))
        [panned] = seen
        assert len(panned) == num_lr and (panned.rate_array != 0).all()

    def test_centroids_with_params_on_hr_only_set_exits_1(self, synth_file, tmp_path,
                                                          capsys):
        hr_only = tmp_path / "hr.vpfa"
        eset = load_set(synth_file, "bin")
        save_set(eset.partition(eset.rate_array == 0), hr_only, "bin")
        params_path = tmp_path / "vp.vpnp"
        save_params(init_params(64, 8), params_path)
        capsys.readouterr()
        assert run("centroids", "--data", str(hr_only), "--params", str(params_path),
                   "--out", str(tmp_path / "c.txt")) == 1
        assert capsys.readouterr().err == "error: the sets share no identities\n"

    def test_project_writes_csv(self, synth_file, tmp_path):
        out = tmp_path / "proj.csv"
        assert run("project", "--data", str(synth_file), "--ids", "12",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "identity,resolution,x,y"
        assert len(lines) == 1 + 12 * 12  # 12 ids x (6 HR + 6 LR)

    def test_project_pools_multiple_sets(self, synth_file, tmp_path):
        out = tmp_path / "proj.csv"
        assert run("project", "--data", str(synth_file), "--data",
                   str(synth_file), "--ids", "4", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 4 * 12


    @pytest.mark.parametrize("ids", ["0", "-1"])
    def test_project_identity_count_below_one_exits_1_without_output(self, synth_file, tmp_path,
                                                                     capsys, ids):
        out = tmp_path / "proj.csv"
        assert run("project", "--data", str(synth_file), "--ids", ids, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: num_identities must be at least 1, got {ids}\n"
        assert list(tmp_path.iterdir()) == []

    def test_project_identity_count_is_checked_before_a_set_is_read(self, tmp_path, capsys):
        assert run("project", "--data", str(tmp_path / "missing.vpfa"), "--ids", "0",
                   "--out", str(tmp_path / "c.csv")) == 1
        assert capsys.readouterr().err == "error: num_identities must be at least 1, got 0\n"
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """A 400 x 2048 set of 200 LR queries and 200 HR gallery items, and a
    hidden-256 network for it: wide rows, so a set outweighs the scores."""
    folder = tmp_path_factory.mktemp("wide")
    data, params = folder / "w.vpfa", folder / "w.vpnp"
    assert run("gen", "--dim", "2048", "--ids", "40", "--per-res", "5", "--seed", "3",
               "--out", str(data)) == 0
    save_params(init_params(2048, 256, init_std=0.01, seed=4), params)
    return data, params


def traced_peak(*argv):
    """The largest traced allocation total while ``dispatch(argv)`` runs."""
    tracemalloc.start()
    try:
        assert run(*argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceMemory:
    """eval and centroids keep only the partitions of the set they load."""

    SET_BYTES, SCORE_BYTES, SLACK = 8 * 400 * 2048, 8 * 200 * 200, 1 << 20

    def test_eval_holds_two_sets_at_most(self, wide_files, tmp_path):
        # loading (file bytes and matrix), splitting (set and partitions) and
        # cosine scoring (partitions and their normalized copies) each hold two
        # sets; one more would not fit
        peak = traced_peak("eval", "--data", str(wide_files[0]), "--out", str(tmp_path / "e.txt"))
        assert peak <= 2 * self.SET_BYTES + 4 * self.SCORE_BYTES + self.SLACK

    def test_centroids_with_params_holds_the_partitions_and_one_forward(self, wide_files,
                                                                        tmp_path):
        # panning the all-LR queries reads their matrix in place and keeps the
        # network's output: partitions, parameters and a forward-only workspace
        data, params = wide_files
        workspace = 8 * (4 * 256 + 2048) * 200
        peak = traced_peak("centroids", "--data", str(data), "--params", str(params),
                           "--out", str(tmp_path / "c.txt"))
        assert peak <= (self.SET_BYTES + 8 * parameter_count(2048, 256) + workspace
                        + self.SLACK)

    @pytest.mark.parametrize("gate, want", [(SET_BYTES, [[True]]), (SET_BYTES + 1, [])])
    @pytest.mark.parametrize("command", ["eval", "centroids"])
    def test_free_memory_is_released_once_the_loaded_set_is_gone(self, wide_files, tmp_path,
                                                                 monkeypatch, command, gate, want):
        # a dropped set under glibc's mmap threshold stays resident until the
        # heap is trimmed, so the trim must come after the set dies and before
        # the scores or the forward pass; a set under the gate is not worth one
        data, params = wide_files
        real_load, matrices, released = cli.load_set, [], []

        def load(*args):
            eset = real_load(*args)
            matrices.append(weakref.ref(eset.matrix))
            return eset

        monkeypatch.setattr(cli, "load_set", load)
        monkeypatch.setattr(cli, "RELEASE_MIN_BYTES", gate)
        monkeypatch.setattr(cli, "_release_free_memory",
                            lambda: released.append([m() is None for m in matrices]))
        extra = ("--params", str(params)) if command == "centroids" else ()
        assert run(command, "--data", str(data), *extra, "--out", str(tmp_path / "o.txt")) == 0
        assert released == want


def test_no_command_builds_records(tmp_path, monkeypatch):
    """Every command reads a set's arrays and writes tags through ``rate_tag``; none
    builds the per-record flags that only the benchmark's output check reads."""
    monkeypatch.setattr(EmbeddingSet, "records",
                        property(lambda self: pytest.fail("a command built EmbeddingSet.records")))
    paths = {name: str(tmp_path / name) for name in
             ("s.vpfa", "s.csv", "stats.txt", "eval.txt", "vp.vpnp", "panned.vpfa", "c.txt",
              "p.csv")}
    for argv in (
        ("gen", "--dim", "8", "--ids", "12", "--per-res", "4", "--rates", "2,3", "--seed", "2",
         "--out", paths["s.vpfa"]),
        ("gen", "--dim", "8", "--ids", "12", "--per-res", "4", "--rates", "2,3", "--seed", "2",
         "--format", "csv", "--out", paths["s.csv"]),
        ("stats", "--data", paths["s.vpfa"], "--pearson-ids", "10", "--out", paths["stats.txt"]),
        ("eval", "--data", paths["s.vpfa"], "--out", paths["eval.txt"], "--csv",
         str(tmp_path / "ap.csv")),
        ("train", "--data", paths["s.vpfa"], "--hidden", "8", "--epochs", "2", "--pairs", "64",
         "--rates", "3", "--out", paths["vp.vpnp"]),
        ("apply", "--data", paths["s.vpfa"], "--params", paths["vp.vpnp"],
         "--out", paths["panned.vpfa"]),
        ("centroids", "--data", paths["s.vpfa"], "--params", paths["vp.vpnp"],
         "--out", paths["c.txt"]),
        ("project", "--data", paths["s.vpfa"], "--data", paths["panned.vpfa"],
         "--out", paths["p.csv"]),
    ):
        assert run(*argv) == 0, argv
    assert all(Path(p).exists() for p in paths.values())


def _corruptions(data: bytes, name: str, rng: random.Random, cases: int = 10):
    """Seeded truncations, byte flips and header rewrites of one file's bytes."""
    for _ in range(cases):
        yield data[:rng.randrange(len(data))]
    for _ in range(cases):
        raw = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            raw[rng.randrange(len(raw))] ^= rng.randrange(1, 256)
        yield bytes(raw)
    for _ in range(cases):
        if name.endswith(".csv"):
            header = rng.choice(["dim=0", "dim=-4", f"dim={rng.randrange(1, 12)}", "dim=x", "",
                                 f"dim={10 ** rng.randrange(3, 25)}", "dim 6", "DIM=6"])
            yield header.encode() + data[data.index(b"\n"):]
        else:
            layout = "<4sIIQ" if name.endswith(".vpfa") else "<4sIII"
            fields = list(struct.unpack_from(layout, data))
            choices = ([b"VPFA", b"VPNP", b"\0" * 4], [0, 2], [0, 1, 5, 7, 2**32 - 1],
                       [0, 1, fields[3] + 1, 2 ** (8 * struct.calcsize(layout[-1])) - 1])
            for i, options in enumerate(choices):
                if rng.random() < 0.5:
                    fields[i] = rng.choice(options)
            yield struct.pack(layout, *fields) + data[struct.calcsize(layout):]


class TestCorruptInputSweep:
    """Every corrupted input ends in exit 0 with all outputs, or in exit 1 with one
    ``error:`` line and no output or manifest; a CSV one the same on 3 forced chunks."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sources")
        gen = ("gen", "--dim", "6", "--ids", "4", "--per-res", "3", "--seed", "1")
        assert run(*gen, "--out", str(root / "s.vpfa")) == 0
        assert run(*gen, "--format", "csv", "--out", str(root / "s.csv")) == 0
        assert run("train", "--data", str(root / "s.vpfa"), "--hidden", "4", "--epochs", "2",
                   "--pairs", "16", "--out", str(root / "p.vpnp")) == 0
        return root

    @staticmethod
    def outcome(argv, out_dir, outputs, capsys):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        code = run(*argv)
        err = capsys.readouterr().err
        written = sorted(p.name for p in out_dir.iterdir())
        if code == 0:
            assert written == sorted([*outputs, f"{outputs[0]}.manifest.json"]), argv
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err and written == [], (argv, err)
        return code, err, {name: (out_dir / name).read_bytes() for name in written}

    @pytest.mark.parametrize("name", ["s.vpfa", "s.csv", "p.vpnp"])
    def test_sweep(self, sources, tmp_path, capsys, monkeypatch, name):
        rng = random.Random(f"sweep {name}")
        out = tmp_path / "out"
        codes = set()
        for case, data in enumerate(_corruptions((sources / name).read_bytes(), name, rng)):
            bad = tmp_path / f"bad{case}{Path(name).suffix}"
            bad.write_bytes(data)
            if name == "p.vpnp":
                commands = [(("apply", "--data", str(sources / "s.vpfa"), "--params", str(bad),
                              "--out", str(out / "o.vpfa")), ["o.vpfa"]),
                            (("centroids", "--data", str(sources / "s.vpfa"), "--params", str(bad),
                              "--out", str(out / "c.txt")), ["c.txt"])]
            else:
                fmt = ("--format", "csv" if name.endswith(".csv") else "bin")
                commands = [(("eval", "--data", str(bad), *fmt, "--out", str(out / "r.txt")),
                             ["r.txt"]),
                            (("apply", "--data", str(bad), *fmt, "--params",
                              str(sources / "p.vpnp"), "--out", str(out / f"o{bad.suffix}")),
                             [f"o{bad.suffix}"])]
            for argv, outputs in commands:
                serial = self.outcome(argv, out, outputs, capsys)
                codes.add(serial[0])
                if name.endswith(".csv"):
                    with monkeypatch.context() as patch:
                        patch.setattr(embeddings, "CSV_CHUNK_BYTES", 1)
                        patch.setattr(embeddings, "_usable_cpus", lambda: 3)
                        assert self.outcome(argv, out, outputs, capsys) == serial, argv
                    with pytest.raises(ChildProcessError):
                        os.waitpid(-1, os.WNOHANG)
        assert codes == {0, 1}

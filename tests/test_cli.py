import contextlib
import gzip
import io
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
import types
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerlr import cli, harness, nn
from layerlr.landscapes import LANDSCAPE_KINDS
from layerlr.nn import GradCheckResult

BLOBS_ARGS = [
    "--dataset=blobs", "--blobs.n=120", "--blobs.test_n=60", "--blobs.classes=3",
    "--blobs.dim=6", "--arch=mlp:8", "--batch_size=24", "--max_iterations=20",
]
# Config keys that were deleted; setting one is an unknown-key error.
REMOVED_KEYS = ("opt.bias_separate", "opt.epsilon_norm", "opt.epsilon_div", "opt.weight_decay",
                "report")
# Flags that were deleted: train's --seed (now --seeds=N), bench's --radius
# and gradcheck's fixed batch, samples, tolerance and mlp shape. Passing one,
# with any value, is an unrecognized-argument error.
REMOVED_FLAGS = ("--seed", "--radius", "--batch", "--samples", "--tol", "--mlp-dim",
                 "--mlp-classes")


def _no_run(*args):
    raise AssertionError("run_experiment called")


class TestExitCodes:
    def test_train_success(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = cli.main(["train", "--out", str(out), "--seeds=0"] + BLOBS_ARGS)
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,iteration,train_loss,test_error_percent,wall_ms"
        assert len(lines) == 2  # single default checkpoint at max_iterations

    def test_unknown_config_key_is_config_error(self, capsys):
        code = cli.main(["train", "--nonsense=1"])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = cli.main(["train", "--dataset=mnist", f"--data_dir={tmp_path}/nope"])
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_is_numeric_error(self, tmp_path, capsys):
        code = cli.main(["train", "--out", str(tmp_path / "r.csv"),
                         "--loss=squared-error", "--schedule.t0=1e18"] + BLOBS_ARGS)
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric error" in err
        assert "gradient norms" in err

    def test_missing_subcommand_exits_two(self, capsys):
        assert cli.main([]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_fetch_data_unknown_dataset(self, capsys):
        code = cli.main(["fetch-data", "--dataset", "imagenet"])
        assert code == cli.EXIT_CONFIG

    # Each bad invocation ends in one stderr line with its exit code and
    # writes no output file. Unwritable outputs are data errors (exit 3).
    @pytest.mark.parametrize("argv, code", [
        # The default blobs dataset is not 1x28x28.
        pytest.param(["train", "--arch=lenet"], cli.EXIT_CONFIG, id="argv0"),
        pytest.param(["bench", "--starts", "abc"], cli.EXIT_CONFIG, id="argv1"),
        pytest.param(["bench", "--lrs", "abc"], cli.EXIT_CONFIG, id="argv2"),
        # The chain has no saddle to escape, and bench knows no such landscape.
        pytest.param(["bench", "--landscape", "deep-linear-chain"], cli.EXIT_CONFIG,
                     id="argv3"),
        # Every learning rate and optimizer is checked before the first row.
        pytest.param(["bench", "--lrs", "0.1,-1"], cli.EXIT_CONFIG, id="bench-lr-neg"),
        pytest.param(["bench", "--optimizers", "sgd,ours-foo"], cli.EXIT_CONFIG,
                     id="bench-optimizer-unknown"),
        # Each layer is one norm group; the per-tensor option is gone. So are
        # the epsilon floors, now constants, the report metric, which follows
        # from the dataset, and weight decay, which no norm may read.
        pytest.param(["train", "--opt.bias_separate=true"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-bias-separate"),
        pytest.param(["train", "--opt.epsilon_norm=1e-8"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-epsilon-norm"),
        pytest.param(["train", "--opt.epsilon_div=1e-8"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-epsilon-div"),
        pytest.param(["train", "--report=accuracy"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="report"),
        pytest.param(["train", "--opt.weight_decay=nan"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="weight-decay-nan"),
        pytest.param(["train", "--out", "{missing}/r.csv"] + BLOBS_ARGS, cli.EXIT_DATA,
                     id="train-out-unwritable"),
        pytest.param(["bench", "--starts", "1e-2", "--lrs", "0.1", "--max-iter", "100",
                      "--out", "{missing}/b.csv"], cli.EXIT_DATA, id="bench-out-unwritable"),
        pytest.param(["train", "--arch=mlp:abc"], cli.EXIT_CONFIG, id="mlp-width-not-int"),
        # Names are checked before the dataset's files are looked for.
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--arch=bogus"],
                     cli.EXIT_CONFIG, id="mnist-arch-bogus"),
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--loss=nope"],
                     cli.EXIT_CONFIG, id="mnist-loss-nope"),
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}",
                      "--arch.activation=nope"], cli.EXIT_CONFIG, id="mnist-activation-nope"),
        # The fixed nets use ReLU only and refuse another activation.
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--arch=lenet",
                      "--arch.activation=sigmoid"], cli.EXIT_CONFIG, id="lenet-sigmoid"),
        pytest.param(["train", "--dataset=cifar10", "--data_dir={missing}",
                      "--arch=cifar-quick", "--arch.activation=tanh"], cli.EXIT_CONFIG,
                     id="cifar-quick-tanh"),
        pytest.param(["train", "--dataset=cifar10", "--data_dir={missing}", "--arch=mlp:0"],
                     cli.EXIT_CONFIG, id="cifar10-mlp-width-0"),
        # A fixed net's input shape and loss are checked before the files too.
        pytest.param(["train", "--dataset=cifar10", "--data_dir={missing}", "--arch=lenet"],
                     cli.EXIT_CONFIG, id="cifar10-lenet"),
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--arch=cifar-quick"],
                     cli.EXIT_CONFIG, id="mnist-cifar-quick"),
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--arch=lenet",
                      "--loss=squared-error"], cli.EXIT_CONFIG, id="lenet-squared-error"),
        pytest.param(["train", "--dataset=cifar10", "--data_dir={missing}", "--arch=cifar-quick",
                      "--loss=squared-error"], cli.EXIT_CONFIG, id="cifar-quick-squared-error"),
        # A removed flag is refused as unrecognized, whatever its value.
        pytest.param(["gradcheck", "--samples", "-1"], cli.EXIT_CONFIG, id="gradcheck-samples-neg"),
        pytest.param(["gradcheck", "--samples", "0"], cli.EXIT_CONFIG, id="gradcheck-samples-0"),
        pytest.param(["gradcheck", "--batch", "0"], cli.EXIT_CONFIG, id="gradcheck-batch-0"),
        pytest.param(["gradcheck", "--batch", "-1"], cli.EXIT_CONFIG, id="gradcheck-batch-neg"),
        pytest.param(["gradcheck", "--seeds", "0"], cli.EXIT_CONFIG, id="gradcheck-seeds-0"),
        pytest.param(["gradcheck", "--mlp-classes", "0"], cli.EXIT_CONFIG,
                     id="gradcheck-mlp-classes-0"),
        # Every arch is checked before the first arch runs.
        pytest.param(["gradcheck", "--archs", "mlp:4,bogus"], cli.EXIT_CONFIG,
                     id="gradcheck-archs-bogus"),
        pytest.param(["gradcheck", "--tol", "nan", "--archs", "mlp:4"], cli.EXIT_CONFIG,
                     id="gradcheck-tol-nan"),
        pytest.param(["gradcheck", "--tol", "-1", "--archs", "mlp:4"], cli.EXIT_CONFIG,
                     id="gradcheck-tol-neg"),
        pytest.param(["gradcheck", "--tol", "inf", "--archs", "mlp:4"], cli.EXIT_CONFIG,
                     id="gradcheck-tol-inf"),
        # batch_size is checked with the config, before the files are looked for.
        pytest.param(["train", "--dataset=mnist", "--data_dir={missing}", "--batch_size=0"],
                     cli.EXIT_CONFIG, id="mnist-batch-0"),
        pytest.param(["train", "--eval_batch_size=-3"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="eval-batch-neg"),
        pytest.param(["train", "--eval_batch_size=0"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="eval-batch-0"),
        pytest.param(["train"] + BLOBS_ARGS + ["--blobs.n=0"], cli.EXIT_CONFIG, id="blobs-n-0"),
        pytest.param(["train"] + BLOBS_ARGS + ["--blobs.test_n=0"], cli.EXIT_CONFIG,
                     id="blobs-test-n-0"),
        pytest.param(["train"] + BLOBS_ARGS + ["--blobs.classes=0"], cli.EXIT_CONFIG,
                     id="blobs-classes-0"),
        pytest.param(["train", "--blobs.separation=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="blobs-separation-inf"),
        pytest.param(["train", "--schedule.t0=nan"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="schedule-t0-nan"),
        pytest.param(["bench", "--radius", "-1"], cli.EXIT_CONFIG, id="bench-radius-neg"),
        pytest.param(["bench", "--radius", "nan"], cli.EXIT_CONFIG, id="bench-radius-nan"),
        pytest.param(["bench", "--radius", "inf"], cli.EXIT_CONFIG, id="bench-radius-inf"),
        pytest.param(["bench", "--starts", "2"], cli.EXIT_CONFIG, id="bench-start-outside"),
        # The first start is fine: no row of it may be printed either.
        pytest.param(["bench", "--starts", "0.5,inf"], cli.EXIT_CONFIG, id="bench-start-inf"),
        pytest.param(["bench", "--max-iter", "0"], cli.EXIT_CONFIG, id="bench-max-iter-0"),
        pytest.param(["bench", "--max-iter", "-5"], cli.EXIT_CONFIG, id="bench-max-iter-neg"),
        pytest.param(["train", "--seed", "-1"] + BLOBS_ARGS, cli.EXIT_CONFIG, id="train-seed-neg"),
        pytest.param(["train", "--seed", "abc"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="train-seed-not-int"),
        # One case per removed flag with a value it once took: still refused.
        pytest.param(["train", "--seed", "0"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="train-seed-removed"),
        pytest.param(["bench", "--radius", "1.0", "--starts", "1e-2", "--lrs", "0.1"],
                     cli.EXIT_CONFIG, id="bench-radius-removed"),
        pytest.param(["gradcheck", "--batch", "2", "--archs", "mlp:4", "--seeds", "1"],
                     cli.EXIT_CONFIG, id="gradcheck-batch-removed"),
        pytest.param(["gradcheck", "--samples", "25", "--archs", "mlp:4", "--seeds", "1"],
                     cli.EXIT_CONFIG, id="gradcheck-samples-removed"),
        pytest.param(["gradcheck", "--tol", "1", "--archs", "mlp:4", "--seeds", "1"],
                     cli.EXIT_CONFIG, id="gradcheck-tol-removed"),
        pytest.param(["gradcheck", "--mlp-dim", "12", "--archs", "mlp:4", "--seeds", "1"],
                     cli.EXIT_CONFIG, id="gradcheck-mlp-dim-removed"),
        pytest.param(["gradcheck", "--mlp-classes", "4", "--archs", "mlp:4", "--seeds", "1"],
                     cli.EXIT_CONFIG, id="gradcheck-mlp-classes-removed"),
        # argparse's own errors end in one line too, not usage plus error.
        pytest.param(["bench", "--max-iter", "abc"], cli.EXIT_CONFIG, id="bench-max-iter-not-int"),
        pytest.param(["gradcheck", "--tol", "abc"], cli.EXIT_CONFIG, id="gradcheck-tol-not-float"),
        # opt.mu is checked whatever opt.kind is.
        pytest.param(["train", "--opt.mu=nan"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-mu-nan-sgd"),
        pytest.param(["table", "--processes", "abc", "--seeds=1,2"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="table-processes-not-int"),
        pytest.param(["train", "--seeds=-1"] + BLOBS_ARGS, cli.EXIT_CONFIG, id="seeds-neg"),
        pytest.param(["train", "--seeds=18446744073709551616"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="seeds-2-64"),
        pytest.param(["train", "--blobs.seed=-1"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="blobs-seed-neg"),
        # The test split is keyed blobs.seed + 0x7E57, which must fit too.
        pytest.param(["train", "--blobs.seed=18446744073709551615"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="blobs-seed-top"),
        pytest.param(["train", "--schedule.t0=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="schedule-t0-inf"),
        # inf * 0 would make the first inverse-time rate NaN.
        pytest.param(["train", "--schedule.kind=inverse-time", "--schedule.gamma=inf"]
                     + BLOBS_ARGS, cli.EXIT_CONFIG, id="schedule-gamma-inf"),
        pytest.param(["train", "--schedule.kind=step-decay", "--schedule.milestones=1",
                      "--schedule.factor=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="schedule-factor-inf"),
        # The rate would be 0 after step 0.
        pytest.param(["train", "--schedule.kind=inverse-time", "--schedule.gamma=1",
                      "--schedule.p=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG, id="schedule-p-inf"),
        # A milestone below 0 would drop the rate from step 0, as 0 does.
        pytest.param(["train", "--schedule.kind=step-decay", "--schedule.milestones=-5"]
                     + BLOBS_ARGS, cli.EXIT_CONFIG, id="schedule-milestone-neg"),
        # A comma would split the label across two CSV columns.
        pytest.param(["table", "--processes", "1", "--seeds=1,2", "--variant=a,b"]
                     + BLOBS_ARGS, cli.EXIT_CONFIG, id="variant-comma"),
        pytest.param(["table", "--processes", "1", "--seeds=1,2", '--variant=a"b'] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="variant-quote"),
        pytest.param(["table", "--processes", "1", "--seeds=1,2", "--variant=a\nb"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="variant-newline"),
        # Rejected before any worker starts; serial runs need --processes 1.
        pytest.param(["table", "--processes", "0", "--seeds=1,2"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="table-processes-0"),
        pytest.param(["table", "--processes", "-3", "--seeds=1,2"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="table-processes-neg"),
        # The first SGD step overflows to inf: an abort, not a numpy warning.
        pytest.param(["bench", "--landscape", "monkey-saddle", "--lrs", "1e308",
                      "--starts", "0.9", "--optimizers", "sgd"], cli.EXIT_NUMERIC,
                     id="bench-overflow"),
        # A schedule whose rate overflows aborts at that iteration: the power
        # overflows in the first two, t0 * factor in the third.
        pytest.param(["train", "--schedule.kind=inverse-time", "--schedule.gamma=1",
                      "--schedule.p=1000"] + BLOBS_ARGS, cli.EXIT_NUMERIC,
                     id="schedule-inverse-time-overflow"),
        pytest.param(["train", "--schedule.kind=step-decay", "--schedule.milestones=1,2",
                      "--schedule.factor=1e300"] + BLOBS_ARGS, cli.EXIT_NUMERIC,
                     id="schedule-step-decay-overflow"),
        pytest.param(["train", "--schedule.kind=step-decay", "--schedule.milestones=1",
                      "--schedule.factor=1e300", "--schedule.t0=1e10"] + BLOBS_ARGS,
                     cli.EXIT_NUMERIC, id="schedule-rate-inf"),
        # The one step overflows the weights: the checkpoint's outputs are not
        # finite, and no error rate is made of them.
        pytest.param(["train", "--schedule.t0=1.7e308"] + BLOBS_ARGS + ["--max_iterations=1"],
                     cli.EXIT_NUMERIC, id="last-step-overflows-weights"),
        # The first weight matrix would take 568 PiB, more than a 57-bit
        # address space holds, so numpy's MemoryError comes at once.
        pytest.param(["train", "--dataset=blobs", "--arch=mlp:10000000000000000",
                      "--max_iterations=1"], cli.EXIT_CONFIG, id="mlp-width-unallocatable"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_argument_is_one_line_config_error(self, argv, code, tmp_path, capsys):
        argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
        # gradcheck writes no file and would reject --out itself.
        if argv[0] != "gradcheck" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        prefix = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_DATA: "data error: ",
                  cli.EXIT_NUMERIC: "numeric error: "}[code]
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if argv[0] == "gradcheck":
            assert argv[1] in err
        if any(a.startswith(f"--{key}=") for a in argv for key in REMOVED_KEYS):
            assert "unknown config key" in err
        removed = [a for a in argv if a in REMOVED_FLAGS]
        if removed:
            assert "unrecognized argument" in err and removed[0] in err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "missing").exists()


    @pytest.mark.parametrize("empty", ["train", "t10k"])
    def test_mnist_split_with_no_items_is_one_line_data_error(self, empty, tmp_path, capsys):
        root = tmp_path / "mnist"
        root.mkdir()
        for split in ("train", "t10k"):
            n = 0 if split == empty else 8
            (root / f"{split}-images-idx3-ubyte").write_bytes(
                struct.pack(">IIII", 0x803, n, 28, 28) + bytes(n * 28 * 28))
            (root / f"{split}-labels-idx1-ubyte").write_bytes(
                struct.pack(">II", 0x801, n) + bytes(n))
        out = tmp_path / "r.csv"
        argv = ["train", "--dataset=mnist", f"--data_dir={tmp_path}", "--arch=mlp:8",
                "--batch_size=4", "--max_iterations=2", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{empty}-images-idx3-ubyte: no pixels" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_mnist_header_over_the_file_is_one_line_data_error(self, tmp_path, capsys):
        root = tmp_path / "mnist"
        root.mkdir()
        for split in ("train", "t10k"):
            (root / f"{split}-images-idx3-ubyte").write_bytes(
                struct.pack(">IIII", 0x803, *(3 * [2 ** 32 - 1])) + bytes(28 * 28))
            (root / f"{split}-labels-idx1-ubyte").write_bytes(
                struct.pack(">II", 0x801, 1) + bytes(1))
        out = tmp_path / "r.csv"
        argv = ["train", "--dataset=mnist", f"--data_dir={tmp_path}", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "train-images-idx3-ubyte: expected" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dataset, arch", [("mnist", "mlp:8"), ("cifar10", "cifar-quick")])
    def test_unreadable_split_is_one_line_data_error(self, dataset, arch, tmp_path, capsys):
        # The first file read is a truncated .gz (MNIST) or a directory
        # (CIFAR-10); the other files only need to exist.
        if dataset == "mnist":
            paths = list(harness.mnist_paths(str(tmp_path)).values())
        else:
            paths = sum(harness.cifar10_paths(str(tmp_path)).values(), [])
        for path in paths:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            open(path, "wb").close()
        target = paths[0]
        if dataset == "mnist":
            with gzip.open(target, "wb") as f:
                f.write(struct.pack(">IIII", 0x803, 4, 28, 28) + bytes(4 * 28 * 28))
            with open(target, "r+b") as f:
                f.truncate(30)
        else:
            os.remove(target)
            os.mkdir(target)
        out = tmp_path / "r.csv"
        argv = ["train", f"--dataset={dataset}", f"--arch={arch}", f"--data_dir={tmp_path}",
                "--max_iterations=1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"data error: {target}: cannot read: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluation_abort_names_its_checkpoint(self, tmp_path, capsys):
        # The one step overflows the weights; evaluation meets the outputs.
        out = tmp_path / "r.csv"
        argv = ["train", "--schedule.t0=1.7e308"] + BLOBS_ARGS + [
            "--max_iterations=1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numeric error: run aborted at checkpoint 1: "
                               "non-finite network output in evaluation;")
        assert not out.exists()

    @pytest.mark.parametrize("key, argv", [
        ("blobs.n", ["--blobs.n=7", "--blobs.classes=3"]),
        ("blobs.test_n", ["--blobs.test_n=7", "--blobs.classes=3"]),
        ("blobs.test_n", ["--blobs.test_n=0"]),
    ])
    def test_blobs_size_error_names_its_key(self, key, argv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["train"] + BLOBS_ARGS + argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: generating {key}=")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["table", "--processes", "1"]])
    def test_unwritable_out_fails_before_training(self, command, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        out = tmp_path / "missing" / "r.csv"
        argv = command + ["--out", str(out), "--seeds=0,1"] + BLOBS_ARGS
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write CSV to ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["train"], ["table", "--processes", "1"]])
    def test_directory_at_the_part_name_fails_before_training(self, command, tmp_path, capsys,
                                                              monkeypatch):
        # write_csv writes r.csv.part first: a directory there is refused
        # before the run, not after it.
        monkeypatch.setattr(harness, "run_experiment", _no_run)
        (tmp_path / "r.csv.part").mkdir()
        out = tmp_path / "r.csv"
        assert cli.main(command + ["--out", str(out), "--seeds=0,1"] + BLOBS_ARGS) == cli.EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"data error: cannot write CSV to {out}: ")
        assert "r.csv.part" in line
        assert not out.exists()


def _cifar_archive(root, members):
    """Write root/cifar-10-binary.tar.gz holding `members`: (name, bytes)
    pairs, or TarInfo objects for links."""
    with tarfile.open(root / "cifar-10-binary.tar.gz", "w:gz") as tar:
        for member in members:
            if isinstance(member, tarfile.TarInfo):
                tar.addfile(member)
            else:
                name, data = member
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))


def _symlink(name, target, kind=tarfile.SYMTYPE):
    info = tarfile.TarInfo(name)
    info.type, info.linkname = kind, target
    return info


class TestFetchCifar:
    # An existing archive skips the download. Members are checked with and
    # without Python's "data" extraction filter (added in 3.10.12/3.11.4).
    @pytest.fixture(autouse=True, params=["data-filter", "no-filter"])
    def no_download(self, request, monkeypatch):
        def refuse(url, dest):
            raise AssertionError(f"download attempted: {url}")

        monkeypatch.setattr(cli, "_download", refuse)
        if request.param == "no-filter" and hasattr(tarfile, "data_filter"):
            monkeypatch.delattr(tarfile, "data_filter")

    def test_existing_archive_is_extracted(self, tmp_path):
        _cifar_archive(tmp_path, [("cifar-10-batches-bin/test_batch.bin", b"\x03" * 3073)])
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(tmp_path)]) == 0
        assert (tmp_path / "cifar-10-batches-bin" / "test_batch.bin").read_bytes() == \
            b"\x03" * 3073

    def test_corrupt_archive_is_data_error(self, tmp_path, capsys):
        (tmp_path / "cifar-10-binary.tar.gz").write_bytes(b"not a gzip stream")
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(tmp_path)]) == \
            cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: cannot extract ")

    def test_truncated_archive_is_data_error_saying_to_delete_it(self, tmp_path, capsys):
        _cifar_archive(tmp_path, [("cifar-10-batches-bin/test_batch.bin", os.urandom(3073))])
        archive = tmp_path / "cifar-10-binary.tar.gz"
        archive.write_bytes(archive.read_bytes()[:1000])
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(tmp_path)]) == \
            cli.EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"data error: cannot extract {archive}: ")
        assert line.endswith("delete it and run fetch-data again")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cifar-10-binary.tar.gz"]

    @pytest.mark.parametrize("member", [
        pytest.param(("../escaped.bin", b"x"), id="dotdot"),
        pytest.param(("cifar-10-batches-bin/../../escaped.bin", b"x"), id="inner-dotdot"),
        pytest.param(("{outside}/escaped.bin", b"x"), id="absolute"),
        pytest.param(_symlink("cifar-10-batches-bin/link", "{outside}/escaped.bin"),
                     id="symlink-out"),
    ])
    def test_member_outside_root_is_data_error(self, member, tmp_path, capsys):
        root = tmp_path / "root"
        root.mkdir()
        outside = str(tmp_path)
        if isinstance(member, tarfile.TarInfo):
            member.linkname = member.linkname.replace("{outside}", outside)
        else:
            member = (member[0].replace("{outside}", outside), member[1])
        _cifar_archive(root, [("cifar-10-batches-bin/data_batch_1.bin", b"ok"), member])
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(root)]) == \
            cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert err.count("\n") == 1
        # Every member is checked before any is extracted.
        assert sorted(p.name for p in root.iterdir()) == ["cifar-10-binary.tar.gz"]
        assert not (tmp_path / "escaped.bin").exists()

    # A link is refused wherever it points: one to itself, or a hard link
    # to no member, made tarfile recurse or raise KeyError. A file that
    # cannot be written where an earlier member put a directory is a data
    # error too, not an IsADirectoryError, and the members written before it
    # are removed with it. So is an archive without the batches directory.
    @pytest.mark.parametrize("members, message", [
        pytest.param([_symlink("cifar-10-batches-bin/a", "a")], "is not a plain file",
                     id="symlink-to-itself"),
        pytest.param([_symlink("cifar-10-batches-bin/a", "../cifar-10-batches-bin")],
                     "is not a plain file", id="symlink-inside"),
        pytest.param([_symlink("a", "missing", tarfile.LNKTYPE)], "is not a plain file",
                     id="hardlink-to-none"),
        pytest.param([(".", b"x")], "cannot extract", id="file-named-dot"),
        pytest.param([("cifar-10-batches-bin/a/b", b"x"), ("cifar-10-batches-bin/a", b"y")],
                     "cannot extract", id="file-over-directory"),
        pytest.param([("cifar-10-batches-bin/data_batch_1.bin", b"ok"),
                      ("cifar-10-batches-bin/a/b", b"x"), ("cifar-10-batches-bin/a", b"y")],
                     "cannot extract", id="half-done"),
        pytest.param([("data_batch_1.bin", b"ok")], "holds no cifar-10-batches-bin directory",
                     id="no-batches-directory"),
    ])
    def test_member_that_cannot_be_extracted_is_data_error(self, members, message, tmp_path,
                                                           capsys):
        _cifar_archive(tmp_path, members)
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(tmp_path)]) == \
            cli.EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and message in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cifar-10-binary.tar.gz"]

    def test_extraction_replaces_an_earlier_directory(self, tmp_path):
        (tmp_path / "cifar-10-batches-bin").mkdir()
        (tmp_path / "cifar-10-batches-bin" / "stale.bin").write_bytes(b"old")
        _cifar_archive(tmp_path, [("cifar-10-batches-bin/test_batch.bin", b"\x03" * 3073)])
        assert cli.main(["fetch-data", "--dataset", "cifar10", "--root", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cifar-10-batches-bin", "cifar-10-binary.tar.gz"]
        assert [p.name for p in (tmp_path / "cifar-10-batches-bin").iterdir()] == \
            ["test_batch.bin"]


@st.composite
def _archive_bytes(draw):
    """A cifar-10-binary.tar.gz: most often a gzipped tar of a few members
    (files, directories, links; names inside the root, or with `..`), whole
    or cut short; else arbitrary bytes, or any bytes gzipped."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=64))
    if kind == 1:
        return gzip.compress(draw(st.binary(max_size=600)))
    names = st.sampled_from(["cifar-10-batches-bin", "cifar-10-batches-bin/test_batch.bin",
                             "cifar-10-batches-bin/a", "a", "a/b", "../x", "a/../../x", "."])
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for _ in range(draw(st.integers(0, 3))):
            info = tarfile.TarInfo(draw(names))
            info.type = draw(st.sampled_from([tarfile.REGTYPE] * 3 + [
                tarfile.DIRTYPE, tarfile.SYMTYPE, tarfile.LNKTYPE, tarfile.FIFOTYPE]))
            if info.type in (tarfile.SYMTYPE, tarfile.LNKTYPE):
                info.linkname = draw(st.sampled_from(["a", "cifar-10-batches-bin", "..", "../x"]))
            data = draw(st.binary(max_size=40)) if info.type == tarfile.REGTYPE else b""
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    archive = gzip.compress(buf.getvalue())
    if draw(st.integers(0, 4)) == 0:
        archive = archive[:draw(st.integers(0, len(archive)))]
    return archive


@pytest.mark.parametrize("data_filter", [True, False], ids=["data-filter", "no-filter"])
@given(archive=_archive_bytes())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_existing_cifar_archive_exits_cleanly(data_filter, archive, monkeypatch):
    """Whatever bytes an existing cifar-10-binary.tar.gz holds, fetch-data
    exits 0 or 3 with at most one stderr line, downloads nothing and writes
    nothing outside its root."""
    def refuse(url, dest):
        raise AssertionError(f"download attempted: {url}")

    monkeypatch.setattr(cli, "_download", refuse)
    if not data_filter and hasattr(tarfile, "data_filter"):
        monkeypatch.delattr(tarfile, "data_filter")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        root = os.path.join(tmp, "root")
        os.mkdir(root)
        with open(os.path.join(root, "cifar-10-binary.tar.gz"), "wb") as f:
            f.write(archive)
        code = cli.main(["fetch-data", "--dataset", "cifar10", "--root", root])
        assert os.listdir(tmp) == ["root"]
    assert code in (cli.EXIT_OK, cli.EXIT_DATA)
    assert err.getvalue().count("\n") == (code != cli.EXIT_OK)


class TestFetchMnist:
    """fetch-data --dataset mnist against a fake urlopen: no network."""

    @pytest.fixture
    def urlopen(self, monkeypatch):
        """Record each requested URL; serve b"ok", or fail mid-read while
        `broken` is set."""
        import urllib.request

        fake = types.SimpleNamespace(urls=[], broken=False)

        class Response(io.BytesIO):
            def read(self, *args):
                if fake.broken:
                    raise ConnectionResetError("connection reset mid-transfer")
                return super().read(*args)

        def opened(url, timeout=None):
            fake.urls.append(url)
            return Response(b"ok")

        monkeypatch.setattr(urllib.request, "urlopen", opened)
        return fake

    def _fetch(self, root):
        return cli.main(["fetch-data", "--dataset", "mnist", "--root", str(root)])

    def test_interrupted_download_leaves_no_file_and_is_fetched_again(
            self, tmp_path, urlopen, capsys):
        urlopen.broken = True
        assert self._fetch(tmp_path) == cli.EXIT_DATA
        assert list((tmp_path / "mnist").iterdir()) == []
        first = urlopen.urls[0]
        assert first.endswith("/train-images-idx3-ubyte.gz")
        assert len(urlopen.urls) == len(cli.MNIST_MIRRORS)

        urlopen.broken, urlopen.urls[:] = False, []
        capsys.readouterr()
        assert self._fetch(tmp_path) == cli.EXIT_OK
        assert urlopen.urls[0] == first
        assert "already have" not in capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "mnist").iterdir()) == sorted(
            os.path.basename(p) for p in harness.mnist_paths(str(tmp_path)).values())
        assert (tmp_path / "mnist" / "train-images-idx3-ubyte.gz").read_bytes() == b"ok"

    def test_directory_in_place_of_the_part_file_is_a_data_error(self, tmp_path, urlopen,
                                                                  capsys):
        # Each mirror's failure is one "failed:" line, then the error.
        (tmp_path / "mnist" / "train-images-idx3-ubyte.gz.part").mkdir(parents=True)
        assert self._fetch(tmp_path) == cli.EXIT_DATA
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("data error: could not download train-images-idx3-ubyte.gz")
        assert (tmp_path / "mnist" / "train-images-idx3-ubyte.gz.part").is_dir()

    def test_a_plain_file_present_is_not_fetched(self, tmp_path, urlopen):
        (tmp_path / "mnist").mkdir()
        (tmp_path / "mnist" / "train-images-idx3-ubyte").write_bytes(b"plain")
        assert self._fetch(tmp_path) == cli.EXIT_OK
        assert [url.rsplit("/", 1)[1] for url in urlopen.urls] == [
            "train-labels-idx1-ubyte.gz", "t10k-images-idx3-ubyte.gz",
            "t10k-labels-idx1-ubyte.gz"]
        assert all(url.startswith(cli.MNIST_MIRRORS[0]) for url in urlopen.urls)


class TestSubcommands:
    def test_table_writes_summary_csv(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = cli.main(["table", "--out", str(out), "--processes", "1",
                         "--seeds=0,1"] + BLOBS_ARGS)
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,iteration,mean,std,n"
        assert lines[1].startswith("sgd,20,")
        assert lines[1].endswith(",2")

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "dataset = blobs\nblobs.n = 120\nblobs.test_n = 60\nblobs.classes = 3\n"
            "blobs.dim = 6\narch = mlp:8\nbatch_size = 24\nmax_iterations = 10\n"
            "seeds = 0,1\nopt.kind = sgd\n"
        )
        out = tmp_path / "s.csv"
        code = cli.main(["table", "--config", str(cfg), "--out", str(out),
                         "--processes", "1", "--opt.layerwise=true"])
        assert code == cli.EXIT_OK
        assert out.read_text().splitlines()[1].startswith("ours-sgd,10,")

    def test_override_makes_the_files_checkpoints_valid(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max_iterations = 5\ncheckpoints = 10,20\n")
        out = tmp_path / "r.csv"
        code = cli.main(["train", "--config", str(cfg), "--dataset=blobs",
                         "--max_iterations=20", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == \
            [["0", "10"], ["0", "20"]]

    def test_override_makes_the_files_arch_valid(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("arch = lenet\n")
        (tmp_path / "empty").mkdir()
        code = cli.main(["train", "--config", str(cfg), "--dataset=mnist",
                         f"--data_dir={tmp_path / 'empty'}", "--out", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_DATA
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: MNIST files not found: ")
        assert "train-images-idx3-ubyte" in line

    def test_train_seed_overrides_the_files_seeds(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seeds = 1,1\n")
        out = tmp_path / "r.csv"
        code = cli.main(["train", "--config", str(cfg), "--seeds=3", "--out", str(out)]
                        + BLOBS_ARGS)
        assert code == cli.EXIT_OK
        assert out.read_text().splitlines()[1].startswith("3,20,")

    def test_bench_grid_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--starts", "1e-2", "--lrs", "0.1",
                         "--max-iter", "10000", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "landscape,optimizer,start,lr,escape_iterations"
        assert len(lines) == 3  # sgd and ours-sgd
        plain = int(lines[1].split(",")[-1])
        ours = int(lines[2].split(",")[-1])
        assert ours <= plain

    def test_bench_divergence_names_its_cell(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--lrs", "1e308", "--optimizers", "ours-sgd",
                         "--max-iter", "5", "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numeric error: optimizer ours-sgd, lr 1e+308, start 0.1: "
                               "quadratic-saddle trial diverged: non-finite effective rate "
                               "in layer 0 at iteration 0;")
        assert line.count("iteration") == 1
        assert not out.exists()

    def test_bench_abort_prints_the_failing_steps_norm_row(self, tmp_path, capsys):
        # Layer 0 sits at x = 0: its norm is 0.0, and 1e308 times the
        # multiplier 1 + ln(1 + 1e12) overflows before any update.
        code = cli.main(["bench", "--starts", "1e-3", "--lrs", "1e308", "--optimizers",
                         "ours-sgd", "--max-iter", "5", "--out", str(tmp_path / "bench.csv")])
        assert code == cli.EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("; last per-layer gradient norms: [(0, 0.0)]")

    def test_bench_overflowed_iterate_names_one_iteration(self, tmp_path, capsys):
        # The first step's product overflows: the gradient was finite, the
        # iterate is not.
        code = cli.main(["bench", "--landscape", "monkey-saddle", "--lrs", "1e308",
                         "--starts", "0.9", "--optimizers", "sgd",
                         "--out", str(tmp_path / "bench.csv")])
        assert code == cli.EXIT_NUMERIC
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numeric error: optimizer sgd, lr 1e+308, start 0.9: "
                               "monkey-saddle trial diverged at iteration 0;")
        assert line.count("iteration") == 1

    @pytest.mark.parametrize("args", [[], ["--schedule.t0=1e300", "--opt.layerwise=true"]],
                             ids=["small-loss", "loss-3.8e298"])
    def test_train_prints_the_loss_the_csv_holds(self, args, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = ["train", "--dataset=blobs", "--max_iterations=5", "--out", str(out)] + args
        assert cli.main(argv) == cli.EXIT_OK
        printed = capsys.readouterr().out.splitlines()[0].split()
        csv_loss = out.read_text().splitlines()[1].split(",")[2]
        assert printed[printed.index("train_loss") + 1] == csv_loss

    def test_removed_key_in_a_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dataset = blobs\nopt.weight_decay = 0.0\n")
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: line 2: unknown config key 'opt.weight_decay'\n")

    @pytest.mark.parametrize("command", ["train", "table"])
    def test_out_in_a_config_file_is_an_unknown_key(self, command, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("out = s.csv\n")
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: line 1: unknown config key 'out'\n"
        assert not (tmp_path / "r.csv").exists()

    def test_gradcheck_with_no_checked_coordinate_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradient_check",
                            lambda *args, **kwargs: GradCheckResult(0.0, 0, 5, None))
        code = cli.main(["gradcheck", "--archs", "mlp:6", "--seeds", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "over 0 coordinates" in capsys.readouterr().out

    def test_gradcheck_passes_on_small_mlp(self, capsys):
        code = cli.main(["gradcheck", "--archs", "mlp:6", "--seeds", "1"])
        assert code == cli.EXIT_OK
        assert "ok" in capsys.readouterr().out


# One lenet value_grad at batch 64 on fixed inputs, printed as a sha256 of
# the gradient bytes; with an --out path as argument, cli.main first runs
# one bench cell, which pins OpenBLAS to one thread.
GRADIENT_HASH = """
import hashlib, sys
import numpy as np
from layerlr import cli, rng
from layerlr.nn import FIXED_INPUTS, network_from_spec
if len(sys.argv) > 1:
    argv = ["bench", "--starts", "1e-3", "--lrs", "0.1", "--optimizers", "sgd"]
    assert cli.main(argv + ["--out", sys.argv[1]]) == 0
net = network_from_spec("lenet", FIXED_INPUTS["lenet"], 10, seed=0)
gen = rng.generator(0, 0xB1A5)
x = gen.standard_normal((64,) + net.input_shape)
y = gen.integers(0, 10, size=64)
digest = hashlib.sha256()
for layer in net.value_grad(x, y)[1]:
    for g in layer:
        digest.update(np.ascontiguousarray(g).tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def _hashes(self, tmp_path, runs):
        """The gradient hash of each (OPENBLAS_NUM_THREADS, pinned) run, the
        runs started together."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        procs = []
        for i, (threads, pinned) in enumerate(runs):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
            args = [str(tmp_path / f"bench{i}.csv")] if pinned else []
            procs.append(subprocess.Popen([sys.executable, "-c", GRADIENT_HASH] + args, env=env,
                                          stdout=subprocess.PIPE, text=True))
        outs = [proc.communicate(timeout=60)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * len(procs)
        return [out.splitlines()[-1] for out in outs]

    def test_pinned_gradients_do_not_depend_on_the_thread_count(self, tmp_path):
        if not harness.pin_one_blas_thread():
            pytest.skip("numpy's OpenBLAS thread setter not found")
        one, two, pinned = self._hashes(tmp_path, [(1, False), (2, False), (2, True)])
        assert pinned == one
        # OpenBLAS runs a second thread, and so rounds another way, only on
        # a machine with 2 or more CPUs: only there can this discriminate.
        if (os.cpu_count() or 1) >= 2:
            assert two != one

    def test_no_blas_setter_is_one_warning_line(self, tmp_path, monkeypatch, capsys):
        # As if numpy bundled no OpenBLAS: nn loads it once, at import.
        monkeypatch.setattr(nn, "_OPENBLAS", [])
        argv = ["train", "--dataset=blobs", "--max_iterations=5", "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: ")
        assert "thread count" in line


def _mostly(good, bad):
    """Nine draws in ten from `good`, else from `bad`."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def _comma_list(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


# Values for the bench options: valid ones, extreme ones among them, and
# malformed ones.
BAD_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0", "1e400", "-inf", "nan", "0x10", "abc", "", " ", "1,", "--1"]),
)
OPTIMIZERS = ["sgd", "momentum", "nag", "adagrad",
              "ours-sgd", "ours-momentum", "ours-nag", "ours-adagrad"]


@given(landscape=_mostly(st.sampled_from(sorted(LANDSCAPE_KINDS)),
                         st.sampled_from(["deep-linear-chain", "", "QUADRATIC-SADDLE"])),
       starts=_comma_list(_mostly(st.floats(0.0, 1.0).map(repr), BAD_NUMBERS)),
       lrs=_comma_list(_mostly(st.floats(5e-324, 1e308).map(repr), BAD_NUMBERS)),
       max_iter=_mostly(st.integers(1, 200).map(str),
                        st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["1.5", ""]))),
       optimizers=_comma_list(_mostly(st.sampled_from(OPTIMIZERS),
                                      st.sampled_from(["ours-", "ours-ours-sgd", "SGD", ""]))))
@settings(max_examples=150, deadline=None)
def test_bench_fuzz_exits_cleanly(landscape, starts, lrs, max_iter, optimizers):
    """Whatever bench is given, it exits 0, 2, 3 or 4, writes at most one line
    to stderr and lets no exception or numpy warning out."""
    argv = ["bench", f"--landscape={landscape}", f"--starts={starts}", f"--lrs={lrs}",
            f"--max-iter={max_iter}", f"--optimizers={optimizers}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv + ["--out", os.path.join(tmp, "bench.csv")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert err.getvalue().count("\n") == (code != cli.EXIT_OK)
    assert [str(w.message) for w in seen] == []


def _pick(good, bad):
    return _mostly(st.sampled_from(good), st.sampled_from(bad))


def _ints(lo, hi):
    """Integers in [lo, hi] as text, and malformed ones: sizes stay small
    enough that no example allocates more than a few MB."""
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(["1.5", "", "abc", "1e3", "0x10"]))


def _floats(lo=0.0):
    """Finite floats from `lo` up, extreme ones among them, then any float
    and malformed numbers."""
    good = st.one_of(st.floats(1e-3, 10.0), st.floats(lo, 1e308),
                     st.sampled_from([1e308, 1.7976931348623157e308, 1e300, 5e-324]))
    return _mostly(good.map(repr), st.one_of(st.floats().map(repr), BAD_NUMBERS))


def _int_list(lo, hi):
    return _mostly(st.lists(st.integers(lo, hi).map(str), max_size=3).map(",".join),
                   st.sampled_from(["1,,2", "a,b", "1.0", "-", "0x1"]))


# Every config key with a grammar of valid, extreme and malformed values.
# `{tmp}` is a fresh empty directory per example; nothing in it is data.
CONFIG_VALUES = {
    "dataset": _pick(["blobs"], ["mnist", "cifar10", "svhn", ""]),
    "data_dir": st.sampled_from(["{tmp}", "{tmp}/missing", "{tmp}/o.csv"]),
    "blobs.n": _ints(-2, 240),
    "blobs.test_n": _ints(-2, 120),
    "blobs.classes": _ints(-1, 6),
    "blobs.dim": _ints(-1, 16),
    "blobs.separation": _floats(-1e308),
    "blobs.seed": _mostly(st.integers(0, 2 ** 64 - 0x7E58).map(str),
                          st.sampled_from(["-1", str(2 ** 64 - 0x7E57), str(2 ** 64), "x"])),
    "arch": _pick(["mlp:", "mlp:4", "mlp:8-4", "mlp"],
                  ["mlp:0", "mlp:-3", "mlp:abc", "lenet", "cifar-quick", "bogus", ""]),
    "arch.activation": _pick(["", "relu", "tanh", "sigmoid"], ["gelu", "RELU"]),
    "loss": _pick(["softmax-cross-entropy", "squared-error"], ["hinge", ""]),
    "opt.kind": _pick(["sgd", "momentum", "nag", "adagrad"], ["adam", ""]),
    "opt.layerwise": _pick(["true", "false", "1", "off"], ["maybe", ""]),
    "opt.mu": _mostly(st.floats(0.0, 1.0).map(repr), st.one_of(st.floats().map(repr), BAD_NUMBERS)),
    "schedule.kind": _pick(["constant", "inverse-time", "step-decay"], ["cosine", ""]),
    "schedule.t0": _floats(),
    "schedule.gamma": _floats(),
    "schedule.p": _floats(),
    "schedule.milestones": _int_list(-3, 12),
    "schedule.factor": _floats(),
    "batch_size": _ints(-2, 64),
    "max_iterations": _ints(-1, 12),
    "checkpoints": _int_list(-1, 13),
    "eval_batch_size": _ints(-2, 64),
    "seeds": _mostly(_int_list(0, 5), st.sampled_from(["-1", "1,1", str(2 ** 64)])),
    "variant": _pick(["", "v", "x y"], ["a,b", 'a"b', "a\nb"]),
}
# A small blobs run, so that most examples train.
FUZZ_BASE = ["--dataset=blobs", "--blobs.n=48", "--blobs.test_n=24", "--blobs.classes=3",
             "--blobs.dim=4", "--arch=mlp:4", "--batch_size=8", "--max_iterations=6",
             "--data_dir={tmp}/missing"]
GRADCHECK_FLAGS = {
    "--archs": _comma_list(_mostly(st.sampled_from(["mlp:", "mlp:3", "mlp:4-3"]),
                                   st.sampled_from(["lenet", "cifar-quick", "bogus", "mlp:0", ""]))),
    "--seeds": _ints(-1, 2),
}


@st.composite
def _run_argv(draw):
    command = draw(st.sampled_from(["train", "table", "gradcheck"]))
    if command == "gradcheck":
        flags = draw(st.lists(st.sampled_from(sorted(GRADCHECK_FLAGS)), unique=True))
        return ["gradcheck", "--archs=mlp:3", "--seeds=1"] + [
            f"{flag}={draw(GRADCHECK_FLAGS[flag])}" for flag in flags]
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=5))
    argv = [command, "--out={tmp}/o.csv"] + FUZZ_BASE
    if command == "table":
        argv += ["--processes=1", "--seeds=0,1"]
    return argv + [f"--{key}={draw(CONFIG_VALUES[key])}" for key in keys]


@given(argv=_run_argv())
# The same draw on every run, so the test's time is the same on every run.
@settings(max_examples=300, deadline=None, derandomize=True)
def test_train_table_gradcheck_fuzz_exits_cleanly(argv):
    """Whatever train, table or gradcheck is given, it exits 0, 2, 3 or 4,
    writes at most one line to stderr (besides one ABORTED line per failed
    seed of a table that completes) and lets no exception or numpy warning
    out."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([a.replace("{tmp}", tmp) for a in argv])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    lines = [line for line in err.getvalue().splitlines()
             if not (code == cli.EXIT_OK and line.startswith("ABORTED "))]
    assert len(lines) <= 1
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)] == []

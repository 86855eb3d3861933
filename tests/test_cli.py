import contextlib
import io
import os
import struct
import tarfile
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr import cli, harness
from layerlr.landscapes import LANDSCAPE_KINDS
from layerlr.nn import GradCheckResult

BLOBS_ARGS = [
    "--dataset=blobs", "--blobs.n=120", "--blobs.test_n=60", "--blobs.classes=3",
    "--blobs.dim=6", "--arch=mlp:8", "--batch_size=24", "--max_iterations=20",
]
# Config keys that were deleted; setting one is an unknown-key error.
REMOVED_KEYS = ("opt.bias_separate", "opt.epsilon_norm", "opt.epsilon_div", "report")


class TestExitCodes:
    def test_train_success(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = cli.main(["train", "--out", str(out), "--seed", "0"] + BLOBS_ARGS)
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
        assert "--seed" in capsys.readouterr().out

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
        # the epsilon floors, now constants, and the report metric, which
        # follows from the dataset.
        pytest.param(["train", "--opt.bias_separate=true"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-bias-separate"),
        pytest.param(["train", "--opt.epsilon_norm=1e-8"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-epsilon-norm"),
        pytest.param(["train", "--opt.epsilon_div=1e-8"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="opt-epsilon-div"),
        pytest.param(["train", "--report=accuracy"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="report"),
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
        pytest.param(["gradcheck", "--samples", "-1"], cli.EXIT_CONFIG, id="gradcheck-samples-neg"),
        pytest.param(["gradcheck", "--samples", "0"], cli.EXIT_CONFIG, id="gradcheck-samples-0"),
        pytest.param(["gradcheck", "--batch", "0"], cli.EXIT_CONFIG, id="gradcheck-batch-0"),
        pytest.param(["gradcheck", "--batch", "-1"], cli.EXIT_CONFIG, id="gradcheck-batch-neg"),
        pytest.param(["gradcheck", "--seeds", "0"], cli.EXIT_CONFIG, id="gradcheck-seeds-0"),
        pytest.param(["gradcheck", "--mlp-classes", "0"], cli.EXIT_CONFIG,
                     id="gradcheck-mlp-classes-0"),
        # Every arch and the tolerance are checked before the first arch runs.
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
        # argparse's own errors end in one line too, not usage plus error.
        pytest.param(["train", "--seed", "abc"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="train-seed-not-int"),
        pytest.param(["bench", "--max-iter", "abc"], cli.EXIT_CONFIG, id="bench-max-iter-not-int"),
        pytest.param(["gradcheck", "--tol", "abc"], cli.EXIT_CONFIG, id="gradcheck-tol-not-float"),
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
        pytest.param(["train", "--opt.weight_decay=nan"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="weight-decay-nan"),
        pytest.param(["train", "--opt.weight_decay=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="weight-decay-inf"),
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
        def no_run(*args):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "missing" / "r.csv"
        argv = command + ["--out", str(out), "--seeds=0,1"] + BLOBS_ARGS
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write CSV to ")
        assert err.count("\n") == 1


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


def _symlink(name, target):
    info = tarfile.TarInfo(name)
    info.type, info.linkname = tarfile.SYMTYPE, target
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

    def test_gradcheck_with_no_checked_coordinate_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradient_check",
                            lambda *args, **kwargs: GradCheckResult(0.0, 0, 5, None))
        code = cli.main(["gradcheck", "--archs", "mlp:6", "--seeds", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "over 0 coordinates" in capsys.readouterr().out

    def test_gradcheck_passes_on_small_mlp(self, capsys):
        code = cli.main(["gradcheck", "--archs", "mlp:6", "--seeds", "1",
                         "--samples", "5", "--batch", "2"])
        assert code == cli.EXIT_OK
        assert "ok" in capsys.readouterr().out


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
       radius=_mostly(st.floats(1e-3, 1e300).map(repr), BAD_NUMBERS),
       max_iter=_mostly(st.integers(1, 200).map(str),
                        st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["1.5", ""]))),
       optimizers=_comma_list(_mostly(st.sampled_from(OPTIMIZERS),
                                      st.sampled_from(["ours-", "ours-ours-sgd", "SGD", ""]))))
@settings(max_examples=150, deadline=None)
def test_bench_fuzz_exits_cleanly(landscape, starts, lrs, radius, max_iter, optimizers):
    """Whatever bench is given, it exits 0, 2, 3 or 4, writes at most one line
    to stderr and lets no exception or numpy warning out."""
    argv = ["bench", f"--landscape={landscape}", f"--starts={starts}", f"--lrs={lrs}",
            f"--radius={radius}", f"--max-iter={max_iter}", f"--optimizers={optimizers}"]
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
    "opt.weight_decay": _floats(),
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
    # argparse reads --out=... as the subcommand's own --out.
    "out": _pick(["{tmp}/o.csv"], ["{tmp}/missing/o.csv", "{tmp}"]),
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
    "--batch": _ints(-1, 3),
    "--samples": _ints(-1, 3),
    "--tol": _mostly(st.floats(1e-12, 1.0).map(repr), BAD_NUMBERS),
    "--mlp-dim": _ints(-1, 8),
    "--mlp-classes": _ints(-1, 5),
}


@st.composite
def _run_argv(draw):
    command = draw(st.sampled_from(["train", "table", "gradcheck"]))
    if command == "gradcheck":
        flags = draw(st.lists(st.sampled_from(sorted(GRADCHECK_FLAGS)), unique=True, max_size=4))
        return ["gradcheck", "--archs=mlp:3", "--seeds=1", "--batch=2", "--samples=3"] + [
            f"{flag}={draw(GRADCHECK_FLAGS[flag])}" for flag in flags]
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=5))
    argv = [command, "--out={tmp}/o.csv"] + FUZZ_BASE
    if command == "table":
        argv += ["--processes=1", "--seeds=0,1"]
    return argv + [f"--{key}={draw(CONFIG_VALUES[key])}" for key in keys]


@given(argv=_run_argv())
@settings(max_examples=300, deadline=None)
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

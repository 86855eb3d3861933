import io
import tarfile

import pytest

from layerlr import cli, harness
from layerlr.nn import GradCheckResult

BLOBS_ARGS = [
    "--dataset=blobs", "--blobs.n=120", "--blobs.test_n=60", "--blobs.classes=3",
    "--blobs.dim=6", "--arch=mlp:8", "--batch_size=24", "--max_iterations=20",
]


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

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

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
        pytest.param(["bench", "--landscape", "deep-linear-chain"], cli.EXIT_CONFIG,
                     id="argv3"),
        pytest.param(["train", "--out", "{missing}/r.csv"] + BLOBS_ARGS, cli.EXIT_DATA,
                     id="train-out-unwritable"),
        pytest.param(["bench", "--starts", "1e-2", "--lrs", "0.1", "--max-iter", "100",
                      "--out", "{missing}/b.csv"], cli.EXIT_DATA, id="bench-out-unwritable"),
        pytest.param(["train", "--arch=mlp:abc"], cli.EXIT_CONFIG, id="mlp-width-not-int"),
        pytest.param(["gradcheck", "--samples", "-1"], cli.EXIT_CONFIG, id="gradcheck-samples-neg"),
        pytest.param(["gradcheck", "--samples", "0"], cli.EXIT_CONFIG, id="gradcheck-samples-0"),
        pytest.param(["gradcheck", "--batch", "0"], cli.EXIT_CONFIG, id="gradcheck-batch-0"),
        pytest.param(["gradcheck", "--batch", "-1"], cli.EXIT_CONFIG, id="gradcheck-batch-neg"),
        pytest.param(["gradcheck", "--seeds", "0"], cli.EXIT_CONFIG, id="gradcheck-seeds-0"),
        pytest.param(["gradcheck", "--mlp-classes", "0"], cli.EXIT_CONFIG,
                     id="gradcheck-mlp-classes-0"),
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
        pytest.param(["train", "--seeds=-1"] + BLOBS_ARGS, cli.EXIT_CONFIG, id="seeds-neg"),
        pytest.param(["train", "--seeds=18446744073709551616"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="seeds-2-64"),
        pytest.param(["train", "--blobs.seed=-1"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="blobs-seed-neg"),
        # The test split is keyed blobs.seed + 0x7E57, which must fit too.
        pytest.param(["train", "--blobs.seed=18446744073709551615"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="blobs-seed-top"),
        pytest.param(["train", "--opt.epsilon_norm=nan"] + BLOBS_ARGS, cli.EXIT_CONFIG,
                     id="epsilon-norm-nan"),
        pytest.param(["train", "--opt.kind=adagrad", "--opt.epsilon_div=nan"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="adagrad-epsilon-div-nan"),
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
        # Every multiplier would be 1: layer-wise rates silently off.
        pytest.param(["train", "--opt.epsilon_norm=inf", "--opt.layerwise=true"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="epsilon-norm-inf"),
        # The rate would be 0 after step 0.
        pytest.param(["train", "--schedule.kind=inverse-time", "--schedule.gamma=1",
                      "--schedule.p=inf"] + BLOBS_ARGS, cli.EXIT_CONFIG, id="schedule-p-inf"),
        pytest.param(["train", "--opt.kind=adagrad", "--opt.epsilon_div=inf"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="adagrad-epsilon-div-inf"),
        # A comma would split the label across two CSV columns.
        pytest.param(["table", "--processes", "1", "--seeds=1,2", "--variant=a,b"]
                     + BLOBS_ARGS, cli.EXIT_CONFIG, id="variant-comma"),
        pytest.param(["table", "--processes", "1", "--seeds=1,2", '--variant=a"b'] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="variant-quote"),
        pytest.param(["table", "--processes", "1", "--seeds=1,2", "--variant=a\nb"] + BLOBS_ARGS,
                     cli.EXIT_CONFIG, id="variant-newline"),
        # The first SGD step overflows to inf: an abort, not a numpy warning.
        pytest.param(["bench", "--landscape", "monkey-saddle", "--lrs", "1e308",
                      "--starts", "0.9", "--optimizers", "sgd"], cli.EXIT_NUMERIC,
                     id="bench-overflow"),
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
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "missing").exists()


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

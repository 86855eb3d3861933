import pytest

from layerlr import cli

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
    ])
    def test_bad_argument_is_one_line_config_error(self, argv, code, tmp_path, capsys):
        argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        prefix = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_DATA: "data error: "}[code]
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "missing").exists()


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

    def test_gradcheck_passes_on_small_mlp(self, capsys):
        code = cli.main(["gradcheck", "--archs", "mlp:6", "--seeds", "1",
                         "--samples", "5", "--batch", "2"])
        assert code == cli.EXIT_OK
        assert "ok" in capsys.readouterr().out

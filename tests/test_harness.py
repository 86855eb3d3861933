import multiprocessing
import os
import pickle
import statistics
import struct
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from layerlr import harness
from layerlr.errors import ConfigError, NumericError
from layerlr.harness import (
    ExperimentConfig,
    MetricsRecord,
    SummaryRow,
    SummaryTable,
    apply_overrides,
    emit_csv,
    evaluate_error_percent,
    load_datasets,
    mean_std,
    parse_config_text,
    read_summary_csv,
    repeat_runs,
    run_experiment,
    summarize_records,
)
from layerlr.nn import Network

BLOBS_KW = dict(dataset="blobs", blobs_n=240, blobs_test_n=120, blobs_classes=4,
                blobs_dim=8, arch="mlp:16", batch_size=32)


def blobs_config(**overrides):
    kw = dict(BLOBS_KW)
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestConfigParsing:
    def test_file_format_with_comments(self):
        text = """
        # experiment description
        dataset = blobs
        blobs.n = 120          # inline comment
        opt.kind = adagrad
        opt.layerwise = true
        schedule.kind = step-decay
        schedule.milestones = 100, 200
        schedule.t0 = 0.05
        checkpoints = 10,20
        max_iterations = 20
        seeds = 1,2
        """
        cfg = parse_config_text(text)
        assert cfg.dataset == "blobs"
        assert cfg.blobs_n == 120
        assert cfg.opt_kind == "adagrad"
        assert cfg.opt_layerwise is True
        assert cfg.schedule_milestones == (100, 200)
        assert cfg.checkpoints == (10, 20)
        assert cfg.seeds == (1, 2)

    def test_every_default_round_trips_through_the_file_format(self):
        default = ExperimentConfig()
        lines = []
        for key, (attr, _) in harness._REGISTRY.items():
            value = getattr(default, attr)
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
        assert len(lines) == len(fields(ExperimentConfig))
        assert parse_config_text("\n".join(lines)) == default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("batch_size = sixty-four")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line")

    def test_overrides(self):
        cfg = blobs_config()
        out = apply_overrides(cfg, ["--opt.layerwise=true", "--schedule.t0=0.2", "--seeds=3,4"])
        assert out.opt_layerwise is True
        assert out.schedule_t0 == 0.2
        assert out.seeds == (3, 4)
        assert cfg.opt_layerwise is False  # original untouched

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(blobs_config(), ["--opt.beta=0.9"])

    def test_checkpoints_default_to_final_iteration(self):
        cfg = blobs_config(max_iterations=42)
        assert cfg.checkpoint_iterations == (42,)
        from dataclasses import replace
        assert replace(cfg, max_iterations=7).checkpoint_iterations == (7,)

    def test_checkpoint_bounds_validated(self):
        with pytest.raises(ConfigError, match="checkpoints"):
            blobs_config(max_iterations=10, checkpoints=(5, 11))

    def test_seeds_validated(self):
        with pytest.raises(ConfigError):
            blobs_config(seeds=())
        with pytest.raises(ConfigError):
            blobs_config(seeds=(1, 1))

    def test_variant_label_derivation(self):
        assert blobs_config(opt_kind="sgd").variant_label == "sgd"
        assert blobs_config(opt_kind="nag", opt_layerwise=True).variant_label == "ours-nag"
        assert blobs_config(variant="custom").variant_label == "custom"

    def test_report_metric_defaults(self):
        assert blobs_config().report_metric == "error"
        assert ExperimentConfig(dataset="cifar10").report_metric == "accuracy"
        assert blobs_config(report="accuracy").report_metric == "accuracy"

    def test_data_dir_from_environment(self, monkeypatch):
        monkeypatch.setenv(harness.DATA_DIR_ENV, "/tmp/datasets")
        assert ExperimentConfig().data_dir == "/tmp/datasets"

    def test_baseline_rate_warning(self):
        cfg = ExperimentConfig(arch="lenet", opt_layerwise=True, schedule_t0=0.01)
        with pytest.warns(UserWarning, match="baseline-tuned"):
            cfg.optimizer()

    def test_no_warning_for_adjusted_rate(self, recwarn):
        cfg = ExperimentConfig(arch="lenet", opt_layerwise=True, schedule_t0=0.006)
        cfg.optimizer()
        assert not [w for w in recwarn if "baseline" in str(w.message)]


class TestRunExperiment:
    def test_layerwise_sgd_descends_on_blobs(self):
        cfg = blobs_config(arch="mlp:16-8", opt_kind="sgd", opt_layerwise=True,
                           schedule_t0=0.05, max_iterations=500, checkpoints=(1, 500))
        records = run_experiment(cfg, seed=0)
        assert len(records) == 2
        assert records[-1].train_loss < records[0].train_loss

    def test_identical_config_and_seed_reproduce_bitwise(self):
        cfg = blobs_config(opt_kind="momentum", opt_layerwise=True,
                           schedule_t0=0.02, max_iterations=60, checkpoints=(20, 40, 60))
        a = run_experiment(cfg, seed=3)
        b = run_experiment(cfg, seed=3)
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.iteration == rb.iteration
            assert ra.train_loss == rb.train_loss          # bitwise
            assert ra.test_error_percent == rb.test_error_percent

    def test_iterations_strictly_increasing(self):
        cfg = blobs_config(max_iterations=30, checkpoints=(10, 20, 30))
        records = run_experiment(cfg, seed=1)
        iters = [r.iteration for r in records]
        assert iters == sorted(set(iters))

    def test_checkpoint_evaluation_is_pure(self):
        cfg = blobs_config(opt_kind="adagrad", max_iterations=25, schedule_t0=0.05)
        train, test = load_datasets(cfg)
        from layerlr.harness import build_network
        net = build_network(cfg, train, seed=0)
        opt = cfg.optimizer()
        from layerlr.data import BatchStream
        stream = BatchStream(train, cfg.batch_size, 0)
        params = net.parameters()
        for _ in range(10):
            x, y = stream.next_batch()
            loss, cache = net.forward(x, y)
            opt.step(params, net.backward(cache))
        before = pickle.dumps((net.parameters(), opt.state_arrays(), opt.k))
        evaluate_error_percent(net, test, cfg.eval_batch_size)
        after = pickle.dumps((net.parameters(), opt.state_arrays(), opt.k))
        assert before == after

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_run_attaches_gradient_norm_history(self):
        cfg = blobs_config(arch="mlp:", loss="squared-error",
                           schedule_t0=1e18, max_iterations=60)
        with pytest.raises(NumericError) as err:
            run_experiment(cfg, seed=0)
        assert err.value.layer_norms
        assert len(err.value.layer_norms) <= 10
        # Rows are the (key, norm) pairs of the steps' GroupStats.
        assert all([key for key, _ in row] == [(0,)] for row in err.value.layer_norms)

    def test_gradient_abort_ends_with_the_failing_steps_norms(self, monkeypatch):
        backward = Network.backward

        def nan_last_layer(net, cache):
            grads = backward(net, cache)
            grads[-1][0][0, 0] = np.nan
            return grads

        monkeypatch.setattr(Network, "backward", nan_last_layer)
        with pytest.raises(NumericError, match="iteration 0") as err:
            run_experiment(blobs_config(opt_layerwise=True), seed=0)
        # mlp:16 is Dense, ReLU, Dense: groups (0,) and (2,), and (2,) fails.
        [row] = err.value.layer_norms
        assert [key for key, _ in row] == [(0,), (2,)]
        assert np.isfinite(row[0][1]) and np.isnan(row[1][1])

    def test_run_experiment_takes_the_norms_the_optimizer_reports(self, monkeypatch):
        def refuse(tensors):
            raise AssertionError("the harness computed a gradient norm")

        monkeypatch.setattr(harness, "group_norm", refuse)
        cfg = blobs_config(opt_kind="nag", opt_layerwise=True, schedule_t0=0.005,
                           max_iterations=5)
        assert [r.iteration for r in run_experiment(cfg, seed=0)] == [5]

    def test_nag_uses_lookahead_path(self):
        cfg = blobs_config(opt_kind="nag", opt_mu=0.9, schedule_t0=0.02,
                           max_iterations=40, checkpoints=(40,))
        records = run_experiment(cfg, seed=2)
        assert records[0].test_error_percent <= 100.0


class TestSummaries:
    def test_mean_std_hand_case(self):
        mean, std = mean_std([2.0, 4.0])
        assert mean == 3.0
        assert std == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_single_value_std_zero(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_summarize_records_uses_sample_std(self):
        recs = [
            [MetricsRecord(0, 100, 1.0, 2.0, 0.0)],
            [MetricsRecord(1, 100, 1.0, 4.0, 0.0)],
        ]
        table = summarize_records("sgd", recs, metric="error")
        row = table.lookup("sgd", 100)
        assert (row.mean, row.n) == (3.0, 2)
        assert row.std == pytest.approx(statistics.stdev([2.0, 4.0]), rel=1e-15)

    def test_summarize_accuracy_metric(self):
        recs = [[MetricsRecord(0, 10, 1.0, 25.0, 0.0)]]
        table = summarize_records("sgd", recs, metric="accuracy")
        assert table.lookup("sgd", 10).mean == 75.0

    def test_repeat_runs_degenerate_case_has_zero_std(self):
        # Far-separated blobs: every seed reaches 0% error at the checkpoint.
        cfg = blobs_config(opt_kind="sgd", schedule_t0=0.1, max_iterations=300,
                           checkpoints=(300,), seeds=(0, 1, 2))
        table = repeat_runs(cfg, processes=1)
        row = table.lookup("sgd", 300)
        assert row.std == 0.0
        assert row.n == 3

    def test_repeat_runs_matches_independent_reducer(self):
        cfg = blobs_config(opt_kind="sgd", schedule_t0=0.01, max_iterations=40,
                           checkpoints=(20, 40), seeds=(0, 1, 2))
        table = repeat_runs(cfg, processes=1)
        per_seed = [run_experiment(cfg, s) for s in cfg.seeds]
        for iteration in (20, 40):
            values = [r.test_error_percent for records in per_seed
                      for r in records if r.iteration == iteration]
            row = table.lookup("sgd", iteration)
            assert row.mean == pytest.approx(statistics.mean(values), rel=1e-15)
            assert row.std == pytest.approx(statistics.stdev(values), rel=1e-12)
            assert row.n == 3

    def test_repeat_runs_requires_two_seeds(self):
        with pytest.raises(ConfigError):
            repeat_runs(blobs_config(seeds=(7,)), processes=1)

    def test_aborted_seed_is_flagged_and_summary_continues(self, monkeypatch):
        real = harness.run_experiment

        def flaky(cfg, seed):
            if seed == 1:
                raise NumericError("synthetic blow-up", iteration=5)
            return real(cfg, seed)

        monkeypatch.setattr(harness, "run_experiment", flaky)
        cfg = blobs_config(max_iterations=20, checkpoints=(20,), seeds=(0, 1, 2))
        table = repeat_runs(cfg, processes=1)
        assert table.lookup("sgd", 20).n == 2
        assert [(v, s) for v, s, _ in table.aborted] == [("sgd", 1)]

    def test_spawned_workers_get_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv(harness.BLAS_THREADS_ENV, "2")
        spawn = multiprocessing.get_context("spawn")
        with harness._one_blas_thread(), ProcessPoolExecutor(1, mp_context=spawn) as pool:
            assert pool.submit(os.getenv, harness.BLAS_THREADS_ENV).result() == "1"
        assert os.environ[harness.BLAS_THREADS_ENV] == "2"

    def test_all_aborted_raises(self, monkeypatch):
        def always_fail(cfg, seed):
            raise NumericError("boom")

        monkeypatch.setattr(harness, "run_experiment", always_fail)
        with pytest.raises(NumericError):
            repeat_runs(blobs_config(seeds=(0, 1)), processes=1)


class TestCsv:
    def table(self):
        rows = [
            SummaryRow("sgd", 200, 7.9012345, 0.4412345, 10),
            SummaryRow("ours-sgd", 200, 7.2512345, 0.4612345, 10),
            SummaryRow("sgd", 600, 3.29, 0.22, 10),
        ]
        return SummaryTable(rows=rows)

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SummaryTable(), str(path))
        assert path.read_text() == "variant,iteration,mean,std,n\n"

    def test_emission_is_stable_and_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.table(), str(path))
        first = path.read_bytes()
        emit_csv(self.table(), str(path))
        assert path.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[0] == "variant,iteration,mean,std,n"
        assert [l.split(",")[0] for l in lines[1:]] == ["ours-sgd", "sgd", "sgd"]
        assert first.endswith(b"\n")

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.table(), str(path))
        line = path.read_text().splitlines()[2]
        assert line == "sgd,200,7.90123,0.441234,10"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.table(), str(path))
        back = read_summary_csv(str(path))
        for row, orig in zip(back.sorted_rows(), self.table().sorted_rows()):
            assert row.variant == orig.variant
            assert row.iteration == orig.iteration
            assert row.mean == pytest.approx(orig.mean, rel=1e-5)
            assert row.std == pytest.approx(orig.std, rel=1e-5)
            assert row.n == orig.n
        # a second emission of the parsed table is byte-identical
        path2 = tmp_path / "t2.csv"
        emit_csv(back, str(path2))
        assert path2.read_bytes() == path.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n")
        from layerlr.errors import DataError
        with pytest.raises(DataError):
            read_summary_csv(str(path))


class TestMetricsRecord:
    def test_error_percent_range_enforced(self):
        with pytest.raises(ValueError):
            MetricsRecord(0, 1, 0.5, 101.0, 0.0)
        with pytest.raises(ValueError):
            MetricsRecord(0, 1, 0.5, -0.5, 0.0)


class TestDatasetsFromConfig:
    def test_blobs_train_test_are_disjoint_draws(self):
        train, test = load_datasets(blobs_config())
        assert train.split == "train" and test.split == "test"
        assert len(train) == 240 and len(test) == 120
        assert not np.array_equal(train.images[:120], test.images)

    def test_missing_mnist_raises_data_error(self, tmp_path):
        from layerlr.errors import DataError
        cfg = blobs_config()
        cfg = ExperimentConfig(dataset="mnist", data_dir=str(tmp_path))
        with pytest.raises(DataError, match="fetch-data"):
            load_datasets(cfg)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            load_datasets(ExperimentConfig(dataset="svhn"))

    @staticmethod
    def write_mnist(root, n_train, n_test):
        gen = np.random.default_rng(5)
        paths = harness.mnist_paths(str(root))
        os.makedirs(os.path.dirname(paths["train_images"]))
        for split, n in (("train", n_train), ("test", n_test)):
            with open(paths[f"{split}_images"].removesuffix(".gz"), "wb") as f:
                f.write(struct.pack(">IIII", 0x803, n, 28, 28))
                f.write(gen.integers(0, 256, n * 784, dtype=np.uint8).tobytes())
            with open(paths[f"{split}_labels"].removesuffix(".gz"), "wb") as f:
                f.write(struct.pack(">II", 0x801, n))
                f.write(gen.integers(0, 10, n, dtype=np.uint8).tobytes())

    @staticmethod
    def write_cifar10(root, n_per_file, n_test):
        gen = np.random.default_rng(6)
        paths = harness.cifar10_paths(str(root))
        os.makedirs(os.path.dirname(paths["test"][0]))
        for path in paths["train"] + paths["test"]:
            n = n_test if path in paths["test"] else n_per_file
            records = gen.integers(0, 256, (n, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            with open(path, "wb") as f:
                f.write(records.tobytes())

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_loaded_splits_hold_stored_bytes(self, dataset, tmp_path):
        if dataset == "mnist":
            self.write_mnist(tmp_path, 2000, 100)
        else:
            self.write_cifar10(tmp_path, 100, 20)
        cfg = ExperimentConfig(dataset=dataset, data_dir=str(tmp_path))
        tracemalloc.start()
        try:
            train, test = load_datasets(cfg)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for ds in (train, test):
            assert ds.pixels.dtype == np.uint8
            assert ds.pixels.nbytes == len(ds) * int(np.prod(ds.input_shape))
        # A whole-split float64 decode takes 8 bytes per pixel; the load
        # keeps 1 and at its peak held the file bytes and one copy.
        decoded = 8 * train.pixels.nbytes
        assert current < decoded / 4
        assert peak < decoded / 2

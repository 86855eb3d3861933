import ctypes
import glob
import multiprocessing
import os
import pickle
import re
import statistics
import struct
import tracemalloc
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlr import harness
from layerlr.data import BatchStream
from layerlr.errors import ConfigError, DataError, NumericError
from layerlr.harness import (
    ExperimentConfig,
    MetricsRecord,
    SummaryRow,
    SummaryTable,
    emit_csv,
    evaluate_error_percent,
    load_datasets,
    mean_std,
    parse_config_text,
    repeat_runs,
    run_experiment,
    summarize_records,
    train_steps,
)
from layerlr.nn import FIXED_INPUTS, Network
from layerlr.optim import Optimizer

def openblas_threads():
    """The thread count that numpy's bundled OpenBLAS reports in this
    process; module-level, so a spawned worker can run it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    (path,) = glob.glob(os.path.join(libs, "*openblas*.so*"))
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            return getattr(lib, symbol)()
    raise AssertionError(f"no OpenBLAS thread getter in {path}")


BLOBS_KW = dict(dataset="blobs", blobs_n=240, blobs_test_n=120, blobs_classes=4,
                blobs_dim=8, arch="mlp:16", batch_size=32)


def blobs_config(**overrides):
    kw = dict(BLOBS_KW)
    kw.update(overrides)
    return ExperimentConfig(**kw)


def rows_of(table):
    """A SummaryTable's rows keyed by (variant, iteration)."""
    return {(row.variant, row.iteration): row for row in table.rows}


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
        out = parse_config_text("opt.layerwise = false\nschedule.t0 = 0.1\nblobs.n = 120",
                                ["--opt.layerwise=true", "--schedule.t0=0.2", "--seeds=3,4"])
        assert out.opt_layerwise is True
        assert out.schedule_t0 == 0.2
        assert out.seeds == (3, 4)
        assert out.blobs_n == 120  # a line no override names stays

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="override '--opt.beta=0.9': unknown config key"):
            parse_config_text("", ["--opt.beta=0.9"])

    @pytest.mark.parametrize("line, override, attr, value", [
        ("checkpoints = 600", "--max_iterations=600", "checkpoint_iterations", (600,)),
        ("seeds = 1,1", "--seeds=2", "seeds", (2,))])
    def test_override_makes_the_files_value_valid(self, line, override, attr, value):
        assert getattr(parse_config_text(line, [override]), attr) == value

    # opt.mu is checked whatever opt.kind is, though only momentum and NAG read it.
    @pytest.mark.parametrize("kw", [dict(opt_kind="adam"), dict(opt_kind="momentum", opt_mu=2.0),
                                    dict(opt_kind="sgd", opt_mu=float("nan"))])
    def test_bad_optimizer_refused_at_construction(self, kw):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw)

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

    @pytest.mark.parametrize("arch, dataset, shape", [
        ("lenet", "cifar10", "(3, 32, 32)"), ("lenet", "blobs", "(1, 1, 8)"),
        ("cifar-quick", "mnist", "(1, 28, 28)")])
    def test_fixed_net_input_checked_against_dataset(self, arch, dataset, shape):
        message = f"dataset '{dataset}': architecture '{arch}' expects input {FIXED_INPUTS[arch]}, "
        with pytest.raises(ConfigError, match=re.escape(f"{message}got {shape}")):
            ExperimentConfig(dataset=dataset, arch=arch)

    @pytest.mark.parametrize("arch, dataset", [("lenet", "mnist"), ("cifar-quick", "cifar10")])
    def test_fixed_net_rejects_a_loss_it_would_ignore(self, arch, dataset):
        with pytest.raises(ConfigError, match="softmax-cross-entropy only"):
            ExperimentConfig(dataset=dataset, arch=arch, loss="squared-error")
        ExperimentConfig(dataset=dataset, arch=arch)

    def test_variant_label_derivation(self):
        assert blobs_config(opt_kind="sgd").variant_label == "sgd"
        assert blobs_config(opt_kind="nag", opt_layerwise=True).variant_label == "ours-nag"
        assert blobs_config(variant="custom").variant_label == "custom"

    def test_report_metric_defaults(self):
        assert blobs_config().report_metric == "error"
        assert ExperimentConfig(dataset="cifar10").report_metric == "accuracy"
        assert ExperimentConfig(dataset="mnist").report_metric == "error"

    def test_data_dir_from_environment(self, monkeypatch):
        monkeypatch.setenv(harness.DATA_DIR_ENV, "/tmp/datasets")
        assert ExperimentConfig().data_dir == "/tmp/datasets"

    def test_baseline_rate_warning(self):
        with pytest.warns(UserWarning, match="baseline-tuned"):
            ExperimentConfig(dataset="mnist", arch="lenet", opt_layerwise=True,
                             schedule_t0=0.01)

    def test_no_warning_for_adjusted_rate(self, recwarn):
        cfg = ExperimentConfig(dataset="mnist", arch="lenet", opt_layerwise=True,
                               schedule_t0=0.006)
        cfg.optimizer()
        assert not [w for w in recwarn if "baseline" in str(w.message)]


# Any config text with any overrides builds a config or is a ConfigError.
# Nine times in ten a line is a setting, its key a known one and its value
# that key's default; else any text.
def _mostly(good, bad):
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


_ODD_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0", "1", "-1", "0.5", "1e308", "1e400", "nan", "-inf", "true", "no",
                     "1,2", "1,,2", "2,1,2", str(2 ** 64), "9" * 5000, "mlp:4-2",
                     "mlp:" + "9" * 5000, "lenet", "cifar-quick", "mnist", "cifar10",
                     "momentum", "nag", "adagrad", "step-decay", "inverse-time", "sigmoid",
                     "squared-error", "a,b"]))


def _default_text(key):
    value = getattr(ExperimentConfig(), harness._REGISTRY[key][0])
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


_SETTING = _mostly(
    st.sampled_from(sorted(harness._REGISTRY)).flatmap(lambda key: st.tuples(
        st.just(key), _mostly(st.just(_default_text(key)), _ODD_VALUES))),
    st.tuples(st.text(max_size=8), _ODD_VALUES))


@given(lines=st.lists(_mostly(_SETTING.map("{0[0]} = {0[1]}".format), st.text(max_size=20)),
                      max_size=6),
       overrides=st.lists(_mostly(_SETTING.map("--{0[0]}={0[1]}".format),
                                  st.text(max_size=12)), max_size=3))
@settings(max_examples=150, deadline=None)
def test_any_config_text_is_a_config_or_a_config_error(lines, overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the baseline-rate warning
        try:
            cfg = parse_config_text("\n".join(lines), overrides)
        except ConfigError:
            return
    assert isinstance(cfg, ExperimentConfig)


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
        stream = BatchStream(train, cfg.batch_size, 0)
        for _ in train_steps(net, opt, stream, train.num_classes, 10):
            pass

        def state():
            accumulators = {key: slot[0] for key, slot in opt._slots.items()}
            return pickle.dumps((net.parameters(), accumulators, opt.k))
        before = state()
        evaluate_error_percent(net, test, cfg.eval_batch_size)
        after = state()
        assert before == after

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_run_attaches_gradient_norm_history(self):
        cfg = blobs_config(arch="mlp:", loss="squared-error",
                           schedule_t0=1e18, max_iterations=60)
        with pytest.raises(NumericError) as err:
            run_experiment(cfg, seed=0)
        # One row: the (li, norm) pairs of the stats of the last step.
        assert [li for li, _ in err.value.layer_norms] == [0]

    def test_gradient_abort_ends_with_the_failing_steps_norms(self, monkeypatch):
        backward = Network.backward

        def nan_last_layer(net, cache):
            grads = backward(net, cache)
            grads[-1][0][0, 0] = np.nan
            return grads

        monkeypatch.setattr(Network, "backward", nan_last_layer)
        with pytest.raises(NumericError, match="iteration 0") as err:
            run_experiment(blobs_config(opt_layerwise=True), seed=0)
        # mlp:16 is Dense, ReLU, Dense: layers 0 and 2 have parameters, and 2 fails.
        row = err.value.layer_norms
        assert [li for li, _ in row] == [0, 2]
        assert np.isfinite(row[0][1]) and np.isnan(row[1][1])

    @staticmethod
    def _record_rows(monkeypatch):
        """The (li, norm) row of every step Optimizer.step completes."""
        rows = []
        step = Optimizer.step

        def recording(opt, params, grads):
            stats = step(opt, params, grads)
            rows.append([s[:2] for s in stats])
            return stats
        monkeypatch.setattr(Optimizer, "step", recording)
        return rows

    @pytest.mark.parametrize("fails_at", [1, 4])
    def test_loss_abort_carries_the_last_completed_steps_row(self, fails_at, monkeypatch):
        rows = self._record_rows(monkeypatch)
        value_grad = Network.value_grad
        calls = []

        def failing(net, x, targets):
            calls.append(None)
            if len(calls) == fails_at:
                raise NumericError("non-finite loss nan in forward pass")
            return value_grad(net, x, targets)
        monkeypatch.setattr(Network, "value_grad", failing)
        with pytest.raises(NumericError, match=f"iteration {fails_at - 1}:") as err:
            run_experiment(blobs_config(opt_layerwise=True), seed=0)
        assert len(rows) == fails_at - 1
        assert err.value.layer_norms == (rows[-1] if rows else [])

    def test_rate_overflow_carries_the_last_completed_steps_row(self, monkeypatch):
        rows = self._record_rows(monkeypatch)
        # 3 ** 1000 overflows: t(2) raises, t(0) and t(1) are finite.
        cfg = blobs_config(schedule_kind="inverse-time", schedule_gamma=1.0, schedule_p=1000.0)
        with pytest.raises(NumericError, match="learning rate overflows at iteration 2") as err:
            run_experiment(cfg, seed=0)
        assert len(rows) == 2
        assert err.value.layer_norms == rows[-1]
        assert [li for li, _ in rows[-1]] == [0, 2]

    def test_evaluation_abort_carries_its_steps_row(self, monkeypatch):
        rows = self._record_rows(monkeypatch)

        def failing(*args):
            raise NumericError("non-finite network output in evaluation")
        monkeypatch.setattr(harness, "evaluate_error_percent", failing)
        with pytest.raises(NumericError, match="checkpoint 3:") as err:
            run_experiment(blobs_config(max_iterations=5, checkpoints=(3, 5)), seed=0)
        assert len(rows) == 3
        assert err.value.layer_norms == rows[-1]

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

    def test_a_steps_cache_is_dead_when_the_next_forward_starts(self, monkeypatch):
        forward = Network.forward
        caches = []

        def checked(net, x, targets):
            assert all(ref() is None for ref in caches)
            loss, cache = forward(net, x, targets)
            caches.append(weakref.ref(cache))
            return loss, cache

        monkeypatch.setattr(Network, "forward", checked)
        run_experiment(blobs_config(max_iterations=5, checkpoints=(2, 5)), seed=0)
        assert len(caches) == 5

    @pytest.mark.parametrize("kind", ["sgd", "nag"])
    def test_each_step_takes_its_batch_then_its_gradients_then_its_checkpoint(
            self, kind, monkeypatch):
        # The benchmark times a step from one next_batch call to the next and
        # leaves out the checkpoint's evaluation: a loop that fetched the
        # next batch before the evaluation would move it into another step.
        calls = []

        def spy(owner, name):
            method = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)
        for owner, name in ((BatchStream, "next_batch"), (Network, "value_grad"),
                            (Network, "forward"), (Network, "backward"),
                            (harness, "evaluate_error_percent")):
            spy(owner, name)
        run_experiment(blobs_config(opt_kind=kind, max_iterations=6, checkpoints=(2, 5, 6)),
                       seed=0)
        step = ["next_batch", "value_grad", "forward", "backward"]
        want = []
        for k in range(1, 7):
            want += step + ["evaluate_error_percent"] * (k in (2, 5, 6))
        assert calls == want


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
        row = rows_of(table)["sgd", 100]
        assert (row.mean, row.n) == (3.0, 2)
        assert row.std == pytest.approx(statistics.stdev([2.0, 4.0]), rel=1e-15)

    def test_summarize_accuracy_metric(self):
        recs = [[MetricsRecord(0, 10, 1.0, 25.0, 0.0)]]
        table = summarize_records("sgd", recs, metric="accuracy")
        assert rows_of(table)["sgd", 10].mean == 75.0

    def test_repeat_runs_degenerate_case_has_zero_std(self):
        # Far-separated blobs: every seed reaches 0% error at the checkpoint.
        cfg = blobs_config(opt_kind="sgd", schedule_t0=0.1, max_iterations=300,
                           checkpoints=(300,), seeds=(0, 1, 2))
        table = repeat_runs(cfg, processes=1)
        row = rows_of(table)["sgd", 300]
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
            row = rows_of(table)["sgd", iteration]
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
        assert rows_of(table)["sgd", 20].n == 2
        assert [(v, s) for v, s, _ in table.aborted] == [("sgd", 1)]

    def test_spawned_workers_get_one_blas_thread(self, monkeypatch):
        # The pool starts as repeat_runs starts it; the worker's numpy reads
        # 2 from the environment, then the initializer pins one thread.
        if not harness.pin_one_blas_thread():
            pytest.skip("numpy's OpenBLAS thread setter not found")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, spawn, initializer=harness.pin_one_blas_thread) as pool:
            assert pool.submit(openblas_threads).result() == 1

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

    def test_whole_text(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(self.table(), str(path))
        assert path.read_bytes() == (b"variant,iteration,mean,std,n\n"
                                     b"ours-sgd,200,7.25123,0.461234,10\n"
                                     b"sgd,200,7.90123,0.441234,10\n"
                                     b"sgd,600,3.29,0.22,10\n")

    # A write that fails part-way leaves no partial file under the final
    # name, keeps a file already there as it was, and leaves no .part file.
    @pytest.mark.parametrize("error, raised", [
        (OSError(28, "No space left on device"), DataError),
        (KeyboardInterrupt(), KeyboardInterrupt)], ids=["disk-full", "interrupt"])
    @pytest.mark.parametrize("before", [None, b"old\n"], ids=["no-file", "old-file"])
    def test_interrupted_write_leaves_no_partial_file(self, error, raised, before, tmp_path):
        path = tmp_path / "t.csv"
        if before is not None:
            path.write_bytes(before)

        def lines():
            yield "variant,iteration,mean,std,n"
            raise error

        with pytest.raises(raised):
            harness.write_csv(str(path), lines())
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.csv"])
        if before is not None:
            assert path.read_bytes() == before

    def test_directory_in_place_of_the_part_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        (tmp_path / "t.csv.part").mkdir()
        with pytest.raises(DataError, match="cannot write CSV to .*Is a directory"):
            harness.write_csv(str(path), ["variant,iteration,mean,std,n"])
        assert not path.exists() and (tmp_path / "t.csv.part").is_dir()


class TestMetricsRecord:
    def test_error_percent_range_enforced(self):
        with pytest.raises(ValueError):
            MetricsRecord(0, 1, 0.5, 101.0, 0.0)
        with pytest.raises(ValueError):
            MetricsRecord(0, 1, 0.5, -0.5, 0.0)


class TestDatasetsFromConfig:
    def test_blobs_train_test_are_disjoint_draws(self):
        train, test = load_datasets(blobs_config())
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

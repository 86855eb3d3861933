"""Acceptance suite: one test per release criterion.

Criteria 1-5 are self-contained and always run. Criteria 6 and 7 need the
real MNIST IDX files on disk (fetch once with
`layerlr fetch-data --dataset mnist`); they are skipped with a clear reason
when the files are absent. Criterion 8 (CIFAR-10 trend check) is an
extended, non-blocking run: it additionally requires
LAYERLR_RUN_EXTENDED=1 because of its multi-hour runtime. ImageNet-scale
results are out of scope by design and covered only by criteria 1-5.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest

from layerlr import harness, rng
from layerlr.data import BatchStream, synth_blobs
from layerlr.harness import ExperimentConfig, repeat_runs, run_experiment
from layerlr.landscapes import QuadraticSaddle, run_escape_trial
from layerlr.nn import build_cifar_quick, build_lenet, build_mlp, gradient_check
from layerlr.optim import SGD, AdaGrad, LrSchedule, Momentum, layer_multiplier, make_optimizer

# 50-digit evaluations of 1 + ln(1 + 1/n).
MULT_ORACLE = {
    1.0: 1.6931471805599453094,
    1e-6: 14.815511557963774104,
    1e12: 1.000000000001,
}


def on_disk(paths):
    """True if every file in a harness.mnist_paths or cifar10_paths layout
    exists under the default data directory."""
    files = [p for group in paths(harness.default_data_dir()).values()
             for p in ([group] if isinstance(group, str) else group)]
    return all(os.path.exists(p) for p in files)


RUN_EXTENDED = os.environ.get("LAYERLR_RUN_EXTENDED") == "1"
needs_mnist = pytest.mark.skipif(
    not on_disk(harness.mnist_paths),
    reason="MNIST IDX files not found under $LAYERLR_DATA_DIR (default ./data); "
    "run `layerlr fetch-data --dataset mnist` on a machine with network access",
)
needs_cifar_extended = pytest.mark.skipif(
    not (on_disk(harness.cifar10_paths) and RUN_EXTENDED),
    reason="extended multi-hour check: needs CIFAR-10 binaries plus "
    "LAYERLR_RUN_EXTENDED=1",
)


def report(criterion, started, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: PASS "
          f"({detail}; {time.perf_counter() - started:.1f}s)")


def test_criterion_1_multiplier_correctness():
    started = time.perf_counter()
    for norm, expected in MULT_ORACLE.items():
        assert abs(layer_multiplier(norm) - expected) < 1e-9
    norms = np.logspace(-8, 8, 17)
    values = [layer_multiplier(float(n)) for n in norms]
    assert all(a > b for a, b in zip(values, values[1:])), "not strictly decreasing"
    assert all(v > 1.0 for v in values)
    report(1, started, "3 oracle values to 1e-9, monotone over 17 norms")


def test_criterion_2_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    gen = rng.generator(2024, 0xACC2)
    # Convolutional architectures: sampled coordinates per parameter tensor.
    for build, shape in ((build_lenet, (1, 28, 28)), (build_cifar_quick, (3, 32, 32))):
        net = build(seed=0)
        x = gen.standard_normal((2,) + shape)
        y = gen.integers(0, 10, size=2)
        result = gradient_check(net, x, y, eps=1e-6,
                                samples_per_tensor=25, sample_gen=gen)
        assert result.max_rel_err < 1e-5, (build.__name__, result)
        worst = max(worst, result.max_rel_err)
    # Five random MLPs: every coordinate checked.
    for seed in range(5):
        g2 = rng.generator(seed, 0xACC3)
        widths = [int(g2.integers(4, 10)) for _ in range(int(g2.integers(1, 4)))]
        activation = ("relu", "tanh", "sigmoid")[seed % 3]
        dim = int(g2.integers(3, 7))
        classes = int(g2.integers(2, 6))
        net = build_mlp((dim,), widths, classes, activation=activation, seed=seed)
        x = g2.standard_normal((4, dim))
        y = g2.integers(0, classes, size=4)
        result = gradient_check(net, x, y, eps=1e-6)
        assert result.max_rel_err < 1e-5, (seed, result)
        worst = max(worst, result.max_rel_err)
    report(2, started, f"max relative error {worst:.2e} < 1e-5")


def _train_trajectory(opt, seed, steps=100):
    data = synth_blobs(11, 240, 4, 8)
    net = build_mlp((8,), [16, 8], 4, activation="tanh", seed=seed)
    stream = BatchStream(data, 32, seed)
    params = net.parameters()
    snapshots = []
    for _ in range(steps):
        x, y = stream.next_batch()
        x = x.reshape(x.shape[0], -1)

        def value_grad():
            loss, cache = net.forward(x, y)
            return loss, net.backward(cache)
        opt.descend(params, value_grad)
        snapshots.append([p.copy() for group in params for p in group])
    return snapshots


@pytest.mark.parametrize("kind", ["sgd", "momentum", "nag", "adagrad"])
def test_criterion_3_wrapper_identity(kind):
    started = time.perf_counter()
    schedule = LrSchedule(kind="inverse-time", t0=0.05, gamma=0.001, p=1.0)
    plain = make_optimizer(kind, schedule, layerwise=False)
    forced = make_optimizer(kind, schedule, layerwise=True)
    forced.multiplier_fn = lambda norm, eps: 1.0
    traj_a = _train_trajectory(plain, seed=4)
    traj_b = _train_trajectory(forced, seed=4)
    for step, (sa, sb) in enumerate(zip(traj_a, traj_b)):
        for pa, pb in zip(sa, sb):
            diff = float(np.max(np.abs(pa - pb)))
            assert diff <= 1e-12, f"{kind} diverged at step {step}: {diff}"
    report(3, started, f"{kind}: 100 steps within 1e-12 per element")


def test_criterion_4_momentum_closed_form():
    started = time.perf_counter()
    t, mu, g, x0 = 0.1, 0.9, 1.5, 0.7
    params = [[np.array([x0])]]
    opt = Momentum(t, mu=mu)
    for k in range(1, 51):
        opt.step(params, [[np.array([g])]])
        # geometric sum: x_k = x0 - t*g/(1-mu) * (k - mu*(1-mu^k)/(1-mu))
        expected = x0 - (t * g / (1 - mu)) * (k - mu * (1 - mu ** k) / (1 - mu))
        assert abs(params[0][0][0] - expected) < 1e-10, k
    report(4, started, "momentum geometric-sum law, 50 steps within 1e-10")


def test_criterion_4_adagrad_closed_form():
    started = time.perf_counter()
    t, g = 0.1, 2.0
    params = [[np.array([0.0])]]
    opt = AdaGrad(t)
    prev = 0.0
    for k in range(1, 51):
        opt.step(params, [[np.array([g])]])
        step = prev - params[0][0][0]
        prev = params[0][0][0]
        assert abs(step - t / math.sqrt(k)) < 1e-10, k
    cumulative = -t * sum(1.0 / math.sqrt(i) for i in range(1, 51))
    assert abs(params[0][0][0] - cumulative) < 1e-10
    report(4, started, "adagrad t/sqrt(k) step law, 50 steps within 1e-10")


def test_criterion_5_saddle_escape():
    started = time.perf_counter()
    saddle = QuadraticSaddle()
    strict_cells = 0
    for t in (0.1, 0.01):
        for y0 in (1e-1, 1e-2, 1e-3, 1e-4):
            plain = run_escape_trial(SGD(t), saddle, [0.0, y0], max_iter=10 ** 5)
            ours = run_escape_trial(SGD(t, layerwise=True), saddle, [0.0, y0],
                                    max_iter=10 ** 5)
            closed = math.ceil(math.log(1.0 / y0) / math.log1p(t))
            assert plain == closed, (t, y0, plain, closed)
            assert ours <= plain, (t, y0)
            if y0 <= 1e-3:
                assert ours < plain, (t, y0)
            if ours < plain:
                strict_cells += 1
    report(5, started, f"8/8 cells ordered, closed form exact, "
                       f"{strict_cells} strictly faster")


# ---------------------------------------------------------------------------
# MNIST experiments (criteria 6 and 7); need the real dataset on disk.

MNIST_COMMON = dict(
    dataset="mnist", arch="lenet", batch_size=64, eval_batch_size=64,
    max_iterations=1800, checkpoints=(200, 600, 1000, 1400, 1800),
    seeds=tuple(range(10)),
)


def _mnist_config(kind, layerwise):
    if kind == "sgd":
        sched = dict(schedule_kind="inverse-time", schedule_t0=0.01,
                     schedule_gamma=1e-4, schedule_p=0.75)
    else:
        sched = dict(schedule_kind="constant", schedule_t0=0.01)
    return ExperimentConfig(opt_kind=kind, opt_layerwise=layerwise,
                            **sched, **MNIST_COMMON)


def _means(table, variant):
    return {row.iteration: row.mean for row in table.rows if row.variant == variant}


@needs_mnist
def test_criterion_6_mnist_early_learning():
    started = time.perf_counter()
    tables = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # baseline-t0 notice
        for kind in ("sgd", "adagrad"):
            for layerwise in (False, True):
                cfg = _mnist_config(kind, layerwise)
                tables[cfg.variant_label] = repeat_runs(cfg)
    checkpoints = MNIST_COMMON["checkpoints"]
    sgd = _means(tables["sgd"], "sgd")
    ours_sgd = _means(tables["ours-sgd"], "ours-sgd")
    ada = _means(tables["adagrad"], "adagrad")
    ours_ada = _means(tables["ours-adagrad"], "ours-adagrad")
    sgd_wins = sum(ours_sgd[c] <= sgd[c] for c in checkpoints)
    ada_wins = sum(ours_ada[c] <= ada[c] for c in checkpoints)
    for c in checkpoints:
        print(f"  iter {c:>5}: sgd {sgd[c]:.2f} vs ours {ours_sgd[c]:.2f} | "
              f"adagrad {ada[c]:.2f} vs ours {ours_ada[c]:.2f}")
    assert sgd_wins >= 4, f"ours-sgd beat sgd at only {sgd_wins}/5 checkpoints"
    assert ada_wins >= 3, f"ours-adagrad beat adagrad at only {ada_wins}/5 checkpoints"
    assert 1.0 <= sgd[1800] <= 4.0, f"sgd error at 1800 = {sgd[1800]}"
    report(6, started, f"ordinal wins {sgd_wins}/5 (sgd), {ada_wins}/5 (adagrad); "
                       f"sgd@1800 = {sgd[1800]:.2f}%")


@needs_mnist
def test_criterion_7_mnist_asymptote():
    started = time.perf_counter()
    accuracies = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for layerwise in (False, True):
            cfg = ExperimentConfig(
                dataset="mnist", arch="lenet", batch_size=64, eval_batch_size=64,
                opt_kind="sgd", opt_layerwise=layerwise,
                schedule_kind="step-decay", schedule_t0=0.03,
                schedule_milestones=(6000, 8000), schedule_factor=0.1,
                max_iterations=10000, checkpoints=(10000,), seeds=(0,),
            )
            records = run_experiment(cfg, seed=0)
            accuracies[layerwise] = 100.0 - records[-1].test_error_percent
    for layerwise, acc in accuracies.items():
        label = "ours-sgd" if layerwise else "sgd"
        print(f"  {label}: {acc:.2f}% test accuracy after 10000 iterations")
        assert acc >= 98.5, f"{label} reached only {acc:.2f}%"
    report(7, started, f"sgd {accuracies[False]:.2f}%, ours-sgd {accuracies[True]:.2f}%")


@needs_cifar_extended
def test_criterion_8_cifar_trend_extended():
    started = time.perf_counter()
    means = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for layerwise in (False, True):
            cfg = ExperimentConfig(
                dataset="cifar10", arch="cifar-quick", batch_size=64,
                eval_batch_size=64, opt_kind="sgd", opt_layerwise=layerwise,
                schedule_kind="constant", schedule_t0=0.001,
                max_iterations=10000, checkpoints=(5000, 10000),
                seeds=(0, 1, 2),
            )
            table = repeat_runs(cfg)
            means[cfg.variant_label] = _means(table, cfg.variant_label)
    assert means["ours-sgd"][5000] >= means["sgd"][5000], means
    report(8, started, f"accuracy at 5000: ours {means['ours-sgd'][5000]:.2f} "
                       f">= sgd {means['sgd'][5000]:.2f}")

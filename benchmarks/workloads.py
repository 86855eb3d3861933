"""The four workloads: what each runs, how it is timed and how it is checked.

Training workloads call `harness.run_experiment(cfg, seed)` again and again
on synthetic files until the time is up; each call is one run. The saddle
grid calls `landscapes.run_escape_trial` for every cell of a fixed grid, in
an order drawn from the seed. One caller, closed loop: a call starts when
the previous one returns.

Every timing comes from spans (see `spans.py`). Untraced runs record only the
boundaries the end-to-end metrics need: for training, a span per step, per
calibration slice and per eval; for the saddle grid, one span per trial.
Traced runs add one span per layer call. Spans are digested and dropped
after every run or trial, so their memory does not grow with the run length.
"""

import math
import os
import resource
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import spans as sp
import synth
from layerlr import data as data_io
from layerlr import harness, landscapes, nn, optim
from layerlr.errors import NumericError
from layerlr.harness import ExperimentConfig

# Golden values (golden.json) were recorded on inputs from this seed.
REFERENCE_SEED = 0
# Final loss may move by reordered float sums; the test error by one image.
LOSS_RTOL = 1e-6
GRADCHECK_TOL = 1e-5  # acceptance criterion 2
GRADCHECK_IMAGES = 2
GRADCHECK_SAMPLES = 3
MAX_ESCAPE_ITER = 20000
# value_grad calls timed as one block before every saddle trial, at a fixed
# point: the saddle grid's eval_items_per_s.
VALUE_GRAD_BLOCK = 20
VALUE_GRAD_POINT = (0.5, 1e-3)

RUN = "harness.run_experiment"
NEXT_BATCH = "data.next_batch"
EVAL = "harness.evaluate_error_percent"
LOAD = "harness.load_datasets"
BUILD = "harness.build_network"
NET_FWD = "nn.Network.forward"
NET_BWD = "nn.Network.backward"
OPT_STEP = "optim.Optimizer.step"
LOOKAHEAD = "optim.NAG.at_lookahead"
GROUP_NORM = "tensor.group_norm"
TRIAL = "bench.trial"
CALIBRATE = "bench.calibrate"
VALUE_GRAD = "landscapes.value_grad"

MODULES = ("data", "nn", "optim", "tensor", "harness", "landscapes")

# On the development VM a CPU second was not a fixed amount of work: for
# seconds to minutes at a time every workload ran up to 2x slower, as when
# a core is shared with another tenant. So untraced runs time a fixed
# calibration mix in slices spread through the timed work, and end-to-end
# times are scaled by ref / (the run's mean slice time): they read as if a
# slice took `ref`. Training runs time `step_calibration_mix` before every
# `next_batch` call (ref STEP_CAL_REF_S): small GEMMs and elementwise passes,
# the kind of work their steps do, on arrays that stay in cache, so the
# footprint of the step before cannot move the slice. Saddle trials, whose
# steps are interpreter and ufunc dispatch work on one-element arrays, time
# `slice_calibration_s` before every trial (ref SLICE_REF_S). A 20 ms mix
# timed once per run or pass tracked step time far worse than slices spread
# through it. Neither mix calls library code or allocates arrays, so neither
# the library nor the allocator state a workload leaves behind can move the
# scale.
STEP_CAL_REF_S = 0.8e-3
SLICE_REF_S = 0.25e-3
_CAL_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_CAL_B = _CAL_A.T.copy()
_CAL_C = np.empty((64, 64))
_CAL_Z = np.linspace(0.0, 1.0, 4096)
_CAL_W = np.empty_like(_CAL_Z)
_SLICE_X = np.zeros(1)
_SLICE_Y = np.zeros(1)


@dataclass(frozen=True)
class Training:
    """A `run_experiment` workload on synthetic MNIST or CIFAR-10 files."""

    name: str
    dataset: str            # mnist | cifar10
    n_train: int            # a multiple of the batch size: every batch is full
    n_test: int
    settings: dict          # ExperimentConfig fields

    def write_data(self, data_dir, seed):
        if self.dataset == "mnist":
            synth.write_mnist_idx(data_dir, seed, self.n_train, self.n_test)
        else:
            synth.write_cifar10_bin(data_dir, seed, self.n_train // synth.CIFAR_BATCHES,
                                    self.n_test)

    def config(self, data_dir, seed):
        return ExperimentConfig(dataset=self.dataset, data_dir=data_dir,
                                seeds=(seed,), **self.settings)


@dataclass(frozen=True)
class SaddleGrid:
    """Escape trials over landscapes x optimizers x layerwise x starts x rates."""

    name: str
    cells: tuple            # (landscape kind, start y0, lr), optimizers crossed in
    optimizers: tuple = ("sgd", "momentum", "nag", "adagrad")

    def trials(self, seed):
        """Every (landscape, optimizer, layerwise, y0, lr), in seed order."""
        grid = [(land, opt, lw, y0, lr) for land, y0, lr in self.cells
                for opt in self.optimizers for lw in (False, True)]
        order = np.random.default_rng([int(seed), 0x5AD]).permutation(len(grid))
        return [grid[i] for i in order]


# The lenet and cifar-quick rates sit below harness.BASELINE_T0, which the
# harness warns about under layerwise=True.
WORKLOADS = {
    w.name: w for w in (
        Training("mlp-nag", "mnist", n_train=19200, n_test=2000, settings=dict(
            arch="mlp:500-300", arch_activation="tanh", opt_kind="nag",
            opt_layerwise=True, schedule_t0=0.01, batch_size=64,
            max_iterations=150, checkpoints=(50, 100, 150))),
        Training("lenet-sgd", "mnist", n_train=19200, n_test=1000, settings=dict(
            arch="lenet", opt_kind="sgd", opt_layerwise=True, schedule_t0=0.005,
            batch_size=64, max_iterations=30, checkpoints=(30,))),
        Training("cifar-quick-momentum", "cifar10", n_train=5120, n_test=256,
                 settings=dict(arch="cifar-quick", opt_kind="momentum",
                               opt_layerwise=True, schedule_t0=0.0005,
                               batch_size=64, max_iterations=8, checkpoints=(8,))),
        SaddleGrid("saddle-grid", cells=tuple(
            [("quadratic-saddle", y0, lr) for lr in (0.1, 0.01)
             for y0 in (1e-1, 1e-2, 1e-3, 1e-4)]
            + [("monkey-saddle", y0, lr) for lr in (0.1, 0.01) for y0 in (1e-1, 1e-2)])),
    )
}


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Tally:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def record_rows(records):
    return [[r.iteration, r.train_loss, r.test_error_percent] for r in records]


def check_finite(rows):
    return [f"iteration {it}: non-finite loss {loss!r}"
            for it, loss, _ in rows if not math.isfinite(loss)]


def check_training(rows, expected, n_test):
    """Problems with a run's [iteration, loss, error%] rows: a non-finite
    loss, or a departure from `expected` beyond LOSS_RTOL / one test image."""
    problems = check_finite(rows)
    if [r[0] for r in rows] != [r[0] for r in expected]:
        return problems + [f"checkpoints {[r[0] for r in rows]} != {[r[0] for r in expected]}"]
    for (it, loss, err), (_, want_loss, want_err) in zip(rows, expected):
        if not math.isclose(loss, want_loss, rel_tol=LOSS_RTOL, abs_tol=0.0):
            problems.append(f"iteration {it}: loss {loss!r} != {want_loss!r}")
        if abs(err - want_err) > 100.0 / n_test + 1e-9:
            problems.append(f"iteration {it}: test error {err!r}% != {want_err!r}%")
    return problems


def check_gradients(net, dataset):
    """Finite-difference spot check of a trained network (criterion 2)."""
    x = dataset.images[:GRADCHECK_IMAGES]
    y = dataset.labels[:GRADCHECK_IMAGES]
    result = nn.gradient_check(net, x, y, eps=1e-6, samples_per_tensor=GRADCHECK_SAMPLES,
                               sample_gen=np.random.default_rng(0xC0DE))
    if result.checked == 0 or not result.max_rel_err < GRADCHECK_TOL:
        return [f"gradient check failed: {result!r}"]
    return []


def check_escape(trial, iterations, expected):
    key = trial_key(trial)
    if key not in expected:
        return [f"{key}: no recorded escape count"]
    if iterations != expected[key]:
        return [f"{key}: {iterations} escape iterations != recorded {expected[key]}"]
    return []


def trial_key(trial):
    land, opt, lw, y0, lr = trial
    return f"{land},{'ours-' if lw else ''}{opt},y0={y0:g},lr={lr:g}"


# ---------------------------------------------------------------------------
# Probes: the spans each kind of run installs


def install_training_probes(recorder, patches, layer_patches, traced, nets):
    """Spans at the step and eval boundaries; `harness.build_network` also
    keeps each net it builds and, under tracing, wraps every layer's
    forward/backward on that net (undone by `layer_patches.restore()`)."""
    build = harness.build_network

    def capturing(cfg, train, seed):
        net = build(cfg, train, seed)
        nets.append(net)
        if traced:
            for i, layer in enumerate(net.layers):
                base = f"nn.{i}-{layer.kind}"
                layer_patches.wrap(recorder, layer, "forward", base + ".fwd")
                layer_patches.wrap(recorder, layer, "backward", base + ".bwd")
        return net

    patches.set(harness, "build_network", recorder.wrap(BUILD, capturing))
    next_batch = recorder.wrap(NEXT_BATCH, data_io.BatchStream.next_batch)
    if not traced:
        next_batch = calibrating(recorder, next_batch)
    patches.set(data_io.BatchStream, "next_batch", next_batch)
    patches.wrap(recorder, harness, "evaluate_error_percent", EVAL)
    if traced:
        install_optimizer_probes(recorder, patches)
        patches.wrap(recorder, harness, "load_datasets", LOAD)
        patches.wrap(recorder, harness, "group_norm", GROUP_NORM)
        patches.wrap(recorder, nn.Network, "forward", NET_FWD)
        patches.wrap(recorder, nn.Network, "backward", NET_BWD)


def calibrating(recorder, fn):
    """`fn` after one calibration slice, recorded as a CALIBRATE span."""
    def call(*args, **kwargs):
        with recorder.span(CALIBRATE):
            step_calibration_mix()
        return fn(*args, **kwargs)
    return call


def install_optimizer_probes(recorder, patches):
    patches.wrap(recorder, optim.Optimizer, "step", OPT_STEP)
    patches.wrap(recorder, optim, "group_norm", GROUP_NORM)
    patches.set(optim.NAG, "at_lookahead",
                recorder.wrap_context(LOOKAHEAD, optim.NAG.at_lookahead))


# ---------------------------------------------------------------------------
# Digesting spans


@dataclass
class Digest:
    """Running totals over the spans of every run (or trial) seen so far.

    A step runs from one `boundary` span's start to the next (the last step
    ends with the run), minus any eval inside it; before the first boundary
    is set-up. CALIBRATE spans count as neither: their durations go to
    `calibration_s`.
    """

    steps: int = 0
    step_ms: array = field(default_factory=lambda: array("d"))
    step_s: float = 0.0
    step_self_s: float = 0.0      # step time covered by no span below the run
    setup_s: list = field(default_factory=list)
    eval_s: float = 0.0
    eval_calls: int = 0
    by_name: dict = field(default_factory=dict)   # name -> [calls, total s, self s]
    setup_spans: dict = field(default_factory=dict)  # name -> [duration s per run]
    calibration_s: list = field(default_factory=list)  # calibration mix times
    # When set, one scale per step_ms and setup_s sample, from the
    # calibrations of the pass that sample comes from.
    sample_scale: list = field(default_factory=list)


def digest_run(digest, spans, boundary, eval_name=None):
    """Fold one run's spans into `digest`; span 0 is the run itself."""
    kids = sp.children(spans, 0)
    starts = [spans[i][sp.START] for i in kids if spans[i][sp.NAME] == boundary]
    if not starts:
        return
    run_start, run_end = spans[0][sp.START], spans[0][sp.END]
    setup_cal_s = sum(spans[i][sp.END] - spans[i][sp.START] for i in kids
                      if spans[i][sp.NAME] == CALIBRATE and spans[i][sp.START] < starts[0])
    digest.setup_s.append(starts[0] - run_start - setup_cal_s)
    edges = starts + [run_end]
    k = 0
    for a, b in zip(edges, edges[1:]):
        covered = left_out = 0.0
        while k < len(kids) and spans[kids[k]][sp.START] < b:
            name, s0, s1, _ = spans[kids[k]]
            if s0 >= a:
                covered += s1 - s0
                if name in (eval_name, CALIBRATE):
                    left_out += s1 - s0
            k += 1
        digest.step_ms.append(1000.0 * (b - a - left_out))
        digest.step_s += b - a - left_out
        digest.step_self_s += b - a - covered
    digest.steps += len(starts)

    # Spans are stored in start order, so a parent precedes its children.
    selfs = sp.self_times(spans)
    top = [0] * len(spans)       # the enclosing direct child of the run
    for i in range(1, len(spans)):
        name, s0, s1, parent = spans[i]
        top[i] = i if parent == 0 else top[parent]
        head = spans[top[i]]
        if name == CALIBRATE:
            digest.calibration_s.append(s1 - s0)
        elif head[sp.NAME] == eval_name:
            if top[i] == i:
                digest.eval_s += s1 - s0
                digest.eval_calls += 1
        elif head[sp.START] < starts[0]:
            if top[i] == i:
                digest.setup_spans.setdefault(name, []).append(s1 - s0)
        else:
            entry = digest.by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s1 - s0
            entry[2] += selfs[i]


# ---------------------------------------------------------------------------
# Timed phases


def training_run(w, cfg, seed, traced, tally, expected, digest):
    """One `run_experiment(cfg, seed)` call, folded into `digest`; returns
    the trained network. The run must reproduce `expected` rows exactly, or
    becomes `expected` when that is empty."""
    recorder, nets = sp.Recorder(), []
    problems = []
    with sp.Patches() as patches, sp.Patches() as layer_patches:
        install_training_probes(recorder, patches, layer_patches, traced, nets)
        try:
            with recorder.span(RUN):
                records = harness.run_experiment(cfg, seed)
        except NumericError as exc:
            problems.append(f"run raised: {exc}")
        else:
            rows = record_rows(records)
            problems += check_finite(rows)
            if not expected:
                expected.extend(rows)
            elif rows != expected:
                problems.append(f"run differs from the first run of seed {seed}: "
                                f"{rows} != {expected}")
            digest_run(digest, recorder.spans, NEXT_BATCH, EVAL)
    tally.record(problems)
    return nets[-1] if nets else None


def saddle_pass(w, trials, traced, tally, expected, digest):
    """Every trial of the grid once, each folded into `digest`.

    Untraced, a trial is one span with a mark at its first `value_grad`
    call, which splits set-up from steps. Before it come a calibration slice
    and a block of `value_grad` calls, each timed as a whole. The pass adds
    one sample to `digest.step_ms` (step time over iterations) and one to
    `digest.setup_s` (mean set-up per trial), with the pass's own scale in
    `digest.sample_scale`: the machine's speed moved within runs. Traced,
    every `value_grad` call is a span, and the optimizer's calls are too.
    """
    recorder = sp.Recorder()
    pass_steps, pass_step_s, pass_setup_s = 0, 0.0, 0.0
    pass_cal = []
    problems = []
    with sp.Patches() as patches:
        if traced:
            install_optimizer_probes(recorder, patches)
        for trial in trials:
            land, kind, layerwise, y0, lr = trial
            landscape = landscapes.LANDSCAPE_KINDS[land]()
            if traced:
                landscape.value_grad = recorder.wrap(VALUE_GRAD, landscape.value_grad)
            else:
                pass_cal.append(slice_calibration_s())
                problems += value_grad_block(landscapes.LANDSCAPE_KINDS[land](), digest)
                recorder.mark_first_call(landscape, "value_grad", VALUE_GRAD)
            try:
                with recorder.span(TRIAL):
                    opt = optim.make_optimizer(kind, lr, layerwise=layerwise)
                    iterations = landscapes.run_escape_trial(
                        opt, landscape, [0.0, y0], max_iter=MAX_ESCAPE_ITER)
            except Exception as exc:  # any raise is a failed trial, reported
                tally.record([f"{trial_key(trial)} raised {type(exc).__name__}: {exc}"])
            else:
                tally.record(check_escape(trial, iterations, expected))
                if traced:
                    digest_run(digest, recorder.spans, VALUE_GRAD)
                else:
                    (_, t0, t1, _), (_, first, _, _) = recorder.spans
                    pass_steps += iterations
                    pass_step_s += t1 - first
                    pass_setup_s += first - t0
            recorder.spans.clear()
    if not traced and pass_steps:
        digest.steps += pass_steps
        digest.step_s += pass_step_s
        digest.step_ms.append(1e3 * pass_step_s / pass_steps)
        digest.setup_s.append(pass_setup_s / len(trials))
        digest.calibration_s += pass_cal
        digest.sample_scale.append(SLICE_REF_S * len(pass_cal) / sum(pass_cal))
        tally.record(problems)


def value_grad_block(landscape, digest):
    """Time VALUE_GRAD_BLOCK calls of `landscape.value_grad` as one block,
    into `digest.eval_s`/`eval_calls`; problems if a result differs from
    the first call's."""
    point = list(VALUE_GRAD_POINT)
    want_value, want_grads = landscape.value_grad(point)
    start = sp.CLOCK()
    for _ in range(VALUE_GRAD_BLOCK):
        value, grads = landscape.value_grad(point)
    digest.eval_s += sp.CLOCK() - start
    digest.eval_calls += VALUE_GRAD_BLOCK
    if value != want_value or not all(map(np.array_equal, grads, want_grads)):
        return [f"{landscape.kind}: value_grad at {point} changed from "
                f"{(want_value, want_grads)!r} to {(value, grads)!r}"]
    return []


def step_calibration_mix():
    """20 rounds of a 64x64x64 GEMM and two elementwise passes over 4096
    doubles."""
    for _ in range(20):
        np.matmul(_CAL_A, _CAL_B, out=_CAL_C)
        np.tanh(_CAL_Z, out=_CAL_W)
        np.multiply(_CAL_W, _CAL_Z, out=_CAL_W)


def slice_calibration_s():
    """CPU seconds for 100 rounds of two ufunc calls on one-element arrays."""
    start = sp.CLOCK()
    for _ in range(100):
        np.multiply(_SLICE_X, 0.5, out=_SLICE_Y)
        np.add(_SLICE_Y, 1.0, out=_SLICE_X)
    return sp.CLOCK() - start


@dataclass
class Measured:
    digests: dict           # traced flag -> Digest, for the modes run
    calls: int
    last: object            # the last call's return value
    ref_s: float            # calibration time at the reference speed

    @property
    def scale(self) -> float:
        """Factor that brings this run's untraced times to the reference
        speed, from the calibrations recorded in its digest."""
        cal = self.digests[False].calibration_s
        return self.ref_s / (sum(cal) / len(cal))


def measure(seconds, traced, unit, ref_s) -> Measured:
    """Call `unit(traced, digest)` until `seconds` of wall time have passed,
    at least once. When `traced`, untraced and traced calls alternate, so
    both meet the same machine conditions."""
    modes = (False, True) if traced else (False,)
    m = Measured({mode: Digest() for mode in modes}, 0, None, ref_s)
    start = time.perf_counter()
    while True:
        for mode in modes:
            m.last = unit(mode, m.digests[mode])
            m.calls += 1
        if time.perf_counter() - start >= seconds:
            return m


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(m: Measured, eval_items: int, eval_s: float) -> dict:
    """name -> (value, unit, samples) for the untraced metrics, times at the
    reference speed."""
    d, scale = m.digests[False], m.scale
    n_cal = len(d.calibration_s)
    sample_scale = np.array(d.sample_scale) if d.sample_scale else scale
    step_ms = np.frombuffer(d.step_ms, dtype=np.float64) * sample_scale
    setup_s = np.array(d.setup_s) * sample_scale
    return {
        "steps_per_s": (d.steps / (d.step_s * scale), "1/s", d.steps),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms", len(step_ms)),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms", len(step_ms)),
        "eval_items_per_s": (eval_items / (eval_s * scale), "1/s", eval_items),
        "setup_s": (float(np.median(setup_s)), "s", len(setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
        "bench.speed_scale": (scale, "x", n_cal),
        "bench.calibration_ms": (1e3 * m.ref_s / scale, "ms", n_cal),
    }


def module_shares(d: Digest, loop_module: str) -> dict:
    """Share of step time, in percent, spent in each module's own code.

    Self times of the spans plus the loop's uncovered time add up to the
    step time; the loop's share goes to `loop_module`.
    """
    own = dict.fromkeys(MODULES, 0.0)
    for name, (_, _, self_s) in d.by_name.items():
        own[name.split(".", 1)[0]] += self_s
    own[loop_module] += d.step_self_s
    total = sum(own.values())
    return {f"{m}.self_pct": (100.0 * s / total, "%", d.steps) for m, s in own.items()}


def _ms_per_step(d, name, self_time=False):
    calls, total, self_s = d.by_name.get(name, (0, 0.0, 0.0))
    return (1e3 * (self_s if self_time else total) / d.steps, "ms", calls)


def optimizer_layers(d: Digest) -> dict:
    out = {
        "optim.step_ms": _ms_per_step(d, OPT_STEP),
        "optim.step.self_ms": _ms_per_step(d, OPT_STEP, self_time=True),
        "tensor.group_norm_ms": _ms_per_step(d, GROUP_NORM),
    }
    calls = out["tensor.group_norm_ms"][2]
    out["tensor.group_norm.calls_per_step"] = (calls / d.steps, "count", calls)
    if LOOKAHEAD in d.by_name:
        out["optim.lookahead_ms"] = _ms_per_step(d, LOOKAHEAD)
    return out


def layer_flops(net, batch):
    """Computed (not measured) forward and backward flop counts per layer
    call at `batch` images: conv and dense only; backward = weight + input
    gradient products."""
    out = {}
    for i, layer in enumerate(net.layers):
        in_shape, out_shape = net.layer_shapes[i], net.layer_shapes[i + 1]
        if isinstance(layer, nn.Dense):
            fwd = 2 * batch * layer.in_features * layer.out_features
        elif isinstance(layer, nn.Conv2D):
            k = layer.kernel_size
            fwd = 2 * batch * int(np.prod(out_shape)) * in_shape[0] * k * k
        else:
            continue
        out[f"nn.{i}-{layer.kind}"] = (fwd, 2 * fwd)
    return out


def training_layers(d: Digest, net, batch: int, n_test: int) -> dict:
    out = {}
    flops = layer_flops(net, batch)
    for i, layer in enumerate(net.layers):
        base = f"nn.{i}-{layer.kind}"
        for phase in ("fwd", "bwd"):
            calls, total, _ = d.by_name[f"{base}.{phase}"]
            out[f"{base}.{phase}_ms"] = (1e3 * total / d.steps, "ms", calls)
            if base in flops:
                work = flops[base][phase == "bwd"] * calls
                out[f"{base}.{phase}_gflop_s"] = (work / total / 1e9, "GFLOP/s", calls)
    out["nn.forward.self_ms"] = _ms_per_step(d, NET_FWD, self_time=True)
    out["nn.backward.self_ms"] = _ms_per_step(d, NET_BWD, self_time=True)
    out.update(optimizer_layers(d))
    out["data.next_batch_ms"] = _ms_per_step(d, NEXT_BATCH)
    out["harness.eval_ms_per_1k_images"] = (
        1e6 * d.eval_s / (d.eval_calls * n_test), "ms", d.eval_calls * n_test)
    for name, key in ((LOAD, "harness.load_datasets_s"), (BUILD, "harness.build_network_s")):
        durations = d.setup_spans[name]
        out[key] = (float(np.median(durations)), "s", len(durations))
    out["harness.step.self_ms"] = (1e3 * d.step_self_s / d.steps, "ms", d.steps)
    out.update(module_shares(d, "harness"))
    return out


def saddle_layers(d: Digest) -> dict:
    calls, total, _ = d.by_name[VALUE_GRAD]
    out = {
        "landscapes.value_grad_us": (1e6 * total / calls, "us", calls),
        "landscapes.trial.self_us_per_step": (1e6 * d.step_self_s / d.steps, "us", d.steps),
    }
    out.update(optimizer_layers(d))
    out.update(module_shares(d, "landscapes"))
    return out


# ---------------------------------------------------------------------------
# One benchmark run


class NothingMeasured(Exception):
    """Every timed run failed, so there is no time to report."""


@dataclass
class Result:
    tally: Tally
    metrics: dict               # name -> (value, unit, samples)
    measured_s: float
    runs: int


def reference_rows(w: Training, work_dir):
    """[iteration, loss, error%] rows of one run on the reference inputs."""
    data_dir = os.path.join(work_dir, f"data-{REFERENCE_SEED}")
    if not os.path.isdir(data_dir):
        w.write_data(data_dir, REFERENCE_SEED)
    return record_rows(harness.run_experiment(w.config(data_dir, REFERENCE_SEED),
                                              REFERENCE_SEED))


def reference_counts(w: SaddleGrid):
    """Escape iterations of every trial of the grid."""
    return {trial_key(t): landscapes.run_escape_trial(
                optim.make_optimizer(t[1], t[4], layerwise=t[2]),
                landscapes.LANDSCAPE_KINDS[t[0]](), [0.0, t[3]], max_iter=MAX_ESCAPE_ITER)
            for t in w.trials(REFERENCE_SEED)}


def run_training(w: Training, seed, seconds, traced, work_dir, golden) -> Result:
    tally = Tally()
    data_dir = os.path.join(work_dir, f"data-{seed}")
    w.write_data(data_dir, seed)
    # Untimed reference run: checks against golden.json and warms caches.
    try:
        rows = reference_rows(w, work_dir)
    except NumericError as exc:
        tally.record([f"reference run raised: {exc}"])
    else:
        tally.record(check_training(rows, golden[w.name], w.n_test))

    cfg = w.config(data_dir, seed)
    expected = []
    start = time.perf_counter()
    m = measure(seconds, traced, lambda mode, d: training_run(
        w, cfg, seed, mode, tally, expected, d), STEP_CAL_REF_S)
    measured = time.perf_counter() - start
    if m.last is not None:
        _, test = harness.load_datasets(cfg)
        tally.record(check_gradients(m.last, test))
    _require_steps(m.digests, tally)
    if traced:
        metrics = training_layers(m.digests[True], m.last, cfg.batch_size, w.n_test)
        metrics["bench.trace_overhead_pct"] = trace_overhead(m.digests[False],
                                                             m.digests[True])
    else:
        d = m.digests[False]
        metrics = end_to_end(m, d.eval_calls * w.n_test, d.eval_s)
    return Result(tally, metrics, measured, m.calls)


def run_saddle(w: SaddleGrid, seed, seconds, traced, golden) -> Result:
    tally = Tally()
    trials = w.trials(seed)
    expected = golden[w.name]
    saddle_pass(w, trials, False, tally, expected, Digest())  # untimed warm-up
    start = time.perf_counter()
    m = measure(seconds, traced, lambda mode, d: saddle_pass(
        w, trials, mode, tally, expected, d), SLICE_REF_S)
    measured = time.perf_counter() - start
    _require_steps(m.digests, tally)
    if traced:
        metrics = saddle_layers(m.digests[True])
        metrics["bench.trace_overhead_pct"] = trace_overhead(m.digests[False],
                                                             m.digests[True])
    else:
        # The grid has no test set: its evaluations are landscape points.
        d = m.digests[False]
        metrics = end_to_end(m, d.eval_calls, d.eval_s)
    return Result(tally, metrics, measured, m.calls * len(trials))


def _require_steps(digests, tally):
    if any(d.steps == 0 for d in digests.values()):
        raise NothingMeasured("; ".join(tally.problems[:5]) or "no steps")


def trace_overhead(plain: Digest, traced: Digest):
    rate_plain = plain.steps / plain.step_s
    rate_traced = traced.steps / traced.step_s
    return (100.0 * (rate_plain / rate_traced - 1.0), "%", traced.steps)

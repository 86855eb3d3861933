"""Experiment runner: config parsing, training loop, checkpoint evaluation,
repeated-seed statistics, and CSV emission.

A run is a pure function of (config, seed): data, shuffling, weight init
and evaluation are keyed deterministically, and the CLI pins OpenBLAS to one
thread, so two runs on one machine give identical metrics (wall-clock fields
aside). Seed-runs share no mutable state and may execute in parallel.
"""

import ctypes
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as data_io
from .errors import ConfigError, DataError, DimensionError, NumericError
from .nn import Network, network_from_spec, openblas_function, parse_arch
from .optim import LrSchedule, make_optimizer
# Unused here: benchmarks/workloads.py wraps harness.group_norm in traced runs.
from .optim import group_norm  # noqa: F401

DATA_DIR_ENV = "LAYERLR_DATA_DIR"

# Baseline-tuned global rates for the bundled architectures. The layer-wise
# wrapper only ever increases the effective rate, so reusing the baseline t0
# unchanged can over-step; the harness warns when that is detected.
BASELINE_T0 = {"lenet": 0.01, "cifar-quick": 0.001}

# The blobs test split is keyed blobs.seed + BLOBS_TEST_OFFSET. Philox keys
# are uint64, so every seed lies in [0, 2**64) with the offset added.
BLOBS_TEST_OFFSET = 0x7E57

# Input shape (c, h, w) of each dataset; blobs' is (1, 1, blobs.dim).
DATASET_SHAPES = {"blobs": None, "mnist": (1, 28, 28), "cifar10": (3, 32, 32)}


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, "data")


# ---------------------------------------------------------------------------
# Configuration


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int_list(s: str):
    return tuple(int(tok) for tok in s.replace(",", " ").split())


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment variant.

    Field defaults are the documented config-file defaults; dotted config
    keys map to underscored attribute names (opt.layerwise ->
    opt_layerwise).
    """

    dataset: str = "blobs"            # blobs | mnist | cifar10
    data_dir: str = ""                # empty -> $LAYERLR_DATA_DIR or "data"
    blobs_n: int = 1000
    blobs_test_n: int = 500
    blobs_classes: int = 4
    blobs_dim: int = 8
    blobs_separation: float = 6.0
    blobs_seed: int = 0
    arch: str = "mlp:32"
    arch_activation: str = ""         # empty -> the architecture's own
    loss: str = "softmax-cross-entropy"
    opt_kind: str = "sgd"
    opt_layerwise: bool = False
    opt_mu: float = 0.9
    schedule_kind: str = "constant"
    schedule_t0: float = 0.01
    schedule_gamma: float = 0.0
    schedule_p: float = 1.0
    schedule_milestones: tuple = ()
    schedule_factor: float = 0.1
    batch_size: int = 64
    max_iterations: int = 500
    checkpoints: tuple = ()           # empty -> (max_iterations,)
    eval_batch_size: int = 64
    seeds: tuple = (0,)
    variant: str = ""                 # empty -> derived from optimizer spec

    def __post_init__(self):
        if not self.data_dir:
            self.data_dir = default_data_dir()
        # An empty checkpoints tuple means "final iteration only"; it is
        # resolved lazily so a replace() of max_iterations moves it too.
        self.checkpoints = tuple(int(c) for c in self.checkpoints)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.schedule_milestones = tuple(int(m) for m in self.schedule_milestones)
        for key in ("max_iterations", "batch_size", "eval_batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        bad = [c for c in self.checkpoints if not 1 <= c <= self.max_iterations]
        if bad:
            raise ConfigError(
                f"checkpoints must lie in [1, {self.max_iterations}]: offending {bad}"
            )
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if not all(0 <= s < 2 ** 64 for s in self.seeds):
            raise ConfigError(f"seeds must lie in [0, 2**64), got {self.seeds}")
        if not 0 <= self.blobs_seed < 2 ** 64 - BLOBS_TEST_OFFSET:
            raise ConfigError(f"blobs.seed must lie in [0, 2**64 - {BLOBS_TEST_OFFSET:#x}), "
                              f"got {self.blobs_seed}")
        if any(ch in self.variant for ch in ',"\r\n'):
            raise ConfigError(f"variant must hold no comma, quote or line break: {self.variant!r}")
        # The dataset, network spec and optimizer fail before any data loads.
        if self.dataset not in DATASET_SHAPES:
            raise ConfigError(f"unknown dataset {self.dataset!r}; options: {list(DATASET_SHAPES)}")
        shape = DATASET_SHAPES[self.dataset] or (1, 1, self.blobs_dim)
        try:
            parse_arch(self.arch, self.arch_activation, self.loss, shape)
        except DimensionError as exc:
            raise ConfigError(f"dataset {self.dataset!r}: {exc}") from None
        self.optimizer()
        baseline = BASELINE_T0.get(self.arch)
        if self.opt_layerwise and baseline is not None and self.schedule_t0 == baseline:
            warnings.warn(
                f"layer-wise rates only increase the effective step, but t0="
                f"{self.schedule_t0} equals the baseline-tuned rate for "
                f"{self.arch!r}; consider a smaller t0",
                stacklevel=3,
            )

    @property
    def checkpoint_iterations(self) -> tuple:
        return self.checkpoints or (self.max_iterations,)

    @property
    def variant_label(self) -> str:
        if self.variant:
            return self.variant
        prefix = "ours-" if self.opt_layerwise else ""
        return prefix + self.opt_kind

    @property
    def report_metric(self) -> str:
        return "accuracy" if self.dataset == "cifar10" else "error"

    def schedule(self) -> LrSchedule:
        return LrSchedule(kind=self.schedule_kind, t0=self.schedule_t0,
                          gamma=self.schedule_gamma, p=self.schedule_p,
                          milestones=self.schedule_milestones,
                          factor=self.schedule_factor)

    def optimizer(self):
        return make_optimizer(self.opt_kind, self.schedule(),
                              layerwise=self.opt_layerwise, mu=self.opt_mu)


def _field_registry():
    """Config-file key -> (attribute, value parser), the parser read off
    the field's annotation."""
    special = {bool: _parse_bool, tuple: _parse_int_list}
    registry = {}
    for f in fields(ExperimentConfig):
        dotted = f.name
        for prefix in ("blobs", "opt", "schedule", "arch"):
            if f.name.startswith(prefix + "_"):
                dotted = prefix + "." + f.name[len(prefix) + 1:]
                break
        registry[dotted] = (f.name, special.get(f.type, f.type))
    return registry


_REGISTRY = _field_registry()


def _parse_setting(text: str, where: str, values: dict) -> None:
    """Parse one `key = value` setting into `values`, keyed by attribute
    name; every error message starts with `where`, the line or override."""
    key, eq, val = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    if key not in _REGISTRY:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    attr, parser = _REGISTRY[key]
    try:
        values[attr] = parser(val)
    except ValueError as exc:  # a parser's own ConfigError too
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config_text(text: str, overrides=()) -> ExperimentConfig:
    """Parse the flat `key = value` config format ('#' starts a comment),
    then each '--key=value' override, and build the config once from both:
    an override can make a file's value valid."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _parse_setting(line, f"line {lineno}", values)
    for item in overrides:
        if not (item.startswith("--") and "=" in item):
            raise ConfigError(f"unrecognized argument {item!r} (overrides look like --key=value)")
        _parse_setting(item[2:], f"override {item!r}", values)
    return ExperimentConfig(**values)


def load_config(path, overrides=()) -> ExperimentConfig:
    """parse_config_text on the file at `path`, or on no lines when `path`
    is None, with `overrides` applied after the file's lines."""
    text = ""
    if path is not None:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, overrides)


# ---------------------------------------------------------------------------
# Datasets


def mnist_paths(data_dir: str) -> dict:
    """Expected on-disk layout of the MNIST IDX files (possibly .gz)."""
    root = os.path.join(data_dir, "mnist")
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    out = {}
    for key, name in names.items():
        plain = os.path.join(root, name)
        out[key] = plain if os.path.exists(plain) else plain + ".gz"
    return out


def cifar10_paths(data_dir: str) -> dict:
    root = os.path.join(data_dir, "cifar-10-batches-bin")
    return {
        "train": [os.path.join(root, f"data_batch_{i}.bin") for i in range(1, 6)],
        "test": [os.path.join(root, "test_batch.bin")],
    }


def load_datasets(cfg: ExperimentConfig):
    """(train, test) pair for the configured dataset, preprocessing applied."""
    if cfg.dataset == "blobs":
        splits = []
        test_seed = cfg.blobs_seed + BLOBS_TEST_OFFSET
        for key, seed, n in (("blobs.n", cfg.blobs_seed, cfg.blobs_n),
                             ("blobs.test_n", test_seed, cfg.blobs_test_n)):
            try:
                splits.append(data_io.synth_blobs(seed, n, cfg.blobs_classes, cfg.blobs_dim,
                                                  cfg.blobs_separation))
            except ConfigError as exc:
                raise ConfigError(f"generating {key}={n} blobs: {exc}") from None
        return tuple(splits)
    mnist = cfg.dataset == "mnist"
    paths = mnist_paths(cfg.data_dir) if mnist else cifar10_paths(cfg.data_dir)
    files = paths.values() if mnist else paths["train"] + paths["test"]
    missing = [p for p in files if not os.path.exists(p)]
    if missing:
        raise DataError(
            f"{'MNIST' if mnist else 'CIFAR-10'} files not found: {missing}; run `layerlr "
            f"fetch-data --dataset {cfg.dataset} --root {cfg.data_dir}` first"
        )
    if mnist:
        return (data_io.load_mnist_idx(paths["train_images"], paths["train_labels"]),
                data_io.load_mnist_idx(paths["test_images"], paths["test_labels"]))
    return data_io.channel_mean_center(data_io.load_cifar10_bin(paths["train"]),
                                       data_io.load_cifar10_bin(paths["test"]))


def build_network(cfg: ExperimentConfig, train: data_io.Dataset, seed: int) -> Network:
    return network_from_spec(cfg.arch, train.input_shape, train.num_classes,
                             seed=seed, activation=cfg.arch_activation,
                             loss=cfg.loss)


# ---------------------------------------------------------------------------
# Training and evaluation


@dataclass
class MetricsRecord:
    seed: int
    iteration: int
    train_loss: float
    test_error_percent: float
    wall_ms: float


def _targets_for(net: Network, labels, num_classes: int):
    if net.loss == "squared-error":
        onehot = np.zeros((labels.shape[0], num_classes))
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        return onehot
    return labels


def evaluate_error_percent(net: Network, dataset: data_io.Dataset,
                           batch_size: int = 64) -> float:
    """Top-1 error in percent over a dataset; pure (no training state touched).
    NumericError on a non-finite output, which no argmax may score."""
    wrong = 0
    n = len(dataset)
    for start in range(0, n, batch_size):
        x = dataset.decode(slice(start, start + batch_size))
        y = dataset.labels[start:start + batch_size]
        logits = net.predict(x)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite network output in evaluation")
        pred = np.argmax(logits, axis=1)
        wrong += int(np.sum(pred != y))
    return 100.0 * wrong / n


def train_steps(net: Network, opt, stream, num_classes: int, steps: int):
    """Yield (k, loss, stats) after each of `steps` minibatch steps, k the
    steps taken so far: stream.next_batch() at the step's start, then one
    opt.descend whose gradients come from net.value_grad on that batch."""
    params = net.parameters()
    for k in range(1, steps + 1):
        x, y = stream.next_batch()
        targets = _targets_for(net, y, num_classes)
        loss, stats = opt.descend(params, lambda: net.value_grad(x, targets))
        yield k, loss, stats


def run_experiment(cfg: ExperimentConfig, seed: int):
    """Train one seed for max_iterations minibatch steps, evaluating the
    held-out test set at each checkpoint. Returns the MetricsRecord list.

    Raises NumericError if the loss, a gradient or an evaluated output goes
    non-finite, with one row of (li, norm) pairs as `layer_norms`: the
    failing step's up to the failing layer if the optimizer aborted it,
    else the last completed step's (empty before the first).
    """
    t_start = time.perf_counter()
    opt = cfg.optimizer()  # a fresh one per run, k = 0 and no slots
    train, test = load_datasets(cfg)
    net = build_network(cfg, train, seed)
    stream = data_io.BatchStream(train, cfg.batch_size, seed)
    steps = train_steps(net, opt, stream, train.num_classes, cfg.max_iterations)
    checkpoints = set(cfg.checkpoint_iterations)
    records = []
    k, stats = 0, ()
    try:
        for k, loss, stats in steps:
            if k in checkpoints:
                err = evaluate_error_percent(net, test, cfg.eval_batch_size)
                records.append(MetricsRecord(seed, k, loss, err,
                                             1000.0 * (time.perf_counter() - t_start)))
    except NumericError as exc:
        # A step's abort ends the loop, with the failing step's pairs if the
        # optimizer raised; an evaluation's leaves it paused at checkpoint k.
        where = "checkpoint" if steps.gi_frame else "iteration"
        raise NumericError(f"run aborted at {where} {k}: {exc}", iteration=k,
                           layer_norms=exc.layer_norms or [s[:2] for s in stats]) from exc
    return records


# ---------------------------------------------------------------------------
# Repeated runs and summary tables


@dataclass(frozen=True)
class SummaryRow:
    variant: str
    iteration: int
    mean: float
    std: float
    n: int


@dataclass
class SummaryTable:
    rows: list = field(default_factory=list)
    aborted: list = field(default_factory=list)  # (variant, seed, message)


def mean_std(values):
    """Mean and sample standard deviation (n-1 divisor; 0.0 when n == 1)."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var)


def summarize_records(variant: str, per_seed_records, metric: str = "error") -> SummaryTable:
    """Reduce per-seed MetricsRecords into per-checkpoint mean/std rows."""
    by_iteration = {}
    for records in per_seed_records:
        for rec in records:
            value = rec.test_error_percent
            if metric == "accuracy":
                value = 100.0 - value
            by_iteration.setdefault(rec.iteration, []).append(value)
    rows = []
    for iteration in sorted(by_iteration):
        mean, std = mean_std(by_iteration[iteration])
        rows.append(SummaryRow(variant, iteration, mean, std, len(by_iteration[iteration])))
    return SummaryTable(rows=rows)


# A spawned worker does not run under cli.main's errstate, so it sets its own.
@np.errstate(over="ignore", invalid="ignore")
def _run_worker(args):
    cfg, seed = args
    try:
        return seed, run_experiment(cfg, seed), None
    except NumericError as exc:
        return seed, None, str(exc)


def pin_one_blas_thread() -> bool:
    """Run numpy's bundled OpenBLAS on one thread in this process; False if no setter is found."""
    setter = openblas_function("scipy_openblas_set_num_threads64_",
                               "openblas_set_num_threads64_", "openblas_set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return setter is not None


def repeat_runs(cfg: ExperimentConfig, processes: int = None) -> SummaryTable:
    """Run every seed of `cfg` (distinct, as the config checks) and reduce
    to a SummaryTable; the jobs go in seed order and pool.map returns their
    results in job order. Aborted seeds are flagged and the summary covers
    the completed ones. With `processes` > 1 (default: one per seed, up to
    the CPU count) every seed runs in a spawned worker pinned to one BLAS
    thread; a script that calls this at import time must then guard its
    entry point with `if __name__ == "__main__":`."""
    if len(cfg.seeds) < 2:
        raise ConfigError(f"repeat_runs needs at least 2 seeds, got {cfg.seeds}")
    jobs = [(cfg, seed) for seed in sorted(cfg.seeds)]
    if processes is None:
        processes = min(len(jobs), os.cpu_count() or 1)
    if processes < 1:
        raise ConfigError(f"processes must be >= 1, got {processes}")
    if processes > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, spawn, initializer=pin_one_blas_thread) as pool:
            results = list(pool.map(_run_worker, jobs))
    else:
        results = [_run_worker(job) for job in jobs]
    completed = [records for _, records, err in results if err is None]
    table = summarize_records(cfg.variant_label,
                              completed, metric=cfg.report_metric)
    table.aborted = [(cfg.variant_label, seed, err)
                     for seed, _, err in results if err is not None]
    if not completed:
        raise NumericError(
            f"all seeds aborted for variant {cfg.variant_label}: {table.aborted}"
        )
    return table


def emit_csv(table: SummaryTable, path: str) -> None:
    """Write `variant,iteration,mean,std,n` rows, 6 significant digits,
    in the table's row order."""
    lines = ["variant,iteration,mean,std,n"]
    for row in table.rows:
        lines.append(f"{row.variant},{row.iteration},{row.mean:.6g},{row.std:.6g},{row.n}")
    write_csv(path, lines)


def check_writable(path: str) -> None:
    """DataError unless a file can be written at `path`: its directory is
    writable, `path` no directory or read-only file, `path.part` no directory.
    Creates nothing, so a run that fails later leaves no file behind."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(directory, os.W_OK):
        reason = f"directory {directory} is not writable"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif os.path.isdir(path + ".part"):
        reason = f"{path}.part, which is written first, is a directory"
    elif os.path.exists(path) and not os.access(path, os.W_OK):
        reason = "the file is not writable"
    else:
        return
    raise DataError(f"cannot write {path}: {reason}")


def write_csv(path: str, lines) -> None:
    """write_file of CSV `lines` (header first), each newline-terminated."""
    write_file(path, (f"{line}\n".encode() for line in lines))


def write_file(path: str, chunks) -> None:
    """Write the byte `chunks` to `path.part`, then rename it to `path`, so
    that `path` exists only once the whole file does; DataError on failure."""
    part = path + ".part"
    try:
        with open(part, "wb") as f:
            f.writelines(chunks)
        os.replace(part, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.isfile(part):  # not a directory in its place
            os.remove(part)



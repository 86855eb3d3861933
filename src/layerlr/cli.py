"""Command-line experiment runner.

Subcommands: train (single seed), table (repeated seeds -> summary CSV),
bench (saddle-escape grid -> CSV), gradcheck (backprop vs. finite
differences), fetch-data (downloads the public MNIST/CIFAR-10 archives;
the only place any network I/O happens).

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric abort.
"""

import argparse
import itertools
import os
import shutil
import sys
import tarfile
import tempfile
import warnings
import zlib

import numpy as np

from . import harness, landscapes
from .errors import ConfigError, DataError, DimensionError, NumericError
from .landscapes import LANDSCAPE_KINDS, check_escape_trial, run_escape_trial
from .nn import FIXED_INPUTS, gradient_check, network_from_spec, parse_arch
from .optim import make_optimizer
from . import rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)
CIFAR_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"

# gradcheck's fixed settings; the tolerance is acceptance criterion 2's.
GRADCHECK_BATCH = 2
GRADCHECK_SAMPLES = 25
GRADCHECK_TOL = 1e-5
GRADCHECK_MLP_INPUT = (12,)
GRADCHECK_MLP_CLASSES = 4


def _cmd_train(args, extras) -> int:
    cfg = harness.load_config(args.config, extras)
    harness.check_writable(args.out)
    records = harness.run_experiment(cfg, cfg.seeds[0])
    lines = ["seed,iteration,train_loss,test_error_percent,wall_ms"]
    for r in records:
        lines.append(f"{r.seed},{r.iteration},{r.train_loss:.6g},"
                     f"{r.test_error_percent:.6g},{r.wall_ms:.6g}")
    harness.write_csv(args.out, lines)
    for r in records:
        print(f"iter {r.iteration:>7}  train_loss {r.train_loss:.6g}  "
              f"test_error {r.test_error_percent:.2f}%")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_table(args, extras) -> int:
    cfg = harness.load_config(args.config, extras)
    harness.check_writable(args.out)
    table = harness.repeat_runs(cfg, processes=args.processes)
    harness.emit_csv(table, args.out)
    for row in table.rows:
        print(f"{row.variant:>14}  iter {row.iteration:>7}  "
              f"{row.mean:.4f} +/- {row.std:.4f}  (n={row.n})")
    for variant, seed, message in table.aborted:
        print(f"ABORTED {variant} seed {seed}: {message}", file=sys.stderr)
    print(f"wrote {args.out}")
    return EXIT_OK


def _float_list(option, text):
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} expects a comma list of numbers, got {text!r}") from None


def _bench_optimizer(kind, lr):
    """A fresh optimizer for a bench cell; an ours- prefix turns on the
    layer-wise multiplier."""
    layerwise = kind.startswith("ours-")
    return make_optimizer(kind[5:] if layerwise else kind, lr, layerwise=layerwise)


def _cmd_bench(args, extras) -> int:
    if args.landscape not in LANDSCAPE_KINDS:
        raise ConfigError(
            f"unknown landscape {args.landscape!r}; options: {sorted(LANDSCAPE_KINDS)}"
        )
    landscape = LANDSCAPE_KINDS[args.landscape]()
    starts = [[0.0] * (landscape.n_layers - 1) + [y0]
              for y0 in _float_list("--starts", args.starts)]
    lrs = _float_list("--lrs", args.lrs)
    kinds = args.optimizers.split(",")
    # Every value is checked before any row is printed.
    for start in starts:
        check_escape_trial(landscape, start, args.max_iter)
    for lr, kind in itertools.product(lrs, kinds):
        _bench_optimizer(kind, lr)
    harness.check_writable(args.out)
    lines = ["landscape,optimizer,start,lr,escape_iterations"]
    for lr, start, kind in itertools.product(lrs, starts, kinds):
        opt = _bench_optimizer(kind, lr)
        try:
            iters = run_escape_trial(opt, landscape, start, max_iter=args.max_iter)
        except NumericError as exc:  # name the cell that diverged
            raise NumericError(f"optimizer {kind}, lr {lr:.6g}, start {start[-1]:.6g}: {exc}",
                               iteration=exc.iteration, layer_norms=exc.layer_norms) from exc
        lines.append(f"{landscape.kind},{kind},{start[-1]:.6g},{lr:.6g},{iters}")
        print(lines[-1])
    harness.write_csv(args.out, lines)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args, extras) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be a positive integer, got {args.seeds}")
    archs = []  # every arch is parsed before any is checked
    for arch in args.archs.split(","):
        try:
            name, _, _ = parse_arch(arch)
        except DimensionError as exc:
            raise ConfigError(f"--archs: {exc}") from None
        if name in FIXED_INPUTS:
            archs.append((arch, FIXED_INPUTS[name], 10))
        else:
            archs.append((arch, GRADCHECK_MLP_INPUT, GRADCHECK_MLP_CLASSES))
    failed = False
    for arch, input_shape, classes in archs:
        worst = 0.0
        checked = 0
        for seed in range(args.seeds):
            net = network_from_spec(arch, input_shape, classes, seed=seed)
            gen = rng.generator(seed, 0xDA7A)
            x = gen.standard_normal((GRADCHECK_BATCH,) + net.input_shape)
            y = gen.integers(0, classes, size=GRADCHECK_BATCH)
            result = gradient_check(net, x, y, samples_per_tensor=GRADCHECK_SAMPLES,
                                    sample_gen=gen)
            worst = max(worst, result.max_rel_err)
            checked += result.checked
        # No checked coordinate (all on kinks) proves nothing: a failure.
        ok = worst < GRADCHECK_TOL and checked > 0
        failed = failed or not ok
        print(f"{arch:>12}: max relative error {worst:.3e} over {checked} coordinates, "
              f"{args.seeds} seeds  [{'ok' if ok else 'FAIL'}]")
    return EXIT_NUMERIC if failed else EXIT_OK


def _download(url: str, dest: str) -> bool:
    """Fetch `url` to `dest` with harness.write_file, so that `dest` exists
    only once the whole file has arrived."""
    import urllib.request
    try:
        print(f"fetching {url}")
        with urllib.request.urlopen(url, timeout=60) as resp:
            harness.write_file(dest, [resp.read()])
        return True
    except Exception as exc:  # noqa: BLE001 - report and fall through to mirrors
        print(f"  failed: {exc}", file=sys.stderr)
        return False


def _extract(tar, root):
    """Extract `tar`'s cifar-10-batches-bin directory to the same name under
    `root`, after checking every member: an absolute or `..` name is a
    DataError, and so is any member but a plain file or directory (a link, a
    device). Python's "data" filter, where present, guards the extraction
    too. Members are written into a temporary directory under `root`, and
    the extracted directory replaces any earlier one only once all of them
    are written, so a failure leaves `root` as it was."""
    for member in tar.getmembers():
        name = member.name.replace("\\", "/")
        if os.path.isabs(name) or ".." in name.split("/"):
            raise DataError(f"archive member {member.name!r} points outside {root}")
        if not (member.isfile() or member.isdir()):
            raise DataError(f"archive member {member.name!r} is not a plain file or directory")
    dest = os.path.join(root, "cifar-10-batches-bin")
    tmp = tempfile.mkdtemp(prefix=".extract-", dir=root)
    # Members go under tmp/archive, so none can take the name tmp/earlier.
    staged = os.path.join(tmp, "archive")
    try:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(staged, filter="data")
        else:
            tar.extractall(staged)
        src = os.path.join(staged, "cifar-10-batches-bin")
        if not os.path.isdir(src):
            raise DataError(f"{tar.name} holds no cifar-10-batches-bin directory")
        if os.path.lexists(dest):
            os.replace(dest, os.path.join(tmp, "earlier"))
        os.replace(src, dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return dest


def _cmd_fetch_data(args, extras) -> int:
    root = args.root or harness.default_data_dir()
    if args.dataset == "mnist":
        target = os.path.join(root, "mnist")
        os.makedirs(target, exist_ok=True)
        for dest in harness.mnist_paths(root).values():
            if os.path.exists(dest):
                print(f"already have {dest}")
                continue
            name = os.path.basename(dest)
            if not any(_download(base + name, dest) for base in MNIST_MIRRORS):
                raise DataError(f"could not download {name} from any mirror")
        print(f"MNIST ready under {target}")
        return EXIT_OK
    if args.dataset == "cifar10":
        os.makedirs(root, exist_ok=True)
        archive = os.path.join(root, "cifar-10-binary.tar.gz")
        if not os.path.exists(archive) and not _download(CIFAR_URL, archive):
            raise DataError(f"could not download {CIFAR_URL}")
        try:
            with tarfile.open(archive, "r:gz") as tar:
                dest = _extract(tar, root)
        # OSError: bad gzip, or a member that cannot be written (a file over a directory).
        except (tarfile.TarError, EOFError, zlib.error, OSError) as exc:
            raise DataError(f"cannot extract {archive}: {exc}; delete it and run "
                            f"fetch-data again") from exc
        print(f"CIFAR-10 ready under {dest}")
        return EXIT_OK
    raise ConfigError(f"unknown dataset {args.dataset!r} (mnist or cifar10)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, which main prints as one line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="layerlr",
        description="Layer-wise adaptive learning-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training seed")
    p_train.add_argument("--config", help="config file (key = value lines)")
    p_train.add_argument("--out", default="records.csv", help="records CSV path")
    p_train.set_defaults(func=_cmd_train, allow_overrides=True)

    p_table = sub.add_parser("table", help="run all seeds and emit the summary CSV")
    p_table.add_argument("--config", help="config file (key = value lines)")
    p_table.add_argument("--processes", type=int, default=None,
                         help="parallel seed-runs (default: cpu count)")
    p_table.add_argument("--out", default="summary.csv", help="summary CSV path")
    p_table.set_defaults(func=_cmd_table, allow_overrides=True)

    p_bench = sub.add_parser("bench", help="saddle-escape benchmark grid")
    p_bench.add_argument("--landscape", default="quadratic-saddle",
                         help=f"one of {', '.join(LANDSCAPE_KINDS)}")
    p_bench.add_argument("--starts", default="1e-1,1e-2,1e-3,1e-4",
                         help="comma list of initial descent offsets")
    p_bench.add_argument("--lrs", default="0.1,0.01", help="comma list of learning rates")
    p_bench.add_argument("--optimizers", default="sgd,ours-sgd",
                         help="comma list; prefix ours- for layerwise")
    p_bench.add_argument("--max-iter", type=int, default=landscapes.DEFAULT_MAX_ITER)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=_cmd_bench, allow_overrides=False)

    p_grad = sub.add_parser("gradcheck", help="backward vs. finite differences")
    p_grad.add_argument("--archs", default="mlp:16-12,lenet,cifar-quick")
    p_grad.add_argument("--seeds", type=int, default=3)
    p_grad.set_defaults(func=_cmd_gradcheck, allow_overrides=False)

    p_fetch = sub.add_parser("fetch-data", help="download public dataset archives")
    p_fetch.add_argument("--dataset", default="mnist", help="mnist or cifar10")
    p_fetch.add_argument("--root", help=f"data root (default ${harness.DATA_DIR_ENV} or ./data)")
    p_fetch.set_defaults(func=_cmd_fetch_data, allow_overrides=False)
    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras and not args.allow_overrides:
            raise ConfigError(f"unrecognized arguments: {extras}")
        # A run or trial that overflows ends in NumericError (a non-finite
        # loss, gradient, rate, iterate or evaluated output): numpy need not
        # warn. A library warning is one stderr line.
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            if not harness.pin_one_blas_thread():
                warnings.warn("no OpenBLAS thread setter: results may depend on the thread count")
            return args.func(args, extras)
    except (ConfigError, DimensionError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        tail = f"; last per-layer gradient norms: {exc.layer_norms}" if exc.layer_norms else ""
        print(f"numeric error: {exc}{tail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

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
import sys
import tarfile

import numpy as np

from . import harness
from .errors import ConfigError, DataError, DimensionError, NumericError
from .landscapes import LANDSCAPE_KINDS, Landscape, run_escape_trial
from .nn import CIFAR_QUICK_INPUT, LENET_INPUT, gradient_check, network_from_spec
from .optim import make_optimizer
from . import rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MNIST_FILES = (
    "train-images-idx3-ubyte.gz",
    "train-labels-idx1-ubyte.gz",
    "t10k-images-idx3-ubyte.gz",
    "t10k-labels-idx1-ubyte.gz",
)
MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)
CIFAR_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"

# Landscapes that define an escape distance, the only ones an escape trial
# can run on.
ESCAPE_LANDSCAPES = sorted(
    kind for kind, cls in LANDSCAPE_KINDS.items()
    if cls.escape_distance is not Landscape.escape_distance
)


def _split_overrides(extras):
    overrides = []
    for item in extras:
        if item.startswith("--") and "=" in item:
            overrides.append(item)
        else:
            raise ConfigError(f"unrecognized argument {item!r} (overrides look like --key=value)")
    return overrides


def _config_from_args(args, extras):
    if args.config:
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.ExperimentConfig()
    return harness.apply_overrides(cfg, _split_overrides(extras))


def _cmd_train(args, extras) -> int:
    cfg = _config_from_args(args, extras)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    out = args.out or "records.csv"
    harness.check_writable(out)
    records = harness.run_experiment(cfg, seed)
    lines = ["seed,iteration,train_loss,test_error_percent,wall_ms"]
    for r in records:
        lines.append(f"{r.seed},{r.iteration},{r.train_loss:.6g},"
                     f"{r.test_error_percent:.6g},{r.wall_ms:.6g}")
    harness.write_csv(out, lines)
    for r in records:
        print(f"iter {r.iteration:>7}  train_loss {r.train_loss:.4f}  "
              f"test_error {r.test_error_percent:.2f}%")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_table(args, extras) -> int:
    cfg = _config_from_args(args, extras)
    out = args.out or cfg.out
    harness.check_writable(out)
    table = harness.repeat_runs(cfg, processes=args.processes)
    harness.emit_csv(table, out)
    for row in table.sorted_rows():
        print(f"{row.variant:>14}  iter {row.iteration:>7}  "
              f"{row.mean:.4f} +/- {row.std:.4f}  (n={row.n})")
    for variant, seed, message in table.aborted:
        print(f"ABORTED {variant} seed {seed}: {message}", file=sys.stderr)
    print(f"wrote {out}")
    return EXIT_OK


def _float_list(option, text):
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} expects a comma list of numbers, got {text!r}") from None


def _cmd_bench(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    if args.landscape not in ESCAPE_LANDSCAPES:
        raise ConfigError(
            f"landscape {args.landscape!r} has no escape trial; options: {ESCAPE_LANDSCAPES}"
        )
    landscape = LANDSCAPE_KINDS[args.landscape]()
    starts = _float_list("--starts", args.starts)
    lrs = _float_list("--lrs", args.lrs)
    harness.check_writable(args.out)
    kinds = args.optimizers.split(",")
    lines = ["landscape,optimizer,start,lr,escape_iterations"]
    # A trial that overflows ends in NumericError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for lr, y0, kind in itertools.product(lrs, starts, kinds):
            layerwise = kind.startswith("ours-")
            base = kind[5:] if layerwise else kind
            opt = make_optimizer(base, lr, layerwise=layerwise)
            start = [0.0] * (landscape.n_layers - 1) + [y0]
            iters = run_escape_trial(opt, landscape, start,
                                     escape_radius=args.radius,
                                     max_iter=args.max_iter)
            lines.append(f"{landscape.kind},{kind},{y0:.6g},{lr:.6g},{iters}")
            print(lines[-1])
    harness.write_csv(args.out, lines)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    for flag in ("seeds", "batch", "samples", "mlp_dim", "mlp_classes"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be a positive integer, "
                              f"got {getattr(args, flag)}")
    archs = args.archs.split(",")
    tol = args.tol
    failed = False
    for arch in archs:
        if arch == "lenet":
            input_shape, classes = LENET_INPUT, 10
        elif arch == "cifar-quick":
            input_shape, classes = CIFAR_QUICK_INPUT, 10
        else:
            input_shape, classes = (args.mlp_dim,), args.mlp_classes
        worst = 0.0
        checked = 0
        for seed in range(args.seeds):
            net = network_from_spec(arch, input_shape, classes, seed=seed)
            gen = rng.generator(seed, 0xDA7A)
            x = gen.standard_normal((args.batch,) + net.input_shape)
            y = gen.integers(0, classes, size=args.batch)
            result = gradient_check(net, x, y, samples_per_tensor=args.samples,
                                    sample_gen=gen)
            worst = max(worst, result.max_rel_err)
            checked += result.checked
        # No checked coordinate (all on kinks) proves nothing: a failure.
        ok = worst < tol and checked > 0
        failed = failed or not ok
        print(f"{arch:>12}: max relative error {worst:.3e} over {checked} coordinates, "
              f"{args.seeds} seeds  [{'ok' if ok else 'FAIL'}]")
    return EXIT_NUMERIC if failed else EXIT_OK


def _download(url: str, dest: str) -> bool:
    import urllib.request
    try:
        print(f"fetching {url}")
        with urllib.request.urlopen(url, timeout=60) as resp, open(dest, "wb") as f:
            f.write(resp.read())
        return True
    except Exception as exc:  # noqa: BLE001 - report and fall through to mirrors
        print(f"  failed: {exc}", file=sys.stderr)
        return False


def _extract(tar, root):
    """Extract `tar` under `root` after checking every member: an absolute
    or `..` name is a DataError, and so is what Python's "data" filter
    rejects (links out of `root`, special files) or, where that filter is
    missing, any member but a plain file or directory."""
    has_filter = hasattr(tarfile, "data_filter")
    for member in tar.getmembers():
        name = member.name.replace("\\", "/")
        if os.path.isabs(name) or ".." in name.split("/"):
            raise DataError(f"archive member {member.name!r} points outside {root}")
        if has_filter:
            tarfile.data_filter(member, root)
        elif not (member.isfile() or member.isdir()):
            raise DataError(f"archive member {member.name!r} is not a plain file or directory")
    if has_filter:
        tar.extractall(root, filter="data")
    else:
        tar.extractall(root)


def _cmd_fetch_data(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    root = args.root or harness.default_data_dir()
    if args.dataset == "mnist":
        target = os.path.join(root, "mnist")
        os.makedirs(target, exist_ok=True)
        for name in MNIST_FILES:
            dest = os.path.join(target, name)
            if os.path.exists(dest) or os.path.exists(dest[:-3]):
                print(f"already have {dest}")
                continue
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
                _extract(tar, root)
        except tarfile.TarError as exc:
            raise DataError(f"cannot extract {archive}: {exc}") from exc
        print(f"CIFAR-10 ready under {os.path.join(root, 'cifar-10-batches-bin')}")
        return EXIT_OK
    raise ConfigError(f"unknown dataset {args.dataset!r} (mnist or cifar10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerlr",
        description="Layer-wise adaptive learning-rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training seed")
    p_train.add_argument("--config", help="config file (key = value lines)")
    p_train.add_argument("--seed", type=int, help="override the run seed")
    p_train.add_argument("--out", help="records CSV path (default records.csv)")
    p_train.set_defaults(func=_cmd_train, allow_overrides=True)

    p_table = sub.add_parser("table", help="run all seeds and emit the summary CSV")
    p_table.add_argument("--config", help="config file (key = value lines)")
    p_table.add_argument("--processes", type=int, default=None,
                         help="parallel seed-runs (default: cpu count)")
    p_table.add_argument("--out", help="summary CSV path (default from config)")
    p_table.set_defaults(func=_cmd_table, allow_overrides=True)

    p_bench = sub.add_parser("bench", help="saddle-escape benchmark grid")
    p_bench.add_argument("--landscape", default="quadratic-saddle",
                         help=f"one of {', '.join(ESCAPE_LANDSCAPES)}")
    p_bench.add_argument("--starts", default="1e-1,1e-2,1e-3,1e-4",
                         help="comma list of initial descent offsets")
    p_bench.add_argument("--lrs", default="0.1,0.01", help="comma list of learning rates")
    p_bench.add_argument("--optimizers", default="sgd,ours-sgd",
                         help="comma list; prefix ours- for layerwise")
    p_bench.add_argument("--radius", type=float, default=1.0)
    p_bench.add_argument("--max-iter", type=int, default=10 ** 6)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=_cmd_bench, allow_overrides=False)

    p_grad = sub.add_parser("gradcheck", help="backward vs. finite differences")
    p_grad.add_argument("--archs", default="mlp:16-12,lenet,cifar-quick")
    p_grad.add_argument("--seeds", type=int, default=3)
    p_grad.add_argument("--batch", type=int, default=2)
    p_grad.add_argument("--samples", type=int, default=25,
                        help="coordinates checked per parameter tensor")
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--mlp-dim", type=int, default=12)
    p_grad.add_argument("--mlp-classes", type=int, default=4)
    p_grad.set_defaults(func=_cmd_gradcheck, allow_overrides=False)

    p_fetch = sub.add_parser("fetch-data", help="download public dataset archives")
    p_fetch.add_argument("--dataset", default="mnist", help="mnist or cifar10")
    p_fetch.add_argument("--root", help=f"data root (default ${harness.DATA_DIR_ENV} or ./data)")
    p_fetch.set_defaults(func=_cmd_fetch_data, allow_overrides=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return args.func(args, extras)
    except (ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        norms = exc.layer_norms
        tail = f"; last per-group gradient norms: {norms[-1]}" if norms else ""
        print(f"numeric error: {exc}{tail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

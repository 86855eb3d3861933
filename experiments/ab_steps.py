"""Time two checkouts of layerlr against each other in one process.

    python experiments/ab_steps.py A B --arch cifar-quick --steps 30

A and B are checkout roots, each with its own src/layerlr. Both packages are
loaded side by side as separate module sets, numpy's OpenBLAS is pinned to
one thread, and each side builds the same network (seed 0) and a layer-wise
momentum optimizer. Every round feeds both sides the same random batch of
64: one training step on each, the side that goes first alternating from
round to round, then predict in the order A B B A (B A A B on odd rounds),
each side timed as the mean of its two calls, so that a drift in machine
speed within the round falls on both alike. The script prints the median
and quartiles of each side's times, how many rounds B won, and whether the
two sides' parameters are bitwise equal after the last step. It exits 0
when they are and 1 when they are not, so `A A` is an A/A check of the
harness itself, and `A B` checks that B changes no bit of the trajectory.
"""

import argparse
import importlib
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

BATCH = 64
ARCHS = ("lenet", "cifar-quick", "mlp:500-300")


def load(checkout):
    """The nn, optim and harness modules of `checkout`'s src/layerlr, loaded
    fresh and then dropped from sys.modules, so a second load is separate."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "layerlr", "nn.py")):
        sys.exit(f"ab_steps: {checkout} has no src/layerlr/nn.py")
    sys.path.insert(0, src)
    try:
        return SimpleNamespace(**{name: importlib.import_module(f"layerlr.{name}")
                                  for name in ("nn", "optim", "harness")})
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules if m == "layerlr" or m.startswith("layerlr.")]:
            del sys.modules[name]


def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def summary(ms):
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return f"median {med:8.2f} ms  [q1 {q1:8.2f}, q3 {q3:8.2f}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout root of side A")
    ap.add_argument("b", help="checkout root of side B")
    ap.add_argument("--arch", choices=ARCHS, default="lenet")
    ap.add_argument("--steps", type=int, default=30, help="rounds, one step and one predict each")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    sides = [load(args.a), load(args.b)]
    if not sides[0].harness.pin_one_blas_thread():
        print("warning: no OpenBLAS thread setter found; BLAS may use several threads")
    # The fixed nets' own input shapes; the mlp takes MNIST's.
    shape = sides[0].nn.FIXED_INPUTS.get(args.arch, (1, 28, 28))
    nets = [s.nn.network_from_spec(args.arch, shape, 10, seed=0) for s in sides]
    opts = [s.optim.make_optimizer("momentum", 0.0005, layerwise=True) for s in sides]
    gen = np.random.default_rng(0)
    ms = {"step": ([], []), "predict": ([], [])}
    for r in range(args.steps):
        x = gen.standard_normal((BATCH,) + shape)
        y = gen.integers(0, 10, size=BATCH)
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for s in order:
            net, opt = nets[s], opts[s]
            ms["step"][s].append(1e3 * timed(lambda: opt.descend(
                net.parameters(), lambda: net.value_grad(x, y))))
        calls = [0.0, 0.0]
        for s in order + order[::-1]:
            calls[s] += timed(lambda: nets[s].predict(x))
        for s in order:
            ms["predict"][s].append(1e3 * calls[s] / 2)
    print(f"{args.arch}, batch {BATCH}, {args.steps} rounds, one BLAS thread")
    for kind, (a, b) in ms.items():
        gain = 100.0 * (np.median(a) / np.median(b) - 1.0)
        wins = sum(tb < ta for ta, tb in zip(a, b))
        print(f"{kind:8} A {summary(a)}")
        print(f"{kind:8} B {summary(b)}  B faster by {gain:+.1f}%, in {wins}/{len(b)} rounds")
    equal = all(pa.tobytes() == pb.tobytes()
                for ga, gb in zip(*(net.parameters() for net in nets))
                for pa, pb in zip(ga, gb))
    print(f"parameters after {args.steps} steps: {'bitwise equal' if equal else 'DIFFERENT'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())

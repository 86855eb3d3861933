"""Golden trajectories: per-step loss and per-layer gradient norms, and
saddle escapes.

Each trajectory runs 10 training steps at batch 2 and records the batch
loss and `group_norm` of every layer's gradients at each step. The files
under tests/golden/ hold the values the code produced when they were
recorded. A change meant to preserve behaviour must reproduce them at
relative 1e-10; that leaves room for a reordered float sum but not for a
changed result. saddle.json holds, for every cell of the saddle-escape
grid, the escape count and the final iterate as `float.hex` strings; those
must match exactly, bit for bit. Regenerating any of them needs a stated
reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py [mlp lenet cifar-quick saddle]

Named files are rewritten; with no names, all of them.
"""

import json
import os
import sys

import numpy as np
import pytest

from layerlr import rng
from layerlr.data import BatchStream, synth_blobs
from layerlr.landscapes import LANDSCAPE_KINDS, run_escape_trial
from layerlr.nn import build_cifar_quick, build_lenet, build_mlp
from layerlr.optim import group_norm, make_optimizer

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
STEPS = 10
BATCH = 2
RTOL = 1e-10

MLP_CONFIGS = [(kind, layerwise)
               for kind in ("sgd", "momentum", "nag", "adagrad")
               for layerwise in (False, True)]
CONV_CONFIGS = [(kind, True) for kind in ("momentum", "nag")]
ARCHS = {"mlp": MLP_CONFIGS, "lenet": CONV_CONFIGS, "cifar-quick": CONV_CONFIGS}

# The saddle grid: (landscape, start y0, lr) crossed with every rule, with
# the layer-wise multiplier off and on.
SADDLE_CELLS = ([("quadratic-saddle", y0, lr) for lr in (0.1, 0.01)
                 for y0 in (1e-1, 1e-2, 1e-3, 1e-4)]
                + [("monkey-saddle", y0, lr) for lr in (0.1, 0.01) for y0 in (1e-1, 1e-2)])
SADDLE_MAX_ITER = 20000


def _label(kind, layerwise):
    return f"ours-{kind}" if layerwise else kind


def _setup(arch):
    """(network, batch source, learning rate) for one architecture."""
    if arch == "mlp":
        net = build_mlp((8,), [16, 8], 4, activation="relu", seed=5)
        stream = BatchStream(synth_blobs(5, 40, 4, 8), BATCH, seed=5)

        def batches():
            x, y = stream.next_batch()
            return x.reshape(x.shape[0], -1), y
        return net, batches, 0.05
    net = build_lenet(seed=5) if arch == "lenet" else build_cifar_quick(seed=5)
    gen = rng.generator(5, 0x601D)

    def batches():
        return (gen.standard_normal((BATCH,) + net.input_shape),
                gen.integers(0, 10, size=BATCH))
    return net, batches, 0.01


def trajectory(arch, kind, layerwise):
    net, batches, t0 = _setup(arch)
    opt = make_optimizer(kind, t0, layerwise=layerwise)
    params = net.parameters()
    losses, norms = [], []
    for _ in range(STEPS):
        x, y = batches()

        def value_grad():
            loss, grads = net.value_grad(x, y)
            norms.append([group_norm(g) for g in grads])
            return loss, grads
        loss, _ = opt.descend(params, value_grad)
        losses.append(loss)
    return {"loss": losses, "group_norm": norms}


def _saddle_key(land, kind, layerwise, y0, lr):
    return f"{land},{_label(kind, layerwise)},y0={y0:g},lr={lr:g}"


def escape(land, kind, layerwise, y0, lr):
    """Escape count and final iterate (as float.hex) of one saddle cell. The
    final iterate is the last point the trial measures its distance at."""
    landscape = LANDSCAPE_KINDS[land]()
    measured = []
    distance = landscape.escape_distance

    def recording(point):
        measured.append(list(point))
        return distance(point)
    landscape.escape_distance = recording
    iterations = run_escape_trial(make_optimizer(kind, lr, layerwise=layerwise), landscape,
                                  [0.0, y0], max_iter=SADDLE_MAX_ITER)
    return {"escape_iterations": iterations, "final": [v.hex() for v in measured[-1]]}


def saddle_grid():
    return {_saddle_key(land, kind, lw, y0, lr): escape(land, kind, lw, y0, lr)
            for land, y0, lr in SADDLE_CELLS for kind, lw in MLP_CONFIGS}


def _golden_path(arch):
    return os.path.join(GOLDEN_DIR, f"{arch}.json")


@pytest.mark.parametrize("arch,kind,layerwise", [
    (arch, kind, layerwise) for arch, configs in ARCHS.items() for kind, layerwise in configs
])
def test_trajectory_matches_golden(arch, kind, layerwise):
    with open(_golden_path(arch)) as f:
        expected = json.load(f)[_label(kind, layerwise)]
    got = trajectory(arch, kind, layerwise)
    np.testing.assert_allclose(got["loss"], expected["loss"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got["group_norm"], expected["group_norm"], rtol=RTOL, atol=0)


def test_saddle_escapes_match_golden_bitwise():
    with open(_golden_path("saddle")) as f:
        expected = json.load(f)
    got = saddle_grid()
    assert len(got) == 96
    assert got == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sys.argv[1:] or list(ARCHS) + ["saddle"]:
        if name == "saddle":
            golden = saddle_grid()
        else:
            golden = {_label(k, lw): trajectory(name, k, lw) for k, lw in ARCHS[name]}
        with open(_golden_path(name), "w") as f:
            json.dump(golden, f, indent=1, sort_keys=name == "saddle")
            f.write("\n")
        print(f"wrote {_golden_path(name)}")

"""Golden trajectories: per-step loss and per-layer gradient norms.

Each trajectory runs 10 training steps at batch 2 and records the batch
loss and `group_norm` of every layer's gradients at each step. The files
under tests/golden/ hold the values the code produced when they were
recorded. A change meant to preserve behaviour must reproduce them at
relative 1e-10; that leaves room for a reordered float sum but not for a
changed result. Regenerating them needs a stated reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import numpy as np
import pytest

from layerlr import rng
from layerlr.data import BatchStream, synth_blobs
from layerlr.nn import build_cifar_quick, build_lenet, build_mlp
from layerlr.optim import make_optimizer
from layerlr.tensor import group_norm

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
STEPS = 10
BATCH = 2
RTOL = 1e-10

MLP_CONFIGS = [(kind, layerwise)
               for kind in ("sgd", "momentum", "nag", "adagrad")
               for layerwise in (False, True)]
CONV_CONFIGS = [(kind, True) for kind in ("momentum", "nag")]
ARCHS = {"mlp": MLP_CONFIGS, "lenet": CONV_CONFIGS, "cifar-quick": CONV_CONFIGS}


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
            loss, cache = net.forward(x, y)
            grads = net.backward(cache)
            norms.append([group_norm(g) for g in grads])
            return loss, grads
        loss, _ = opt.descend(params, value_grad)
        losses.append(loss)
    return {"loss": losses, "group_norm": norms}


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


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for arch, configs in ARCHS.items():
        golden = {_label(k, lw): trajectory(arch, k, lw) for k, lw in configs}
        with open(_golden_path(arch), "w") as f:
            json.dump(golden, f, indent=1)
            f.write("\n")
        print(f"wrote {_golden_path(arch)}")

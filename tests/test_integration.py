"""End-to-end rehearsal of the MNIST experiment pipeline on synthetic data.

Writes a small 28x28 ten-class dataset in genuine IDX format, loads it
through the MNIST path, and drives LeNet training through repeat_runs with
worker processes, exactly as the dataset-gated acceptance experiments do.
"""

import struct

import numpy as np
import pytest

from layerlr import cli, rng
from layerlr.harness import (
    ExperimentConfig,
    emit_csv,
    load_datasets,
    repeat_runs,
)

MNIST_NAMES = {
    "train-images-idx3-ubyte": ("images", "train"),
    "train-labels-idx1-ubyte": ("labels", "train"),
    "t10k-images-idx3-ubyte": ("images", "test"),
    "t10k-labels-idx1-ubyte": ("labels", "test"),
}


def class_template(label):
    img = np.zeros((28, 28))
    r, c = divmod(label, 4)
    img[2 + 6 * r:8 + 6 * r, 2 + 6 * c:8 + 6 * c] = 1.0
    img[20:26, 10:16] = 0.5 + 0.05 * label
    return img


def write_synthetic_mnist(root, n_train=512, n_test=256):
    gen = rng.generator(99, 0x531D)
    target = root / "mnist"
    target.mkdir(parents=True)
    for split, n in (("train", n_train), ("test", n_test)):
        labels = gen.integers(0, 10, size=n).astype(np.uint8)
        images = np.empty((n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            noisy = 0.75 * class_template(int(lab)) + 0.25 * gen.random((28, 28))
            images[i] = (255 * np.clip(noisy, 0, 1)).astype(np.uint8)
        prefix = "train" if split == "train" else "t10k"
        with open(target / f"{prefix}-images-idx3-ubyte", "wb") as f:
            f.write(struct.pack(">IIII", 0x803, n, 28, 28))
            f.write(images.tobytes())
        with open(target / f"{prefix}-labels-idx1-ubyte", "wb") as f:
            f.write(struct.pack(">II", 0x801, n))
            f.write(labels.tobytes())


@pytest.fixture(scope="module")
def synthetic_mnist_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fake-mnist")
    write_synthetic_mnist(root)
    return root


def test_lenet_experiment_pipeline_end_to_end(synthetic_mnist_dir, tmp_path):
    cfg = ExperimentConfig(
        dataset="mnist", data_dir=str(synthetic_mnist_dir), arch="lenet",
        opt_kind="sgd", opt_layerwise=True, schedule_kind="inverse-time",
        schedule_t0=0.02, schedule_gamma=1e-4, schedule_p=0.75,
        batch_size=16, eval_batch_size=64, max_iterations=40,
        checkpoints=(10, 40), seeds=(0, 1),
    )
    train, test = load_datasets(cfg)
    assert train.images.shape == (512, 1, 28, 28)
    assert test.images.shape == (256, 1, 28, 28)

    table = repeat_runs(cfg, processes=2)  # exercises the worker-pool path
    rows = {(row.variant, row.iteration): row for row in table.rows}
    early, final = rows["ours-sgd", 10], rows["ours-sgd", 40]
    assert early.n == 2 and final.n == 2
    # chance level is 90% error; the patterns are easy enough to beat it fast
    assert final.mean < 60.0
    assert final.mean <= early.mean

    out = tmp_path / "summary.csv"
    emit_csv(table, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,iteration,mean,std,n"
    assert len(lines) == 3


@pytest.mark.parametrize("command", [
    pytest.param(["train"], id="train"),
    pytest.param(["table", "--seeds=0,1,2", "--processes", "3"], id="table-3-workers"),
    pytest.param(["table", "--seeds=0,1,2", "--processes", "1"], id="table-serial"),
])
def test_baseline_rate_warning_is_one_stderr_line(command, synthetic_mnist_dir, tmp_path,
                                                  capfd):
    # capfd also reads what spawned workers write to the inherited stderr.
    code = cli.main(command + [
        "--dataset=mnist", f"--data_dir={synthetic_mnist_dir}", "--arch=lenet",
        "--opt.layerwise=true", "--schedule.t0=0.01", "--batch_size=16",
        "--eval_batch_size=64", "--max_iterations=1", "--out", str(tmp_path / "out.csv")])
    assert code == cli.EXIT_OK
    (line,) = capfd.readouterr().err.splitlines()
    assert line.startswith("warning: layer-wise rates only increase the effective step")
    assert "baseline-tuned rate for 'lenet'" in line

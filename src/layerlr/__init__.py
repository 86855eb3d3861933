"""Layer-wise adaptive learning rates for deep networks.

A per-layer multiplier 1 + ln(1 + 1/||g_l||) rescales any global learning
rate from the current minibatch gradient alone, accelerating layers with
small gradients and leaving large-gradient layers essentially untouched.
The package bundles the wrapped optimizers (SGD, momentum, NAG, AdaGrad),
a minimal float64 backprop engine with a finite-difference oracle, dataset
loaders, analytic saddle-escape benchmarks, and a reproducible
experiment harness with a CLI.
"""

from .data import BatchStream, Dataset, load_cifar10_bin, load_mnist_idx, synth_blobs
from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError
from .landscapes import MonkeySaddle, QuadraticSaddle, run_escape_trial
from .nn import (
    Conv2D,
    Dense,
    MaxPool2D,
    Network,
    ReLU,
    Sigmoid,
    Tanh,
    build_cifar_quick,
    build_lenet,
    build_mlp,
    finite_difference_gradient,
    gradient_check,
    network_from_spec,
)
from .optim import (
    SGD,
    AdaGrad,
    LrSchedule,
    Momentum,
    NAG,
    Optimizer,
    layer_multiplier,
    make_optimizer,
)
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    SummaryTable,
    emit_csv,
    repeat_runs,
    run_experiment,
)

__version__ = "0.1.0"

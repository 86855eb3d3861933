"""Layer-wise adaptive learning rates for deep networks.

A per-layer multiplier 1 + ln(1 + 1/||g_l||) rescales any global learning
rate from the current minibatch gradient alone, accelerating layers with
small gradients and leaving large-gradient layers essentially untouched.
The package bundles the wrapped optimizers (SGD, momentum, NAG, AdaGrad),
a minimal float64 backprop engine with a finite-difference oracle, dataset
loaders, analytic saddle-escape benchmarks, and a reproducible
experiment harness with a CLI. Import each name from its module:
`layerlr.optim`, `nn`, `data`, `landscapes`, `harness`, `errors` or `cli`.
"""

__version__ = "0.1.0"

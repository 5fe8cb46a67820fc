"""Kolmogorov-Arnold networks built on fast elementwise basis functions.

The package bundles a small float32 autograd engine, univariate basis
functions with vectorized NumPy kernels, a model zoo (MLP,
function-combining KAN, spline/RBF KAN baselines), MNIST-format data
loading, an AdamW training harness and a basis-function microbenchmark.
"""

__version__ = "0.1.0"

from .basis import BSplineGrid, RBFGrid  # noqa: F401
from .models import Model, ModelConfig, build_model, count_params  # noqa: F401
from .tensor import Tape, Tensor  # noqa: F401
from .training import TrainConfig, run_experiment, train_model  # noqa: F401

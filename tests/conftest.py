import os

import numpy as np
import pytest

from fckan.data import DatasetSplit, dataset_dir, load_dataset

DATA_ROOT = os.environ.get(
    "FCKAN_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data")
)

def require_dataset(name):
    """Directory holding the four IDX files of a dataset; skips if they are absent."""
    try:
        return dataset_dir(name, DATA_ROOT)
    except FileNotFoundError:
        pytest.skip(f"{name} IDX files not available (set FCKAN_DATA_DIR)")


@pytest.fixture(scope="session")
def mnist():
    return load_dataset("mnist", require_dataset("mnist"))


@pytest.fixture(scope="session")
def fashion_mnist():
    return load_dataset("fashion-mnist", require_dataset("fashion-mnist"))


def synthetic_split(n=120, d=16, classes=3, seed=0, name="synthetic"):
    """Separable toy data: class-dependent mean patterns plus noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    patterns = rng.uniform(0.2, 0.8, size=(classes, d)).astype(np.float32)
    images = np.clip(
        patterns[labels] + rng.normal(0, 0.08, size=(n, d)).astype(np.float32), 0, 1
    )
    return DatasetSplit(images.astype(np.float32), labels.astype(np.int64), name)

import gzip
import os
import struct

import numpy as np
import pytest

from fckan.data import OFFICIAL_COUNTS, SPLIT_FILES, DatasetSplit, dataset_dir, load_dataset

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


def block_digits(n=64, seed=0, classes=10):
    """n seeded 784-pixel samples shaped like MNIST digits.

    Each class has a prototype of lit 3x3-pixel blocks, about 30% of a 7x7
    block grid in the central 21x21 square. A sample is its class prototype
    shifted by up to two pixels each way, scaled by a contrast in [0.6, 1]
    and given Gaussian noise (sd 0.25) on its lit pixels only, then
    quantised to multiples of 1/255 as load_images gives pixels.
    """
    rng = np.random.default_rng(seed)
    lit = rng.random((classes, 7, 7)) < 0.3
    protos = np.zeros((classes, 28, 28))
    protos[:, 3:24, 3:24] = np.kron(lit, np.ones((3, 3)))
    labels = rng.permutation(np.arange(n) % classes)
    images = np.empty((n, 28, 28))
    for i, c in enumerate(labels):
        x = np.roll(protos[c], tuple(rng.integers(-2, 3, size=2)), axis=(0, 1))
        noisy = x * rng.uniform(0.6, 1.0) + rng.normal(0.0, 0.25, x.shape)
        images[i] = np.where(x > 0, np.clip(noisy, 0.0, 1.0), 0.0)
    images = np.rint(images.reshape(n, 784) * 255.0) / 255.0
    return DatasetSplit(images.astype(np.float32), labels.astype(np.int64), f"blocks[{n}]")


def take_subset(split, n, seed=0):
    """A fixed random subset of n rows of a split."""
    idx = np.random.default_rng(seed).permutation(split.n)[:n]
    return DatasetSplit(split.images[idx], split.labels[idx], f"{split.name}[{n}]")


def label_fixture(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


def image_fixture(images):
    n, r, c = images.shape
    return struct.pack(">IIII", 0x00000803, n, r, c) + images.tobytes()


def write_damaged_layout(root, how):
    """The four mnist files under root, empty but for train images, a .gz of a
    small image fixture damaged ``how``: truncated mid-stream, with a bad
    magic or with corrupt deflate data. Returns that file's path."""
    gz = gzip.compress(image_fixture(np.zeros((3, 28, 28), dtype=np.uint8)))
    bad = root / "train-images-idx3-ubyte.gz"
    bad.write_bytes({"truncated": gz[:len(gz) // 2], "header": b"XX" + gz[2:],
                     "deflate": gz[:10] + b"\xff" * 8 + gz[18:]}[how])
    for stem in ("train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        (root / stem).write_bytes(b"")
    return bad


# damaged plain IDX files, (file broken, how): the train split's, which
# load_dataset reads before it checks a split's size
BROKEN_PLAIN = [("train-images-idx3-ubyte", "empty"), ("train-labels-idx1-ubyte", "magic"),
                ("train-images-idx3-ubyte", "truncated"), ("train-labels-idx1-ubyte", "rank")]


def write_broken_plain_layout(root, stem, how):
    """The four mnist files under root as small plain fixtures, the one of
    ``stem`` broken ``how``: empty, with a bad magic, with its payload one
    byte short, or holding an array of the other rank. Returns its path."""
    images = image_fixture(np.zeros((3, 28, 28), dtype=np.uint8))
    labels = label_fixture([1, 2, 3])
    for image_stem, label_stem in SPLIT_FILES.values():
        (root / image_stem).write_bytes(images)
        (root / label_stem).write_bytes(labels)
    bad = root / stem
    good, other = (images, labels) if "images" in stem else (labels, images)
    bad.write_bytes({"empty": b"", "magic": b"\0\0\0\0" + good[4:], "truncated": good[:-1],
                     "rank": other}[how])
    return bad


@pytest.fixture(scope="session")
def random_mnist_dir(tmp_path_factory):
    """A data dir holding mnist in the official layout, filled with random
    28x28 images and labels in [0, 9]."""
    root = tmp_path_factory.mktemp("data")
    (root / "mnist").mkdir()
    rng = np.random.default_rng(0)
    for split, (images, labels) in SPLIT_FILES.items():
        n = OFFICIAL_COUNTS[split]
        (root / "mnist" / images).write_bytes(
            image_fixture(rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)))
        (root / "mnist" / labels).write_bytes(
            label_fixture(rng.integers(0, 10, n, dtype=np.uint8)))
    return str(root)

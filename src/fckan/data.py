"""MNIST / Fashion-MNIST ingestion from IDX files.

The IDX container is big-endian: a u32 magic whose final byte is the rank
(0x00000801 for 1-D u8 labels, 0x00000803 for 3-D u8 images), then rank u32
dimensions, then the raw unsigned bytes. Files ending in .gz are inflated
transparently. Pixels are scaled to [0, 1] by dividing by 255; no mean/std
standardization (the models layer-normalize their input anyway).

Loading never touches the network; the CLI's fetch-data subcommand documents
and performs the download separately.
"""

import gzip
import math
import os
from dataclasses import dataclass

import numpy as np

DATASET_NAMES = ("mnist", "fashion-mnist")

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# canonical filename stems; a .gz suffix is also accepted
SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "val": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

OFFICIAL_COUNTS = {"train": 60000, "val": 10000}


class IdxFormatError(ValueError):
    """Buffer is not a valid IDX container."""


class DataError(ValueError):
    """Dataset files disagree with each other or with the official layout."""


@dataclass
class DatasetSplit:
    """Flattened images in [0, 1] with integer labels in [0, 9]."""

    images: np.ndarray  # float32 [n x 784]
    labels: np.ndarray  # int64 [n]
    name: str  # e.g. "mnist/train"

    @property
    def n(self) -> int:
        return self.images.shape[0]


def parse_idx(buf: bytes):
    """Decode an IDX buffer into (dims, uint8 payload array of that shape)."""
    if len(buf) < 4:
        raise IdxFormatError("buffer shorter than the 4-byte magic")
    magic = int.from_bytes(buf[:4], "big")
    if magic not in (IMAGE_MAGIC, LABEL_MAGIC):
        raise IdxFormatError(f"bad IDX magic 0x{magic:08x}")
    rank = magic & 0xFF
    header = 4 + 4 * rank
    if len(buf) < header:
        raise IdxFormatError("buffer truncated inside the dimension list")
    dims = [int.from_bytes(buf[4 + 4 * i : 8 + 4 * i], "big") for i in range(rank)]
    count = math.prod(dims)
    payload = buf[header:]
    if len(payload) != count:
        raise IdxFormatError(
            f"payload holds {len(payload)} bytes but dims {dims} need {count}"
        )
    try:
        return dims, np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    except ValueError:  # an empty payload whose nonzero dims overflow NumPy's sizes
        raise IdxFormatError(f"dims {dims} are too large for an array") from None


def _read_file(path: str) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if path.endswith(".gz"):
        raw = gzip.decompress(raw)
    return raw


def _path(directory: str, stem: str):
    """The file of an IDX stem in directory, plain or .gz; None if neither exists."""
    for name in (stem, stem + ".gz"):
        p = os.path.join(directory, name)
        if os.path.exists(p):
            return p
    return None


def dataset_dir(name: str, root: str) -> str:
    """The directory holding all four IDX files of a dataset: <root>/<name>,
    else <root>."""
    stems = [s for pair in SPLIT_FILES.values() for s in pair]
    for d in (os.path.join(root, name), root):
        if all(_path(d, s) for s in stems):
            return d
    raise FileNotFoundError(
        f"{name} files not found under {root!r} or {os.path.join(root, name)!r}; "
        f"expected {', '.join(s + '[.gz]' for s in stems)}. "
        f"Try: fckan fetch-data --dataset {name} --data-dir {root}"
    )


def load_images(path: str) -> np.ndarray:
    """Images from an IDX file, flattened row-major and scaled by 1/255."""
    dims, payload = parse_idx(_read_file(path))
    if len(dims) != 3:
        raise IdxFormatError(f"expected 3-D image file, got dims {dims}")
    n = dims[0]
    return (payload.reshape(n, dims[1] * dims[2]).astype(np.float32)) / np.float32(255)


def load_labels(path: str) -> np.ndarray:
    """Labels from an IDX file as int64."""
    dims, payload = parse_idx(_read_file(path))
    if len(dims) != 1:
        raise IdxFormatError(f"expected 1-D label file, got dims {dims}")
    return payload.astype(np.int64)


def load_dataset(name: str, directory: str):
    """Load the official train and validation (10k test) splits from
    ``dataset_dir(name, directory)``.

    Returns (train, val) DatasetSplits and enforces the official layout:
    60000/10000 examples, 784 pixels in [0, 1], labels in [0, 9].
    """
    if name not in DATASET_NAMES:
        raise DataError(f"unknown dataset {name!r}, expected one of {DATASET_NAMES}")
    if directory is None:
        raise DataError(f"no data directory given to load {name} from")
    directory = dataset_dir(name, directory)
    splits = []
    for split, (img_stem, lbl_stem) in SPLIT_FILES.items():
        images = load_images(_path(directory, img_stem))
        labels = load_labels(_path(directory, lbl_stem))
        if images.shape[0] != labels.shape[0]:
            raise DataError(
                f"{name}/{split}: {images.shape[0]} images vs {labels.shape[0]} labels"
            )
        if images.shape[0] != OFFICIAL_COUNTS[split]:
            raise DataError(
                f"{name}/{split}: expected {OFFICIAL_COUNTS[split]} examples, "
                f"got {images.shape[0]}"
            )
        if images.shape[1] != 784:
            raise DataError(f"{name}/{split}: expected 784 pixels per image")
        if labels.min() < 0 or labels.max() > 9:
            raise DataError(f"{name}/{split}: labels outside [0, 9]")
        splits.append(DatasetSplit(images, labels, f"{name}/{split}"))
    return splits[0], splits[1]


def take_subset(split: DatasetSplit, n: int, seed: int = 0) -> DatasetSplit:
    """A fixed random subset, handy for overfitting checks."""
    idx = np.random.default_rng(seed).permutation(split.n)[:n]
    return DatasetSplit(split.images[idx], split.labels[idx], f"{split.name}[{n}]")


def batch_iter(split: DatasetSplit, batch_size: int, seed: int = 0, shuffle: bool = True):
    """Yield (images, labels) batches covering every sample exactly once.

    The permutation is a pure function of the seed; the final partial batch
    is included.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle:
        order = np.random.default_rng(seed).permutation(split.n)
    else:
        order = np.arange(split.n)
    for start in range(0, split.n, batch_size):
        idx = order[start : start + batch_size]
        yield split.images[idx], split.labels[idx]

"""MNIST / Fashion-MNIST ingestion from IDX files.

The IDX container is big-endian: a u32 magic whose final byte is the rank
(0x00000801 for 1-D u8 labels, 0x00000803 for 3-D u8 images), then rank u32
dimensions, then the raw unsigned bytes. Files ending in .gz are inflated
transparently. A file streams in CHUNK-byte pieces straight into the arrays
of its split, so no copy of the whole file is ever held. Pixels are scaled
to [0, 1] by dividing by 255; no mean/std standardization (the models
layer-normalize their input anyway).

Loading never touches the network; the CLI's fetch-data subcommand documents
and performs the download separately.
"""

import gzip
import io
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .basis import count

DATASET_NAMES = ("mnist", "fashion-mnist")

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# canonical filename stems; a .gz suffix is also accepted
SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "val": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

OFFICIAL_COUNTS = {"train": 60000, "val": 10000}

CHUNK = 1 << 18  # bytes per read of an IDX payload: 256 KiB
MAX_INFLATE = 1032  # deflate expands its input at most 1032-fold


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


def _read_payload(f, limit: int, dtype, convert):
    """(dims, payload) of the IDX container in binary file f, the payload an
    array of dtype shaped dims.

    The payload is allocated once and read in CHUNK-byte pieces through one
    buffer; ``convert(out, u8)`` writes each piece into its slice. A payload
    longer than ``limit``, more bytes than f can hold, is only counted. The
    read past the payload rejects trailing bytes, and makes gzip check its
    trailer.
    """
    magic = f.read(4)
    if len(magic) < 4:
        raise IdxFormatError("buffer shorter than the 4-byte magic")
    magic = int.from_bytes(magic, "big")
    if magic not in (IMAGE_MAGIC, LABEL_MAGIC):
        raise IdxFormatError(f"bad IDX magic 0x{magic:08x}")
    rank = magic & 0xFF
    raw = f.read(4 * rank)
    if len(raw) < 4 * rank:
        raise IdxFormatError("buffer truncated inside the dimension list")
    dims = list(struct.unpack(f">{rank}I", raw))
    count = math.prod(dims)
    out = np.empty(count if count <= limit else 0, dtype=dtype)
    chunk = np.empty(CHUNK, dtype=np.uint8)
    held = 0
    while held < out.size and (n := f.readinto(chunk[: out.size - held])):
        convert(out[held : held + n], chunk[:n])
        held += n
    while n := f.readinto(chunk):
        held += n
    if held != count:
        raise IdxFormatError(f"payload holds {held} bytes but dims {dims} need {count}")
    try:
        return dims, out.reshape(dims)
    except ValueError:  # an empty payload whose nonzero dims overflow NumPy's sizes
        raise IdxFormatError(f"dims {dims} are too large for an array") from None


def parse_idx(buf: bytes):
    """Decode an IDX buffer into (dims, uint8 payload array of that shape)."""
    return _read_payload(io.BytesIO(buf), len(buf), np.uint8, np.copyto)


def _read_idx(path: str, rank: int, what: str, dtype, convert) -> np.ndarray:
    """The payload of the rank-``rank`` IDX file at path, gzip-inflated if
    its name ends in .gz, read by _read_payload; every format error names the
    file."""
    gz = path.endswith(".gz")
    limit = os.path.getsize(path) * (MAX_INFLATE if gz else 1)
    try:
        with (gzip.open if gz else open)(path, "rb") as f:
            dims, payload = _read_payload(f, limit, dtype, convert)
    except IdxFormatError as e:
        raise IdxFormatError(f"{path}: {e}") from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise IdxFormatError(f"{path} is not a whole gzip file: {e}") from None
    if len(dims) != rank:
        raise IdxFormatError(f"{path}: expected {what} file, got dims {dims}")
    return payload


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


def _scale_pixels(out, u8):
    # the bits of u8.astype(np.float32) / np.float32(255), in one pass
    np.divide(u8, np.float32(255), out=out, dtype=np.float32)


def load_images(path: str) -> np.ndarray:
    """Images from an IDX file, flattened row-major and scaled by 1/255."""
    images = _read_idx(path, 3, "3-D image", np.float32, _scale_pixels)
    n, rows, cols = images.shape
    return images.reshape(n, rows * cols)


def load_labels(path: str) -> np.ndarray:
    """Labels from an IDX file as int64."""
    return _read_idx(path, 1, "1-D label", np.int64, np.copyto)


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


def batch_iter(split: DatasetSplit, batch_size: int, seed: int = 0):
    """Yield (images, labels) batches covering every sample exactly once, in
    a shuffled order.

    The permutation is a pure function of the seed; the final partial batch
    is included.
    """
    count("batch_size", batch_size, 1)
    order = np.random.default_rng(seed).permutation(split.n)
    for start in range(0, split.n, batch_size):
        idx = order[start : start + batch_size]
        yield split.images[idx], split.labels[idx]

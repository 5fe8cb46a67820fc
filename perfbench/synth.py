"""Synthetic MNIST-shaped IDX files, generated from a seed.

Each split holds 28x28 uint8 images and uint8 labels in [0, 9], in the same
gzipped IDX layout as the real MNIST files, so they load through
``fckan.data.load_dataset`` unchanged. Every class has one prototype: a
common random pattern of 3x3-pixel blocks in the central 21x21 square,
about 30% of the blocks lit, with 6 of its 49 blocks flipped for that
class. A sample is its class prototype shifted by up to two
pixels each way, scaled by a random contrast in [0.6, 1.0] and given
Gaussian noise (sd 0.25) on its lit pixels only, so backgrounds stay
exactly zero as in MNIST. Classes are learnable within a few hundred steps
but not separable at a glance.

The same seed always gives the same bytes. Files are cached per seed
under ``<cache>/<seed>/``; a new seed replaces the old entries.
"""

import gzip
import os
import shutil

import numpy as np

SIDE = 28
CLASSES = 10
SPLITS = {  # split name -> (image file, label file, sample count)
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz", 60000),
    "val": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz", 10000),
}
SHIFT = 2  # largest shift in pixels, each way
FLIPS = 6  # blocks in which a class differs from the common pattern
NOISE = 0.25
_CHUNK = 250  # samples per generation chunk: float temporaries under 1 MB each


def prototypes(seed):
    """[10 x 28 x 28] float32 class patterns in [0, 1]."""
    rng = np.random.default_rng([seed, 0])
    common = rng.random((7, 7)) < 0.3
    flips = np.zeros((CLASSES, 49), dtype=bool)
    for c in range(CLASSES):
        flips[c, rng.choice(49, size=FLIPS, replace=False)] = True
    blocks = (common ^ flips.reshape(CLASSES, 7, 7)).astype(np.float32)
    blocks *= rng.uniform(0.7, 1.0, size=blocks.shape).astype(np.float32)
    protos = np.zeros((CLASSES, SIDE, SIDE), dtype=np.float32)
    protos[:, 3:24, 3:24] = np.kron(blocks, np.ones((3, 3), dtype=np.float32))
    return protos


def generate_split(seed, split):
    """(labels uint8 [n], chunks) for one split.

    ``chunks`` yields (start, images uint8 [c x 28 x 28]) in order, so that a
    whole split is never held in memory at once.
    """
    n = SPLITS[split][2]
    protos = prototypes(seed)
    rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    labels = rng.integers(0, CLASSES, size=n).astype(np.uint8)
    shifts = rng.integers(-SHIFT, SHIFT + 1, size=(n, 2))

    def chunks():
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            x = protos[labels[start:stop]]
            for dy in range(-SHIFT, SHIFT + 1):
                for dx in range(-SHIFT, SHIFT + 1):
                    sel = np.nonzero((shifts[start:stop, 0] == dy) & (shifts[start:stop, 1] == dx))[0]
                    x[sel] = np.roll(x[sel], (dy, dx), axis=(1, 2))
            lit = x > 0
            x *= rng.uniform(0.6, 1.0, size=(stop - start, 1, 1)).astype(np.float32)
            x += rng.standard_normal(size=x.shape, dtype=np.float32) * np.float32(NOISE)
            x = np.where(lit, np.clip(x, 0.0, 1.0), np.float32(0.0))
            yield start, np.rint(x * np.float32(255.0)).astype(np.uint8)

    return labels, chunks()


def idx_header(shape):
    """IDX magic and dimensions of a uint8 array of rank 1 or 3."""
    header = (0x800 | len(shape)).to_bytes(4, "big")
    return header + b"".join(int(d).to_bytes(4, "big") for d in shape)


def write_dataset(seed, cache_dir):
    """Generate (or reuse) the four IDX files for ``seed``; returns their directory."""
    directory = os.path.join(cache_dir, str(seed))
    if not os.path.isdir(directory):
        if os.path.isdir(cache_dir):
            for old in os.listdir(cache_dir):
                shutil.rmtree(os.path.join(cache_dir, old), ignore_errors=True)
        tmp = directory + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for split, (img_name, lbl_name, n) in SPLITS.items():
            labels, chunks = generate_split(seed, split)
            with gzip.open(os.path.join(tmp, lbl_name), "wb", compresslevel=1) as f:
                f.write(idx_header(labels.shape))
                f.write(labels.data)
            with gzip.open(os.path.join(tmp, img_name), "wb", compresslevel=1) as f:
                f.write(idx_header((n, SIDE, SIDE)))
                for _, images in chunks:
                    f.write(images.data)
        os.rename(tmp, directory)
    return directory

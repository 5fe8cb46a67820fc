import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import require_dataset, synthetic_split
from fckan.data import (
    DataError,
    IdxFormatError,
    batch_iter,
    dataset_dir,
    load_dataset,
    load_images,
    load_labels,
    parse_idx,
    take_subset,
)


def label_fixture(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


def image_fixture(images):
    n, r, c = images.shape
    return struct.pack(">IIII", 0x00000803, n, r, c) + images.tobytes()


class TestParseIdx:
    def test_label_fixture_round_trip(self):
        dims, payload = parse_idx(label_fixture([7, 2, 1]))
        assert dims == [3]
        assert payload.tolist() == [7, 2, 1]

    def test_image_fixture_round_trip(self):
        img = np.arange(784, dtype=np.uint8).reshape(1, 28, 28)
        dims, payload = parse_idx(image_fixture(img))
        assert dims == [1, 28, 28]
        assert np.array_equal(payload, img)

    def test_bad_magic(self):
        with pytest.raises(IdxFormatError, match="0x00000000"):
            parse_idx(bytes(16))

    def test_truncated_payload(self):
        buf = struct.pack(">II", 0x00000801, 5) + bytes([1, 2])
        with pytest.raises(IdxFormatError, match="5"):
            parse_idx(buf)

    def test_short_buffer(self):
        with pytest.raises(IdxFormatError):
            parse_idx(b"\x00\x00")

    def test_dims_product_does_not_wrap(self):
        # 2^31 cubed is 0 in int64; the exact product rejects the empty payload
        buf = struct.pack(">IIII", 0x00000803, 2**31, 2**31, 2**31)
        with pytest.raises(IdxFormatError, match=str(2**93)):
            parse_idx(buf)
        big = 2**32 - 1
        with pytest.raises(IdxFormatError, match=str(big**3)):
            parse_idx(struct.pack(">IIII", 0x00000803, big, big, big))

    def test_empty_payload_with_oversized_dims(self):
        for dims in ((0, 2**32 - 1, 2**32 - 1), (2**32 - 1, 2**32 - 1, 0)):
            with pytest.raises(IdxFormatError, match="too large"):
                parse_idx(struct.pack(">IIII", 0x00000803, *dims))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | st.sampled_from([1, 3]).flatmap(lambda rank: st.builds(
        lambda dims, payload: (0x800 + rank).to_bytes(4, "big")
        + b"".join(d.to_bytes(4, "big") for d in dims) + payload,
        st.lists(st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]), min_size=rank,
                 max_size=rank),
        st.binary(max_size=8),
    )))
    def test_arbitrary_bytes_raise_only_idx_format_error(self, buf):
        try:
            dims, payload = parse_idx(buf)
        except IdxFormatError:
            return
        assert list(payload.shape) == dims


class TestLoaders:
    def test_all_white_image_normalizes_to_one(self, tmp_path):
        img = np.full((1, 28, 28), 0xFF, dtype=np.uint8)
        p = tmp_path / "imgs-idx3-ubyte"
        p.write_bytes(image_fixture(img))
        images = load_images(str(p))
        assert images.shape == (1, 784)
        assert images.dtype == np.float32
        assert np.all(images == 1.0)

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "labels-idx1-ubyte.gz"
        p.write_bytes(gzip.compress(label_fixture([3, 1, 4])))
        assert load_labels(str(p)).tolist() == [3, 1, 4]

    def test_missing_file_names_expected_stem(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images-idx3-ubyte"):
            load_dataset("mnist", str(tmp_path))

    def test_no_directory_is_a_data_error(self):
        with pytest.raises(DataError, match="no data directory"):
            load_dataset("mnist", None)

    def test_unknown_dataset_name(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset("cifar10", str(tmp_path))

    def test_count_mismatch_detected(self, tmp_path):
        imgs = np.zeros((3, 28, 28), dtype=np.uint8)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(image_fixture(imgs))
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(label_fixture([1, 2]))
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(image_fixture(imgs))
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(label_fixture([1, 2, 3]))
        with pytest.raises(DataError, match="3 images vs 2 labels"):
            load_dataset("mnist", str(tmp_path))

    def test_dataset_directory_choice(self, tmp_path):
        stems = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
        with pytest.raises(FileNotFoundError, match="fckan fetch-data --dataset mnist"):
            dataset_dir("mnist", str(tmp_path))
        for stem in stems:
            (tmp_path / stem).write_bytes(b"")
        assert dataset_dir("mnist", str(tmp_path)) == str(tmp_path)
        (tmp_path / "mnist").mkdir()
        for stem in stems[:3]:  # an incomplete <root>/<name> is passed over
            (tmp_path / "mnist" / (stem + ".gz")).write_bytes(b"")
        assert dataset_dir("mnist", str(tmp_path)) == str(tmp_path)
        (tmp_path / "mnist" / stems[3]).write_bytes(b"")
        assert dataset_dir("mnist", str(tmp_path)) == str(tmp_path / "mnist")

    def test_loads_from_dataset_subdirectory(self, tmp_path):
        imgs = np.zeros((3, 28, 28), dtype=np.uint8)
        sub = tmp_path / "fashion-mnist"
        sub.mkdir()
        (sub / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(image_fixture(imgs)))
        (sub / "train-labels-idx1-ubyte").write_bytes(label_fixture([1, 2]))
        (sub / "t10k-images-idx3-ubyte").write_bytes(image_fixture(imgs))
        (sub / "t10k-labels-idx1-ubyte").write_bytes(label_fixture([1, 2, 3]))
        with pytest.raises(DataError, match="fashion-mnist/train: 3 images vs 2 labels"):
            load_dataset("fashion-mnist", str(tmp_path))


class TestRealDatasets:
    @pytest.mark.parametrize("name", ["mnist", "fashion-mnist"])
    def test_official_layout(self, name):
        train, val = load_dataset(name, require_dataset(name))
        assert train.n == 60000 and val.n == 10000
        for split in (train, val):
            assert split.images.shape[1] == 784
            assert split.images.min() >= 0.0 and split.images.max() <= 1.0
            assert split.labels.min() >= 0 and split.labels.max() <= 9

    def test_shuffle_seeds_differ_on_full_train(self, mnist):
        train, _ = mnist
        first = next(batch_iter(train, 64, seed=0))[1]
        second = next(batch_iter(train, 64, seed=1))[1]
        assert not np.array_equal(first, second)


class TestBatchIter:
    def test_partition_sizes(self):
        split = synthetic_split(n=10)
        sizes = [len(y) for _, y in batch_iter(split, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        split = synthetic_split(n=50)
        a = [y.tolist() for _, y in batch_iter(split, 8, seed=3)]
        b = [y.tolist() for _, y in batch_iter(split, 8, seed=3)]
        assert a == b

    def test_epoch_covers_every_sample_once(self):
        split = synthetic_split(n=37)
        seen = []
        for xb, yb in batch_iter(split, 5, seed=1):
            for row, label in zip(xb, yb):
                matches = np.nonzero((split.images == row).all(axis=1))[0]
                assert len(matches) >= 1
                seen.append(int(matches[0]))
        assert sorted(set(seen)) == list(range(37))

    def test_no_shuffle_is_sequential(self):
        split = synthetic_split(n=12)
        xb, yb = next(batch_iter(split, 12, seed=0, shuffle=False))
        assert np.array_equal(xb, split.images)
        assert np.array_equal(yb, split.labels)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            next(batch_iter(synthetic_split(n=4), 0))

    def test_take_subset(self):
        split = synthetic_split(n=50)
        sub = take_subset(split, 16, seed=0)
        assert sub.n == 16
        again = take_subset(split, 16, seed=0)
        assert np.array_equal(sub.images, again.images)

import gzip
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BROKEN_PLAIN,
    image_fixture,
    label_fixture,
    require_dataset,
    synthetic_split,
    take_subset,
    write_broken_plain_layout,
    write_damaged_layout,
)
from fckan import data
from fckan.basis import ConfigError
from fckan.data import (
    DataError,
    IdxFormatError,
    batch_iter,
    dataset_dir,
    load_dataset,
    load_images,
    load_labels,
    parse_idx,
)


# arbitrary bytes, or an IDX header of rank 1 or 3 with edge dims and a short payload
IDX_LIKE_BYTES = st.binary(max_size=64) | st.sampled_from([1, 3]).flatmap(lambda rank: st.builds(
    lambda dims, payload: (0x800 + rank).to_bytes(4, "big")
    + b"".join(d.to_bytes(4, "big") for d in dims) + payload,
    st.lists(st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]), min_size=rank, max_size=rank),
    st.binary(max_size=8),
))


def write_idx(path, raw):
    """raw at path, gzipped if the name ends in .gz; returns the path as a str."""
    path.write_bytes(gzip.compress(raw) if path.name.endswith(".gz") else raw)
    return str(path)


def scaled(raw):
    """The images of an IDX buffer as the whole-buffer decoder scales them."""
    dims, payload = parse_idx(raw)
    return payload.reshape(dims[0], dims[1] * dims[2]).astype(np.float32) / np.float32(255)


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
    @given(IDX_LIKE_BYTES)
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

    @pytest.mark.parametrize("how", ["truncated", "header", "deflate"])
    def test_damaged_gz_is_an_idx_format_error_naming_the_file(self, tmp_path, how):
        bad = write_damaged_layout(tmp_path, how)
        with pytest.raises(IdxFormatError, match=re.escape(f"{bad} is not a whole gzip file: ")):
            load_dataset("mnist", str(tmp_path))

    @pytest.mark.parametrize("stem,how", BROKEN_PLAIN)
    def test_broken_plain_file_is_an_idx_format_error_naming_the_file(self, tmp_path, stem, how):
        bad = write_broken_plain_layout(tmp_path, stem, how)
        with pytest.raises(IdxFormatError, match=re.escape(f"{bad}: ")):
            load_dataset("mnist", str(tmp_path))


class TestStreamingReader:
    """The loaders stream a file through a CHUNK-byte buffer; these tests pin
    what they read to what parse_idx makes of the whole inflated buffer."""

    @pytest.mark.parametrize("name", ["idx", "idx.gz"])
    @pytest.mark.parametrize("chunk", [1, 3, 17])
    def test_reads_split_anywhere(self, tmp_path, monkeypatch, name, chunk):
        # four 5x7 images and 40 labels: reads of 1, 3 or 17 bytes end mid-row,
        # after a header read as its magic, then its dims
        monkeypatch.setattr(data, "CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        raw = image_fixture(rng.integers(0, 256, (4, 5, 7), dtype=np.uint8))
        images = load_images(write_idx(tmp_path / ("images-" + name), raw))
        assert images.tobytes() == scaled(raw).tobytes()
        labels = rng.integers(0, 10, 40, dtype=np.uint8)
        loaded = load_labels(write_idx(tmp_path / ("labels-" + name), label_fixture(labels)))
        assert loaded.dtype == np.int64 and loaded.tolist() == labels.tolist()

    @pytest.mark.parametrize("shape", [(1, 28, 28), (9, 28, 28), (3, 1, 1), (0, 28, 28)])
    def test_images_bit_identical_to_the_whole_buffer_decode(self, tmp_path, shape):
        rng = np.random.default_rng(shape)
        gz = gzip.compress(image_fixture(rng.integers(0, 256, shape, dtype=np.uint8)))
        p = tmp_path / "images.gz"
        p.write_bytes(gz)
        images = load_images(str(p))
        want = scaled(gzip.decompress(gz))
        assert images.dtype == np.float32 and images.shape == want.shape
        assert images.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cut", [6, 100])  # inside the header, inside the payload
    def test_multi_member_gz(self, tmp_path, monkeypatch, cut):
        monkeypatch.setattr(data, "CHUNK", 64)
        raw = image_fixture(np.random.default_rng(cut).integers(0, 256, (2, 28, 28),
                                                                  dtype=np.uint8))
        p = tmp_path / "images.gz"
        p.write_bytes(gzip.compress(raw[:cut]) + gzip.compress(raw[cut:]))
        assert load_images(str(p)).tobytes() == scaled(raw).tobytes()

    def test_gz_truncated_mid_payload(self, tmp_path):
        # random pixels barely compress, so three quarters of the file ends mid-payload
        raw = image_fixture(np.random.default_rng(0).integers(0, 256, (8, 28, 28),
                                                              dtype=np.uint8))
        gz = gzip.compress(raw)
        p = tmp_path / "images.gz"
        p.write_bytes(gz[: len(gz) * 3 // 4])
        with pytest.raises(IdxFormatError, match=re.escape(f"{p} is not a whole gzip file: ")):
            load_images(str(p))

    @pytest.mark.parametrize("where", [-8, -4])  # the CRC32, the length mod 2^32
    def test_gz_trailer_is_checked(self, tmp_path, where):
        gz = bytearray(gzip.compress(label_fixture([1, 2, 3])))
        gz[where] ^= 0x01
        p = tmp_path / "labels.gz"
        p.write_bytes(bytes(gz))
        with pytest.raises(IdxFormatError, match=re.escape(f"{p} is not a whole gzip file: ")):
            load_labels(str(p))

    @pytest.mark.parametrize("name", ["labels", "labels.gz"])
    @pytest.mark.parametrize("extra,held", [(b"", 2), (b"\x04", 4), (b"\x04" * 300, 303)])
    def test_payload_too_short_or_too_long(self, tmp_path, name, extra, held):
        raw = label_fixture([1, 2, 3])
        p = write_idx(tmp_path / name, (raw[:-1] if held == 2 else raw) + extra)
        with pytest.raises(IdxFormatError, match=re.escape(
                f"{p}: payload holds {held} bytes but dims [3] need 3")):
            load_labels(p)

    def test_dims_larger_than_the_file_are_counted_not_allocated(self, tmp_path):
        for name in ("images", "images.gz"):
            p = write_idx(tmp_path / name, struct.pack(">IIII", 0x00000803, 2**31, 2**31, 2)
                          + bytes(5))
            with pytest.raises(IdxFormatError, match=re.escape(
                    f"{p}: payload holds 5 bytes but dims [{2**31}, {2**31}, 2] need {2**63}")):
                load_images(p)

    @settings(max_examples=300, deadline=None)
    @given(IDX_LIKE_BYTES)
    # no pixels, but 2^62 of them per image: the float32 array is too large
    @example(struct.pack(">IIII", 0x00000803, 0, 2**31, 2**31))
    def test_arbitrary_files_raise_only_idx_format_error_naming_them(self, tmp_path_factory,
                                                                     buf):
        d = tmp_path_factory.getbasetemp() / "arbitrary"
        d.mkdir(exist_ok=True)
        for p, raw in ((d / "idx", buf), (d / "idx.gz", gzip.compress(buf)),
                       (d / "raw.gz", buf)):
            p.write_bytes(raw)
            for load in (load_images, load_labels):
                try:
                    out = load(str(p))
                except IdxFormatError as e:
                    assert str(e).startswith(f"{p}: ") or str(e).startswith(
                        f"{p} is not a whole gzip file: "), e
                    continue
                # whatever loads is what parse_idx makes of the inflated bytes
                inflated = gzip.decompress(raw) if p.name.endswith(".gz") else raw
                want = (scaled(inflated) if load is load_images
                        else parse_idx(inflated)[1].astype(np.int64))
                assert out.shape == want.shape and out.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("batch_size", [0, 2.5])
    def test_bad_batch_size(self, batch_size):
        with pytest.raises(ConfigError, match="batch_size"):
            next(batch_iter(synthetic_split(n=4), batch_size))

    def test_take_subset(self):
        split = synthetic_split(n=50)
        sub = take_subset(split, 16, seed=0)
        assert sub.n == 16
        again = take_subset(split, 16, seed=0)
        assert np.array_equal(sub.images, again.images)

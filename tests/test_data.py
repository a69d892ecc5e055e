import math
import struct

import numpy as np
import pytest

from ssnl.data import (
    HsiCube,
    LabelRaster,
    augment,
    extract_window,
    load_cube,
    load_labels,
    scale_bands,
    scene_windows,
    split_samples,
    synthesize_cube,
    write_cube,
    write_labels,
)
from ssnl.errors import (
    ConfigError,
    ContractError,
    FormatError,
    HeaderError,
    MagicError,
    TruncatedError,
)


# -- cube file format -------------------------------------------------------------


def test_cube_single_value_roundtrip(tmp_path):
    cube = HsiCube(np.full((1, 1, 1), 0.5))
    path = tmp_path / "one.cube"
    write_cube(path, cube)
    loaded = load_cube(path)
    assert loaded.values.shape == (1, 1, 1)
    assert loaded.values[0, 0, 0] == 0.5


def test_cube_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    cube = HsiCube(rng.standard_normal((4, 5, 6)))
    first = tmp_path / "a.cube"
    second = tmp_path / "b.cube"
    write_cube(first, cube)
    write_cube(second, load_cube(first))
    assert first.read_bytes() == second.read_bytes()


def test_cube_band_sequential_order(tmp_path):
    # linear payload index = band*(rows*cols) + row*cols + col
    path = tmp_path / "bsq.cube"
    payload = struct.pack("<12f", *range(12))
    path.write_bytes(b"HSICUBE1\n" + b"2 2 3\n" + payload)
    cube = load_cube(path)
    rows, cols, bands = 2, 2, 3
    for band in range(bands):
        for row in range(rows):
            for col in range(cols):
                assert cube.values[row, col, band] == band * rows * cols + row * cols + col
    assert cube.values[0, 1, 2] == 9.0
    assert cube.values[1, 0, 2] == 10.0


def test_cube_golden_bytes_by_construction(tmp_path):
    values = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
    path = tmp_path / "golden.cube"
    write_cube(path, HsiCube(values))
    bsq = values.transpose(2, 0, 1).astype("<f4").tobytes()
    assert path.read_bytes() == b"HSICUBE1\n2 2 3\n" + bsq


def test_cube_bad_magic(tmp_path):
    path = tmp_path / "bad.cube"
    path.write_bytes(b"NOTCUBE1\n1 1 1\n" + b"\x00" * 4)
    with pytest.raises(MagicError):
        load_cube(path)


def test_cube_truncated_payload(tmp_path):
    path = tmp_path / "short.cube"
    path.write_bytes(b"HSICUBE1\n2 2 2\n" + b"\x00" * 8)
    with pytest.raises(TruncatedError):
        load_cube(path)


def test_cube_nonpositive_dimension(tmp_path):
    path = tmp_path / "dims.cube"
    path.write_bytes(b"HSICUBE1\n0 2 2\n")
    with pytest.raises(HeaderError):
        load_cube(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cube_non_finite_payload_rejected(tmp_path, bad):
    path = tmp_path / "nan.cube"
    write_cube(path, HsiCube(np.ones((2, 2, 3))))
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_cube(path)


def test_cube_values_are_float32(tmp_path):
    cube = HsiCube(np.full((2, 2, 2), 0.1))
    assert cube.values.dtype == np.float32
    path = tmp_path / "f.cube"
    write_cube(path, cube)
    assert load_cube(path).values.dtype == np.float32
    assert scale_bands(cube).values.dtype == np.float32


def test_label_roundtrip_and_golden(tmp_path):
    labels = LabelRaster(np.array([[0, 1], [2, 3]]))
    path = tmp_path / "l.lbl"
    write_labels(path, labels)
    assert path.read_bytes() == b"HSILBL1\n2 2\n" + struct.pack("<4H", 0, 1, 2, 3)
    loaded = load_labels(path)
    np.testing.assert_array_equal(loaded.labels, labels.labels)


def test_label_bad_magic(tmp_path):
    path = tmp_path / "bad.lbl"
    path.write_bytes(b"HSICUBE1\n1 1\n" + b"\x00\x00")
    with pytest.raises(MagicError):
        load_labels(path)


# -- synthetic scenes ---------------------------------------------------------------


def test_synthesize_deterministic():
    a_cube, a_labels = synthesize_cube(8, 6, 10, 3, 0.1, seed=42)
    b_cube, b_labels = synthesize_cube(8, 6, 10, 3, 0.1, seed=42)
    np.testing.assert_array_equal(a_cube.values, b_cube.values)
    np.testing.assert_array_equal(a_labels.labels, b_labels.labels)


def test_synthesize_classes_have_distinct_peaks():
    cube, labels = synthesize_cube(8, 6, 16, 2, 0.0, seed=1)
    mean1 = cube.values[labels.labels == 1].mean(axis=0)
    mean2 = cube.values[labels.labels == 2].mean(axis=0)
    assert not np.array_equal(mean1, mean2)
    assert np.argmax(mean1) != np.argmax(mean2)


def test_synthesize_every_pixel_labeled():
    _, labels = synthesize_cube(10, 4, 8, 4, 0.3, seed=7)
    assert (labels.labels >= 1).all()
    assert set(np.unique(labels.labels)) == {1, 2, 3, 4}


def test_synthesize_too_many_classes():
    with pytest.raises(ConfigError):
        synthesize_cube(3, 3, 8, 4, 0.0, seed=0)


def test_synthesize_center_spectra_linearly_separable():
    # one-vs-rest least-squares probe must reach 100% on the noise-free scene
    cube, labels = synthesize_cube(12, 10, 16, 4, 0.0, seed=3)
    x = cube.values.reshape(-1, 16)
    y = labels.labels.reshape(-1)
    design = np.hstack([x, np.ones((len(x), 1))])
    scores = np.zeros((len(x), 4))
    for cls in range(1, 5):
        target = (y == cls).astype(float)
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        scores[:, cls - 1] = design @ coef
    predicted = scores.argmax(axis=1) + 1
    assert (predicted == y).all()


# -- splits ------------------------------------------------------------------------


def test_split_table_sized_class():
    labels = LabelRaster(np.full((1251, 1), 1))
    spec = split_samples(labels, 0.10, seed=0)
    assert len(spec.train[1]) == 125
    assert len(spec.test[1]) == 1126


def test_split_small_class_keeps_one():
    labels = LabelRaster(np.full((10, 1), 1))
    spec = split_samples(labels, 0.10, seed=0)
    assert len(spec.train[1]) == 1
    assert len(spec.test[1]) == 9


def test_split_deterministic():
    rng = np.random.default_rng(5)
    labels = LabelRaster(rng.integers(0, 4, size=(20, 20)))
    a = split_samples(labels, 0.3, seed=9)
    b = split_samples(labels, 0.3, seed=9)
    assert a.train == b.train and a.test == b.test


def test_split_partition_properties():
    # train/test disjoint, union = labeled pixels, per-class counts exact
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        k = int(rng.integers(1, 6))
        labels = LabelRaster(rng.integers(0, k + 1, size=(rows, cols)))
        ratio = float(rng.uniform(0.05, 0.9))
        spec = split_samples(labels, ratio, seed=seed)
        train_set = {c for coords in spec.train.values() for c in coords}
        test_set = {c for coords in spec.test.values() for c in coords}
        assert not train_set & test_set
        labeled = {tuple(c) for c in np.argwhere(labels.labels > 0)}
        assert train_set | test_set == labeled
        for cls, coords in spec.train.items():
            n = int((labels.labels == cls).sum())
            assert len(coords) == max(1, int(math.floor(ratio * n)))
        for cls in spec.skipped:
            assert (labels.labels == cls).sum() == 0


def test_split_skips_empty_class_with_warning_record():
    labels = LabelRaster(np.array([[1, 1], [3, 3]]))  # class 2 absent
    spec = split_samples(labels, 0.5, seed=0)
    assert spec.skipped == [2]
    assert 2 not in spec.train


def test_split_rejects_bad_ratio():
    labels = LabelRaster(np.ones((4, 4), dtype=int))
    for ratio in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            split_samples(labels, ratio, seed=0)


# -- patches -----------------------------------------------------------------------


def test_patch_size_one_is_single_spectrum():
    cube, _ = synthesize_cube(4, 4, 5, 2, 0.0, seed=0)
    patch = extract_window(cube, 2, 3, 1)
    np.testing.assert_array_equal(patch[0, 0], cube.values[2, 3])


def test_patch_center_pixel_matches_cube():
    cube, _ = synthesize_cube(6, 6, 4, 2, 0.2, seed=1)
    patch = extract_window(cube, 3, 2, 5)
    np.testing.assert_array_equal(patch[2, 2], cube.values[3, 2])


def test_patch_corner_reflection():
    # mirror(i) = |i| for i < 0: corner (0,0) of a 2x2 cube reflects to (1,1)
    rng = np.random.default_rng(2)
    cube = HsiCube(rng.standard_normal((2, 2, 3)))
    patch = extract_window(cube, 0, 0, 3)
    np.testing.assert_array_equal(patch[0, 0], cube.values[1, 1])
    np.testing.assert_array_equal(patch[1, 1], cube.values[0, 0])


def test_patch_even_size_rejected():
    cube, _ = synthesize_cube(4, 4, 3, 2, 0.0, seed=0)
    with pytest.raises(ConfigError):
        extract_window(cube, 1, 1, 4)


def test_patch_center_outside_rejected():
    cube, _ = synthesize_cube(4, 4, 3, 2, 0.0, seed=0)
    with pytest.raises(ContractError):
        extract_window(cube, 4, 0, 3)


def _mirror_indices(start, count, n):
    # reflect-index oracle: out-of-range indices fold back about the edges,
    # the edge pixel not duplicated, period 2n - 2
    idx = np.arange(start, start + count)
    if n == 1:
        return np.zeros(count, dtype=np.int64)
    period = 2 * n - 2
    m = idx % period
    return np.where(m > n - 1, period - m, m)


def test_scene_windows_match_reflect_index_oracle():
    rng = np.random.default_rng(0)
    for rows in range(1, 8):
        for cols in range(1, 8):
            cube = HsiCube(rng.standard_normal((rows, cols, 2)))
            for p in range(1, 2 * max(rows, cols) + 2, 2):
                windows = scene_windows(cube, p)
                assert windows.shape == (rows, cols, p, p, 2)
                for r in range(rows):
                    for c in range(cols):
                        expected = cube.values[np.ix_(_mirror_indices(r - p // 2, p, rows),
                                                      _mirror_indices(c - p // 2, p, cols))]
                        np.testing.assert_array_equal(windows[r, c], expected)
                        np.testing.assert_array_equal(extract_window(cube, r, c, p), expected)


# -- augmentation -------------------------------------------------------------------


def _random_patch(seed, p=5, bands=4):
    return np.random.default_rng(seed).standard_normal((p, p, bands))


def test_augment_returns_six_variants():
    patch = _random_patch(0)
    variants = augment(patch)
    assert len(variants) == 6
    assert all(v.shape == patch.shape for v in variants)


def test_rot90_four_times_is_identity():
    patch = _random_patch(2)
    data = patch
    for _ in range(4):
        data = augment(data)[2]  # rot90 slot
    np.testing.assert_array_equal(data, patch)


def test_flips_are_involutions():
    patch = _random_patch(3)
    hflip = augment(patch)[4]
    np.testing.assert_array_equal(augment(hflip)[4], patch)
    vflip = augment(patch)[5]
    np.testing.assert_array_equal(augment(vflip)[5], patch)


def test_exact_variants_preserve_value_multiset():
    patch = _random_patch(4)
    variants = augment(patch)
    for i in (2, 4, 5):  # rot90, hflip, vflip are exact permutations
        np.testing.assert_array_equal(np.sort(variants[i].ravel()), np.sort(patch.ravel()))


def test_constant_patch_invariant_under_all_variants():
    patch = np.full((5, 5, 3), 2.5)
    for variant in augment(patch):
        np.testing.assert_array_equal(variant, patch)


def test_augment_rejects_non_square():
    with pytest.raises(ContractError):
        augment(np.zeros((3, 5, 2)))


def test_augment_deterministic():
    for va, vb in zip(augment(_random_patch(6)), augment(_random_patch(6))):
        np.testing.assert_array_equal(va, vb)


# -- band scaling -------------------------------------------------------------------


def test_scale_bands_endpoints():
    cube = HsiCube(np.array([[[2.0]], [[4.0]]]))
    scaled = scale_bands(cube)
    assert scaled.values.min() == 0.0 and scaled.values.max() == 1.0


def test_scale_bands_constant_band_to_zero():
    cube = HsiCube(np.full((3, 3, 2), 7.0))
    scaled = scale_bands(cube)
    np.testing.assert_array_equal(scaled.values, np.zeros((3, 3, 2)))


def test_scale_bands_idempotent_bitwise():
    rng = np.random.default_rng(8)
    cube = HsiCube(rng.standard_normal((5, 4, 6)) * 3 + 1)
    once = scale_bands(cube)
    twice = scale_bands(once)
    np.testing.assert_array_equal(once.values, twice.values)


def test_scale_bands_range():
    rng = np.random.default_rng(9)
    cube = HsiCube(rng.standard_normal((6, 6, 8)) * 10)
    scaled = scale_bands(cube)
    assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ssnl.data import (
    AUGMENT_VARIANTS,
    HsiCube,
    LabelRaster,
    PixelWindows,
    _pad_scene,
    extract_window,
    load_cube,
    load_labels,
    scale_bands,
    split_samples,
    standardize,
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
    SsnlError,
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


def _traced_peak(fn, *args):
    """fn(*args) and the peak of memory newly allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_cube_keeps_one_copy_of_the_payload(tmp_path):
    path = tmp_path / "big.cube"
    written = HsiCube(np.random.default_rng(3).random((48, 48, 100)))
    write_cube(path, written)
    payload = written.values.nbytes
    cube, peak = _traced_peak(load_cube, path)
    # the file's bytes, plus the quarter-size finiteness mask; a copy of the
    # payload would add another full payload
    assert peak < 1.5 * payload
    np.testing.assert_array_equal(cube.values, written.values)


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


_FUZZ_READERS = {  # cube values in [2^127, 2^128): one flipped exponent bit gives inf or NaN
    "cube": (write_cube, load_cube,
             lambda: HsiCube(np.linspace(1.7e38, 3.4e38, 24).reshape(2, 3, 4))),
    "labels": (write_labels, load_labels, lambda: LabelRaster(np.arange(6).reshape(2, 3))),
}

_edits = st.one_of(
    st.tuples(st.just("mutate"), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                           min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(_FUZZ_READERS))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(edit=_edits)
def test_readers_refuse_damaged_files_with_typed_errors(fuzz_dir, kind, edit):
    # byte-mutated, truncated and extended files load finite or raise SsnlError only
    write, load, make = _FUZZ_READERS[kind]
    path = fuzz_dir / kind
    write(path, make())
    raw = bytearray(path.read_bytes())
    how, arg = edit
    if how == "mutate":
        for pos, value in arg:
            raw[pos % len(raw)] = value
    elif how == "truncate":
        del raw[arg % len(raw):]
    else:
        raw += arg
    path.write_bytes(bytes(raw))
    try:
        loaded = load(path)
    except SsnlError:
        return
    values = loaded.values if kind == "cube" else loaded.labels
    assert np.isfinite(values).all()


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


@pytest.mark.parametrize("cols, noise, seed", [(0, 0.0, 0), (-1, 0.0, 0), (3, float("nan"), 0),
                                               (3, float("inf"), 0), (3, 0.0, -1)])
def test_synthesize_refuses_what_makes_no_readable_scene(cols, noise, seed):
    # unchecked, no columns and a negative seed raise numpy's ValueError, and a
    # non-finite noise writes a cube that load_cube refuses
    with pytest.raises(ConfigError):
        synthesize_cube(4, cols, 8, 2, noise, seed=seed)


def test_negative_seed_is_config_error():
    from ssnl.model import ModelConfig, init_model

    with pytest.raises(ConfigError, match="seed must be non-negative"):
        split_samples(LabelRaster(np.ones((4, 4), dtype=int)), 0.5, seed=-1)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        init_model(ModelConfig(bands=3, num_classes=2), seed=-1)


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
    assert spec.train.shape == (125, 2) and spec.test.shape == (1126, 2)
    assert spec.train.dtype == spec.test.dtype == np.int64


def test_split_small_class_keeps_one():
    labels = LabelRaster(np.full((10, 1), 1))
    spec = split_samples(labels, 0.10, seed=0)
    assert len(spec.train) == 1
    assert len(spec.test) == 9


def test_split_deterministic():
    rng = np.random.default_rng(5)
    labels = LabelRaster(rng.integers(0, 4, size=(20, 20)))
    a = split_samples(labels, 0.3, seed=9)
    b = split_samples(labels, 0.3, seed=9)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.test, b.test)


def _split_oracle(labels, ratio, seed):
    # per class in increasing order, a seeded shuffle of its raster-order pixels;
    # a class with no pixel draws no shuffle
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in range(1, labels.num_classes + 1):
        coords = [tuple(c) for c in np.argwhere(labels.labels == cls)]
        if not coords:
            continue
        order = rng.permutation(len(coords))
        take = max(1, int(math.floor(ratio * len(coords))))
        train += [coords[i] for i in order[:take]]
        test += [coords[i] for i in order[take:]]
    return train, test


def test_split_partition_properties():
    # train/test disjoint, union = labeled pixels, per-class counts exact, an
    # absent class contributes no coordinate, classes in increasing order, and
    # each class in its seeded shuffle order
    cases = [(LabelRaster(np.array([[1, 1], [3, 3]])), 0.5, 0)]  # class 2 absent
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        k = int(rng.integers(1, 6))
        labels = LabelRaster(rng.integers(0, k + 1, size=(rows, cols)))
        cases.append((labels, float(rng.uniform(0.05, 0.9)), seed))
    for labels, ratio, seed in cases:
        spec = split_samples(labels, ratio, seed=seed)
        train_set = {tuple(c) for c in spec.train}
        test_set = {tuple(c) for c in spec.test}
        assert len(train_set) == len(spec.train) and len(test_set) == len(spec.test)
        assert not train_set & test_set
        labeled = {tuple(c) for c in np.argwhere(labels.labels > 0)}
        assert train_set | test_set == labeled
        k = labels.num_classes
        train_classes = labels.labels[spec.train[:, 0], spec.train[:, 1]]
        test_classes = labels.labels[spec.test[:, 0], spec.test[:, 1]]
        for classes in (train_classes, test_classes):
            assert (np.diff(classes) >= 0).all()
        for cls, got in enumerate(np.bincount(train_classes, minlength=k + 1)[1:], start=1):
            n = int((labels.labels == cls).sum())
            assert got == (max(1, int(math.floor(ratio * n))) if n else 0)
        train, test = _split_oracle(labels, ratio, seed)
        assert [tuple(c) for c in spec.train] == train
        assert [tuple(c) for c in spec.test] == test


def test_split_rejects_bad_ratio():
    labels = LabelRaster(np.ones((4, 4), dtype=int))
    for ratio in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            split_samples(labels, ratio, seed=0)


def test_split_rejects_raster_with_no_labeled_pixel():
    for shape in ((1, 1), (4, 5)):
        with pytest.raises(ConfigError, match="no labeled pixel"):
            split_samples(LabelRaster(np.zeros(shape, dtype=int)), 0.5, seed=0)


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
                # the window of pixel (r, c) starts at padded cell (r, c)
                windows = sliding_window_view(_pad_scene(cube, p), (p, p), axis=(0, 1))
                windows = windows.transpose(0, 1, 3, 4, 2)
                assert windows.shape == (rows, cols, p, p, 2)
                for r in range(rows):
                    for c in range(cols):
                        expected = cube.values[np.ix_(_mirror_indices(r - p // 2, p, rows),
                                                      _mirror_indices(c - p // 2, p, cols))]
                        np.testing.assert_array_equal(windows[r, c], expected)
                        np.testing.assert_array_equal(extract_window(cube, r, c, p), expected)


# -- augmentation -------------------------------------------------------------------


def _random_patch(seed, p=5, bands=4):
    return np.random.default_rng(seed).standard_normal((p, p, bands)).astype(np.float32)


def _variants(patch):
    # the six training variants of a square patch, gathered the way training
    # gathers them: from a cube that is the patch, at its centre pixel
    p = patch.shape[0]
    windows = PixelWindows(HsiCube(patch), np.array([[p // 2, p // 2]]), p)
    return windows.gather(np.zeros(AUGMENT_VARIANTS, dtype=np.int64),
                          np.arange(AUGMENT_VARIANTS))


def test_augment_returns_six_variants():
    patch = _random_patch(0)
    variants = _variants(patch)
    assert len(variants) == 6
    assert all(v.shape == patch.shape for v in variants)


def test_rot90_four_times_is_identity():
    patch = _random_patch(2)
    data = patch
    for _ in range(4):
        data = _variants(data)[2]  # rot90 slot
    np.testing.assert_array_equal(data, patch)


def test_flips_are_involutions():
    patch = _random_patch(3)
    hflip = _variants(patch)[4]
    np.testing.assert_array_equal(_variants(hflip)[4], patch)
    vflip = _variants(patch)[5]
    np.testing.assert_array_equal(_variants(vflip)[5], patch)


def test_exact_variants_preserve_value_multiset():
    patch = _random_patch(4)
    variants = _variants(patch)
    for i in (2, 4, 5):  # rot90, hflip, vflip are exact permutations
        np.testing.assert_array_equal(np.sort(variants[i].ravel()), np.sort(patch.ravel()))


def test_constant_patch_invariant_under_all_variants():
    patch = np.full((5, 5, 3), 2.5, dtype=np.float32)
    for variant in _variants(patch):
        np.testing.assert_array_equal(variant, patch)


def test_augment_deterministic():
    for va, vb in zip(_variants(_random_patch(6)), _variants(_random_patch(6))):
        np.testing.assert_array_equal(va, vb)


def _rotate_nearest_oracle(patch, degrees):
    # per-cell loop: output (i, j) reads the nearest source cell of the inverse
    # rotation about the center, folded into the patch by reflection
    p = patch.shape[0]
    center = (p - 1) / 2.0
    cos_t, sin_t = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    out = np.empty_like(patch)
    for i in range(p):
        for j in range(p):
            r = round(center + cos_t * (i - center) + sin_t * (j - center))
            c = round(center - sin_t * (i - center) + cos_t * (j - center))
            out[i, j] = patch[_mirror_indices(r, 1, p)[0], _mirror_indices(c, 1, p)[0]]
    return out


def _oracle_variants(patch):
    # the six variants in training's order, each by its own rule
    return [patch, _rotate_nearest_oracle(patch, 45.0), np.rot90(patch),
            _rotate_nearest_oracle(patch, 135.0), patch[:, ::-1], patch[::-1]]


def test_augment_stack_matches_per_window_oracle():
    for p in (1, 3, 5, 7):
        stack = np.random.default_rng(p).standard_normal((2, 3, p, p, 4)).astype(np.float32)
        for index in np.ndindex(2, 3):
            variants = _variants(stack[index])
            assert variants.shape == (6, p, p, 4)
            for got, want in zip(variants, _oracle_variants(stack[index])):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_pixel_windows_gather_every_variant_of_augment(p):
    cube, _ = synthesize_cube(6, 5, 3, 2, 0.3, seed=p)
    coords = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    windows = PixelWindows(cube, coords, p)
    pixels = np.repeat(np.arange(len(coords)), AUGMENT_VARIANTS)
    variants = np.tile(np.arange(AUGMENT_VARIANTS), len(coords))
    got = windows.gather(pixels, variants)
    assert got.shape == (len(pixels), p, p, cube.bands) and got.flags.c_contiguous
    for k, (pixel, variant) in enumerate(zip(pixels, variants)):
        row, col = coords[pixel]
        want = _oracle_variants(extract_window(cube, row, col, p))[variant]
        np.testing.assert_array_equal(got[k], want)


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


def test_scale_bands_computes_in_place_on_one_float64_copy():
    rng = np.random.default_rng(12)
    cube = HsiCube(rng.standard_normal((40, 40, 50)) * 5 + 2)
    cube.values[:, :, 7] = 3.0  # a constant band
    scaled, peak = _traced_peak(scale_bands, cube)
    # one float64 copy (8 bytes per value) and the float32 result (4); a
    # temporary for ``v - lo`` and one for the quotient would add 16 more
    assert peak < 16 * cube.values.size
    v = cube.values.astype(np.float64)
    lo, span = v.min(axis=(0, 1)), np.ptp(v, axis=(0, 1))
    reference = (v - lo) / np.where(span > 0, span, 1.0)
    np.testing.assert_array_equal(scaled.values, reference.astype(np.float32))


def test_scale_bands_range():
    rng = np.random.default_rng(9)
    cube = HsiCube(rng.standard_normal((6, 6, 8)) * 10)
    scaled = scale_bands(cube)
    assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0


def test_standardize_of_a_band_major_cube_is_bitwise_its_c_ordered_copy(tmp_path):
    # load_cube returns a band-major view, and numpy sums its strided band
    # axis in another order than a C-ordered array's: training reads the
    # scene's pixels, inference the padded scene's, and the two must agree
    rng = np.random.default_rng(13)
    write_cube(tmp_path / "scene.cube", HsiCube(rng.random((6, 5, 103)) * 50))
    view = load_cube(tmp_path / "scene.cube").values
    assert not view.flags.c_contiguous
    assert standardize(view).tobytes() == standardize(np.ascontiguousarray(view)).tobytes()

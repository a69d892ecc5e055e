"""Synthetic scenes, the cube/label file formats, and stratified splits.

Run:  python demos/01_data_and_formats.py
"""

import tempfile
from pathlib import Path

import numpy as np

from ssnl import (
    load_cube,
    load_labels,
    scale_bands,
    split_samples,
    synthesize_cube,
    write_cube,
    write_labels,
)

# A synthetic scene: horizontal class stripes, one Gaussian spectral bump per
# class, optional noise. Everything is a pure function of the seed.
cube, labels = synthesize_cube(rows=24, cols=20, bands=16, classes=4,
                               noise_sigma=0.05, seed=7)
print(f"cube: {cube.rows}x{cube.cols}x{cube.bands}, "
      f"values in [{cube.values.min():.3f}, {cube.values.max():.3f}]")
print(f"labels: {sorted(np.unique(labels.labels))} (0 would mean unlabeled)")

for cls in range(1, 5):
    mean_spectrum = cube.values[labels.labels == cls].mean(axis=0)
    print(f"class {cls}: spectral peak at band {np.argmax(mean_spectrum)}")

# Files round-trip bit-exactly: an ASCII magic + header, then little-endian
# float32 (band-sequential) or uint16 (row-major) payload.
scratch = tempfile.TemporaryDirectory()  # removed when the demo exits
workdir = Path(scratch.name)
cube_path = workdir / "scene.cube"
label_path = workdir / "scene.lbl"
write_cube(cube_path, cube)
write_labels(label_path, labels)
print(f"\ncube file starts with: {cube_path.read_bytes()[:24]!r}")
print(f"label file starts with: {label_path.read_bytes()[:16]!r}")

reloaded = load_cube(cube_path)
print("reload matches (to stored f32 precision):",
      np.array_equal(reloaded.values, cube.values.astype(np.float32)))
print("labels reload exactly:",
      np.array_equal(load_labels(label_path).labels, labels.labels))

# Per-band min-max scaling is idempotent and maps constant bands to zero.
scaled = scale_bands(reloaded)
print(f"\nscaled range: [{scaled.values.min():.1f}, {scaled.values.max():.1f}]")

# Stratified splitting: per class, a seeded shuffle sends the first
# max(1, floor(ratio * n)) pixels to train and the rest to test.
split = split_samples(labels, ratio=0.10, seed=3)
for cls in sorted(split.train):
    n = (labels.labels == cls).sum()
    print(f"class {cls}: {n} px -> {len(split.train[cls])} train / "
          f"{len(split.test[cls])} test")
print("train+test =", split.train_count() + split.test_count(),
      "of", (labels.labels > 0).sum(), "labeled")

"""Full-scene prediction rendered as a PPM classification map.

Run:  python demos/04_classification_map.py   (writes model.ckpt, map.ppm, truth.ppm)
"""

import numpy as np

from ssnl import (
    ModelConfig,
    TrainConfig,
    load_model,
    predict_pixels,
    render_class_map,
    save_model,
    scale_bands,
    split_samples,
    synthesize_cube,
    train,
    write_ppm,
)

cube, labels = synthesize_cube(rows=20, cols=20, bands=12, classes=4,
                               noise_sigma=0.08, seed=21)
cube = scale_bands(cube)
split = split_samples(labels, ratio=0.15, seed=21)

config = ModelConfig(bands=12, num_classes=4, patch_size=3, hidden_dim=16,
                     spatial_channels=8, classifier_hidden=24)
params, report = train(cube, labels, split, config,
                       TrainConfig(epochs=8, seed=21))
print(f"trained: final loss {report.losses[-1]:.4f}")

# the checkpoint carries the config with the parameters, bit-exact; map from
# the reloaded copy, as `ssnl map` does
save_model("model.ckpt", params, config)
params, config = load_model("model.ckpt")

# every pixel, in the fixed inference batches `ssnl map` uses, so the two agree
# pixel for pixel
pixels = np.indices((cube.rows, cube.cols)).reshape(2, -1).T
ids = predict_pixels(cube, pixels, params, config).reshape(cube.rows, cube.cols)

agreement = (ids == labels.labels).mean()
print(f"pixel agreement with ground truth: {agreement:.3f}")

# class 0 renders black; class c takes hue (c-1)*360/K at full S/V
write_ppm("map.ppm", render_class_map(ids, 4), comment="predicted classes")
write_ppm("truth.ppm", render_class_map(labels.labels, 4), comment="ground truth")
print("wrote map.ppm and truth.ppm (binary P6; convert with any image tool)")

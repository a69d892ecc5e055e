"""End-to-end: synthesize, split, train, score.

Run:  python demos/03_train_and_evaluate.py   (a few seconds)
"""

from ssnl import (
    ModelConfig,
    TrainConfig,
    evaluate,
    render_report,
    scale_bands,
    split_samples,
    synthesize_cube,
    train,
)
from ssnl.metrics import kappa, overall_accuracy

cube, labels = synthesize_cube(rows=24, cols=24, bands=16, classes=3,
                               noise_sigma=0.05, seed=11)
cube = scale_bands(cube)
split = split_samples(labels, ratio=0.10, seed=11)
print(f"{len(split.train)} training px, {len(split.test)} test px")

model_config = ModelConfig(bands=16, num_classes=3, patch_size=5,
                           hidden_dim=24, spatial_channels=12,
                           classifier_hidden=32)
train_config = TrainConfig(epochs=10, seed=11)

params, report = train(cube, labels, split, model_config, train_config)
print(f"\nloss: epoch 1 {report.losses[0]:.4f} -> "
      f"epoch {report.epochs_run} {report.losses[-1]:.4f}")
print(f"as-trained accuracy: {report.train_accuracy[0]:.3f} -> "
      f"{report.train_accuracy[-1]:.3f}")
print(f"timings: train {report.train_seconds:.1f}s, "
      f"test {report.test_seconds:.1f}s")

print("\ntest-split scores:")
print(render_report(report.confusion))

# the same confusion matrix, scored directly from the test coordinates
cm = evaluate(params, model_config, cube, labels, split.test)
assert overall_accuracy(cm) == overall_accuracy(report.confusion)
print(f"\nre-evaluated: OA {overall_accuracy(cm):.4f}, kappa {kappa(cm):.4f}")

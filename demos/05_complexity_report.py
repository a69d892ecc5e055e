"""Exact parameter/MAC accounting and the asymptotic family comparison.

Run:  python demos/05_complexity_report.py
"""

from ssnl import (
    ModelConfig,
    count_params,
    family_comparison,
    render_complexity_report,
)
from ssnl.complexity import macs_per_patch

config = ModelConfig(bands=144, num_classes=15, patch_size=5)
print(render_complexity_report(config, batch=32))

# Counting is exact and closed-form, so scaling laws hold as identities.
print("\nbatch scaling (MACs):")
for batch in (1, 2, 4, 8):
    print(f"  batch {batch}: {batch * macs_per_patch(config)}")

print("\npatch-area scaling (per-patch MACs are affine in p^2):")
for p in (1, 3, 5, 7, 9):
    c = ModelConfig(bands=144, num_classes=15, patch_size=p)
    print(f"  p={p}: {macs_per_patch(c)}")

print("\nhidden width vs parameters:")
for width in (16, 32, 64, 128):
    c = ModelConfig(bands=144, num_classes=15, hidden_dim=width)
    print(f"  hidden {width}: {count_params(c)} params "
          f"({4 * count_params(c) / 1e6:.2f} MB at f32)")

# Against attention (CH^2) and windowed-conv (k^2 CH) per-pixel costs this
# sequence family scales with CH alone, so the ratios are CH and k^2.
comp = family_comparison(batch=1, height=15, width=15, bands=200, kernel=3)
print(f"\nwith 200 bands, kernel 3: attention/this = {comp.attention_ratio:.0f}, "
      f"conv/this = {comp.conv_ratio:.0f}")

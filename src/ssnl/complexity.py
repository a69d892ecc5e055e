"""Exact parameter and multiply-accumulate accounting, plus asymptotic
family comparison (attention / windowed-conv / this architecture).

Conventions, documented precisely because published "FLOPs" figures vary:

* the headline unit is multiply-accumulates (MACs); 1 MAC = 2 FLOPs, and
  both figures are reported;
* activations, normalization, and softmax cost 1 unit per element and are
  reported separately from MACs;
* parameters are reported both as an element count and as bytes at 32-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig, expected_shapes


def count_params(config: ModelConfig) -> int:
    """Exact learnable-element count: the element counts of the tensors in
    ``expected_shapes``, which the checkpoint serializes."""
    return sum(math.prod(shape) for shape in expected_shapes(config).values())


def macs_per_patch(config: ModelConfig) -> int:
    """Exact multiply-accumulates of one forward pass on one patch.

    Summed over: the two linear projections, the depthwise sequence
    convolutions, the per-direction modulation products, the sequence and
    spatial mean pools, the spatial convolution, and the classifier. Only
    branches enabled by the ablation flags are counted.
    """
    ch, d, p = config.bands, config.hidden_dim, config.patch_size
    length = p * p
    total = 0
    for enabled in (config.forward_on, config.backward_on):
        if enabled:
            total += length * ch * d            # projection
            total += d * config.seq_kernel * length  # depthwise conv
            total += d * d                      # modulation mix
            total += d * length                 # sequence mean pool
    if config.spatial_on:
        total += config.spatial_channels * ch * config.spatial_kernel ** 2 * length
        total += config.spatial_channels * length    # spatial mean pool
    total += config.classifier_hidden * config.feature_dim
    total += config.num_classes * config.classifier_hidden
    return total


def elementwise_per_patch(config: ModelConfig) -> int:
    """Non-MAC elementwise work (activations, normalization, softmax, bias
    adds, delta map) at 1 unit per element."""
    ch, d, p = config.bands, config.hidden_dim, config.patch_size
    length = p * p
    total = length * ch                      # standardization + gain and bias
    for enabled in (config.forward_on, config.backward_on):
        if enabled:
            total += 2 * d * length          # conv activation + tanh update
            total += d                       # softplus delta
    if config.spatial_on:
        total += 2 * config.spatial_channels * length  # bias add + activation
    total += 2 * config.classifier_hidden    # hidden bias + activation
    total += 2 * config.num_classes          # logit bias + softmax
    return total


@dataclass
class FamilyComparison:
    """The three asymptotic cost expressions evaluated with unit constants."""

    attention_flops: int
    conv_flops: int
    sequence_flops: int

    @property
    def attention_ratio(self) -> float:
        return self.attention_flops / self.sequence_flops

    @property
    def conv_ratio(self) -> float:
        return self.conv_flops / self.sequence_flops


def family_comparison(batch: int, height: int, width: int, bands: int,
                      kernel: int) -> FamilyComparison:
    """Evaluate B*H*W*CH^2 (attention), B*H*W*k^2*CH (windowed conv) and
    B*H*W*CH (this family) at one operating point."""
    if min(batch, height, width, bands, kernel) < 1:
        raise ConfigError("family_comparison arguments must be positive")
    base = batch * height * width * bands
    return FamilyComparison(
        attention_flops=base * bands,
        conv_flops=base * kernel * kernel,
        sequence_flops=base,
    )


def render_complexity_report(config: ModelConfig, batch: int = 1) -> str:
    """Text table of MACs, FLOPs, elementwise units and parameters, and the
    family comparison."""
    if batch < 1:
        raise ConfigError(f"batch must be at least 1, got {batch}")
    macs = batch * macs_per_patch(config)
    rows = [
        ("MACs", f"{macs}"),
        ("FLOPs (2*MACs)", f"{2 * macs}"),
        ("Elementwise units", f"{batch * elementwise_per_patch(config)}"),
        ("Parameters", f"{count_params(config)}"),
        ("Param bytes (f32)", f"{4 * count_params(config)}"),
    ]
    width_left = max(len(r[0]) for r in rows)
    lines = [f"batch={batch} patch={config.patch_size} bands={config.bands}"]
    lines += [f"{name:<{width_left}}  {value}" for name, value in rows]
    comp = family_comparison(batch, config.patch_size, config.patch_size,
                             config.bands, config.spatial_kernel)
    lines.append("")
    lines.append("family comparison (unit constants, same operating point):")
    lines.append(f"attention      {comp.attention_flops}")
    lines.append(f"windowed conv  {comp.conv_flops}")
    lines.append(f"this model     {comp.sequence_flops}")
    lines.append(f"attention/this {comp.attention_ratio:.1f}  conv/this {comp.conv_ratio:.1f}")
    return "\n".join(lines)

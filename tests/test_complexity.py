import numpy as np
import pytest

from ssnl.complexity import (
    count_params,
    elementwise_per_patch,
    family_comparison,
    macs_per_patch,
    render_complexity_report,
)
from ssnl.errors import ConfigError
from ssnl.model import ModelConfig, init_model, load_model, save_model


def cfg(**overrides):
    base = dict(bands=6, num_classes=3, patch_size=3, hidden_dim=4,
                spatial_channels=3, classifier_hidden=8)
    base.update(overrides)
    return ModelConfig(**base)


def report_value(config, name, batch=1):
    lines = render_complexity_report(config, batch).splitlines()
    return int(next(line for line in lines if line.startswith(name)).split()[-1])


def test_count_params_term_by_term_example():
    # 2ch + 2ch*d + 2d*k1 + 2d^2 + d + s*ch*k2^2 + s + hc*(s+d) + hc + k*hc + k
    # with ch=2 d=1 k1=1 s=1 k2=1 hc=1 k=2: 4+4+2+2+1+2+1+2+1+2+2 = 23
    tiny = ModelConfig(bands=2, num_classes=2, patch_size=1, hidden_dim=1,
                       seq_kernel=1, spatial_channels=1, spatial_kernel=1,
                       classifier_hidden=1)
    assert count_params(tiny) == 23
    assert report_value(tiny, "Param bytes (f32)") == 4 * 23


def test_count_params_matches_allocated_tensors():
    for overrides in ({}, {"hidden_dim": 7}, {"spatial_on": False},
                      {"forward_on": False, "backward_on": False},
                      {"patch_size": 5, "bands": 12}):
        c = cfg(**overrides)
        params = init_model(c, seed=0)
        assert count_params(c) == sum(t.size for _, t in params.named_tensors()), overrides


def test_count_params_matches_checkpoint_element_count(tmp_path):
    c = cfg(hidden_dim=5, spatial_channels=4)
    params = init_model(c, seed=1)
    path = tmp_path / "m.ckpt"
    save_model(path, params, c)
    loaded, loaded_cfg = load_model(path)
    total = sum(t.size for _, t in loaded.named_tensors())
    assert total == count_params(loaded_cfg)


def test_doubling_hidden_changes_only_hidden_terms():
    c1 = cfg(hidden_dim=4)
    c2 = cfg(hidden_dim=8)
    d1, d2 = 4, 8
    ch, k1 = c1.bands, c1.seq_kernel
    hc = c1.classifier_hidden
    expected_delta = (
        2 * ch * (d2 - d1) + 2 * k1 * (d2 - d1) + 2 * (d2 ** 2 - d1 ** 2)
        + (d2 - d1) + hc * (d2 - d1)
    )
    assert count_params(c2) - count_params(c1) == expected_delta


def test_count_params_independent_of_patch_size():
    # global pooling keeps the classifier width off the patch area
    counts = {count_params(cfg(patch_size=p)) for p in (1, 3, 5, 7, 9, 11)}
    assert len(counts) == 1


def test_flops_linear_in_batch():
    c = cfg()
    one = report_value(c, "MACs", 1)
    assert report_value(c, "MACs", 2) == 2 * one
    assert report_value(c, "MACs", 7) == 7 * one


def test_flops_affine_in_patch_area():
    # per-patch MACs are a degree-1 polynomial in p^2: the slope between any
    # two grid points is the same integer
    sizes = [1, 3, 5, 7, 9]
    values = [macs_per_patch(cfg(patch_size=p)) for p in sizes]
    areas = [p * p for p in sizes]
    slope_num = values[1] - values[0]
    slope_den = areas[1] - areas[0]
    for i in range(2, len(sizes)):
        assert (values[i] - values[0]) * slope_den == slope_num * (areas[i] - areas[0])


def test_flops_tiny_config_hand_summed():
    # ch=2 p=1 d=1 s=1 hc=1 k=2 k1=k2=1, all branches on, L=1:
    # projections 2*1*2*1=4; convs 2*1*1*1=2; mixes 2*1=2; seq pools 2*1=2;
    # spatial conv 1*2*1*1=2; spatial pool 1; classifier 1*2 + 2*1 = 4
    tiny = ModelConfig(bands=2, num_classes=2, patch_size=1, hidden_dim=1,
                       seq_kernel=1, spatial_channels=1, spatial_kernel=1,
                       classifier_hidden=1)
    assert macs_per_patch(tiny) == 4 + 2 + 2 + 2 + 2 + 1 + 4
    assert report_value(tiny, "MACs", 3) == 3 * 17


def test_flops_respects_ablation_flags():
    full = macs_per_patch(cfg())
    no_bwd = macs_per_patch(cfg(backward_on=False))
    no_spatial = macs_per_patch(cfg(spatial_on=False))
    assert no_bwd < full and no_spatial < full


def test_flops_rejects_bad_batch():
    with pytest.raises(ConfigError, match="batch must be at least 1, got 0"):
        render_complexity_report(cfg(), 0)


def test_elementwise_units_positive_and_flagged():
    assert elementwise_per_patch(cfg()) > 0
    assert elementwise_per_patch(cfg(spatial_on=False)) < elementwise_per_patch(cfg())


def test_family_ratio_attention():
    comp = family_comparison(1, 15, 15, 200, 3)
    assert comp.attention_ratio == 200.0
    assert comp.attention_flops == comp.sequence_flops * 200


def test_family_ratio_windowed_conv():
    comp = family_comparison(1, 15, 15, 200, 3)
    assert comp.conv_ratio == 9.0


def test_family_degenerate_all_equal():
    comp = family_comparison(2, 4, 4, 1, 1)
    assert comp.attention_flops == comp.conv_flops == comp.sequence_flops


def test_family_ordering_on_grid():
    for bands in (2, 8, 64, 200):
        for kernel in (2, 3, 5, 9):
            comp = family_comparison(4, 10, 12, bands, kernel)
            assert comp.sequence_flops <= comp.conv_flops
            assert comp.sequence_flops <= comp.attention_flops


def test_report_batch_doubling_doubles_macs_line():
    c = cfg()
    assert report_value(c, "MACs", 2) == 2 * report_value(c, "MACs", 1)

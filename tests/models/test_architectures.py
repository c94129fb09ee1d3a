"""Architecture fidelity: layer counts, parameter counts, Table 1 sizes."""

import numpy as np
import pytest

from repro.models import (
    PAPER_REFERENCE,
    alexnet_specs,
    build_scaled_model,
    conv_activation_bytes,
    full_model_specs,
    resnet18_specs,
    resnet50_specs,
    scaled_model_specs,
    total_saved_bytes,
    vgg16_specs,
    walk_shapes,
    weight_bytes,
)
from repro.models.specs import ConvS, ResidualS


def _count_convs(specs):
    n = 0
    for s in specs:
        if isinstance(s, ConvS):
            n += 1
        elif isinstance(s, ResidualS):
            n += _count_convs(s.main)
            if s.shortcut:
                n += _count_convs(s.shortcut)
    return n


class TestArchitectureFidelity:
    def test_alexnet_has_5_convs(self):
        assert _count_convs(alexnet_specs()) == 5

    def test_vgg16_has_13_convs(self):
        assert _count_convs(vgg16_specs()) == 13

    def test_resnet18_main_convs(self):
        # 1 stem + 2 per basic block x 8 blocks + 3 downsample projections
        assert _count_convs(resnet18_specs()) == 1 + 16 + 3

    def test_resnet50_conv_count(self):
        # 1 stem + 3 per bottleneck x 16 + 4 projections
        assert _count_convs(resnet50_specs()) == 1 + 48 + 4

    @pytest.mark.parametrize("name,params_m", [
        ("alexnet", 61), ("vgg16", 138), ("resnet18", 11.7), ("resnet50", 25.6),
    ])
    def test_parameter_counts_match_literature(self, name, params_m):
        reports = walk_shapes(full_model_specs(name), (1, 3, 224, 224))
        total = sum(r.weight_count for r in reports) / 1e6
        assert total == pytest.approx(params_m, rel=0.05)

    @pytest.mark.parametrize("name,classes", [
        ("alexnet", 1000), ("vgg16", 1000), ("resnet18", 1000), ("resnet50", 1000),
    ])
    def test_full_output_shape(self, name, classes):
        reports = walk_shapes(full_model_specs(name), (2, 3, 224, 224))
        assert reports[-1].out_shape == (2, classes)


class TestTable1Accounting:
    @pytest.mark.parametrize("name,tol", [
        ("alexnet", 0.10), ("vgg16", 0.10), ("resnet50", 0.05),
    ])
    def test_conv_activation_bytes_match_paper(self, name, tol):
        mine = conv_activation_bytes(name, batch=256)
        paper = PAPER_REFERENCE[name].conv_act_bytes_baseline
        assert mine == pytest.approx(paper, rel=tol)

    def test_resnet18_same_order_as_paper(self):
        """ResNet-18 accounting conventions differ (see EXPERIMENTS.md);
        assert same order of magnitude rather than a tight match."""
        mine = conv_activation_bytes("resnet18", batch=256)
        paper = PAPER_REFERENCE["resnet18"].conv_act_bytes_baseline
        assert 0.4 < mine / paper < 1.5

    def test_activation_scales_linearly_with_batch(self):
        a64 = conv_activation_bytes("alexnet", batch=64)
        a256 = conv_activation_bytes("alexnet", batch=256)
        assert a256 == 4 * a64

    @pytest.mark.parametrize("name,params_m", [
        ("alexnet", 61), ("vgg16", 138), ("resnet18", 11.7), ("resnet50", 25.6),
    ])
    def test_weight_bytes_are_fp32_parameters(self, name, params_m):
        assert weight_bytes(name) == pytest.approx(4e6 * params_m, rel=0.05)

    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "resnet18", "resnet50"])
    def test_saved_bytes_scale_linearly_with_batch(self, name):
        assert total_saved_bytes(name, batch=64) == 2 * total_saved_bytes(name, batch=32)

    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "resnet18", "resnet50"])
    def test_conv_inputs_are_part_of_the_saved_bytes(self, name):
        """Table 1 counts conv inputs; Figure 2 every saved tensor."""
        assert 0 < conv_activation_bytes(name, batch=8) < total_saved_bytes(name, batch=8)

    def test_activations_dominate_weights(self):
        """Figure 2's point: activations >> weights for CNNs at batch 32+."""
        for name in ("vgg16", "resnet18", "resnet50"):
            assert total_saved_bytes(name, batch=32) > weight_bytes(name)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            full_model_specs("lenet")
        with pytest.raises(KeyError):
            scaled_model_specs("lenet")


class TestScaledModels:
    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "resnet18", "resnet50"])
    def test_scaled_forward_backward(self, name, rng):
        net = build_scaled_model(name, num_classes=5, image_size=32, rng=0)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        out = net.forward(x)
        assert out.shape == (2, 5)
        dx = net.backward(np.ones_like(out))
        assert dx.shape == x.shape

    @pytest.mark.parametrize("name", ["alexnet", "vgg16", "resnet18", "resnet50"])
    def test_scaled_has_conv_layers(self, name):
        from repro.nn import Conv2D, iter_layers

        net = build_scaled_model(name, num_classes=5, image_size=32, rng=0)
        convs = [l for l in iter_layers(net) if isinstance(l, Conv2D)]
        assert len(convs) >= 3

    def test_scaled_trains_one_step(self, rng):
        from repro.nn import SGD, SoftmaxCrossEntropy

        net = build_scaled_model("resnet18", num_classes=4, image_size=32, rng=0)
        opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=4)
        loss = SoftmaxCrossEntropy()
        logits = net.forward(x)
        l0, d = loss.forward(logits, y)
        net.backward(d)
        opt.step()
        l1, _ = loss.forward(net.forward(x), y)
        assert np.isfinite(l1)

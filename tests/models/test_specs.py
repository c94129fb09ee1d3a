"""Spec system: building live networks and symbolic shape walking agree."""

import numpy as np
import pytest

from repro.models.specs import (
    AvgPoolS,
    BatchNormS,
    ConvS,
    DropoutS,
    FlattenS,
    GlobalAvgPoolS,
    LinearS,
    LRNS,
    MaxPoolS,
    ReLUS,
    ResidualS,
    build_network,
    walk_shapes,
)


SPECS = [
    ConvS(8, 3, stride=1, padding=1), BatchNormS(), ReLUS(),
    MaxPoolS(2),
    ResidualS(
        main=(ConvS(16, 3, stride=2, padding=1, bias=False), BatchNormS()),
        shortcut=(ConvS(16, 1, stride=2, bias=False), BatchNormS()),
    ),
    ReLUS(),
    GlobalAvgPoolS(),
    LinearS(5),
]


class TestBuildWalkAgreement:
    def test_forward_shape_matches_walk(self, rng):
        in_shape = (2, 3, 16, 16)
        net = build_network(SPECS, in_shape, rng=0)
        x = rng.standard_normal(in_shape).astype(np.float32)
        out = net.forward(x)
        assert out.shape == (2, 5)
        assert net.output_shape(in_shape) == out.shape

    def test_walk_terminal_shape(self):
        reports = walk_shapes(SPECS, (2, 3, 16, 16))
        assert reports[-1].out_shape == (2, 5)

    def test_weight_count_matches_live_params(self):
        in_shape = (2, 3, 16, 16)
        net = build_network(SPECS, in_shape, rng=0)
        live = sum(p.size for p in net.parameters())
        walked = sum(r.weight_count for r in walk_shapes(SPECS, in_shape))
        assert live == walked

    def test_backward_through_built_network(self, rng):
        in_shape = (2, 3, 16, 16)
        net = build_network(SPECS, in_shape, rng=0)
        x = rng.standard_normal(in_shape).astype(np.float32)
        out = net.forward(x)
        dx = net.backward(np.ones_like(out))
        assert dx.shape == in_shape

    def test_conv_reports_flagged(self):
        reports = walk_shapes(SPECS, (2, 3, 16, 16))
        convs = [r for r in reports if r.is_conv]
        assert len(convs) == 3  # main conv, residual main conv, shortcut conv
        assert all(r.kind == "conv" for r in convs)

    def test_saved_bytes_conventions(self):
        reports = walk_shapes(
            [ConvS(4, 3, padding=1), ReLUS(), MaxPoolS(2), DropoutS(0.5)],
            (2, 3, 8, 8),
        )
        conv, relu, pool, drop = reports
        assert conv.saved_bytes == 2 * 3 * 8 * 8 * 4  # fp32 input
        assert relu.saved_bytes == 2 * 4 * 8 * 8 * 1  # 1-byte mask
        assert pool.saved_bytes == 2 * 4 * 4 * 4 * 2  # int16 argmax
        assert drop.saved_bytes == 2 * 4 * 4 * 4 * 4  # fp32 mask

    def test_residual_shape_mismatch_rejected(self):
        bad = [ResidualS(main=(ConvS(8, 3, stride=2, padding=1),),
                         shortcut=(ConvS(8, 1, stride=1),))]
        with pytest.raises(ValueError):
            build_network(bad, (1, 3, 8, 8), rng=0)

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            walk_shapes([object()], (1, 3, 8, 8))

    @pytest.mark.parametrize("spec,delta", [
        (LRNS(), 0), (AvgPoolS(2), None), (FlattenS(), None),
    ])
    def test_misc_specs_walk(self, spec, delta):
        reports = walk_shapes([spec], (2, 4, 8, 8))
        assert len(reports) == 1

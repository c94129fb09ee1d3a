"""Trainer loop, hooks, history, and the synthetic dataset."""

import numpy as np
import pytest

from repro.models import build_scaled_model
from repro.nn import (
    Conv2D,
    Dropout,
    Flatten,
    Layer,
    Linear,
    MaxPool2D,
    ReLU,
    Residual,
    SGD,
    Sequential,
    SyntheticImageDataset,
    Trainer,
    batches,
    iter_layers,
)
from repro.nn.gradcheck import check_layer_gradients


def tiny_net(rng_seed=1, classes=4):
    return Sequential([
        Conv2D(3, 6, 3, padding=1, rng=rng_seed), ReLU(), MaxPool2D(2),
        Flatten(), Linear(6 * 8 * 8, classes, rng=rng_seed + 1),
    ])


@pytest.fixture
def dataset():
    return SyntheticImageDataset(num_classes=4, image_size=16, channels=3, seed=3)


class TestDataset:
    def test_sample_shapes_and_types(self, dataset):
        x, y = dataset.sample(8, rng=0)
        assert x.shape == (8, 3, 16, 16)
        assert x.dtype == np.float32
        assert y.shape == (8,)
        assert y.dtype == np.int64
        assert set(np.unique(y)).issubset(set(range(4)))

    def test_deterministic_with_seed(self, dataset):
        x1, y1 = dataset.sample(8, rng=5)
        x2, y2 = dataset.sample(8, rng=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_fixed_eval_set_stable(self, dataset):
        x1, y1 = dataset.fixed_eval_set(32)
        x2, y2 = dataset.fixed_eval_set(32)
        np.testing.assert_array_equal(x1, x2)

    def test_classes_distinguishable(self, dataset):
        """Same-class images correlate more than cross-class ones."""
        xa, _ = dataset.sample(1, rng=np.random.default_rng(1))
        # build aligned class samples directly from templates
        t0, t1 = dataset.templates[0], dataset.templates[1]
        assert np.abs(t0 - t1).max() > 0.1

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(num_classes=1)

    def test_batches_iterator(self, dataset):
        got = list(batches(dataset, 4, 3, seed=0))
        assert len(got) == 3
        assert all(x.shape == (4, 3, 16, 16) for x, _ in got)


class TestTrainer:
    def test_history_recorded(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        tr.train(batches(dataset, 8, 5, seed=0))
        assert len(tr.history.records) == 5
        assert tr.iteration == 5
        assert np.isfinite(tr.history.losses).all()

    def test_loss_decreases(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.02, momentum=0.9))
        tr.train(batches(dataset, 16, 60, seed=0))
        assert tr.history.losses[-10:].mean() < tr.history.losses[:10].mean()

    def test_max_iterations_caps(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        tr.train(batches(dataset, 8, 10, seed=0), max_iterations=4)
        assert tr.iteration == 4

    def test_post_backward_hook_sees_grads(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        seen = []

        def hook(trainer, record):
            g = trainer.optimizer.average_gradient_magnitude()
            seen.append(g)

        tr.post_backward_hooks.append(hook)
        tr.train(batches(dataset, 8, 3, seed=0))
        assert len(seen) == 3
        assert all(g > 0 for g in seen)

    def test_grad_transform_applied_before_step(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01, momentum=0.0))

        def zero_all(trainer):
            for p in trainer.optimizer.params:
                p.grad[:] = 0.0

        tr.grad_transforms.append(zero_all)
        before = [p.data.copy() for p in net.parameters()]
        tr.train(batches(dataset, 8, 2, seed=0))
        for b, p in zip(before, net.parameters()):
            np.testing.assert_array_equal(b, p.data)  # updates nulled

    def test_evaluate_runs_in_eval_mode(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        x, y = dataset.fixed_eval_set(40)
        acc = tr.evaluate(x, y, batch_size=16)
        assert 0.0 <= acc <= 1.0
        assert net.training  # restored to train mode

    def test_evaluate_restores_the_mode_it_found(self, dataset):
        """It used to end with ``train(True)`` whatever the mode was."""
        net = tiny_net().eval()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        tr.evaluate(*dataset.fixed_eval_set(8))
        assert not any(layer.training for layer in [net, *iter_layers(net)])

    def test_smoothed_accuracy(self, dataset):
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        tr.train(batches(dataset, 8, 25, seed=0))
        sm = tr.history.smoothed_accuracy(window=5)
        assert sm.size == 21

    def test_training_learns_task(self, dataset):
        """End-to-end: the substrate trains a real classifier."""
        net = tiny_net()
        tr = Trainer(net, SGD(net.parameters(), lr=0.02, momentum=0.9))
        tr.train(batches(dataset, 32, 80, seed=0))
        x, y = dataset.fixed_eval_set(200)
        assert tr.evaluate(x, y) > 0.8


def returned_dx(layer):
    """Record what every ``layer.backward`` call returns from now on."""
    seen, backward = [], layer.backward

    def recording(dout):
        seen.append(backward(dout))
        return seen[-1]

    layer.backward = recording
    return seen


class TestDataGradientSkip:
    """The training step does not compute the gradient of the data batch."""

    @pytest.fixture
    def data_grad_kept(self, monkeypatch):
        """Test-only seam: a class-level property that swallows the trainer's
        write, so every layer keeps computing its input gradient."""
        monkeypatch.setattr(
            Layer, "needs_input_grad", property(lambda self: True, lambda self, value: None)
        )

    @staticmethod
    def run(model, steps=5):
        net = build_scaled_model(model, num_classes=4, image_size=16, batch=4, rng=3)
        first = next(iter_layers(net))
        assert isinstance(first, Conv2D)
        dx = returned_dx(first)
        tr = Trainer(net, SGD(net.parameters(), lr=0.05, momentum=0.9))
        tr.train(batches(SyntheticImageDataset(num_classes=4, image_size=16, seed=5), 4, steps, seed=6))
        return tr.history.losses, [p.data.copy() for p in net.parameters()], dx

    @pytest.mark.parametrize("model", ["vgg16", "alexnet", "resnet18"])
    def test_losses_and_weights_are_bit_identical_without_it(self, model, request):
        losses, weights, dx = self.run(model)
        assert all(d is None for d in dx) and len(dx) == len(losses)
        request.getfixturevalue("data_grad_kept")
        kept_losses, kept_weights, kept_dx = self.run(model)
        assert all(d is not None and d.shape == (4, 3, 16, 16) for d in kept_dx)
        np.testing.assert_array_equal(losses, kept_losses)
        for a, b in zip(weights, kept_weights):
            np.testing.assert_array_equal(a, b)

    def test_resnet_root_has_a_residual_after_the_stem(self):
        net = build_scaled_model("resnet18", num_classes=4, image_size=16, batch=4, rng=3)
        assert any(isinstance(layer, Residual) for layer in net.layers)

    @pytest.mark.parametrize("shortcut", [None, "conv"])
    def test_a_residual_root_keeps_the_gradients_it_sums(self, dataset, shortcut):
        inner = Conv2D(3, 3, 3, padding=1, rng=1)
        side = Conv2D(3, 3, 1, rng=2) if shortcut else None
        block = Residual(Sequential([inner, ReLU()]), shortcut=side)
        net = Sequential([block, Flatten(), Linear(3 * 16 * 16, 4, rng=3)])
        seen = [returned_dx(layer) for layer in (inner, side) if layer is not None]
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        tr.train(batches(dataset, 4, 2, seed=0))
        assert all(len(dx) == 2 and all(d.shape == (4, 3, 16, 16) for d in dx) for dx in seen)

    def test_direct_backward_and_gradcheck_still_get_dx(self, dataset, rng):
        net = tiny_net()
        first = net.layers[0]
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        images, labels = dataset.sample(4, rng=0)
        tr.train_step(images, labels)
        assert first.needs_input_grad  # the trainer's setting does not outlive its backward
        logits = net.forward(images)
        dx = net.backward(np.ones_like(logits))
        assert dx.shape == images.shape and np.abs(dx).sum() > 0
        check_layer_gradients(first, rng.standard_normal((2, 3, 5, 5)))

    def test_error_injection_study_runs_on_the_data_layer(self, dataset):
        from repro.analysis.error_injection import conv_gradient_error_sample

        net = tiny_net()
        Trainer(net, SGD(net.parameters(), lr=0.01)).train(batches(dataset, 4, 1, seed=0))
        x, _ = dataset.sample(4, rng=0)
        dout = np.ones((4, 6, 16, 16), dtype=np.float32)
        errors = conv_gradient_error_sample(net.layers[0], x, dout, error_bound=1e-2, rng=0)
        assert errors.size == net.layers[0].weight.size and np.abs(errors).max() > 0

    def test_a_failing_backward_leaves_the_layer_as_it_was(self, dataset):
        net = tiny_net()

        def broken(dout):
            raise RuntimeError("boom")

        net.layers[-1].backward = broken
        tr = Trainer(net, SGD(net.parameters(), lr=0.01))
        with pytest.raises(RuntimeError, match="boom"):
            tr.train_step(*dataset.sample(4, rng=0))
        assert net.layers[0].needs_input_grad


class TestDropoutModes:
    def test_eval_forward_drops_the_previous_training_mask(self, rng):
        """train-forward, eval-forward, backward used to multiply by the
        *training* pass's mask."""
        drop = Dropout(0.5, rng=0)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        assert (drop.forward(x) == 0).any()
        drop.eval()
        np.testing.assert_array_equal(drop.forward(x), x)
        dout = rng.standard_normal(x.shape).astype(np.float32)
        np.testing.assert_array_equal(drop.backward(dout), dout)

    def test_backward_follows_the_mode_of_the_latest_forward(self, rng):
        drop = Dropout(0.5, rng=0)
        x = np.ones((16, 16), dtype=np.float32)
        drop.eval().forward(x)
        out = drop.train().forward(x)
        np.testing.assert_array_equal(drop.backward(x) == 0, out == 0)

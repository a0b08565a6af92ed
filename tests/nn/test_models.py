"""Tests for the model zoo: shapes, registry, capacity ordering, helpers."""

import numpy as np
import pytest

from repro.nn import (
    MODEL_REGISTRY,
    MLPClassifier,
    ResNetClassifier,
    Tensor,
    build_model,
    model_num_parameters,
)

IMG = (3, 8, 8)


class TestRegistry:
    def test_all_registry_models_build(self):
        for name in MODEL_REGISTRY:
            model = build_model(name, 4, IMG, feature_dim=8, rng=0)
            logits, feats = model.forward_with_features(Tensor(np.zeros((2, *IMG))))
            assert logits.shape == (2, 4)
            assert feats.shape == (2, 8)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet9000", 10, IMG)

    def test_capacity_ordering_matches_paper_roles(self):
        counts = [
            model_num_parameters(n, 10, IMG)
            for n in ("resnet11", "resnet20", "resnet29", "resnet56")
        ]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_mlp_capacity_ordering(self):
        counts = [
            model_num_parameters(n, 10, IMG)
            for n in ("mlp_small", "mlp_medium", "mlp_large", "mlp_xlarge")
        ]
        assert counts == sorted(counts)


class TestMLP:
    def test_flattens_images(self):
        model = MLPClassifier(np.prod(IMG), [16], 5, feature_dim=8, rng=0)
        out = model(Tensor(np.zeros((3, *IMG))))
        assert out.shape == (3, 5)

    def test_feature_dim_respected(self):
        model = MLPClassifier(12, [8], 5, feature_dim=6, rng=0)
        feats = model.features(Tensor(np.zeros((2, 12))))
        assert feats.shape == (2, 6)


class TestResNet:
    def test_blocks_widths_mismatch_raises(self):
        with pytest.raises(ValueError):
            ResNetClassifier(3, 10, blocks_per_stage=[1, 1], widths=(8, 16, 32))

    def test_invalid_depth_raises(self):
        from repro.nn.models import _resnet_blocks

        with pytest.raises(ValueError):
            _resnet_blocks(21)

    def test_residual_downsampling(self):
        model = ResNetClassifier(
            3, 10, blocks_per_stage=[1, 1, 1], widths=(4, 8, 16), feature_dim=8, rng=0
        )
        logits = model(Tensor(np.random.default_rng(0).normal(size=(2, *IMG))))
        assert logits.shape == (2, 10)

    def test_gradients_reach_stem(self):
        model = build_model("resnet11", 4, IMG, feature_dim=8, rng=0)
        from repro.nn import losses

        logits = model(Tensor(np.random.default_rng(1).normal(size=(4, *IMG))))
        losses.cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        stem_conv = model.stem[0]
        assert stem_conv.weight.grad is not None
        assert np.abs(stem_conv.weight.grad).max() > 0


class TestPredictionHelpers:
    @pytest.fixture
    def model(self):
        return build_model("mlp_small", 3, IMG, feature_dim=8, rng=0)

    def test_predict_logits_matches_forward(self, model):
        x = np.random.default_rng(2).normal(size=(5, *IMG))
        batched = model.predict_logits(x, batch_size=2)
        direct = model(Tensor(x.reshape(5, -1))).data
        np.testing.assert_allclose(batched, direct, atol=1e-10)

    def test_predict_returns_labels(self, model):
        x = np.random.default_rng(3).normal(size=(4, *IMG))
        preds = model.predict(x)
        assert preds.shape == (4,)
        assert set(preds) <= {0, 1, 2}

    def test_extract_features_shape(self, model):
        x = np.random.default_rng(4).normal(size=(4, *IMG))
        feats = model.extract_features(x)
        assert feats.shape == (4, 8)

    def test_empty_input(self, model):
        assert model.predict_logits(np.zeros((0, *IMG))).shape == (0, 3)
        assert model.extract_features(np.zeros((0, *IMG))).shape == (0, 8)

    def test_predict_restores_training_mode(self, model):
        model.train()
        model.predict(np.zeros((1, *IMG)))
        assert model.training

    def test_no_grad_in_predict(self, model):
        x = np.zeros((2, *IMG))
        model.zero_grad()
        model.predict(x)
        assert all(p.grad is None for p in model.parameters())


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = build_model("resnet11", 5, IMG, rng=42)
        b = build_model("resnet11", 5, IMG, rng=42)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = build_model("mlp_small", 5, IMG, rng=1)
        b = build_model("mlp_small", 5, IMG, rng=2)
        assert not np.allclose(a.classifier.weight.data, b.classifier.weight.data)


class TestResetParameters:
    """``reset_parameters`` is the constructor's init: a used model reset
    from a seed is indistinguishable from one freshly built from it."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_reset_matches_fresh_build(self, name, seed):
        from repro.nn import losses

        model = build_model(name, 4, IMG, feature_dim=8, rng=seed + 1)
        rng = np.random.default_rng(seed + 99)
        for param in model.parameters():
            param.data = param.data + rng.normal(size=param.shape)
        # a training step: grads set and BN running stats moved
        logits = model(Tensor(rng.normal(size=(3, *IMG))))
        losses.cross_entropy(logits, np.array([0, 1, 2])).backward()
        assert any(p.grad is not None for p in model.parameters())
        for _, buf in model.named_buffers():
            buf += rng.normal(size=buf.shape)
        model.eval()

        model.reset_parameters(np.random.default_rng(seed))

        fresh = build_model(name, 4, IMG, feature_dim=8, rng=seed).state_dict()
        reset = model.state_dict()
        assert list(reset) == list(fresh)
        for key, value in fresh.items():
            assert reset[key].dtype == value.dtype, key
            assert np.array_equal(reset[key], value), key
        assert all(p.grad is None for p in model.parameters())

        def modules(module):
            yield module
            for _, child in module.named_children():
                yield from modules(child)

        assert all(m.training for m in modules(model))


class TestModeToggle:
    def test_mlp_has_no_mode_dependent_layers(self):
        model = build_model("mlp_small", 3, IMG, feature_dim=8, rng=0)
        assert not model._mode_dependent()
        assert build_model("resnet11", 3, IMG, feature_dim=8, rng=0)._mode_dependent()

    def test_resnet_predicts_in_eval_mode_and_restores_train(self):
        model = build_model("resnet11", 3, IMG, feature_dim=8, rng=0)
        x = np.random.default_rng(5).normal(size=(4, *IMG))
        model.eval()
        expected = model(Tensor(x)).data
        model.train()
        np.testing.assert_array_equal(model.predict_logits(x), expected)
        assert model.training and model.stem[1].training

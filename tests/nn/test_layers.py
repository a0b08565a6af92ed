"""Tests for the Module system and individual layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestModuleProtocol:
    def test_named_parameters_nested(self):
        model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
        names = [n for n, _ in model.named_parameters()]
        assert "m0.weight" in names and "m2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        layer = nn.Linear(4, 3, rng=0)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.BatchNorm1d(4), nn.ReLU())
        model.eval()
        assert not model.training and not model[0].training
        model.train()
        assert model[0].training

    def test_zero_grad_clears(self):
        layer = nn.Linear(3, 2, rng=0)
        out = layer(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Sequential(nn.Linear(4, 4, rng=0), nn.BatchNorm1d(4))
        b = nn.Sequential(nn.Linear(4, 4, rng=99), nn.BatchNorm1d(4))
        a[1].running_mean[...] = 3.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b[0].weight.data, a[0].weight.data)
        np.testing.assert_allclose(b[1].running_mean, a[1].running_mean)

    def test_state_dict_is_a_copy(self):
        layer = nn.Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["weight"][...] = 0.0
        assert not np.allclose(layer.weight.data, 0.0)

    def test_load_state_dict_strict_keys(self):
        layer = nn.Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["extra"] = np.zeros(2)
        with pytest.raises(KeyError):
            layer.load_state_dict(state)
        del state["extra"], state["bias"]
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_load_state_dict_shape_check(self):
        layer = nn.Linear(2, 2, rng=0)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)


class TestLinear:
    def test_shapes(self):
        layer = nn.Linear(5, 3, rng=0)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestConv2dLayer:
    def test_output_shape(self):
        layer = nn.Conv2d(3, 8, 3, stride=1, padding=1, rng=0)
        out = layer(Tensor(np.ones((2, 3, 6, 6))))
        assert out.shape == (2, 8, 6, 6)

    def test_stride_halves(self):
        layer = nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=0)
        out = layer(Tensor(np.ones((1, 3, 8, 8))))
        assert out.shape == (1, 4, 4, 4)


class TestBatchNorm:
    def test_train_normalises_batch(self):
        bn = nn.BatchNorm1d(3)
        x = np.random.default_rng(0).normal(loc=5.0, scale=2.0, size=(64, 3))
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=0), np.ones(3), atol=1e-2)

    def test_running_stats_update(self):
        bn = nn.BatchNorm1d(2, momentum=0.5)
        x = np.ones((8, 2)) * 4.0
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, [2.0, 2.0])

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm1d(2)
        bn.running_mean[...] = 1.0
        bn.running_var[...] = 4.0
        bn.eval()
        out = bn(Tensor(np.full((3, 2), 5.0)))
        np.testing.assert_allclose(out.data, np.full((3, 2), 2.0), atol=1e-3)

    def test_bn2d_shape_check(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(3)(Tensor(np.ones((2, 3))))

    def test_bn1d_shape_check(self):
        with pytest.raises(ValueError):
            nn.BatchNorm1d(3)(Tensor(np.ones((2, 3, 4, 4))))

    def test_bn2d_normalises_channels(self):
        bn = nn.BatchNorm2d(2)
        x = np.random.default_rng(1).normal(size=(4, 2, 3, 3)) * 3 + 1
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(2), atol=1e-7)


class TestContainersAndActivations:
    def test_sequential_iteration(self):
        model = nn.Sequential(nn.ReLU(), nn.Identity())
        assert len(model) == 2
        assert isinstance(model[1], nn.Identity)
        assert len(list(iter(model))) == 2

    def test_identity(self):
        x = Tensor(np.ones(3))
        assert nn.Identity()(x) is x

    def test_relu(self):
        x = Tensor(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(nn.ReLU()(x).data, [0.0, 2.0])

    def test_pool_layers(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        assert nn.GlobalAvgPool2d()(x).shape == (1, 1)

"""Feedforward representation, evaluation, parameter counting, and JSON
round trips."""
import json

import numpy as np
import pytest

from gdn.errors import NumericError, ValidationError
from gdn.network import (
    AffineLayer,
    FeedforwardNet,
    eval_net,
    get_activation,
    net_from_dict,
    net_to_dict,
    param_count,
    width,
)

RELU = get_activation("relu")


def layer(w, b):
    return AffineLayer(np.array(w, dtype=float), np.array(b, dtype=float))


class TestEvalNet:
    def test_single_identity_layer(self, rng):
        net = FeedforwardNet((layer(np.eye(3), np.zeros(3)),), RELU)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(eval_net(net, x), x)

    def test_relu_identity_composition(self):
        # ReLU(x) - ReLU(-x) = x
        net = FeedforwardNet(
            (layer([[1.0], [-1.0]], [0.0, 0.0]), layer([[1.0, -1.0]], [0.0])), RELU)
        for x in (-2.0, 2.0, 0.3):
            assert eval_net(net, [x])[0] == x

    def test_zero_weights_give_last_bias(self):
        net = FeedforwardNet(
            (layer(np.zeros((2, 2)), [1.0, 1.0]), layer(np.zeros((1, 2)), [7.5])), RELU)
        assert eval_net(net, [3.0, 4.0])[0] == 7.5

    def test_dimension_mismatch(self):
        net = FeedforwardNet((layer(np.eye(2), np.zeros(2)),), RELU)
        with pytest.raises(ValidationError):
            eval_net(net, [1.0, 2.0, 3.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_intermediate_names_layer(self):
        exp = get_activation("exp")
        net = FeedforwardNet(
            (layer([[1000.0]], [0.0]), layer([[1000.0]], [0.0]),
             layer([[1.0]], [0.0])), exp)
        with pytest.raises(NumericError, match="layer"):
            eval_net(net, [1000.0])


def reference_forward(net, x):
    """The per-point forward pass the stacked evaluation replaced."""
    h = np.asarray(x, dtype=float).ravel()
    for i, l in enumerate(net.layers):
        h = l.weights @ h + l.bias
        if i != len(net.layers) - 1:
            h = net.activation(h)
    return h


def random_net(rng, dims, act):
    return FeedforwardNet(tuple(
        layer(rng.standard_normal((o, i)) / np.sqrt(i), rng.standard_normal(o))
        for i, o in zip(dims, dims[1:])), get_activation(act))


class TestStackedEval:
    @pytest.mark.parametrize("act", ["relu", "exp", "tanh", "softplus", "sigmoid",
                                     "square"])
    def test_rows_equal_per_point_calls(self, act, rng):
        for _ in range(10):
            dims = [int(d) for d in rng.integers(1, 40, size=int(rng.integers(2, 5)))]
            net = random_net(rng, dims, act)
            xs = rng.standard_normal((int(rng.integers(1, 120)), dims[0]))
            got = eval_net(net, xs)
            assert got.shape == (len(xs), dims[-1])
            want = np.array([reference_forward(net, x) for x in xs])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(eval_net(net, xs[0]), want[0])

    def test_shapes(self, rng):
        net = random_net(rng, [3, 5, 2], "tanh")
        assert eval_net(net, np.zeros(3)).shape == (2,)
        assert eval_net(net, np.zeros((1, 3))).shape == (1, 2)
        assert eval_net(net, np.zeros((0, 3))).shape == (0, 2)
        with pytest.raises(ValidationError, match="input length 4"):
            eval_net(net, np.zeros((6, 4)))
        xs = np.zeros((6, 3))
        xs[4, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            eval_net(net, xs)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_one_overflowing_row_raises(self):
        exp = get_activation("exp")
        net = FeedforwardNet(
            (layer([[1.0]], [0.0]), layer([[1.0]], [0.0]),
             layer([[1.0]], [0.0])), exp)
        xs = np.array([[0.0], [-1.0], [1000.0], [0.5]])
        with pytest.raises(NumericError, match="layer 0"):
            eval_net(net, xs)


class TestParamCount:
    def test_hand_values(self):
        one = FeedforwardNet((layer(np.zeros((2, 3)), np.zeros(2)),), RELU)
        assert param_count(one) == 8
        ident = FeedforwardNet((layer([[1.0]], [0.0]),), RELU)
        assert param_count(ident) == 2
        two = FeedforwardNet(
            (layer(np.zeros((5, 2)), np.zeros(5)), layer(np.zeros((3, 5)), np.zeros(3))),
            RELU)
        assert param_count(two) == 5 * 3 + 3 * 6

    def test_width_is_max_hidden(self):
        net = FeedforwardNet(
            (layer(np.zeros((5, 2)), np.zeros(5)), layer(np.zeros((3, 5)), np.zeros(3)),
             layer(np.zeros((1, 3)), np.zeros(1))), RELU)
        assert width(net) == 5


class TestActivations:
    @pytest.mark.parametrize("name", ["relu", "leaky-relu", "exp", "softplus",
                                      "sigmoid", "tanh", "square"])
    def test_spot_check_passes(self, name):
        assert get_activation(name).spot_check()

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            get_activation("swish-42")


class TestSerialization:
    def test_bit_exact_round_trip(self, rng):
        layers = (layer(rng.standard_normal((4, 3)), rng.standard_normal(4)),
                  layer(rng.standard_normal((2, 4)), rng.standard_normal(2)))
        net = FeedforwardNet(layers, get_activation("exp"))
        text = json.dumps(net_to_dict(net))
        back = net_from_dict(json.loads(text))
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert back.activation.name == "exp"

    def test_schema_shape(self):
        net = FeedforwardNet((layer([[1.0, 2.0]], [3.0]),), RELU)
        d = net_to_dict(net)
        assert set(d) == {"layers", "activation"}
        assert d["layers"][0]["weights"] == [[1.0, 2.0]]
        assert d["activation"] == {"name": "relu", "class": "piecewise-linear",
                                   "breakpoints": 1}

    def test_class_mismatch_rejected(self):
        net = FeedforwardNet((layer([[1.0]], [0.0]),), RELU)
        d = net_to_dict(net)
        d["activation"]["class"] = "smooth-nonpoly"
        with pytest.raises(ValidationError):
            net_from_dict(d)

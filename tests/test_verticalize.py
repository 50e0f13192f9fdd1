"""Deep-narrow verticalization of shallow networks."""
import numpy as np
import pytest

from gdn.approx.verticalize import verticalize
from gdn.errors import UnsupportedError, ValidationError
from gdn.network import AffineLayer, FeedforwardNet, get_activation, width

RELU = get_activation("relu")
EXP = get_activation("exp")
SQUARE = get_activation("square")


def random_shallow(rng, p, m, hidden, act=RELU, scale=1.0):
    h = AffineLayer(scale * rng.standard_normal((hidden, p)),
                    scale * rng.standard_normal(hidden))
    o = AffineLayer(scale * rng.standard_normal((m, hidden)),
                    scale * rng.standard_normal(m))
    return FeedforwardNet((h, o), act)


class TestExactPwl:
    def test_single_neuron_identity(self, rng):
        net = random_shallow(rng, 1, 1, 1)
        deep = verticalize(net, (-2.0, 2.0))
        assert deep.depth == 1
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            np.testing.assert_allclose(deep(x), net(x), atol=1e-10)

    def test_width_five_depth_five(self, rng):
        net = random_shallow(rng, 2, 1, 5)
        deep = verticalize(net, (-2.0, 2.0))
        assert deep.depth == 5
        assert width(deep) <= 2 + 1 + 2
        worst = 0.0
        for _ in range(500):
            x = rng.uniform(-2, 2, 2)
            worst = max(worst, float(np.max(np.abs(deep(x) - net(x)))))
        assert worst <= 1e-9

    def test_two_nets_sum_depths(self, rng):
        # two single-output nets stacked into one core: the hidden layers
        # one above the other, a block output matrix
        n1 = random_shallow(rng, 2, 1, 3)
        n2 = random_shallow(rng, 2, 1, 4)
        (h1, o1), (h2, o2) = n1.layers, n2.layers
        hid = AffineLayer(np.vstack([h1.weights, h2.weights]),
                          np.concatenate([h1.bias, h2.bias]))
        W = np.zeros((2, 7))
        W[0, :3], W[1, 3:] = o1.weights[0], o2.weights[0]
        out = AffineLayer(W, np.concatenate([o1.bias, o2.bias]))
        deep = verticalize(FeedforwardNet((hid, out), RELU), (-2.0, 2.0))
        assert deep.depth == 7
        assert width(deep) <= 2 + 2 + 2
        for _ in range(300):
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(deep(x), [n1(x)[0], n2(x)[0]], atol=1e-9)

    def test_zero_output_weights_get_no_layer(self, rng):
        # a block output matrix, as the compile builds: each output reads
        # its own hidden units and has exact zeros on the others'
        net = random_shallow(rng, 2, 2, 5)
        W = net.layers[1].weights.copy()
        W[0, 3:] = 0.0
        W[1, :3] = 0.0
        W[1, 4] = 0.0
        net = FeedforwardNet((net.layers[0], AffineLayer(W, net.layers[1].bias)), RELU)
        deep = verticalize(net, (-2.0, 2.0))
        assert deep.depth == np.count_nonzero(W) == 4
        for _ in range(300):
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(deep(x), net(x), atol=1e-9)

    def test_dense_outputs_share_one_layer_per_unit(self, rng):
        # every output reads every unit: each unit's layer folds its neuron
        # into both accumulators, so the depth is the unit count, not the
        # count of nonzero weights
        net = random_shallow(rng, 2, 2, 5)
        assert np.count_nonzero(net.layers[1].weights) == 10
        deep = verticalize(net, (-2.0, 2.0))
        assert deep.depth == 5
        assert width(deep) <= 2 + 2 + 2
        xs = rng.uniform(-2, 2, (500, 2))
        assert float(np.max(np.abs(deep(xs) - net(xs)))) <= 1e-9

    def test_random_sweep_meets_budget(self, rng):
        for _ in range(15):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            hidden = int(rng.integers(1, 9))
            net = random_shallow(rng, p, m, hidden)
            deep = verticalize(net, (-2.0, 2.0))
            assert width(deep) <= p + m + 2
            for _ in range(100):
                x = rng.uniform(-2, 2, p)
                assert float(np.max(np.abs(deep(x) - net(x)))) <= 1e-9

    def test_unbounded_box_rejected(self, rng):
        net = random_shallow(rng, 1, 1, 2)
        with pytest.raises(ValidationError):
            verticalize(net, (-np.inf, np.inf))

    def test_nonaffine_poly_activation_rejected(self, rng):
        # square has neither an affine half-line nor a smooth window codec
        net = random_shallow(rng, 1, 1, 2, act=SQUARE)
        with pytest.raises(UnsupportedError, match="nonaffine-poly"):
            verticalize(net, (-1.0, 1.0))

    def test_two_hidden_layers_rejected(self, rng):
        net = random_shallow(rng, 2, 2, 3)
        mid = AffineLayer(rng.standard_normal((3, 3)), rng.standard_normal(3))
        deeper = FeedforwardNet((net.layers[0], mid, net.layers[1]), RELU)
        with pytest.raises(ValidationError):
            verticalize(deeper, (-1.0, 1.0))

    def test_one_affine_layer_is_kept(self, rng):
        layer = AffineLayer(rng.standard_normal((2, 3)), rng.standard_normal(2))
        deep = verticalize(FeedforwardNet((layer,), RELU), (-1.0, 1.0))
        assert deep.depth == 0
        np.testing.assert_array_equal(deep.layers[0].weights, layer.weights)
        np.testing.assert_array_equal(deep.layers[0].bias, layer.bias)


def seeded_bound(deep, net, lo, hi):
    """The deviation bound of a rewrite on the box [lo, hi]: the largest
    output deviation of the deep net from the shallow one at 256 seeded
    points of the box."""
    xs = lo + (hi - lo) * np.random.default_rng(7).random((256, net.in_dim))
    return float(np.max(np.abs(deep(xs) - net(xs))))


class TestScaledIdentity:
    def test_bound_decreases_when_lambda_halves(self, rng):
        net = random_shallow(rng, 2, 1, 3, act=EXP, scale=0.4)
        bounds = [seeded_bound(verticalize(net, (-1.0, 1.0), lam=lam), net, -1.0, 1.0)
                  for lam in (4e-3, 2e-3, 1e-3)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_seeded_bound_is_honest(self, rng):
        net = random_shallow(rng, 1, 2, 3, act=EXP, scale=0.4)
        deep = verticalize(net, (-1.0, 1.0), lam=1e-3)
        assert width(deep) <= 1 + 2 + 2
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-1, 1, 1)
            want = net(x)
            worst = max(worst, float(np.max(np.abs(deep(x) - want))))
        assert worst <= seeded_bound(deep, net, -1.0, 1.0) * 1.5 + 1e-12

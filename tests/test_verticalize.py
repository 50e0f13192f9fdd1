"""Deep-narrow verticalization of shallow networks."""
import numpy as np
import pytest

from gdn.approx.verticalize import split_outputs, verticalize
from gdn.errors import UnsupportedError, ValidationError
from gdn.network import AffineLayer, FeedforwardNet, get_activation, width

RELU = get_activation("relu")
EXP = get_activation("exp")


def random_shallow(rng, p, m, hidden, act=RELU, scale=1.0):
    h = AffineLayer(scale * rng.standard_normal((hidden, p)),
                    scale * rng.standard_normal(hidden))
    o = AffineLayer(scale * rng.standard_normal((m, hidden)),
                    scale * rng.standard_normal(m))
    return FeedforwardNet((h, o), act)


class TestExactPwl:
    def test_single_neuron_identity(self, rng):
        net = random_shallow(rng, 1, 1, 1)
        res = verticalize(split_outputs(net), (-2.0, 2.0))
        assert res.net.depth == 1
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            np.testing.assert_allclose(res.net(x), net(x), atol=1e-10)

    def test_width_five_depth_five(self, rng):
        net = random_shallow(rng, 2, 1, 5)
        res = verticalize(split_outputs(net), (-2.0, 2.0))
        assert res.net.depth == 5
        assert width(res.net) <= 2 + 1 + 2
        worst = 0.0
        for _ in range(500):
            x = rng.uniform(-2, 2, 2)
            worst = max(worst, float(np.max(np.abs(res.net(x) - net(x)))))
        assert worst <= 1e-9

    def test_two_nets_sum_depths(self, rng):
        n1 = random_shallow(rng, 2, 1, 3)
        n2 = random_shallow(rng, 2, 1, 4)
        res = verticalize([n1, n2], (-2.0, 2.0))
        assert res.net.depth == 7
        assert width(res.net) <= 2 + 2 + 2
        for _ in range(300):
            x = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(res.net(x), [n1(x)[0], n2(x)[0]], atol=1e-9)

    def test_random_sweep_meets_budget(self, rng):
        for _ in range(15):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            hidden = int(rng.integers(1, 9))
            net = random_shallow(rng, p, m, hidden)
            res = verticalize(split_outputs(net), (-2.0, 2.0))
            assert width(res.net) <= p + m + 2
            for _ in range(100):
                x = rng.uniform(-2, 2, p)
                assert float(np.max(np.abs(res.net(x) - net(x)))) <= 1e-9

    def test_unbounded_box_rejected(self, rng):
        net = random_shallow(rng, 1, 1, 2)
        with pytest.raises(ValidationError):
            verticalize(split_outputs(net), (-np.inf, np.inf))

    def test_smooth_activation_rejected(self, rng):
        net = random_shallow(rng, 1, 1, 2, act=EXP)
        with pytest.raises(UnsupportedError):
            verticalize(split_outputs(net), (-1.0, 1.0), "exact-pwl")


class TestScaledIdentity:
    def test_bound_decreases_when_lambda_halves(self, rng):
        net = random_shallow(rng, 2, 1, 3, act=EXP, scale=0.4)
        bounds = [verticalize(split_outputs(net), (-1.0, 1.0), "scaled-identity",
                              lam=lam).reported_bound
                  for lam in (4e-3, 2e-3, 1e-3)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_reported_bound_is_honest(self, rng):
        net = random_shallow(rng, 1, 2, 3, act=EXP, scale=0.4)
        res = verticalize(split_outputs(net), (-1.0, 1.0), "scaled-identity",
                          lam=1e-3)
        assert width(res.net) <= 1 + 2 + 2
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-1, 1, 1)
            want = net(x)
            worst = max(worst, float(np.max(np.abs(res.net(x) - want))))
        assert worst <= res.reported_bound * 1.5 + 1e-12

    def test_pwl_activation_rejected(self, rng):
        net = random_shallow(rng, 1, 1, 2)
        with pytest.raises(UnsupportedError):
            verticalize(split_outputs(net), (-1.0, 1.0), "scaled-identity")

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_one_draw_equals_a_draw_per_point(self, p):
        stacked = np.random.default_rng(7).random((256, p))
        rng = np.random.default_rng(7)
        np.testing.assert_array_equal(stacked, [rng.random(p) for _ in range(256)])

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 2), (3, 1)])
    def test_bound_equals_the_per_point_loop(self, p, m, rng):
        shallows = split_outputs(random_shallow(rng, p, m, 3, act=EXP, scale=0.4))
        lo, hi = np.array([-1.0, -0.5, 0.0][:p]), np.array([1.0, 0.5, 2.0][:p])
        res = verticalize(shallows, (lo, hi), "scaled-identity", lam=1e-3)
        # the per-point loop the stacked bound check replaced
        draws = np.random.default_rng(7)
        want = 0.0
        for _ in range(256):
            x = lo + (hi - lo) * draws.random(p)
            ref = np.array([float(s(x)[0]) for s in shallows])
            want = max(want, float(np.max(np.abs(res.net(x) - ref))))
        assert res.reported_bound == want

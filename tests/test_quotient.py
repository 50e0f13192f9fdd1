"""Quotient metrics, canonical representatives, group-axiom checks, and
product metrics."""
import itertools
import math

import numpy as np
import pytest

from gdn.errors import ValidationError
from gdn.manifolds import resolve_manifold
from gdn.manifolds.zoo import distance
from gdn.quotient import (
    ProductSpace,
    canonical_rep,
    check_group_axioms,
    antipodal_action,
    finite_list_action,
    lattice_action,
    product_distance,
    quotient_distance,
    resolve_quotient,
)


def brute_torus(y1, y2, m):
    # enumerate the shift window applied to the representative difference
    d = y1 - y2
    best = math.inf
    for k in itertools.product((-1.0, 0.0, 1.0), repeat=m):
        best = min(best, float(np.sqrt(np.sum((d - np.array(k)) ** 2))))
    return best


class TestQuotientDistance:
    def test_torus_hand_value(self):
        Q = resolve_quotient("torus:2")
        assert quotient_distance(Q, [0.9, 0.0], [0.1, 0.0]) == pytest.approx(0.2)

    def test_same_class_after_canonicalization(self, rng):
        Q = resolve_quotient("torus:2")
        y = rng.random(2)
        z = canonical_rep(Q, y + np.array([1.0, 1.0]))
        assert quotient_distance(Q, y, z) <= 1e-12

    def test_rp_hand_values(self):
        Q = resolve_quotient("rp:2")
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert quotient_distance(Q, e1, e2) == pytest.approx(math.pi / 2.0)
        assert quotient_distance(Q, e1, -e1) == 0.0

    def test_torus_closed_form_matches_brute_force_exactly(self, rng):
        for m in (1, 2, 3, 4):
            Q = resolve_quotient(f"torus:{m}")
            for _ in range(100):
                y1, y2 = rng.random(m), rng.random(m)
                assert quotient_distance(Q, y1, y2) == brute_torus(y1, y2, m)

    def test_never_exceeds_base_distance(self, rng):
        from gdn.manifolds.zoo import distance
        Qt = resolve_quotient("torus:3")
        for _ in range(100):
            y1, y2 = rng.random(3), rng.random(3)
            assert quotient_distance(Qt, y1, y2) <= float(np.linalg.norm(y1 - y2)) + 1e-12
        Qr = resolve_quotient("rp:2")
        s2 = resolve_manifold("sphere:2")
        for _ in range(100):
            a = rng.standard_normal(3); a /= np.linalg.norm(a)
            b = rng.standard_normal(3); b /= np.linalg.norm(b)
            assert quotient_distance(Qr, a, b) <= distance(s2, a, b) + 1e-12

    def test_metric_axioms_on_canonical_reps(self, rng):
        Q = resolve_quotient("torus:2")
        pts = [rng.random(2) for _ in range(20)]
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            dab = quotient_distance(Q, a, b)
            assert dab == pytest.approx(quotient_distance(Q, b, a), abs=1e-12)
            assert quotient_distance(Q, a, c) <= dab + quotient_distance(Q, b, c) + 1e-9

    def test_finite_list_minimizes_over_elements(self, rng):
        from gdn.quotient import QuotientSpace
        base = resolve_manifold("euclidean:2")
        action = finite_list_action([lambda z: z, lambda z: -z], ["id", "neg"])
        Q = QuotientSpace(base, action, "sign-quotient")
        for _ in range(50):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            want = min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
            assert quotient_distance(Q, a, b) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_rp_distance_is_the_projective_kernel(self, m):
        # one sign rule: the quotient's antipodal branch gives the rp:m
        # distance bit for bit, also on nearly orthogonal classes, where the
        # representative it picks turns on the sign of a tiny dot product
        rng = np.random.default_rng(m)
        Q, rp = resolve_quotient(f"rp:{m}"), resolve_manifold(f"rp:{m}")
        tiny = 0
        for k in range(1000):
            y1 = rng.standard_normal(m + 1)
            y1 /= np.linalg.norm(y1)
            y2 = rng.standard_normal(m + 1)
            if k % 2:
                y2 -= np.vecdot(y1, y2) * y1
            y2 /= np.linalg.norm(y2)
            tiny += abs(float(np.vecdot(y1, y2))) < 1e-15
            got = quotient_distance(Q, y1, y2)
            assert np.float64(got).tobytes() == np.float64(distance(rp, y1, y2)).tobytes()
        assert tiny >= 100

    def test_invalid_representative(self):
        Q = resolve_quotient("torus:2")
        with pytest.raises(ValidationError):
            quotient_distance(Q, [1.5, 0.0], [0.1, 0.0])


class TestCanonicalRep:
    def test_torus_fractional_parts(self):
        Q = resolve_quotient("torus:2")
        np.testing.assert_allclose(canonical_rep(Q, [1.4, -0.25]), [0.4, 0.75])

    def test_rp_sign_fix(self):
        Q = resolve_quotient("rp:2")
        np.testing.assert_allclose(canonical_rep(Q, [-0.6, 0.8, 0.0]),
                                   [0.6, -0.8, 0.0], atol=1e-15)

    def test_idempotent(self, rng):
        for ident in ("torus:3", "rp:2"):
            Q = resolve_quotient(ident)
            z = rng.standard_normal(Q.base.point_dim)
            c1 = canonical_rep(Q, z)
            np.testing.assert_allclose(canonical_rep(Q, c1), c1, atol=1e-15)

    def test_rp_rejects_zero(self):
        Q = resolve_quotient("rp:2")
        with pytest.raises(ValidationError):
            canonical_rep(Q, np.zeros(3))


class TestGroupAxioms:
    def test_antipodal_passes(self, rng):
        pts = []
        for _ in range(6):
            z = rng.standard_normal(3)
            pts.append(z / np.linalg.norm(z))
        report = check_group_axioms(antipodal_action(2), pts,
                                    base=resolve_manifold("sphere:2"))
        assert report.ok

    def test_lattice_window_passes(self, rng):
        report = check_group_axioms(lattice_action(2), [rng.random(2) for _ in range(5)])
        assert report.ok

    def test_non_isometry_fails(self, rng):
        action = finite_list_action([lambda z: z, lambda z: z / 2.0], ["id", "half"])
        report = check_group_axioms(action, [rng.random(2) for _ in range(5)])
        assert not report.ok
        assert report.violated is not None

    def test_missing_identity_fails(self, rng):
        action = finite_list_action([lambda z: -z], ["neg"])
        report = check_group_axioms(action, [rng.random(2) + 0.1 for _ in range(5)])
        assert not report.ok
        assert report.violated == "identity"


class TestProductDistance:
    def test_identical_tuples(self):
        P = ProductSpace((resolve_manifold("euclidean:2"), resolve_quotient("torus:2")))
        a = (np.zeros(2), np.array([0.3, 0.3]))
        assert product_distance(P, a, a) == 0.0

    def test_max_of_components(self):
        P = ProductSpace((resolve_manifold("sphere:2"), resolve_manifold("euclidean:1")))
        a = (np.array([1.0, 0, 0]), np.array([0.0]))
        b = (np.array([0.0, 1.0, 0]), np.array([0.1]))
        assert product_distance(P, a, b) == pytest.approx(math.pi / 2.0)

    def test_single_component_degenerate(self, rng):
        e2 = resolve_manifold("euclidean:2")
        P = ProductSpace((e2,))
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        assert product_distance(P, (a,), (b,)) == pytest.approx(float(np.linalg.norm(a - b)))

    def test_zero_iff_componentwise_equal(self, rng):
        P = ProductSpace((resolve_manifold("euclidean:1"), resolve_manifold("euclidean:1")))
        a = (np.array([0.1]), np.array([0.2]))
        b = (np.array([0.1]), np.array([0.3]))
        assert product_distance(P, a, b) > 0.0
        assert product_distance(P, a, a) == 0.0

    def test_arity_mismatch(self):
        P = ProductSpace((resolve_manifold("euclidean:1"),))
        with pytest.raises(ValidationError):
            product_distance(P, (np.zeros(1), np.zeros(1)), (np.zeros(1),))

"""Pinned chart bits: the sha256 of exp_map, log_map and distance outputs for
every member of the zoo but spd:n with n >= 3, on seeded single points and
(N, d) stacks with a zero tangent and a coincident pair among the rows.

Any change to a chart kernel that moves one bit fails here.  spd:n with
n >= 3 is left out, as in ``test_golden.py``: its bits depend on LAPACK's
eigensolver, which spd:2's closed forms do not call.  The values were
recorded with numpy 2.4.6 on x86-64 Linux.
"""
import hashlib

import numpy as np
import pytest

from gdn.manifolds.core import resolve_manifold
from gdn.manifolds.zoo import distance, exp_map, log_map, random_point, random_tangent

# id -> sha256 of the exp_map, log_map and distance outputs
PINNED = {
    "euclidean:3": (
        "3742325ed5e5dc09ebf08cbcd12c54b90407157263809f65860469e9d087aba4",
        "5cf37f3e0394664ae34f847f5d35cbe66d58a0762d3c64d3f30f9da4bae859ed",
        "962233f6c755d26a29a9fa313bc281831b4f62baa4e28f90fac7d5952fccef24",
    ),
    "sphere:2": (
        "43adcc07048478eb5bce14912e6ad8deb8373dc1c0dcdf6b4eb32ad9369e6349",
        "bb79f5236260281be19f29366b1b7f21652f9b119ab973b1e5f7a2903db124a3",
        "e12ab6bfff186f8fed765da696c845bfe2c465120cfa9345465d4a525014d3fd",
    ),
    "poincare:2:1": (
        "d87b3a966bc9bc94d768285d263edd1539ef3b7fb480d83cc79406e6b0a48782",
        "3e57a76caeb010b1eb8761a5e8dba4663919b719922dc64aad0a66de365d4deb",
        "5e3026c690d255d15ff0b6ee29cb87cd93b1d925fa1a0d80a29623228ce48beb",
    ),
    "gaussian:2": (
        "b0ebd27d23281689ee4ba41e08a545cf69f238e8862a6d61102fdd901075a5b4",
        "b1eec03b948de0bc2459f35a8a4ae0e496b7cd604ae5d599c2cf461b3d9264c6",
        "68d3d96f1b3db13c22a2ae46cca9b96edc30328cc97a3f45b2954ce0895ab84d",
    ),
    "torus:3": (
        "ecf9e79b946e6dee4aa7aa368350a2de43fef658b8983d7ff8446a632044b437",
        "11dec5058d3cf9801bba193e8e7e6d2d0649dca7e77303b4fed68e31a5e72d51",
        "e98de6f3c11b0f55514afe537ea4a1d5d74ee18dd729ee9fbd32fb45a87272e8",
    ),
    "rp:2": (
        "100e2a451b1f9b126de66dcb728c5824af41d02d996f1ff32ac5c0cd5f8cd3aa",
        "821e01623cacc52e4d0f19f14862e705e8ead76482576c7bc29d53cda87bbf93",
        "1c0299f0142f045c08fbcb8771d528acdb5fa37756c9b325ae812e1d33005a2a",
    ),
    "euclidean:1": (
        "705812bf3f79277fdff596956a232d17a27b7c4d16afa4ee7335cd2db3b0b0b7",
        "473e1705e68c1cf67c7469e09f8a31ebcaf2e79f4309eaad1c1a81a56b4f225e",
        "57e02c0007edd8ad131393c55bb2d5d9cc2819f13bd8d9a27ead91be1b5dd06e",
    ),
    "spd:2": (
        "b6a194ee3704af321b0055ac7a15ee35d693beb22b7ffde6ff91f2c10b5e0841",
        "32aeb420650e282ef85a37f8266979a5bd243bbbe64c086b5de945cce586f8f4",
        "4320f5f2f0d05a425a4c8bbf396c3c95e89d30017a2232049e992cf56db96bb6",
    ),
    "poincare:3:0.5": (
        "06a22e3c4202feb09f9df674f5ef5b18d61301b79915fc6398aeaf04bf81b059",
        "58bab37b114b834ad47abef122a88550c1b3882f7aa89f8d5074506bde9e9447",
        "8db03a3863e15b653743bb30f87cff6050b54f5fd80d55bb557e11e136cf3434",
    ),
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def chart_digests(ident):
    spec = resolve_manifold(ident)
    rng = np.random.default_rng(20261018)
    xs = np.array([random_point(spec, rng) for _ in range(24)])
    vs = np.array([random_tangent(spec, x, rng) for x in xs])
    ys = np.array([random_point(spec, rng) for _ in range(24)])
    ws = np.array([random_tangent(spec, xs[0], rng) for _ in range(8)])
    vs[0] = ws[0] = 0.0  # zero tangents
    ys[1] = xs[1]  # a coincident pair
    singles = (0, 1, 2)
    exps = [exp_map(spec, xs, vs), exp_map(spec, xs[0], ws)]
    exps += [exp_map(spec, xs[i], vs[i]) for i in singles]
    logs = [log_map(spec, xs, ys), log_map(spec, xs[1], ys), log_map(spec, xs, exps[0])]
    logs += [log_map(spec, xs[i], ys[i]) for i in singles]
    dists = [distance(spec, xs, ys), distance(spec, ys, xs[1])]
    dists += [distance(spec, xs[i], ys[i]) for i in singles]
    return _digest(exps), _digest(logs), _digest(dists)


@pytest.mark.parametrize("ident", sorted(PINNED))
def test_chart_bits_pinned(ident):
    assert chart_digests(ident) == PINNED[ident]

import numpy as np
import pytest

from idemx.errors import EmptySet, ModeArity, TooLarge
from idemx.functionals import LambdaFunctional, RealFunction, SupportFunctional
from idemx.hyperspace import (
    HyperPoint,
    VietorisNbhd,
    enumerate_hyperspace,
    functional_topology,
    hausdorff_distance,
    hyperspace_roundtrip,
    lipschitz_constant,
    subset_max,
    subset_min,
    subset_roundtrip_failure,
    vietoris_contains,
    vietoris_topology,
)
from idemx.spaces import discrete, line_metric


def test_enumeration_counts():
    assert len(enumerate_hyperspace(discrete(["a", "b"]))) == 3
    assert len(enumerate_hyperspace(discrete(list("abcd")))) == 15
    assert len(enumerate_hyperspace(discrete(["x"]))) == 1


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_hyperspace(discrete([f"p{i}" for i in range(17)]))


def test_hyperpoint_nonempty():
    with pytest.raises(EmptySet):
        HyperPoint(discrete(["a"]), 0)


def test_hausdorff_examples():
    m = line_metric({"0": 0.0, "h": 0.5, "1": 1.0})
    f = HyperPoint(m, m.mask(["0"]))
    g = HyperPoint(m, m.mask(["h", "1"]))
    assert hausdorff_distance(f, g, m) == 1.0
    assert hausdorff_distance(f, f, m) == 0.0
    assert hausdorff_distance(g, g, m) == 0.0


def test_hausdorff_is_a_metric_on_small_grids(rng):
    coords = {f"p{i}": float(x) for i, x in enumerate(sorted(rng.uniform(0, 10, 4)))}
    m = line_metric(coords)
    pts = enumerate_hyperspace(m)
    for a in pts:
        for b in pts:
            d = hausdorff_distance(a, b, m)
            assert d == hausdorff_distance(b, a, m)
            assert (d == 0) == (a.member == b.member)
            for c in pts:
                assert d <= hausdorff_distance(a, c, m) + hausdorff_distance(c, b, m) + 1e-12


def test_vietoris_contains_modes():
    s = discrete(["a", "b"])
    full = VietorisNbhd(s, (s.mask(["a"]), s.mask(["b"])), "full")
    fab = HyperPoint(s, s.mask(["a", "b"]))
    fa = HyperPoint(s, s.mask(["a"]))
    assert vietoris_contains(full, fab)
    assert not vietoris_contains(full, fa)
    upper = VietorisNbhd(s, (s.mask(["a", "b"]),), "upper")
    assert vietoris_contains(upper, fa)


def test_upper_mode_arity():
    s = discrete(["a", "b"])
    with pytest.raises(ModeArity):
        VietorisNbhd(s, (s.mask(["a"]), s.mask(["b"])), "upper")


def test_vietoris_hereditary_properties():
    s = discrete(["a", "b", "c"])
    u = s.mask(["a", "b"])
    upper = VietorisNbhd(s, (u,), "upper")
    lower = VietorisNbhd(s, (u,), "lower")
    for h in enumerate_hyperspace(s):
        if vietoris_contains(upper, h):
            for m in range(1, s.full_mask + 1):
                if not (m & ~h.member):
                    assert vietoris_contains(upper, HyperPoint(s, m))
        if vietoris_contains(lower, h):
            for m in range(1, s.full_mask + 1):
                if not (h.member & ~m):
                    assert vietoris_contains(lower, HyperPoint(s, m))


def test_roundtrip_exhaustive_small():
    for n in (1, 2, 3, 4):
        s = discrete([f"p{i}" for i in range(n)])
        for kind in ("min", "max"):
            rep = hyperspace_roundtrip(s, kind)
            assert rep.cases == (1 << n) - 1
            assert rep.passed, rep.failures[:3]


def test_subset_roundtrip_reports_a_planted_failure():
    s = discrete(["a", "b", "c"])
    ab = s.mask(["a", "b"])
    assert subset_roundtrip_failure(SupportFunctional(s, "min", ab), "min", ab) is None
    # claims to be the min over {a, b} but is the min over {a, c}
    wrong = LambdaFunctional(s, lambda f: min(f["a"], f["c"]), label="planted")
    assert subset_roundtrip_failure(wrong, "min", ab) == (
        "support(planted) = ['a', 'c'], want ['a', 'b']"
    )
    # the right support, but the max kind where min is claimed
    assert subset_roundtrip_failure(SupportFunctional(s, "max", ab), "min", ab) == (
        "classify(max over {a,b}) = (R_max, ['a', 'b'])"
    )


def test_stability_inequality_sampled(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        coords = {f"p{i}": float(x) for i, x in enumerate(np.sort(rng.uniform(0, 10, n)))}
        m = line_metric(coords)
        f = RealFunction(m, tuple(rng.uniform(-5, 5, n)))
        lip = lipschitz_constant(f, m)
        fm = int(rng.integers(1, (1 << n)))
        gm = int(rng.integers(1, (1 << n)))
        dh = hausdorff_distance(HyperPoint(m, fm), HyperPoint(m, gm), m)
        assert abs(subset_min(f, fm) - subset_min(f, gm)) <= lip * dh + 1e-12
        assert abs(subset_max(f, fm) - subset_max(f, gm)) <= lip * dh + 1e-12


def test_monotonicity_under_inclusion(rng):
    s = discrete(["a", "b", "c", "d"])
    for _ in range(100):
        f = RealFunction(s, tuple(rng.uniform(-5, 5, 4)))
        fm = int(rng.integers(1, s.full_mask + 1))
        gm = fm | int(rng.integers(1, s.full_mask + 1))
        assert subset_min(f, gm) <= subset_min(f, fm)
        assert subset_max(f, fm) <= subset_max(f, gm)


def test_threshold_topologies_match_vietoris_on_discrete():
    s = discrete(["a", "b", "c"])
    upper = vietoris_topology(s, "upper")
    lower = vietoris_topology(s, "lower")
    assert functional_topology(s, "min", "above") == upper
    assert functional_topology(s, "max", "below") == upper
    assert functional_topology(s, "min", "below") == lower
    assert functional_topology(s, "max", "above") == lower

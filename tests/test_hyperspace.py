import itertools

import numpy as np
import pytest

from idemx import campaign, functionals
from idemx.errors import EmptySet, ModeArity, SpaceMismatch, TooLarge
from idemx.functionals import LambdaFunctional, RealFunction, SupportFunctional, _axiom_sweep
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
from idemx.spaces import MetricSpace, _bits, discrete, line_metric


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


def test_a_roundtrip_sweeps_a_fresh_functional_once(monkeypatch):
    """classify sweeps at 32 trials, and support's 8 read the functional's
    memo: one ``_axiom_sweep`` call per round trip."""
    sweeps = []

    def recorded(ev, n, axioms, *args):
        sweeps.append(args[0])
        return _axiom_sweep(ev, n, axioms, *args)

    monkeypatch.setattr(functionals, "_axiom_sweep", recorded)
    s = discrete(["a", "b", "c", "d"])
    for kind, member in (("min", 0b0101), ("max", 0b1110), ("min", 0b1000)):
        sweeps.clear()
        assert subset_roundtrip_failure(SupportFunctional(s, kind, member), kind, member) is None
        assert sweeps == [32]


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


# -- reference: the pairwise closure over frozensets, and the loop reductions ----


def ref_generated_topology(subbasis, universe):
    base = {universe, frozenset()}
    for s in [universe] + [s & universe for s in subbasis]:
        base.add(s)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(base), 2):
            if a & b not in base:
                base.add(a & b)
                changed = True
    opens = set(base)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(opens), 2):
            if a | b not in opens:
                opens.add(a | b)
                changed = True
    return frozenset(opens)


def ref_vietoris_topology(space, mode):
    points = range(1, space.full_mask + 1)
    if mode == "upper":
        subbasis = [frozenset(m for m in points if not (m & ~u)) for u in space.opens]
    else:
        subbasis = [frozenset(m for m in points if m & u) for u in space.opens]
    return ref_generated_topology(subbasis, frozenset(points))


def ref_functional_topology(space, kind, sense):
    points = range(1, space.full_mask + 1)
    agg = subset_min if kind == "min" else subset_max
    subbasis = []
    for m in points:
        f = RealFunction(space, tuple(1.0 if (m >> i) & 1 else 0.0 for i in range(space.n)))
        for a in (-0.5, 0.5):
            if sense == "above":
                subbasis.append(frozenset(p for p in points if agg(f, p) > a))
            else:
                subbasis.append(frozenset(p for p in points if agg(f, p) < a))
    return ref_generated_topology(subbasis, frozenset(points))


def open_subsets(top):
    """The opens of a hyperspace table, as sets of subset bitmasks."""
    return frozenset(frozenset(int(top.points[i]) for i in _bits(o)) for o in top.opens)


def test_topology_tables_match_the_pairwise_closure(spaces):
    for space in [s for s in spaces if s.n <= 3]:
        for mode in ("upper", "lower"):
            top = vietoris_topology(space, mode)
            assert top.points == tuple(str(m) for m in range(1, space.full_mask + 1))
            assert open_subsets(top) == ref_vietoris_topology(space, mode)
        for kind in ("min", "max"):
            for sense in ("above", "below"):
                want = ref_functional_topology(space, kind, sense)
                assert open_subsets(functional_topology(space, kind, sense)) == want


def test_monotone_suite_compares_topologies_at_four_points(monkeypatch):
    assert campaign._run_monotone({"n": 4}, 1e-9)[0]
    # the comparison runs at n = 4: a wrong threshold topology is reported
    monkeypatch.setattr(campaign, "functional_topology", lambda s, kind, sense: discrete(["x"]))
    assert campaign._run_monotone({"n": 4}, 1e-9) == (
        False, "threshold topology (min,above) mismatch"
    )


def ref_hausdorff_distance(f, g, metric):
    fi, gi, d = list(_bits(f.member)), list(_bits(g.member)), metric.dist
    forward = max(min(d[i, j] for j in gi) for i in fi)
    backward = max(min(d[i, j] for j in fi) for i in gi)
    return float(max(forward, backward))


def ref_lipschitz_constant(f, metric):
    best = 0.0
    for i in range(metric.n):
        for j in range(i + 1, metric.n):
            d = metric.dist[i, j]
            if d > 0:
                best = max(best, abs(f.values[i] - f.values[j]) / d)
    return best


def test_hausdorff_and_lipschitz_match_the_loops(rng):
    for t in range(300):
        n = int(rng.integers(1, 8))
        if t % 2:
            m = line_metric({f"p{i}": float(x) for i, x in enumerate(rng.uniform(0, 10, n))})
        else:  # shortest paths on random positive weights: a general metric
            w = rng.uniform(0.5, 3.0, (n, n))
            d = np.minimum(w, w.T)
            np.fill_diagonal(d, 0.0)
            for k in range(n):
                d = np.minimum(d, d[:, k, None] + d[None, k, :])
            m = MetricSpace(tuple(f"p{i}" for i in range(n)), d)
        f = RealFunction(m, tuple(rng.uniform(-5, 5, n)))
        a = HyperPoint(m, int(rng.integers(1, 1 << n)))
        b = HyperPoint(m, int(rng.integers(1, 1 << n)))
        assert hausdorff_distance(a, b, m) == ref_hausdorff_distance(a, b, m)
        assert type(hausdorff_distance(a, b, m)) is float
        assert lipschitz_constant(f, m) == ref_lipschitz_constant(f, m)


def test_metric_space_equality_keeps_its_value_checks():
    m = line_metric({"a": 0.0, "b": 1.0})
    assert m == m
    assert m == line_metric({"a": 0.0, "b": 1.0})
    assert m != line_metric({"a": 0.0, "b": 2.0})
    assert m != line_metric({"a": 0.0, "c": 1.0})
    with pytest.raises(SpaceMismatch):
        hausdorff_distance(HyperPoint(m, 1), HyperPoint(m, 1), line_metric({"a": 0.0, "b": 2.0}))

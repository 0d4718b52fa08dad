"""Support location, essential families, reconstruction, and classification."""

import pytest

from idemx import functionals
from idemx.errors import AxiomPrecheckFailed, SpaceMismatch, TooLarge
from idemx.functionals import (
    NEG_INF,
    MeanFunctional,
    RealFunction,
    SubsetFamily,
    SupportFunctional,
    _axiom_sweep,
    classify,
    density,
    dirac,
    essential_family,
    from_mapping,
    infsup_reconstruct,
    is_essential,
    support,
    support_functional,
    two_valued_tuples,
)
from idemx.spaces import discrete, line_metric

D3 = discrete(["a", "b", "c"])


# -- support ---------------------------------------------------------------------


def oracle_support_two_valued(mu, tol=1e-9):
    """Exhaustive pair search over two-valued inputs differing at one point."""
    n = len(mu.space.points)
    out = set()
    for f in two_valued_tuples(n, 0.0, 1.0):
        for i in range(n):
            g = tuple(1.0 - v if j == i else v for j, v in enumerate(f))
            a = mu(RealFunction(mu.space, f))
            b = mu(RealFunction(mu.space, g))
            if abs(a - b) > tol:
                out.add(mu.space.points[i])
    return frozenset(out)


def test_support_examples():
    mu = support_functional(D3, "min", ["a", "b"])
    assert support(mu) == {"a", "b"}
    assert support(dirac(D3, "c")) == {"c"}
    assert support(MeanFunctional(D3)) == {"a", "b", "c"}


def test_support_matches_exhaustive_pair_oracle():
    candidates = [
        support_functional(D3, "min", ["a", "b"]),
        support_functional(D3, "max", ["b", "c"]),
        dirac(D3, "b"),
        MeanFunctional(D3),
    ]
    for mu in candidates:
        assert support(mu) == oracle_support_two_valued(mu)


def test_support_exhaustive_over_all_subsets():
    d4 = discrete(["a", "b", "c", "d"])
    for kind in ("min", "max"):
        for m in range(1, d4.full_mask + 1):
            mu = SupportFunctional(d4, kind, m)
            assert support(mu) == d4.subset(m)


def test_support_of_density_includes_finite_weights():
    lam = density(D3, {"a": 0, "b": -1, "c": None})
    assert support(lam) == {"a", "b"}


# -- essential sets ----------------------------------------------------------------


def test_essential_examples():
    mu = support_functional(D3, "min", ["a", "b"])
    assert is_essential(mu, {"a"})
    assert not is_essential(mu, {"c"})
    assert is_essential(mu, D3.points)


def test_essential_family_of_min_kind_is_sets_meeting_support():
    mu = support_functional(D3, "min", ["a", "b"])
    fam = essential_family(mu)
    smask = D3.mask(["a", "b"])
    expected = tuple(m for m in range(1, D3.full_mask + 1) if m & smask)
    assert fam.members == expected


def test_essential_family_of_max_kind_is_supersets_of_support():
    mu = support_functional(D3, "max", ["a", "b"])
    fam = essential_family(mu)
    smask = D3.mask(["a", "b"])
    expected = tuple(m for m in range(1, D3.full_mask + 1) if not (smask & ~m))
    assert fam.members == expected


def test_singleton_essentials_equal_support_for_min_kind():
    for m in range(1, D3.full_mask + 1):
        mu = SupportFunctional(D3, "min", m)
        got = {p for p in D3.points if is_essential(mu, {p})}
        assert got == support(mu)


def test_essential_precheck_rejects_non_monotone():
    bad = SupportFunctional(D3, "min", 0b111)
    from idemx.functionals import LambdaFunctional

    swing = LambdaFunctional(D3, lambda f: f.values[0] - f.values[1] + 1.0, "swing")
    with pytest.raises(AxiomPrecheckFailed):
        is_essential(swing, {"a"})


def test_reconstruction_reads_its_precheck_from_one_sweep(monkeypatch):
    """The essential-set precheck and the reconstruction's weak max/min
    check share one cached sweep of the functional."""
    sweeps = []

    def recorded(ev, n, axioms, *args):
        sweeps.append(axioms)
        return _axiom_sweep(ev, n, axioms, *args)

    monkeypatch.setattr(functionals, "_axiom_sweep", recorded)
    functionals._essential_precheck_failures.cache_clear()  # a fresh functional
    mu = MeanFunctional(D3)
    f = from_mapping(D3, {"a": 0.0, "b": 1.0, "c": 2.0})
    message = "^reconstruction needs weakly_preserves_max, weakly_preserves_min$"
    with pytest.raises(AxiomPrecheckFailed, match=message):
        infsup_reconstruct(mu, f)
    assert len(sweeps) == 1


def test_essential_sets_need_a_topological_space():
    line = line_metric({"a": 0.0, "b": 1.0})
    mu = support_functional(line, "min", ["a"])
    f = from_mapping(line, {"a": 0.0, "b": 1.0})
    for call in (
        lambda: is_essential(mu, {"a"}),
        lambda: essential_family(mu),
        lambda: infsup_reconstruct(mu, f),
    ):
        with pytest.raises(SpaceMismatch):
            call()


# -- reconstruction ------------------------------------------------------------------


def test_reconstruct_examples():
    f = from_mapping(D3, {"a": 1, "b": 2, "c": 5})
    assert infsup_reconstruct(support_functional(D3, "min", ["a", "b"]), f) == 1.0
    assert infsup_reconstruct(support_functional(D3, "max", ["a", "b"]), f) == 2.0
    assert infsup_reconstruct(dirac(D3, "a"), f) == f["a"]


def test_reconstruct_equals_functional_on_two_valued_inputs():
    d4 = discrete(["a", "b", "c", "d"])
    for kind in ("min", "max"):
        for m in range(1, d4.full_mask + 1):
            mu = SupportFunctional(d4, kind, m)
            fam = essential_family(mu)
            for vals in two_valued_tuples(4, 0.0, 1.0):
                f = RealFunction(d4, vals)
                assert infsup_reconstruct(mu, f, family=fam) == mu(f)


def test_reconstruct_rejects_mean():
    with pytest.raises(AxiomPrecheckFailed):
        infsup_reconstruct(MeanFunctional(D3), from_mapping(D3, {"a": 0, "b": 0, "c": 0}))


def test_reconstruct_size_cap():
    big = discrete([f"p{i}" for i in range(13)])
    mu = support_functional(big, "min", ["p0"])
    with pytest.raises(TooLarge):
        infsup_reconstruct(mu, RealFunction(big, (0.0,) * 13))


def test_essential_set_table_size_cap():
    # every route to the 2^n essential-set table stops at 12 points
    big = discrete([f"p{i}" for i in range(13)])
    mu = support_functional(big, "min", ["p0"])
    with pytest.raises(TooLarge):
        is_essential(mu, {"p0"})
    with pytest.raises(TooLarge):
        essential_family(mu)
    # with its family given, reconstruction builds no table
    mu = support_functional(big, "min", ["p0", "p3"])
    f = RealFunction(big, tuple(float(i) for i in range(13)))
    assert infsup_reconstruct(mu, f, family=SubsetFamily(big, (0b1, 0b1000))) == mu(f) == 0.0


# -- classification ------------------------------------------------------------------


def test_classify_min_kind():
    cls = classify(support_functional(D3, "min", ["b", "c"]))
    assert cls.kind == "R_min" and cls.support == {"b", "c"}


def test_classify_max_kind():
    cls = classify(support_functional(D3, "max", ["a", "c"]))
    assert cls.kind == "R_max" and cls.support == {"a", "c"}


def test_classify_density_not_weak_min():
    d2 = discrete(["a", "b"])
    lam = density(d2, {"a": 0, "b": -1})
    # the clipping witness: f=(0,5), c=4 separates the two sides
    f = RealFunction(d2, (0.0, 5.0))
    clipped = RealFunction(d2, (0.0, 4.0))
    assert lam(clipped) == 3.0 and min(lam(f), 4.0) == 4.0
    cls = classify(lam)
    assert cls.kind == "idempotent_measure"
    assert cls.density is not None and cls.density.lam == (0.0, -1.0)
    assert not cls.axiom_reports["weakly_preserves_min"].passed


def test_classify_density_with_sentinel():
    cls = classify(density(D3, {"a": 0, "b": -2, "c": None}))
    assert cls.kind == "idempotent_measure"
    assert cls.density.lam == (0.0, -2.0, NEG_INF)


def test_classify_mean_is_none_with_witnesses():
    cls = classify(MeanFunctional(D3))
    assert cls.kind == "none"
    assert not cls.axiom_reports["preserves_min"].passed
    assert not cls.axiom_reports["preserves_max"].passed
    assert cls.axiom_reports["preserves_min"].witness is not None


def test_classify_singleton_prefers_min_label():
    cls = classify(SupportFunctional(D3, "max", 0b010))
    assert cls.kind in ("R_min", "R_max") and cls.support == {"b"}

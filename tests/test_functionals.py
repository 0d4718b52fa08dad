import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemx.errors import AxiomPrecheckFailed, EmptySet, InvariantViolation, SpaceMismatch, UnknownAxiom
from idemx.functionals import (
    MAX_CLASS_AXIOMS,
    MIN_CLASS_AXIOMS,
    NEG_INF,
    IdempotentDensity,
    LambdaFunctional,
    MeanFunctional,
    RealFunction,
    SupportFunctional,
    TableFunctional,
    _misses,
    check_axiom,
    check_axioms,
    constant,
    density,
    dual,
    essential_family,
    from_mapping,
    indicator,
    infsup_reconstruct,
    support_functional,
    two_valued_tuples,
)
from idemx.spaces import discrete

D3 = discrete(["a", "b", "c"])


def test_real_function_validation():
    with pytest.raises(InvariantViolation):
        RealFunction(D3, (1.0, 2.0))
    with pytest.raises(InvariantViolation):
        RealFunction(D3, (1.0, float("nan"), 0.0))


def test_support_functional_needs_nonempty_set():
    with pytest.raises(EmptySet):
        SupportFunctional(D3, "min", 0)


# -- axiom checks ---------------------------------------------------------------


def test_min_functional_is_weakly_additive():
    mu = support_functional(D3, "min", ["a", "b"])
    assert check_axiom(mu, "weakly_additive", tol=0.0).passed


def test_mean_fails_preserves_min_with_witness():
    mu = MeanFunctional(discrete(["a", "b"]))
    rep = check_axiom(mu, "preserves_min")
    assert not rep.passed
    w = rep.witness
    # witness values must actually reproduce the violated identity
    lhs = mu(RealFunction(mu.space, tuple(map(min, w.f, w.g))))
    rhs = min(mu(RealFunction(mu.space, w.f)), mu(RealFunction(mu.space, w.g)))
    assert lhs == w.lhs and rhs == w.rhs and abs(lhs - rhs) > 1e-9
    # the canonical violating pair: f=(0,1), g=(1,0)
    f = RealFunction(mu.space, (0.0, 1.0))
    g = RealFunction(mu.space, (1.0, 0.0))
    assert mu(RealFunction(mu.space, (0.0, 0.0))) == 0.0
    assert min(mu(f), mu(g)) == 0.5


def test_mean_is_normed():
    assert check_axiom(MeanFunctional(D3), "normed").passed


def test_unknown_axiom():
    with pytest.raises(UnknownAxiom):
        check_axiom(MeanFunctional(D3), "idempotent")


@pytest.mark.parametrize("kind,axioms", [("min", MIN_CLASS_AXIOMS), ("max", MAX_CLASS_AXIOMS)])
def test_support_functionals_pass_their_axioms_exactly(kind, axioms):
    # exhaustive two-valued checks at zero tolerance on 3 points
    for m in range(1, D3.full_mask + 1):
        mu = SupportFunctional(D3, kind, m)
        for a in axioms:
            assert check_axiom(mu, a, trials=16, tol=0.0).passed, (kind, m, a)


def test_support_functionals_pass_both_weak_axioms():
    for kind in ("min", "max"):
        mu = SupportFunctional(D3, kind, 0b011)
        for a in ("weakly_preserves_max", "weakly_preserves_min"):
            assert check_axiom(mu, a, trials=16, tol=0.0).passed


def test_min_functional_fails_preserves_max():
    mu = support_functional(D3, "min", ["a", "b"])
    rep = check_axiom(mu, "preserves_max", tol=0.0)
    assert not rep.passed


# -- duality ----------------------------------------------------------------------


def test_dual_of_max_is_min_pointwise(rng):
    f_mask = 0b011
    mx = SupportFunctional(D3, "max", f_mask)
    mn = SupportFunctional(D3, "min", f_mask)
    d = dual(mx)
    for _ in range(50):
        f = RealFunction(D3, tuple(rng.uniform(-5, 5, 3)))
        assert d(f) == mn(f)


def test_dual_is_involution_on_mean(rng):
    mu = MeanFunctional(D3)
    dd = dual(dual(mu))
    for _ in range(50):
        f = RealFunction(D3, tuple(rng.uniform(-5, 5, 3)))
        assert dd(f) == mu(f)
        assert dual(mu)(f) == mu(f)  # odd symmetry of the mean


def test_dual_swaps_axiom_verdicts():
    pairs = {
        "preserves_min": "preserves_max",
        "preserves_max": "preserves_min",
        "weakly_preserves_min": "weakly_preserves_max",
        "weakly_preserves_max": "weakly_preserves_min",
        "normed": "normed",
        "weakly_additive": "weakly_additive",
    }
    candidates = [
        support_functional(D3, "min", ["a", "c"]),
        support_functional(D3, "max", ["b"]),
        MeanFunctional(D3),
        density(D3, {"a": 0, "b": -1, "c": None}),
    ]
    for mu in candidates:
        nu = dual(mu)
        for a, b in pairs.items():
            assert (
                check_axiom(mu, a, seed=7).passed == check_axiom(nu, b, seed=7).passed
            ), (mu.label, a)


@settings(max_examples=60, deadline=None)
@given(
    member=st.integers(min_value=1, max_value=7),
    kind=st.sampled_from(["min", "max"]),
    values=st.tuples(*[st.floats(-100, 100) for _ in range(3)]),
)
def test_dual_involution_property(member, kind, values):
    mu = SupportFunctional(D3, kind, member)
    f = RealFunction(D3, values)
    assert dual(dual(mu))(f) == mu(f)
    assert dual(mu)(f) == -mu(-f)


# -- density ----------------------------------------------------------------------


def test_density_validation():
    with pytest.raises(InvariantViolation):
        IdempotentDensity(D3, (0.0, 0.5, 0.0))  # positive weight
    with pytest.raises(InvariantViolation):
        IdempotentDensity(D3, (-1.0, -2.0, -3.0))  # max not 0
    with pytest.raises(InvariantViolation):
        IdempotentDensity(D3, (NEG_INF, NEG_INF, NEG_INF))


def test_density_eval_examples():
    d2 = discrete(["a", "b"])
    lam = density(d2, {"a": 0, "b": -1})
    assert lam(from_mapping(d2, {"a": 2, "b": 5})) == 4.0
    dirac_like = density(d2, {"a": 0, "b": None})
    f = from_mapping(d2, {"a": 2, "b": 99})
    assert dirac_like(f) == 2.0
    full = density(d2, {"a": 0, "b": 0})
    assert full(f) == 99.0


@pytest.mark.parametrize(
    "n,grid",
    [(2, (0.0, -0.5, -1.0, None)), (3, (0.0, -0.5, -1.0, None)), (4, (0.0, -1.0, None))],
)
def test_density_passes_max_axioms_and_weak_min_iff_degenerate(n, grid):
    space = discrete([f"p{i}" for i in range(n)])
    for vals in itertools.product(grid, repeat=n):
        finite = [v for v in vals if v is not None]
        if not finite or max(finite) != 0.0:
            continue
        lam = density(space, dict(zip(space.points, vals)))
        for a in ("normed", "weakly_additive", "preserves_max"):
            assert check_axiom(lam, a, trials=8).passed, (vals, a)
        degenerate = all(v in (0.0, None) for v in vals)
        got = check_axiom(lam, "weakly_preserves_min", trials=8).passed
        assert got == degenerate, vals


# -- table functionals --------------------------------------------------------------


def test_table_functional_matches_min_on_two_valued_inputs():
    mu = support_functional(D3, "min", ["a", "b"])
    fam = two_valued_tuples(3, 0.0, 1.0)
    table = tuple(mu(RealFunction(D3, f)) for f in fam)
    tab = TableFunctional(D3, 0.0, 1.0, table)
    rep = check_axiom(tab, "preserves_min", trials=0, family=fam, tol=0.0)
    assert rep.passed
    with pytest.raises(InvariantViolation):
        tab(RealFunction(D3, (0.0, 0.5, 1.0)))


def test_indicator_and_constant_helpers():
    chi = indicator(D3, {"b"})
    assert chi.values == (0.0, 1.0, 0.0)
    assert constant(D3, 2.5).values == (2.5, 2.5, 2.5)
    assert (-chi).values == (0.0, -1.0, 0.0)
    assert chi["b"] == 1.0


def test_functionals_reject_a_function_on_another_space():
    mu = support_functional(D3, "min", ["a", "b"])
    assert mu(constant(D3, 1.0)) == infsup_reconstruct(mu, constant(D3, 1.0)) == 1.0
    for other in (discrete(["a", "b", "c", "d"]), discrete(["a", "b"]), discrete(["x", "y", "z"])):
        f = constant(other, 1.0)
        with pytest.raises(SpaceMismatch):
            mu(f)
        with pytest.raises(SpaceMismatch):
            infsup_reconstruct(mu, f)


# -- values that are not finite -------------------------------------------------


def test_a_nan_functional_fails_every_identity_and_the_essential_precheck():
    """A NaN is within no tolerance of anything: each identity fails at its
    first input, normed with a NaN witness, and the essential-set precheck
    lists the monotone sample too."""
    nan = LambdaFunctional(D3, lambda f: math.nan, "nan")
    reports = check_axioms(nan)
    assert not any(rep.passed for rep in reports.values())
    w = reports["normed"].witness
    assert math.isnan(w.lhs) and w.rhs == 1.0 and w.f == (1.0, 1.0, 1.0)
    message = "^essential-set test needs .*; failing: normed, weakly_additive, monotone$"
    with pytest.raises(AxiomPrecheckFailed, match=message):
        essential_family(nan)


def test_an_infinite_functional_is_not_weakly_additive():
    """mu(f + c) = inf and mu(f) + c = inf differ by NaN, not by 0; numpy
    warns of the subtraction."""
    inf = LambdaFunctional(D3, lambda f: math.inf, "inf")
    with pytest.warns(RuntimeWarning, match="invalid value"):
        rep = check_axiom(inf, "weakly_additive")
    assert not rep.passed and rep.witness.lhs == rep.witness.rhs == math.inf


def test_a_nan_value_misses_its_formula():
    rows = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    values = np.array([math.nan, 0.0, 1.0])
    assert _misses(values, rows, "min", 0b11, 1e-9).tolist() == [True, False, True]

# Functionals on finite function spaces: identity checks, supports, duality.
#
# A functional maps a real-valued function on a finite space to a number.
# The interesting ones here are normed, translate with constants (weakly
# additive), and interact with pointwise min/max in one of a few ways.

from idemx import (
    MeanFunctional,
    check_axiom,
    classify,
    density,
    discrete,
    dual,
    from_mapping,
    support,
    support_functional,
)

X = discrete(["a", "b", "c"])

# min over {a, b}: the archetypal min-preserving functional.
mu = support_functional(X, "min", ["a", "b"])
for axiom in ("normed", "weakly_additive", "preserves_min", "weakly_preserves_max"):
    print(f"{mu.label}  {axiom}: {check_axiom(mu, axiom, tol=0.0).passed}")

# The arithmetic mean is normed and weakly additive but preserves neither
# lattice operation; the checker returns a concrete witness.
mean = MeanFunctional(X)
rep = check_axiom(mean, "preserves_min")
print(f"\nmean preserves_min: {rep.passed}")
print(f"  witness f={rep.witness.f} g={rep.witness.g}")
print(f"  lhs={rep.witness.lhs:g} rhs={rep.witness.rhs:g}")

# Supports: the set of points where local perturbations move the value.
print("\nsupport(min over {a,b}):", sorted(support(mu)))
print("support(mean):", sorted(support(mean)))

# Duality flips min against max and is an involution.
nu = dual(mu)
f = from_mapping(X, {"a": 1.0, "b": 4.0, "c": -2.0})
print(f"\nnu = dual(mu) evaluates {nu.label}: nu(f) = {nu(f)}, mu(f) = {mu(f)}")
print("dual(dual(mu))(f) == mu(f):", dual(dual(mu))(f) == mu(f))

# Idempotent measures: max-plus integration against a density with max 0.
lam = density(X, {"a": 0.0, "b": -1.0, "c": None})  # None excludes the point
g = from_mapping(X, {"a": 2.0, "b": 5.0, "c": 100.0})
print("\ndensity eval max(lam + f):", lam(g))  # c never contributes

# classify sorts a black-box functional into min-type, max-type, idempotent
# measure, or none, with the witnessing support or density attached.
for candidate in (mu, lam, mean):
    cls = classify(candidate)
    extra = ""
    if cls.support is not None:
        extra = f" support={sorted(cls.support)}"
    if cls.density is not None:
        extra = f" lambda={cls.density.lam}"
    print(f"classify({candidate.label}) -> {cls.kind}{extra}")

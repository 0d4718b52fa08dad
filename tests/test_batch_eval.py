"""Array evaluation against the per-tuple evaluation it replaced.

The reference below is the earlier implementation, kept here verbatim in
substance: a memo of scalar evaluations keyed by value tuples, the scalar
formula of each functional class, and the tuple-at-a-time loops of
``check_axiom``, ``classify``, ``support`` and ``essential_family``.  The
library must give the same verdicts, the same witnesses bit for bit, and
draw the same random inputs in the same order.  The ``essential_family``
reference is the earlier 3^n grid of test functions with its random
refinements; the library decides the same members from the 2^n extremal
test functions and draws nothing.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from idemx import functionals
from idemx.campaign import _gen_axioms_fuzz, _random_preorder_space, _suite_seed
from idemx.errors import (
    AxiomPrecheckFailed,
    BudgetExhaustedInconclusive,
    InvariantViolation,
    TooLarge,
)
from idemx.extenders import (
    Extender,
    FromRetraction,
    PointwiseFunctional,
    build_extender,
    function_class,
    mu_at,
)
from idemx.functionals import (
    AXIOMS,
    MAX_CLASS_AXIOMS,
    MIN_CLASS_AXIOMS,
    NEG_INF,
    TWO_VALUED_CAP,
    DualFunctional,
    IdempotentDensity,
    LambdaFunctional,
    MeanFunctional,
    RealFunction,
    SupportFunctional,
    TableFunctional,
    _class_supports,
    _passes_sampled,
    _probe_supports,
    _verify_family,
    check_axiom,
    check_axioms,
    classify,
    dual,
    essential_family,
    support,
    two_valued_tuples,
)
from idemx.instances import load_functional
from idemx.setmaps import SetValuedMap, fixing_images
from idemx.spaces import _bits, discrete, embed, from_minimal_basis

# -- reference: scalar formulas and the per-tuple memo ------------------------------


def scalar(mu, vals: tuple[float, ...]) -> float:
    """One evaluation by the scalar formula of mu's class."""
    if isinstance(mu, SupportFunctional):
        agg = min if mu.kind == "min" else max
        return agg(vals[i] for i in _bits(mu.member))
    if isinstance(mu, IdempotentDensity):
        return max(v + vals[i] for i, v in enumerate(mu.lam) if v != NEG_INF)
    if isinstance(mu, MeanFunctional):
        return sum(vals) / len(vals)
    if isinstance(mu, TableFunctional):
        mask = 0
        for i, v in enumerate(vals):
            if v == mu.hi:
                mask |= 1 << i
            elif v != mu.lo:
                raise InvariantViolation(
                    "table.domain", f"input value {v!r} is not in {{lo, hi}}"
                )
        return mu.table[mask]
    if isinstance(mu, DualFunctional):
        return -scalar(mu.inner, tuple(-v for v in vals))
    if isinstance(mu, LambdaFunctional):
        return float(mu.fn(RealFunction(mu.space, vals)))
    if isinstance(mu, PointwiseFunctional):
        return apply_scalar(mu.extender, vals)[mu.index]
    raise TypeError(type(mu))


def apply_scalar(u: Extender, vals: tuple[float, ...]) -> tuple[float, ...]:
    """The per-tuple extender: min/max of f over each image, or u.apply."""
    if isinstance(u.provenance, FromRetraction):
        agg = min if u.provenance.kind == "min" else max
        return tuple(agg(vals[i] for i in _bits(m)) for m in u.provenance.map.images)
    return u.apply(RealFunction(u.domain_space, vals)).values


class Memo:
    def __init__(self, mu):
        self.mu = mu
        self.cache = {}

    def __call__(self, values):
        v = self.cache.get(values)
        if v is None:
            v = scalar(self.mu, values)
            self.cache[values] = v
        return v


def ref_base(n):
    fam = [(0.0,) * n, (1.0,) * n, (-1.0,) * n]
    for i in range(n):
        fam.append(tuple(1.0 if j == i else 0.0 for j in range(n)))
        fam.append(tuple(-1.0 if j == i else 0.0 for j in range(n)))
    return tuple(fam)


def ref_pair_family(n):
    fam = list(ref_base(n))
    if n <= TWO_VALUED_CAP:
        fam += two_valued_tuples(n, 0.0, 1.0)
        fam += two_valued_tuples(n, -1.0, 0.0)
        fam += two_valued_tuples(n, -1.0, 1.0)
    return tuple(dict.fromkeys(fam))


def ref_pair_grid(n):
    base = list(dict.fromkeys(ref_base(n)))
    yield from itertools.product(base, base)
    if n <= TWO_VALUED_CAP:
        blocks = [
            two_valued_tuples(n, 0.0, 1.0),
            two_valued_tuples(n, -1.0, 0.0),
            two_valued_tuples(n, -1.0, 1.0),
        ]
        for block in blocks:
            yield from itertools.product(block, block)
            yield from itertools.product(base, block)
            yield from itertools.product(block, base)


def ref_weak_family(n):
    pairs = []
    base_cs = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    fams = [ref_pair_family(n)]
    if n <= TWO_VALUED_CAP:
        fams.append(two_valued_tuples(n, 0.0, 5.0))
    for fam in fams:
        for f in fam:
            lo, hi = min(f), max(f)
            cs = set(base_cs)
            for t in (0.25, 0.5, 0.8):
                cs.add(lo + t * (hi - lo))
            for c in sorted(cs):
                pairs.append((f, c))
    mirrored = [(tuple(-v for v in f), -c) for f, c in pairs]
    return tuple(dict.fromkeys(pairs + mirrored))


def rand_tuple(rng, n, amp=2.0):
    return tuple(float(v) for v in rng.uniform(-amp, amp, n))


def tmin(a, b):
    return tuple(map(min, a, b))


def tmax(a, b):
    return tuple(map(max, a, b))


# -- reference: the checks ------------------------------------------------------------


def ref_check_axiom(mu, axiom, trials=64, tol=1e-9, seed=0, family=None):
    """Returns (passed, witness) with witness (f, g, c, lhs, rhs) or None."""
    trials = max(0, trials)
    ev = Memo(mu)
    n = len(mu.space.points)
    if axiom == "normed":
        one = (1.0,) * n
        lhs = ev(one)
        if abs(lhs - 1.0) > tol:
            return False, (one, None, None, lhs, 1.0)
        return True, None
    rng = np.random.default_rng(seed)
    if axiom == "weakly_additive":
        if family is not None:
            base = [(f, c) for f in family for c in (-1.0, 0.5, 1.0, 2.0)]
            cases = base + [(tuple(-v for v in f), -c) for f, c in base]
        else:
            cases = list(ref_weak_family(n))
        for _ in range(trials):
            f, c = rand_tuple(rng, n), float(rng.uniform(-5, 5))
            cases.append((f, c))
            cases.append((tuple(-v for v in f), -c))
        for f, c in cases:
            lhs = ev(tuple(v + c for v in f))
            rhs = ev(f) + c
            if abs(lhs - rhs) > tol:
                return False, (f, None, c, lhs, rhs)
        return True, None
    if axiom in ("preserves_max", "preserves_min"):
        comb = tmax if axiom == "preserves_max" else tmin
        agg = max if axiom == "preserves_max" else min

        def violation(f, g):
            lhs = ev(comb(f, g))
            rhs = agg(ev(f), ev(g))
            if abs(lhs - rhs) > tol:
                return False, (f, g, None, lhs, rhs)
            return None

        pairs = itertools.product(family, family) if family is not None else ref_pair_grid(n)
        for f, g in pairs:
            bad = violation(f, g)
            if bad:
                return bad
        for _ in range(trials):
            f, g = rand_tuple(rng, n), rand_tuple(rng, n)
            bad = violation(f, g) or violation(tuple(-v for v in f), tuple(-v for v in g))
            if bad:
                return bad
        return True, None
    comb = tmax if axiom == "weakly_preserves_max" else tmin
    agg = max if axiom == "weakly_preserves_max" else min
    if family is not None:
        base = [(f, c) for f in family for c in (-1.0, 0.25, 0.5, 0.8, 1.0, 4.0)]
        cases = base + [(tuple(-v for v in f), -c) for f, c in base]
    else:
        cases = list(ref_weak_family(n))
    for _ in range(trials):
        f, c = rand_tuple(rng, n), float(rng.uniform(-5, 5))
        cases.append((f, c))
        cases.append((tuple(-v for v in f), -c))
    for f, c in cases:
        lhs = ev(comb(f, (c,) * n))
        rhs = agg(ev(f), c)
        if abs(lhs - rhs) > tol:
            return False, (f, None, c, lhs, rhs)
    return True, None


def ref_passes(mu, axioms, trials, tol, seed):
    return all(ref_check_axiom(mu, a, trials, tol, seed)[0] for a in axioms)


def ref_is_monotone(mu, tol, trials=32, seed=0):
    ev = Memo(mu)
    n = len(mu.space.points)
    rng = np.random.default_rng(seed)
    for f in ref_pair_family(n):
        for i in range(n):
            for bump in (0.5, 1.0):
                g = tuple(v + bump if j == i else v for j, v in enumerate(f))
                if ev(f) > ev(g) + tol:
                    return False
    for _ in range(trials):
        f = rand_tuple(rng, n)
        g = tuple(v + b for v, b in zip(f, rng.uniform(0, 2, n)))
        if ev(f) > ev(g) + tol:
            return False
    return True


PROBE_SCALES = (1.0, 10.0, 100.0)


def ref_probe(ev, n, kind, tol):
    zero = ev((0.0,) * n)
    mask = 0
    for i in range(n):
        for s in PROBE_SCALES:
            spike = -s if kind == "min" else s
            f = tuple(spike if j == i else 0.0 for j in range(n))
            if abs(ev(f) - zero) > tol:
                mask |= 1 << i
                break
    return mask


def ref_verify_family(n):
    fam = ref_pair_family(n)
    if n <= TWO_VALUED_CAP:
        fam += two_valued_tuples(n, 0.0, 5.0)
    return tuple(dict.fromkeys(fam))


def ref_reproduces(ev, formula, n, tol, budget, rng):
    for f in ref_verify_family(n):
        if abs(ev(f) - formula(f)) > tol:
            return False
    for _ in range(budget):
        f = rand_tuple(rng, n, amp=5.0)
        if abs(ev(f) - formula(f)) > tol:
            return False
    return True


def ref_verify_kind(ev, n, kind, mask, tol, budget, rng):
    if mask == 0:
        return False
    idx = tuple(_bits(mask))
    agg = min if kind == "min" else max
    return ref_reproduces(ev, lambda f: agg(f[i] for i in idx), n, tol, budget, rng)


def ref_support(mu, budget=200, tol=1e-9, seed=0):
    space = mu.space
    n = len(space.points)
    ev = Memo(mu)
    rng = np.random.default_rng(seed)
    kind = None
    if ref_passes(mu, MIN_CLASS_AXIOMS, 8, tol, seed):
        kind = "min"
    elif ref_passes(mu, MAX_CLASS_AXIOMS, 8, tol, seed):
        kind = "max"
    if kind is not None:
        mask = ref_probe(ev, n, kind, tol)
        if mask and ref_verify_kind(ev, n, kind, mask, tol, min(budget, 64), rng):
            return space.subset(mask)
    found = 0
    zero = ev((0.0,) * n)
    sweep_grid = (-25.0, -5.0, -1.0, 1.0, 5.0, 25.0)
    fam = ref_base(n)
    if n <= TWO_VALUED_CAP:
        fam = fam + two_valued_tuples(n, 0.0, 1.0)
    fam = list(dict.fromkeys(fam))
    for i in range(n):
        hit = False
        for s in PROBE_SCALES:
            for sign in (-1.0, 1.0):
                f = tuple(sign * s if j == i else 0.0 for j in range(n))
                if abs(ev(f) - zero) > tol:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            for f in fam:
                base = ev(f)
                for v in sweep_grid:
                    g = tuple(f[i] + v if j == i else f[j] for j in range(n))
                    if abs(ev(g) - base) > tol:
                        hit = True
                        break
                if hit:
                    break
        if not hit:
            for _ in range(budget):
                f = rand_tuple(rng, n)
                g = tuple(
                    f[i] + float(rng.uniform(-10, 10)) if j == i else f[j] for j in range(n)
                )
                if abs(ev(f) - ev(g)) > tol:
                    hit = True
                    break
        if hit:
            found |= 1 << i
    if kind is not None and not ref_verify_kind(ev, n, kind, found, tol, min(budget, 64), rng):
        raise BudgetExhaustedInconclusive(
            "functional looks min/max-type on samples but no support set "
            "reproduces it; absence witnesses would be unfounded"
        )
    return space.subset(found)


def ref_pinned_candidates(space):
    """The 3^n grid of test functions pinned at -1 near some open set: values
    in {-1, -1/2, 0}, each with its anchor, the union of the minimal
    neighbourhoods whose closure stays inside the -1 region."""
    n = space.n
    cl_min = [space.closure_mask(m) for m in space.min_nbhd]
    for values in itertools.product((-1.0, -0.5, 0.0), repeat=n):
        vmask = 0
        for i, v in enumerate(values):
            if v == -1.0:
                vmask |= 1 << i
        anchor = 0
        for i in range(n):
            if cl_min[i] & ~vmask == 0:
                anchor |= space.min_nbhd[i]
        if anchor:
            yield tuple(values), anchor


def ref_essential_family(mu, tol=1e-9, budget=64, seed=0):
    space = mu.space
    if space.n > 12:
        raise TooLarge("essential-family enumeration needs |points| <= 12")
    failures = [
        a for a in ("normed", "weakly_additive")
        if not ref_check_axiom(mu, a, 16, tol, 0)[0]
    ]
    if not ref_is_monotone(mu, tol, seed=0):
        failures.append("monotone")
    if failures:
        raise AxiomPrecheckFailed(
            "essential-set test needs normed, weakly additive, monotone; "
            f"failing: {', '.join(failures)}"
        )
    return ref_essential_members(mu, tol, budget, seed)


def ref_essential_members(mu, tol=1e-9, budget=64, seed=0):
    """The members after the precheck: the grid candidates, each separated
    candidate then refined by ``budget // len(grid)`` (at least one) random
    redraws of its entries off the -1 region."""
    space = mu.space
    ev = Memo(mu)
    rng = np.random.default_rng(seed)
    grid = list(ref_pinned_candidates(space))
    jitters = max(1, budget // max(1, len(grid))) if budget else 0
    pool = []
    for values, anchor in grid:
        sep = abs(ev(values)) > tol
        for _ in range(jitters):
            if not sep:
                break
            jittered = tuple(
                v if v == -1.0 else float(rng.uniform(-0.999, 0.0)) for v in values
            )
            sep = abs(ev(jittered)) > tol
        pool.append((anchor, sep))
    return tuple(
        m for m in range(1, space.full_mask + 1)
        if all(sep for anchor, sep in pool if not (m & ~anchor))
    )


DENSITY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)


def ref_extract_density(ev, space, tol):
    n = len(space.points)
    zero = ev((0.0,) * n)
    lam = []
    for i in range(n):
        ds = []
        for c in DENSITY_SCHEDULE:
            f = tuple(c if j == i else 0.0 for j in range(n))
            ds.append(ev(f) - c - zero)
        val = None
        for k in range(len(ds) - 1):
            if abs(ds[k] - ds[k + 1]) <= tol:
                val = ds[k + 1]
                break
        if val is None:
            drops = [
                abs((ds[k + 1] - ds[k]) + (DENSITY_SCHEDULE[k + 1] - DENSITY_SCHEDULE[k]))
                for k in range(len(ds) - 1)
            ]
            if max(drops) <= tol:
                val = NEG_INF
            else:
                raise BudgetExhaustedInconclusive(
                    f"density weight at {space.points[i]!r} does not stabilise"
                )
        lam.append(val)
    finite = [v for v in lam if v != NEG_INF]
    if not finite:
        raise BudgetExhaustedInconclusive("every density weight drifted to -inf")
    top = max(finite)
    return tuple(v if v == NEG_INF else v - top for v in lam)


def ref_classify(mu, budget=64, tol=1e-9, seed=0):
    """Returns (kind, support or None, density weights or None, verdicts)."""
    space = mu.space
    n = len(space.points)
    ev = Memo(mu)
    rng = np.random.default_rng(seed)
    reports = {a: ref_check_axiom(mu, a, min(budget, 32), tol, seed) for a in AXIOMS}
    for kind, axioms, label in (
        ("min", MIN_CLASS_AXIOMS, "R_min"),
        ("max", MAX_CLASS_AXIOMS, "R_max"),
    ):
        if all(reports[a][0] for a in axioms):
            mask = ref_probe(ev, n, kind, tol)
            if mask and ref_verify_kind(ev, n, kind, mask, tol, budget, rng):
                return label, space.subset(mask), None, reports
            raise BudgetExhaustedInconclusive(
                f"passes the {label} axioms on samples but the {kind}-over-support "
                "formula does not verify"
            )
    if all(reports[a][0] for a in ("normed", "weakly_additive", "preserves_max")):
        lam = ref_extract_density(ev, space, tol)
        if not ref_reproduces(
            ev, lambda f: scalar(IdempotentDensity(space, lam), f), n, tol, budget, rng
        ):
            raise BudgetExhaustedInconclusive(
                "passes the idempotent-measure axioms on samples but the "
                "extracted density does not reproduce the functional"
            )
        return "idempotent_measure", None, lam, reports
    return "none", None, None, reports


# -- comparison -----------------------------------------------------------------------


def exact(x):
    """Floats as bit patterns (so 0.0 and -0.0 differ), recursively."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(exact(v) for v in x)
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    return x


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (BudgetExhaustedInconclusive, AxiomPrecheckFailed, InvariantViolation) as exc:
        return "raised", (type(exc).__name__, str(exc))


def axiom_result(rep):
    w = rep.witness
    return rep.passed, None if w is None else (w.f, w.g, w.c, w.lhs, w.rhs)


def assert_same_everywhere(mu, seed, support_budget=200):
    for trials in (0, 24, 64):
        for a in AXIOMS:
            got = axiom_result(check_axiom(mu, a, trials=trials, seed=seed))
            want = ref_check_axiom(mu, a, trials=trials, seed=seed)
            assert exact(got) == exact(want), (mu.label, a, trials, got, want)

    got = outcome(classify, mu, seed=seed)
    want = outcome(ref_classify, mu, seed=seed)
    if got[0] == "ok":
        cls = got[1]
        reports = {a: axiom_result(r) for a, r in cls.axiom_reports.items()}
        lam = cls.density.lam if cls.density is not None else None
        got = ("ok", (cls.kind, cls.support, lam, reports))
    assert exact(got) == exact(want), (mu.label, "classify", got, want)

    got = outcome(support, mu, budget=support_budget, seed=seed)
    assert got == outcome(ref_support, mu, budget=support_budget, seed=seed), mu.label

    if mu.space.n <= 5:
        got = outcome(lambda m: essential_family(m).members, mu)
        assert got == outcome(ref_essential_family, mu, seed=seed), mu.label


# -- the differential tests -----------------------------------------------------------


def fuzz_functionals():
    """The distinct functionals of the axioms_fuzz suite at cap 1000, each
    with the seed of its first case (a repeat differs only in its seed)."""
    seen = {}
    for case in _gen_axioms_fuzz(1000, _suite_seed(42, "axioms_fuzz")):
        if case["type"] == "functional":
            key = repr(sorted(case["functional"].items()))
            seen.setdefault(key, (load_functional(case["functional"]), case["seed"]))
    return list(seen.values())


def test_fuzz_corpus_matches_per_tuple_reference():
    corpus = fuzz_functionals()
    assert len(corpus) > 100
    for mu, seed in corpus:
        assert_same_everywhere(mu, seed, support_budget=64)
        nu = dual(mu)
        for a in AXIOMS:
            got = axiom_result(check_axiom(nu, a, trials=24, seed=seed))
            assert exact(got) == exact(ref_check_axiom(nu, a, trials=24, seed=seed))


@pytest.mark.parametrize("n", range(1, 9))
def test_means_and_duals_match_per_tuple_reference(n):
    space = discrete([f"p{i}" for i in range(n)])
    for mu in (MeanFunctional(space), dual(MeanFunctional(space))):
        assert_same_everywhere(mu, seed=n)


def _hidden_min(f):
    # dirac at a, except on inputs with three levels more than 2.1 apart in
    # point order, either way round: no axiom input (spread below 4 or two
    # levels), no probe and no structured sweep reaches them
    a, b, c = f.values
    steps = (a - b, b - c)
    return a + 1.0 if min(steps) > 2.1 or max(steps) < -2.1 else a


def _windowed(f):
    # dirac at a, shifted by 0.5 inside two narrow windows that only random
    # inputs reach, so every identity but normed fails first on a random input
    a, b, c = f.values
    return a + 0.5 if 1.3 < a - b < 1.45 or 1.3 < c < 1.45 else a


D3 = discrete(["a", "b", "c"])
PLANTED = [
    LambdaFunctional(D3, lambda f: min(f["a"], f["c"]), "planted min"),
    LambdaFunctional(D3, lambda f: max(f["a"] - 0.5, f["b"]), "planted density"),
    LambdaFunctional(D3, lambda f: f["a"] - f["b"] + 1.0, "swing"),
    LambdaFunctional(D3, _windowed, "windowed"),
    LambdaFunctional(D3, _hidden_min, "hidden"),
]


@pytest.mark.parametrize("mu", PLANTED, ids=lambda mu: mu.label)
def test_planted_lambdas_match_per_tuple_reference(mu):
    for seed in (0, 1, 7):
        assert_same_everywhere(mu, seed)


def test_axiom_sweep_on_a_family_matches_per_tuple_reference():
    rng = np.random.default_rng(606)
    for n in range(1, 5):
        space = discrete([f"p{i}" for i in range(n)])
        for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (1.0, 5.0)):  # normed reads the 1s
            family = two_valued_tuples(n, lo, hi)
            # tables are read on {lo, hi} only, so no random trials and no
            # weak identities, whose rows leave {lo, hi}
            cases = [
                (TableFunctional(space, lo, hi, tuple(rng.choice([lo, hi], size=1 << n).tolist())),
                 ("normed", "preserves_max", "preserves_min"), 0)
                for _ in range(5)
            ]
            swing = LambdaFunctional(space, lambda f: max(f.values) - 0.25 * min(f.values))
            # weakly additive for shifts that keep the max at most 1 only
            kinked = LambdaFunctional(space, lambda f: max(f.values) + max(max(f.values) - 1, 0))
            cases += [(mu, AXIOMS, 8) for mu in (swing, kinked, SupportFunctional(space, "max", 1))]
            for mu, axioms, trials in cases:
                got = check_axioms(mu, axioms, trials=trials, seed=n, family=family)
                for a in axioms:
                    want = ref_check_axiom(mu, a, trials=trials, seed=n, family=family)
                    assert exact(axiom_result(got[a])) == exact(want), (mu.label, a)


def test_random_preorder_essential_families_match_the_grid_reference():
    rng = np.random.default_rng(1105)
    families = set()
    for case in range(300):
        n = int(rng.integers(1, 8))
        space = _random_preorder_space(rng, n)
        lam = rng.uniform(-2.0, 0.0, n)
        lam[rng.random(n) < 0.3] = NEG_INF
        lam[rng.integers(n)] = 0.0
        dens = IdempotentDensity(space, tuple(float(v) for v in lam))
        kind = "min" if rng.random() < 0.5 else "max"
        sup = SupportFunctional(space, kind, int(rng.integers(1, 1 << n)))
        # all four pass the precheck, whose reference the corpora above cover
        for mu in (sup, dens, dual(dens), MeanFunctional(space)):
            seed = int(rng.integers(2**31))
            got = essential_family(mu).members
            assert got == ref_essential_members(mu, seed=seed), (case, mu.label)
            families.add((n, got))
    assert len(families) > 60


def test_hidden_lambda_reaches_the_random_support_sweep(monkeypatch):
    # the route proposes min over {a} and fails it on the first random
    # verification row; the generic sweep then needs random inputs for b
    # (none separates) and c (one does)
    routes, calls = [], []

    def recorded_route(*args):
        out = _class_supports(*args)
        routes.append(out)
        return out

    def recorded(rng, low, high, trials, failing):
        passed = _passes_sampled(rng, low, high, trials, failing)
        calls.append((len(low), trials, passed))
        return passed

    mu = PLANTED[-1]
    assert _probe_supports(functionals._columns(mu), 3, "min", 1e-9) == [0b001]
    monkeypatch.setattr(functionals, "_class_supports", recorded_route)
    monkeypatch.setattr(functionals, "_passes_sampled", recorded)
    with pytest.raises(BudgetExhaustedInconclusive):
        support(mu)
    assert routes == [(["min"], [0], [len(_verify_family(3)) + 1])]
    assert calls == [(4, 200, True), (4, 200, False)]


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_support_sweep_draws_on_past_the_rows_the_route_compared(monkeypatch, seed):
    # the random stream of the generic sweep starts where the route's
    # verification stopped: after the first random row on which the hidden
    # functional leaves min over {a}
    mu = PLANTED[-1]
    R = np.random.default_rng(seed).uniform(-5.0, 5.0, (64, 3))
    bad = [
        i for i, row in enumerate(R.tolist()) if _hidden_min(RealFunction(D3, tuple(row))) != row[0]
    ]
    assert bad
    want = np.random.default_rng(seed)
    want.uniform(-5.0, 5.0, (bad[0] + 1, 3))
    states = []

    def recorded(rng, low, high, trials, failing):
        if len(low) == 4:  # a random change at one point: the sweep's draws
            states.append(rng.bit_generator.state)
        return _passes_sampled(rng, low, high, trials, failing)

    monkeypatch.setattr(functionals, "_passes_sampled", recorded)
    outcome(support, mu, seed=seed)
    assert states and states[0] == want.bit_generator.state


def test_sampled_pass_rewinds_like_a_per_trial_loop():
    rng = np.random.default_rng(5)
    for case in range(300):
        seed = int(rng.integers(2**31))
        width, trials = int(rng.integers(0, 5)), int(rng.integers(0, 12))
        cut = float(rng.uniform(0.5, 1.0))
        low, high = rng.uniform(-3, 0, width), rng.uniform(0.1, 3, width)

        def failing(R):
            return R.sum(axis=1) > cut * high.sum()

        loop = np.random.default_rng(seed)
        ok = True
        for _ in range(trials):
            row = loop.uniform(low, high)
            if failing(row[None])[0]:
                ok = False
                break
        block = np.random.default_rng(seed)
        assert _passes_sampled(block, low, high, trials, failing) == ok
        assert block.random() == loop.random(), case


# -- eval_batch and apply_batch row by row ----------------------------------------------


def _rows(n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-3, 3, (k, n))
    A[::3] = np.round(A[::3])  # ties, including 0.0 against -0.0
    A[1::5] = -A[1::5]
    return A


def _same_rows(mu, A):
    batch = mu.eval_batch(A)
    assert batch.shape == (len(A),)
    for row, v in zip(A.tolist(), batch.tolist()):
        f = RealFunction(mu.space, tuple(row))
        assert exact(v) == exact(mu(f)) == exact(float(scalar(mu, tuple(row)))), (mu.label, row)


def test_eval_batch_matches_the_scalar_call_for_every_class():
    s = discrete(["a", "b", "c", "d"])
    r = SetValuedMap(
        from_minimal_basis({"a": ["a"], "b": ["b"], "w": ["w"]}),
        discrete(["a", "b"]),
        (1, 2, 3),
    )
    e = embed(r.domain, ["a", "b"])
    table = TableFunctional(s, 0.0, 1.0, tuple(float(m % 5) for m in range(16)))
    mus = [
        SupportFunctional(s, "min", 0b1011),
        SupportFunctional(s, "max", 0b0110),
        SupportFunctional(s, "max", 0b0100),
        IdempotentDensity(s, (0.0, -0.5, NEG_INF, -2.0)),
        MeanFunctional(s),
        DualFunctional(MeanFunctional(s)),
        dual(IdempotentDensity(s, (0.0, -0.5, NEG_INF, -2.0))),
        LambdaFunctional(s, lambda f: f["a"] * f["b"] - f["d"], "user"),
    ]
    for mu in mus:
        _same_rows(mu, _rows(4, 40, 1))
    # from 8 points on, numpy's row sum adds in another order than sum()
    _same_rows(MeanFunctional(discrete([f"p{i}" for i in range(8)])), _rows(8, 40, 5))
    _same_rows(table, np.array(two_valued_tuples(4, 0.0, 1.0)))
    for kind in ("min", "max"):
        for p in r.domain.points:
            _same_rows(mu_at(build_extender(r, e, kind), p), _rows(2, 40, 2))
    assert mus[0].eval_batch(np.zeros((0, 4))).shape == (0,)


def test_apply_batch_matches_apply():
    rng = np.random.default_rng(3)
    for _ in range(40):
        amb = _random_preorder_space(rng, int(rng.integers(2, 6)))
        k = int(rng.integers(1, amb.n))
        e = embed(amb, amb.points[:k])
        images = list(fixing_images(e))
        r = SetValuedMap(amb, e.subspace, images[int(rng.integers(len(images)))])
        A = _rows(k, 20, int(rng.integers(100)))
        for kind in ("min", "max"):
            u = build_extender(r, e, kind)
            got = u.apply_batch(A)
            assert got.shape == (20, amb.n)
            for row, out in zip(A.tolist(), got.tolist()):
                want = u.apply(RealFunction(e.subspace, tuple(row))).values
                assert exact(tuple(out)) == exact(want) == exact(apply_scalar(u, tuple(row)))

    amb = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"]})

    def mean_at_w(f):
        return RealFunction(amb, (f["p"], f["q"], (f["p"] + f["q"]) / 2))

    user = Extender(embed(amb, ["p", "q"]), mean_at_w, "user")
    A = _rows(2, 25, 4)
    for row, out in zip(A.tolist(), user.apply_batch(A).tolist()):
        assert tuple(out) == user.apply(RealFunction(user.domain_space, tuple(row))).values


# -- function_class: pairwise against the threshold definition ---------------------------


def threshold_class(g, space):
    """lsc iff every {g > a} is open, usc iff every {g < a} is open, with a
    at the midpoints between consecutive values."""
    vals = sorted(set(g.values))
    lsc = usc = True
    for a in ((x + y) / 2 for x, y in zip(vals, vals[1:])):
        up = sum(1 << i for i, v in enumerate(g.values) if v > a)
        dn = sum(1 << i for i, v in enumerate(g.values) if v < a)
        lsc &= space.is_open_mask(up)
        usc &= space.is_open_mask(dn)
    return {(True, True): "continuous", (True, False): "lsc",
            (False, True): "usc", (False, False): "neither"}[(lsc, usc)]


def test_function_class_matches_the_threshold_definition():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(3000):
        space = _random_preorder_space(rng, int(rng.integers(1, 7)))
        vals = tuple(float(v) for v in rng.integers(-2, 3, space.n))
        g = RealFunction(space, vals)
        rep = function_class(g, space)
        assert rep.klass == threshold_class(g, space), (space.min_nbhd, vals)
        assert (rep.klass == "continuous") == (not rep.witnesses)
        seen.add(rep.klass)
    assert seen == {"continuous", "lsc", "usc", "neither"}


def test_function_class_witness_names_the_failing_pair():
    s = from_minimal_basis({"0": ["0", "1"], "1": ["1"]})
    rep = function_class(RealFunction(s, (1.0, 0.0)), s)
    assert rep.klass == "usc"
    assert rep.witnesses == ("g(1) < g(0) with 1 in minN(0): not lsc",)

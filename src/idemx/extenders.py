"""Extenders: maps from functions on a subspace to functions on the ambient space.

A set-valued map r fixing the subspace pointwise induces the extender
u(f)(y) = min (or max) of f over r(y).  Conversely an extender whose
pointwise functionals are min- or max-type yields a set-valued map through
their supports, and a normalized max-preserving extender yields one through
the open-set extension operator U -> {y : u(1 - c*chi_U)(y) < 1}.  This
module builds the extenders, classifies their outputs as lsc/usc/continuous,
and implements both recovery routes and the connectivity analysis for
extenders preserving both lattice operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .errors import (
    AxiomPrecheckFailed,
    BudgetExhaustedInconclusive,
    ClassificationFailed,
    InvariantViolation,
    NotARetraction,
    NotNormalized,
    SpaceMismatch,
    TooLarge,
)
from .functionals import (
    LambdaFunctional,
    RealFunction,
    TWO_VALUED_CAP,
    _pair_family,
    _rand_tuple,
    _verify_family,
    check_axiom,
    classify,
    two_valued_tuples,
)
from .setmaps import SetValuedMap, identity_map, is_lsc, is_retraction, is_usc
from .spaces import FiniteTopSpace, SubspaceEmbedding, _bits, embed

Kind = Literal["min", "max"]

#: c-schedule for the open-set extension candidates 1 -+ c*chi_U.  For a
#: monotone max/min-preserving extender the contributed sets grow with c,
#: and for retraction-derived extenders c=1 is already exact.
EXTENSION_SCHEDULE = (1.0, 10.0, 100.0)


@dataclass(frozen=True)
class FromRetraction:
    map: SetValuedMap
    kind: Kind


@dataclass(frozen=True)
class Extender:
    """Total map from functions on the subspace to functions on the ambient.

    ``apply`` must extend its argument: the output restricted to the
    subspace equals the input.  ``provenance`` records how the extender
    arose; extenders serialize only by provenance.
    """

    embedding: SubspaceEmbedding
    apply: Callable[[RealFunction], RealFunction] = field(compare=False)
    provenance: FromRetraction | str = "user"

    @property
    def domain_space(self) -> FiniteTopSpace:
        return self.embedding.subspace

    @property
    def ambient_space(self) -> FiniteTopSpace:
        return self.embedding.ambient


def build_extender(
    r: SetValuedMap, embedding: SubspaceEmbedding, kind: Kind
) -> Extender:
    """Extender u(f)(y) = min/max of f over r(y), for r fixing the subspace."""
    if not is_retraction(r, embedding):
        raise NotARetraction("the map must send each embedded point to itself")
    agg = min if kind == "min" else max

    def apply(f: RealFunction) -> RealFunction:
        if f.space != embedding.subspace:
            raise SpaceMismatch("input must live on the embedded subspace")
        vals = f.values
        out = tuple(
            agg(vals[i] for i in _bits(m)) for m in r.images
        )
        return RealFunction._trusted(embedding.ambient, out)

    return Extender(embedding, apply, FromRetraction(r, kind))


def identity_extender(embedding: SubspaceEmbedding) -> Extender:
    """Shortcut for the ambient == subspace case."""
    return build_extender(identity_map(embedding.ambient), embedding, "min")


def mu_at(u: Extender, point: str) -> LambdaFunctional:
    """The pointwise functional f -> u(f)(point) on the subspace."""
    iy = u.ambient_space.index(point)
    return LambdaFunctional(
        u.domain_space, lambda f: u.apply(f).values[iy], label=f"mu[{point}]"
    )


# -- output classification ----------------------------------------------------


@dataclass(frozen=True)
class FunctionClassReport:
    """Semicontinuity class of one function, with failing thresholds."""

    klass: Literal["continuous", "lsc", "usc", "neither"]
    witnesses: tuple[str, ...] = ()


def function_class(g: RealFunction, space: FiniteTopSpace) -> FunctionClassReport:
    """Classify a function as continuous, lsc, usc, or neither.

    On a finite space it suffices to test thresholds at midpoints between
    consecutive distinct values: upper preimages {g > a} open means lsc,
    lower preimages {g < a} open means usc.
    """
    if g.space != space:
        raise SpaceMismatch("function must live on the given space")
    vals = sorted(set(g.values))
    thresholds = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    witnesses = []
    lsc_ok = True
    usc_ok = True
    for a in thresholds:
        up = 0
        dn = 0
        for i, v in enumerate(g.values):
            if v > a:
                up |= 1 << i
            if v < a:
                dn |= 1 << i
        if not space.is_open_mask(up):
            lsc_ok = False
            witnesses.append(f"{{g > {a:g}}} = {space.ids(up)} is not open")
        if not space.is_open_mask(dn):
            usc_ok = False
            witnesses.append(f"{{g < {a:g}}} = {space.ids(dn)} is not open")
    if lsc_ok and usc_ok:
        klass = "continuous"
    elif lsc_ok:
        klass = "lsc"
    elif usc_ok:
        klass = "usc"
    else:
        klass = "neither"
    return FunctionClassReport(klass, tuple(witnesses))


def _x_family(space: FiniteTopSpace, sample: int, rng) -> list[tuple[float, ...]]:
    fam = list(_verify_family(space.n))
    for _ in range(sample):
        fam.append(_rand_tuple(rng, space.n, amp=3.0))
    return fam


@dataclass(frozen=True)
class ImplicationResult:
    name: str
    cases: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SemicontinuityTheoremReport:
    kind: Kind
    r_usc: bool
    r_lsc: bool
    implications: tuple[ImplicationResult, ...]
    axiom_failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.axiom_failures and all(i.passed for i in self.implications)


#: Identities every pointwise functional of a retraction-derived extender
#: must satisfy, by kind.
KIND_AXIOMS = {
    "min": (
        "normed",
        "weakly_additive",
        "preserves_min",
        "weakly_preserves_max",
        "weakly_preserves_min",
    ),
    "max": (
        "normed",
        "weakly_additive",
        "preserves_max",
        "weakly_preserves_min",
        "weakly_preserves_max",
    ),
}


def forward_implications(
    u: Extender, r_usc: bool, r_lsc: bool, family
) -> tuple[ImplicationResult, ...]:
    """Check the forward implications from map semicontinuity to output class.

    ``u`` is built from a retraction r whose semicontinuity is given by
    ``r_usc`` and ``r_lsc``.  Upper semicontinuous maps must give lsc outputs
    through the min extender and usc outputs through the max extender; lower
    semicontinuous maps dually; continuous maps give continuous outputs.
    Each input of ``family`` is extended and classified once.
    """
    kind = u.provenance.kind
    expectations = []
    if r_usc and r_lsc:
        expectations.append(("continuous map gives continuous outputs", ("continuous",)))
    if r_usc:
        want = ("lsc", "continuous") if kind == "min" else ("usc", "continuous")
        expectations.append((f"usc map gives {want[0]} outputs ({kind} extender)", want))
    if r_lsc:
        want = ("usc", "continuous") if kind == "min" else ("lsc", "continuous")
        expectations.append((f"lsc map gives {want[0]} outputs ({kind} extender)", want))

    failures = {name: [] for name, _ in expectations}
    for vals in family:
        g = u.apply(RealFunction(u.domain_space, vals))
        klass = function_class(g, u.ambient_space).klass
        for name, allowed in expectations:
            if klass not in allowed:
                failures[name].append(f"f={vals} -> u(f)={g.values} is {klass}")
    return tuple(
        ImplicationResult(name, len(family), tuple(failures[name]))
        for name, _ in expectations
    )


def verify_semicontinuity_theorem(
    r: SetValuedMap,
    embedding: SubspaceEmbedding,
    kind: Kind,
    sample: int = 32,
    tol: float = 1e-9,
    seed: int = 0,
) -> SemicontinuityTheoremReport:
    """Check ``forward_implications`` for r, and check the pointwise
    functionals against the identities of their kind.
    """
    u = build_extender(r, embedding, kind)
    rng = np.random.default_rng(seed)
    fam = _x_family(embedding.subspace, sample, rng)
    r_usc = is_usc(r)
    r_lsc = is_lsc(r)
    implications = forward_implications(u, r_usc, r_lsc, fam)

    axiom_failures = []
    for p in embedding.ambient.points:
        mu = mu_at(u, p)
        for a in KIND_AXIOMS[kind]:
            rep = check_axiom(mu, a, trials=8, tol=tol, seed=seed)
            if not rep.passed:
                axiom_failures.append(f"mu[{p}] fails {a}: {rep.witness}")
    return SemicontinuityTheoremReport(
        kind, r_usc, r_lsc, implications, tuple(axiom_failures)
    )


# -- recovery route 1: supports of the pointwise functionals ------------------


def supports_retraction(
    u: Extender, budget: int = 128, tol: float = 1e-9
) -> SetValuedMap:
    """Recover the set-valued map y -> support of the pointwise functional.

    Every pointwise functional must classify as min-type or max-type;
    otherwise ClassificationFailed names the offending point.
    """
    x_space = u.domain_space
    y_space = u.ambient_space
    images = []
    for p in y_space.points:
        mu = mu_at(u, p)
        try:
            cls = classify(mu, budget=budget, tol=tol)
        except BudgetExhaustedInconclusive as exc:
            raise ClassificationFailed(p, str(exc)) from exc
        if cls.kind not in ("R_min", "R_max"):
            raise ClassificationFailed(p, f"classified as {cls.kind}")
        images.append(x_space.mask(cls.support))
    return SetValuedMap(y_space, x_space, tuple(images))


# -- recovery route 2: the open-set extension operator ------------------------


def _check_normalized(u: Extender, tol: float) -> None:
    ones = RealFunction(u.domain_space, (1.0,) * u.domain_space.n)
    out = u.apply(ones)
    if any(abs(v - 1.0) > tol for v in out.values):
        raise NotNormalized("u(1) != 1 on the ambient space")


def extend_open_set(
    u: Extender,
    open_set,
    variant: str = "max_usc",
    budget: int = 0,
    tol: float = 1e-9,
    seed: int = 0,
) -> frozenset[str]:
    """The open subset of the ambient space contributed by one open of X.

    max_usc variant: union over candidates h = 1 - c*chi_U (h <= 1, h = 1
    off U) of {y : u(h)(y) < 1}; min_lsc variant uses h = 1 + c*chi_U and
    {y : u(h)(y) > 1}.  ``budget`` adds random members of the candidate
    family on top of the deterministic c-schedule.
    """
    mask, _ = _extend_open_detail(u, open_set, variant, budget, tol, seed)
    return u.ambient_space.subset(mask)


def _extend_open_detail(
    u: Extender, open_set, variant: str, budget: int, tol: float, seed: int
) -> tuple[int, dict[str, float]]:
    if variant not in ("max_usc", "min_lsc"):
        raise InvariantViolation("variant", "must be max_usc or min_lsc")
    x_space = u.domain_space
    umask = x_space.mask(open_set)
    if not x_space.is_open_mask(umask):
        raise InvariantViolation("open_set", "not open in the subspace")
    _check_normalized(u, tol)
    sign = -1.0 if variant == "max_usc" else 1.0
    out = 0
    attained: dict[str, float] = {}

    def contribute(h_vals: tuple[float, ...], c_label: float) -> None:
        nonlocal out
        g = u.apply(RealFunction._trusted(x_space, h_vals))
        for i, v in enumerate(g.values):
            bit = 1 << i
            if out & bit:
                continue
            inside = v < 1.0 - tol if variant == "max_usc" else v > 1.0 + tol
            if inside:
                out |= bit
                attained[u.ambient_space.points[i]] = c_label

    for c in EXTENSION_SCHEDULE:
        h = tuple(
            1.0 + sign * c if (umask >> i) & 1 else 1.0 for i in range(x_space.n)
        )
        contribute(h, c)
    if budget:
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            h = tuple(
                1.0 + sign * float(rng.uniform(0.0, 100.0)) if (umask >> i) & 1 else 1.0
                for i in range(x_space.n)
            )
            contribute(h, float("nan"))
    return out, attained


def _recover_by_closures(
    u: Extender, variant: str, budget: int, tol: float, seed: int
) -> tuple[int, tuple[int, ...]]:
    """The region reached by the open-set extension, and for each ambient
    point the intersection of the closures of the opens whose extension
    contains it (the whole subspace where none does).
    """
    x_space = u.domain_space
    e_masks = {
        um: _extend_open_detail(u, um, variant, budget, tol, seed)[0]
        for um in x_space.opens
    }
    region = 0
    for em in e_masks.values():
        region |= em
    images = []
    for i, p in enumerate(u.ambient_space.points):
        acc = x_space.full_mask
        for um, em in e_masks.items():
            if (em >> i) & 1:
                acc &= x_space.closure_mask(um)
        if acc == 0:
            raise InvariantViolation(
                "recovered.nonempty", f"empty recovered value at {p!r}"
            )
        images.append(acc)
    return region, tuple(images)


def retraction_from_open_sets(
    u: Extender,
    variant: str = "max_usc",
    budget: int = 0,
    tol: float = 1e-9,
    seed: int = 0,
) -> SetValuedMap:
    """Recover a set-valued map by intersecting closures of contributing opens.

    For each ambient point y, r(y) is the intersection of the closures (in
    the subspace) of all opens U whose extension contains y; points reached
    by no extension get the whole subspace.
    """
    _, images = _recover_by_closures(u, variant, budget, tol, seed)
    return SetValuedMap(u.ambient_space, u.domain_space, images)


def _extender_preserves(u: Extender, op: str, tol: float, family) -> bool:
    """Pointwise check of u(max(f,g)) = max(uf, ug) (or min) over a family."""
    x_space = u.domain_space
    comb = max if op == "max" else min
    outs = {}

    def uvals(t):
        if t not in outs:
            outs[t] = u.apply(RealFunction._trusted(x_space, t)).values
        return outs[t]

    for f, g in itertools.product(family, family):
        h = tuple(map(comb, f, g))
        lhs = uvals(h)
        uf, ug = uvals(f), uvals(g)
        for a, b, c in zip(lhs, uf, ug):
            if abs(a - comb(b, c)) > tol:
                return False
    return True


@dataclass(frozen=True)
class AlgebraReport:
    """Intersection and monotonicity behavior of the extension operator."""

    pairs_checked: int
    failures: tuple[str, ...]
    attained: dict[tuple[str, ...], dict[str, float]] = field(compare=False, default_factory=dict)
    schedule_limited: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures


def check_open_extension_algebra(
    u: Extender, variant: str = "max_usc", budget: int = 0, tol: float = 1e-9
) -> AlgebraReport:
    """Verify e(U & V) = e(U) & e(V) and monotonicity over all open pairs.

    Requires the extender to preserve max (max_usc variant) or min
    (min_lsc); checked first on the structured family.  Results carry the
    schedule that attained each contribution; for extenders that are not
    retraction-derived the c-schedule may undershoot the full union, which
    the ``schedule_limited`` flag records.
    """
    x_space = u.domain_space
    if x_space.n > 6:
        raise TooLarge("exhaustive open-pair check needs |X| <= 6")
    op = "max" if variant == "max_usc" else "min"
    fam = _pair_family(x_space.n)
    if not _extender_preserves(u, op, tol, fam):
        raise AxiomPrecheckFailed(f"extender does not preserve {op}")
    details = {
        um: _extend_open_detail(u, um, variant, budget, tol, seed=0)
        for um in x_space.opens
    }
    e_masks = {um: d[0] for um, d in details.items()}
    attained = {x_space.ids(um): d[1] for um, d in details.items()}
    failures = []
    pairs = 0
    for ua, ub in itertools.combinations_with_replacement(x_space.opens, 2):
        pairs += 1
        inter = ua & ub
        lhs = e_masks[inter]
        rhs = e_masks[ua] & e_masks[ub]
        if lhs != rhs:
            failures.append(
                f"e({x_space.ids(ua)} & {x_space.ids(ub)}): "
                f"{u.ambient_space.ids(lhs)} != {u.ambient_space.ids(rhs)}"
            )
        if not (ua & ~ub) and (e_masks[ua] & ~e_masks[ub]):
            failures.append(
                f"monotonicity: e({x_space.ids(ua)}) not inside e({x_space.ids(ub)})"
            )
        if not (ub & ~ua) and (e_masks[ub] & ~e_masks[ua]):
            failures.append(
                f"monotonicity: e({x_space.ids(ub)}) not inside e({x_space.ids(ua)})"
            )
    return AlgebraReport(
        pairs,
        tuple(failures),
        attained,
        schedule_limited=not isinstance(u.provenance, FromRetraction),
    )


# -- connectivity of recovered values ------------------------------------------


def _continuous_family(space: FiniteTopSpace) -> list[tuple[float, ...]]:
    """Structured continuous functions: constant on each component."""
    comps = space.components
    k = len(comps)
    fam = []
    patterns = [(0.0,) * k, (1.0,) * k, (-1.0,) * k]
    if k <= TWO_VALUED_CAP:
        patterns += two_valued_tuples(k, 0.0, 1.0)
        patterns += two_valued_tuples(k, -1.0, 1.0)
        patterns += two_valued_tuples(k, 0.0, 5.0)
    for pat in dict.fromkeys(patterns):
        vals = [0.0] * space.n
        for cval, cmask in zip(pat, comps):
            for i in _bits(cmask):
                vals[i] = cval
        fam.append(tuple(vals))
    return list(dict.fromkeys(fam))


@dataclass(frozen=True)
class ConnectivityReport:
    """Recovered map on the reachable ambient region, with value diagnostics.

    ``axioms_checked_on`` records whether the both-lattice-operations
    precheck quantified over all functions (discrete subspace) or only the
    continuous ones (non-discrete subspace, where that is the honest
    reading and the conclusion is empirical).
    """

    region: tuple[str, ...]
    values: dict[str, tuple[str, ...]] = field(compare=False)
    connected_values: bool = True
    usc_on_region: bool = True
    axioms_checked_on: str = "all"
    schedule_limited: bool = False


def connectivity_analysis(
    u: Extender, budget: int = 0, tol: float = 1e-9
) -> ConnectivityReport:
    """Recover the map from a normalized extender preserving max and min,
    and report connectivity and upper semicontinuity of its values on the
    region reached by the open-set extension.
    """
    _check_normalized(u, tol)
    x_space = u.domain_space
    if x_space.is_discrete():
        fam = _pair_family(x_space.n)
        checked_on = "all"
    else:
        fam = _continuous_family(x_space)
        checked_on = "continuous"
    for op in ("max", "min"):
        if not _extender_preserves(u, op, tol, fam):
            raise AxiomPrecheckFailed(f"extender does not preserve {op} ({checked_on} inputs)")

    y_space = u.ambient_space
    region_mask, images = _recover_by_closures(u, "max_usc", budget, tol, seed=0)
    region = y_space.ids(region_mask)
    if not region:
        return ConnectivityReport(
            region, {}, True, True, checked_on,
            schedule_limited=not isinstance(u.provenance, FromRetraction),
        )

    img_masks = {p: images[y_space.index(p)] for p in region}
    values = {p: x_space.ids(m) for p, m in img_masks.items()}

    connected = all(x_space.is_connected_mask(m) for m in img_masks.values())
    sub = embed(y_space, region)
    restricted = SetValuedMap(
        sub.subspace, x_space, tuple(img_masks[p] for p in sub.subspace.points)
    )
    return ConnectivityReport(
        region,
        values,
        connected_values=connected,
        usc_on_region=is_usc(restricted),
        axioms_checked_on=checked_on,
        schedule_limited=not isinstance(u.provenance, FromRetraction),
    )

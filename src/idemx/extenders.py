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
    Functional,
    RealFunction,
    _array,
    _axiom_sweep,
    _base,
    _blocks,
    _class_supports,
    _distinct,
    _fold,
    _pair_family,
    _verify_family,
    classify,
)
from .setmaps import SetValuedMap, _pairs, identity_map, is_lsc, is_retraction, is_usc
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

    def apply_batch(self, A: np.ndarray) -> np.ndarray:
        """``apply`` on each row of a k x |X| array, as a k x |Y| array.

        A retraction-derived extender runs its min/max-over-images kernel
        once on the whole array; any other extender applies row by row.
        The provenance is taken at its word, as serialization takes it.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.domain_space.n:
            raise SpaceMismatch("input rows must have one value per subspace point")
        if isinstance(self.provenance, FromRetraction):
            return _extend_rows(self.provenance.map, self.provenance.kind, A)
        X = self.domain_space
        out = [self.apply(RealFunction(X, tuple(row))).values for row in A.tolist()]
        return np.array(out, dtype=float).reshape(len(A), self.ambient_space.n)


def _extend_rows(r: SetValuedMap, kind: Kind, A: np.ndarray) -> np.ndarray:
    """Column y is the min/max of each row of A over r(y)."""
    return np.stack([_fold(kind, (A[:, i] for i in _bits(m))) for m in r.images], axis=1)


def build_extender(
    r: SetValuedMap, embedding: SubspaceEmbedding, kind: Kind
) -> Extender:
    """Extender u(f)(y) = min/max of f over r(y), for r fixing the subspace."""
    if not is_retraction(r, embedding):
        raise NotARetraction("the map must send each embedded point to itself")

    def apply(f: RealFunction) -> RealFunction:
        if f.space != embedding.subspace:
            raise SpaceMismatch("input must live on the embedded subspace")
        out = _extend_rows(r, kind, np.array([f.values], dtype=float))[0]
        return RealFunction(embedding.ambient, tuple(out.tolist()))

    return Extender(embedding, apply, FromRetraction(r, kind))


def identity_extender(embedding: SubspaceEmbedding) -> Extender:
    """Shortcut for the ambient == subspace case."""
    return build_extender(identity_map(embedding.ambient), embedding, "min")


@dataclass(frozen=True, eq=False)
class PointwiseFunctional(Functional):
    """f -> u(f)(y) on the subspace, for one ambient point y of an extender.

    Compared and hashed by identity, like ``LambdaFunctional``: a user-built
    extender's ``apply`` is opaque.
    """

    extender: Extender
    index: int
    label: str

    @property
    def space(self) -> FiniteTopSpace:
        return self.extender.domain_space

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        return self.extender.apply_batch(A)[:, self.index]


def mu_at(u: Extender, point: str) -> PointwiseFunctional:
    """The pointwise functional f -> u(f)(point) on the subspace."""
    return PointwiseFunctional(u, u.ambient_space.index(point), f"mu[{point}]")


# -- output classification ----------------------------------------------------


@dataclass(frozen=True)
class FunctionClassReport:
    """Semicontinuity class of one function, with the pairs that fail."""

    klass: Literal["continuous", "lsc", "usc", "neither"]
    witnesses: tuple[str, ...] = ()


def function_class(g: RealFunction, space: FiniteTopSpace) -> FunctionClassReport:
    """Classify a function as continuous, lsc, usc, or neither.

    On a finite space the test is pairwise, for every point y and every y'
    in minN(y): g is lsc iff g(y') >= g(y), since then every upper set
    {g > a} is a union of minimal neighborhoods, and usc iff g(y') <= g(y).
    """
    if g.space != space:
        raise SpaceMismatch("function must live on the given space")
    v, pts = g.values, space.points
    witnesses = []
    lsc_ok = usc_ok = True
    for y, y2 in _pairs(space):
        if v[y2] == v[y]:
            continue
        below = v[y2] < v[y]
        if below:
            lsc_ok = False
        else:
            usc_ok = False
        witnesses.append(
            f"g({pts[y2]}) {'<' if below else '>'} g({pts[y]}) with {pts[y2]} "
            f"in minN({pts[y]}): not {'lsc' if below else 'usc'}"
        )
    klass = {(True, True): "continuous", (True, False): "lsc", (False, True): "usc"}
    return FunctionClassReport(klass.get((lsc_ok, usc_ok), "neither"), tuple(witnesses))


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
    F = _array(family, u.domain_space.n)
    for vals, out in zip(F.tolist(), u.apply_batch(F).tolist()):
        g = RealFunction(u.ambient_space, tuple(out))
        klass = function_class(g, u.ambient_space).klass
        for name, allowed in expectations:
            if klass not in allowed:
                failures[name].append(f"f={tuple(vals)} -> u(f)={g.values} is {klass}")
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
    n = embedding.subspace.n
    fam = np.concatenate([
        _verify_family(n), np.random.default_rng(seed).uniform(-3.0, 3.0, (sample, n))
    ])
    r_usc = is_usc(r)
    r_lsc = is_lsc(r)
    implications = forward_implications(u, r_usc, r_lsc, fam)

    return SemicontinuityTheoremReport(
        kind, r_usc, r_lsc, implications, _pointwise_axiom_failures(u, kind, tol, seed)
    )


def _pointwise_axiom_failures(u: Extender, kind: Kind, tol: float, seed: int) -> tuple[str, ...]:
    """Each pointwise functional's failing ``KIND_AXIOMS``, all in one sweep."""
    axioms = KIND_AXIOMS[kind]
    reports = _axiom_sweep(u.apply_batch, u.domain_space.n, axioms, 8, tol, seed, None)
    return tuple(
        f"mu[{p}] fails {a}: {reports[a][j].witness}"
        for j, p in enumerate(u.ambient_space.points)
        for a in axioms
        if not reports[a][j].passed
    )


# -- recovery route 1: supports of the pointwise functionals ------------------


def supports_retraction(
    u: Extender, budget: int = 128, tol: float = 1e-9
) -> SetValuedMap:
    """Recover the set-valued map y -> support of the pointwise functional.

    Every pointwise functional must classify as min-type or max-type;
    otherwise ClassificationFailed names the offending point.  The
    functionals are the columns of ``u.apply_batch``, all checked at once on
    the inputs ``classify`` (seed 0) gives each: one axiom sweep, one spike
    batch per kind to propose the supports, and one verification batch, in
    which each column is compared with the min or max over its own support.
    A column that is not verified is classified alone, so its error is the
    one ``classify`` raises.
    """
    x_space = u.domain_space
    y_space = u.ambient_space
    _, _, masks = _class_supports(u.apply_batch, x_space.n, budget, tol, 0)
    images = []
    for p, mask in zip(y_space.points, masks):
        if not mask:
            try:
                cls = classify(mu_at(u, p), budget=budget, tol=tol)
            except BudgetExhaustedInconclusive as exc:
                raise ClassificationFailed(p, str(exc)) from exc
            if cls.kind not in ("R_min", "R_max"):
                raise ClassificationFailed(p, f"classified as {cls.kind}")
            mask = x_space.mask(cls.support)
        images.append(mask)
    return SetValuedMap(y_space, x_space, tuple(images))


# -- recovery route 2: the open-set extension operator ------------------------


def _first_failing(u: Extender, axioms, tol: float, family=None) -> str | None:
    """The first of ``axioms`` that some pointwise functional of u fails on
    ``family`` (the structured inputs when None), without random inputs;
    each axiom is swept only if the ones before it hold."""
    for axiom in axioms:
        sweep = _axiom_sweep(u.apply_batch, u.domain_space.n, (axiom,), 0, tol, 0, family)
        if not all(rep.passed for rep in sweep[axiom]):
            return axiom
    return None


def _check_normalized(u: Extender, tol: float) -> None:
    if _first_failing(u, ("normed",), tol):
        raise NotNormalized("u(1) != 1 on the ambient space")


def extend_open_set(
    u: Extender, open_set, variant: str = "max_usc", tol: float = 1e-9
) -> frozenset[str]:
    """The open subset of the ambient space contributed by one open of X.

    max_usc variant: union over candidates h = 1 - c*chi_U (h <= 1, h = 1
    off U) of {y : u(h)(y) < 1}; min_lsc variant uses h = 1 + c*chi_U and
    {y : u(h)(y) > 1}, with c running over ``EXTENSION_SCHEDULE``.
    """
    umask = u.domain_space.mask(open_set)
    if not u.domain_space.is_open_mask(umask):
        raise InvariantViolation("open_set", "not open in the subspace")
    ((mask, _),) = _extend_opens(u, (umask,), variant, tol)
    return u.ambient_space.subset(mask)


def _extend_opens(
    u: Extender, open_masks, variant: str, tol: float
) -> list[tuple[int, dict[str, float]]]:
    """For each open mask, its extension and the c that first reached each
    of its points; all candidates go through one ``apply_batch``."""
    if variant not in ("max_usc", "min_lsc"):
        raise InvariantViolation("variant", "must be max_usc or min_lsc")
    _check_normalized(u, tol)
    x_space = u.domain_space
    sign = -1.0 if variant == "max_usc" else 1.0
    inside = (np.array(open_masks)[:, None] >> np.arange(x_space.n)) & 1
    # rows 1 + sign * c * chi_U, c-schedule innermost
    H = 1.0 + sign * inside[:, None, :] * np.array(EXTENSION_SCHEDULE)[:, None]
    G = u.apply_batch(H.reshape(-1, x_space.n))
    hits = G < 1.0 - tol if variant == "max_usc" else G > 1.0 + tol
    out = []
    for rows in hits.reshape(len(open_masks), len(EXTENSION_SCHEDULE), -1):
        mask = 0
        attained: dict[str, float] = {}
        for c, row in zip(EXTENSION_SCHEDULE, rows):
            for i in np.flatnonzero(row):
                if not mask >> int(i) & 1:
                    mask |= 1 << int(i)
                    attained[u.ambient_space.points[i]] = c
        out.append((mask, attained))
    return out


def _recover_by_closures(u: Extender, variant: str, tol: float) -> tuple[int, tuple[int, ...]]:
    """The region reached by the open-set extension, and for each ambient
    point the intersection of the closures of the opens whose extension
    contains it (the whole subspace where none does).
    """
    x_space = u.domain_space
    opens = x_space.opens
    e_masks = {um: em for um, (em, _) in zip(opens, _extend_opens(u, opens, variant, tol))}
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
    u: Extender, variant: str = "max_usc", tol: float = 1e-9
) -> SetValuedMap:
    """Recover a set-valued map by intersecting closures of contributing opens.

    For each ambient point y, r(y) is the intersection of the closures (in
    the subspace) of all opens U whose extension contains y; points reached
    by no extension get the whole subspace.
    """
    _, images = _recover_by_closures(u, variant, tol)
    return SetValuedMap(u.ambient_space, u.domain_space, images)


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
    u: Extender, variant: str = "max_usc", tol: float = 1e-9
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
    if _first_failing(u, (f"preserves_{op}",), tol, _pair_family(x_space.n)):
        raise AxiomPrecheckFailed(f"extender does not preserve {op}")
    details = dict(zip(x_space.opens, _extend_opens(u, x_space.opens, variant, tol)))
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
        for a, b in ((ua, ub), (ub, ua)):
            if not (a & ~b) and (e_masks[a] & ~e_masks[b]):
                failures.append(
                    f"monotonicity: e({x_space.ids(a)}) not inside e({x_space.ids(b)})"
                )
    return AlgebraReport(
        pairs,
        tuple(failures),
        attained,
        schedule_limited=not isinstance(u.provenance, FromRetraction),
    )


# -- connectivity of recovered values ------------------------------------------


def _continuous_family(space: FiniteTopSpace) -> np.ndarray:
    """Structured continuous functions: constant on each component.

    Row j takes, on the c-th component, the c-th value of the j-th distinct
    row of the constants and the {0,1}, {-1,1} and {0,5} blocks over the
    components.
    """
    k = len(space.components)
    of = [next(c for c, m in enumerate(space.components) if m >> i & 1) for i in range(space.n)]
    return _distinct(_base(k)[:3], *_blocks(k, (0.0, 1.0), (-1.0, 1.0), (0.0, 5.0)))[:, of]


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


def connectivity_analysis(u: Extender, tol: float = 1e-9) -> ConnectivityReport:
    """Recover the map from a normalized extender preserving max and min,
    and report connectivity and upper semicontinuity of its values on the
    region reached by the open-set extension.
    """
    _check_normalized(u, tol)
    x_space = u.domain_space
    discrete = x_space.is_discrete()
    fam = _pair_family(x_space.n) if discrete else _continuous_family(x_space)
    checked_on = "all" if discrete else "continuous"
    op = _first_failing(u, ("preserves_max", "preserves_min"), tol, fam)
    if op:
        raise AxiomPrecheckFailed(f"extender does not preserve {op[-3:]} ({checked_on} inputs)")

    y_space = u.ambient_space
    region_mask, images = _recover_by_closures(u, "max_usc", tol)
    region = y_space.ids(region_mask)
    limited = not isinstance(u.provenance, FromRetraction)
    if not region:
        return ConnectivityReport(region, {}, True, True, checked_on, schedule_limited=limited)

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
        schedule_limited=limited,
    )

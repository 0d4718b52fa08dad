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
    AXIOMS,
    MAX_CLASS_AXIOMS,
    MIN_CLASS_AXIOMS,
    Functional,
    RealFunction,
    _axiom_sweep,
    _check_count,
    _check_tol,
    _class_supports,
    _continuous_family,
    _distinct,
    _family_rows,
    _fold,
    _masks_of,
    _pair_family,
    _rows_of,
    _verification_rows,
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
    if kind not in ("min", "max"):
        raise InvariantViolation("kind", "must be 'min' or 'max'")
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


def _classes(G: np.ndarray, space: FiniteTopSpace) -> np.ndarray:
    """The class of each row of G, whose last axis runs over the points of
    ``space`` (any leading shape), as an array of shape G.shape[:-1] of
    "continuous", "lsc", "usc" or "neither".

    This is the pair rule of the ``setmaps`` module docstring read for
    real functions, over the pairs (y, y') of ``setmaps._pairs``, y' in
    minN(y), all pairs of a stack at once: a row is lsc iff
    every G[..., y'] >= G[..., y] (each upper set is then open), and usc
    iff every G[..., y'] <= G[..., y].
    """
    y, y2 = np.array(_pairs(space), dtype=int).reshape(-1, 2).T
    lo, hi = G[..., y2], G[..., y]
    lsc, usc = (lo >= hi).all(axis=-1), (lo <= hi).all(axis=-1)
    return np.array(["neither", "lsc", "usc", "continuous"])[lsc + 2 * usc]


def function_class(g: RealFunction, space: FiniteTopSpace) -> FunctionClassReport:
    """Classify a function as continuous, lsc, usc, or neither, by
    ``_classes``, with a witness for each pair (y, y') it compares unequal.
    """
    if g.space != space:
        raise SpaceMismatch("function must live on the given space")
    v, pts = g.values, space.points
    witnesses = []
    for y, y2 in _pairs(space):
        if v[y2] != v[y]:
            below = v[y2] < v[y]
            witnesses.append(
                f"g({pts[y2]}) {'<' if below else '>'} g({pts[y]}) with {pts[y2]} "
                f"in minN({pts[y]}): not {'lsc' if below else 'usc'}"
            )
    return FunctionClassReport(str(_classes(np.array(v), space)), tuple(witnesses))


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
    "min": MIN_CLASS_AXIOMS + ("weakly_preserves_min",),
    "max": MAX_CLASS_AXIOMS + ("weakly_preserves_max",),
}


def forward_implications(
    u: Extender, r_usc: bool, r_lsc: bool, family
) -> tuple[ImplicationResult, ...]:
    """Check the forward implications from map semicontinuity to output class.

    ``u`` is built from a retraction r whose semicontinuity is given by
    ``r_usc`` and ``r_lsc``.  Upper semicontinuous maps must give lsc outputs
    through the min extender and usc outputs through the max extender; lower
    semicontinuous maps dually; continuous maps give continuous outputs.
    ``family`` is read as ``check_axioms`` reads its family: at least one
    row, each of one finite real per subspace point.  Its rows are extended
    in one ``apply_batch`` and classified in one ``_classes``, and ``cases``
    counts them.  Any other family is an InvariantViolation, at ``values``
    for a non-finite value as in ``RealFunction``; so is an extender that
    is not retraction-derived (it has no kind).  A min or max over finite
    values is finite, so every output is.
    """
    if not isinstance(u.provenance, FromRetraction):
        raise InvariantViolation("provenance", "the extender must be built from a retraction")
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

    F = _family_rows(family, u.domain_space.n, "values")
    G = u.apply_batch(F)
    classes = _classes(G, u.ambient_space).tolist()
    return tuple(
        ImplicationResult(name, len(F), tuple(
            f"f={tuple(F[i].tolist())} -> u(f)={tuple(G[i].tolist())} is {c}"
            for i, c in enumerate(classes)
            if c not in allowed
        ))
        for name, allowed in expectations
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

    The implications hold for continuous inputs, and read ``_verify_family``
    and ``sample`` uniform(-3, 3) rows of ``default_rng(seed)``: on a
    discrete subspace all of them, and on any other subspace X the
    continuous ones among them, those constant on each minimal
    neighbourhood, then ``_continuous_family(X)``, each distinct row once.
    """
    _check_count("sample", sample)
    _check_count("seed", seed)
    _check_tol(tol)
    u = build_extender(r, embedding, kind)
    X = embedding.subspace
    fam = _verification_rows(X.n, sample, np.random.default_rng(seed), 3.0)
    if not X.is_discrete():
        fam = _distinct(fam[_classes(fam, X) == "continuous"], _continuous_family(X))
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
    A column that is not verified raises ClassificationFailed, with the
    error ``classify`` raises on it alone, or else the class it returns.
    """
    _check_count("budget", budget)
    _check_tol(tol)
    x_space = u.domain_space
    y_space = u.ambient_space
    reports = _axiom_sweep(u.apply_batch, x_space.n, AXIOMS, min(budget, 32), tol, 0, None)
    _, masks, _ = _class_supports(u.apply_batch, x_space.n, reports, budget, tol, 0)
    images = []
    for p, mask in zip(y_space.points, masks):
        if not mask:
            try:
                cls = classify(mu_at(u, p), budget=budget, tol=tol)
            except BudgetExhaustedInconclusive as exc:
                raise ClassificationFailed(p, str(exc)) from exc
            raise ClassificationFailed(p, f"classified as {cls.kind}")
        images.append(mask)
    return SetValuedMap(y_space, x_space, tuple(images))


# -- recovery route 2: the open-set extension operator ------------------------


def _first_failing(u: Extender, axioms, tol: float, family=None) -> str | None:
    """The first of ``axioms``, in the order given, that some pointwise
    functional of u fails on ``family`` (the structured inputs when None),
    without random inputs; all of them are checked in one sweep."""
    sweep = _axiom_sweep(u.apply_batch, u.domain_space.n, axioms, 0, tol, 0, family)
    return next((a for a in axioms if not all(rep.passed for rep in sweep[a])), None)


def _check_args(variant: str, tol) -> None:
    _check_tol(tol)
    if variant not in ("max_usc", "min_lsc"):
        raise InvariantViolation("variant", "must be max_usc or min_lsc")


def _check_opens(u: Extender, variant: str, tol: float) -> None:
    """The checks of each public open-set call before ``_open_hits``:
    the tolerance and the variant, then that u is normalized."""
    _check_args(variant, tol)
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
    _check_opens(u, variant, tol)
    (mask,) = _masks_of(_open_hits(u, (umask,), variant, tol).any(axis=1)).tolist()
    return u.ambient_space.subset(mask)


def _open_hits(u: Extender, open_masks, variant: str, tol: float) -> np.ndarray:
    """The table hits[k, j, y]: the candidate 1 -+ c*chi_U, for the k-th
    open mask U and the j-th c of ``EXTENSION_SCHEDULE``, reaches ambient
    point y.  All candidates go through one ``apply_batch``.  The caller has
    run ``_check_opens``."""
    n = u.domain_space.n
    sign = -1.0 if variant == "max_usc" else 1.0
    inside = _rows_of(open_masks, n)
    H = 1.0 + sign * inside[:, None, :] * np.array(EXTENSION_SCHEDULE)[:, None]
    G = u.apply_batch(H.reshape(-1, n)).reshape(*H.shape[:2], -1)
    return G < 1.0 - tol if variant == "max_usc" else G > 1.0 + tol


def _recover_by_closures(u: Extender, variant: str, tol: float) -> tuple[int, tuple[int, ...]]:
    """The region reached by the open-set extension, and for each ambient
    point the intersection of the closures of the opens whose extension
    contains it (the whole subspace where none does).
    """
    x_space = u.domain_space
    opens = np.array(x_space.opens)
    reach = _open_hits(u, opens, variant, tol).any(axis=1)
    # x is adherent to U iff its minimal neighborhood meets U
    closures = _masks_of((np.array(x_space.min_nbhd) & opens[:, None]) != 0)
    images = np.bitwise_and.reduce(np.where(reach, closures[:, None], x_space.full_mask))
    empty = np.flatnonzero(images == 0)
    if empty.size:
        at = u.ambient_space.points[empty[0]]
        raise InvariantViolation("recovered.nonempty", f"empty recovered value at {at!r}")
    return int(_masks_of(reach.any(axis=0))), tuple(images.tolist())


def retraction_from_open_sets(
    u: Extender, variant: str = "max_usc", tol: float = 1e-9
) -> SetValuedMap:
    """Recover a set-valued map by intersecting closures of contributing opens.

    For each ambient point y, r(y) is the intersection of the closures (in
    the subspace) of all opens U whose extension contains y; points reached
    by no extension get the whole subspace.
    """
    _check_opens(u, variant, tol)
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
    _check_args(variant, tol)
    x_space = u.domain_space
    if x_space.n > 6:
        raise TooLarge("exhaustive open-pair check needs |X| <= 6")
    op = "max" if variant == "max_usc" else "min"
    if _first_failing(u, (f"preserves_{op}",), tol, _pair_family(x_space.n)):
        raise AxiomPrecheckFailed(f"extender does not preserve {op}")
    _check_opens(u, variant, tol)
    hits = _open_hits(u, x_space.opens, variant, tol)
    reach = hits.any(axis=1)
    e_masks = dict(zip(x_space.opens, _masks_of(reach).tolist()))
    first = np.array(EXTENSION_SCHEDULE)[hits.argmax(axis=1)].tolist()
    attained = {
        x_space.ids(um): {p: c for p, c, hit in zip(u.ambient_space.points, cs, row) if hit}
        for um, cs, row in zip(x_space.opens, first, reach.tolist())
    }
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
    _check_opens(u, "max_usc", tol)
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

    img_masks = tuple(images[i] for i in _bits(region_mask))  # in region order
    restricted = SetValuedMap(embed(y_space, region).subspace, x_space, img_masks)
    return ConnectivityReport(
        region,
        dict(zip(region, map(x_space.ids, img_masks))),
        connected_values=all(map(x_space.is_connected_mask, img_masks)),
        usc_on_region=is_usc(restricted),
        axioms_checked_on=checked_on,
        schedule_limited=limited,
    )

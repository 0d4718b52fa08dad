"""Functionals on finite function spaces.

The objects here are evaluators ``mu`` sending a real-valued function on a
finite space to a real number.  The toolkit checks which lattice/translation
identities a functional satisfies (normed, weakly additive, preserving or
weakly preserving min/max), locates its support by perturbation witnesses,
reconstructs it from its family of essential sets, and classifies it as a
min-type functional, a max-type functional, an idempotent measure, or none.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .errors import (
    AxiomPrecheckFailed,
    BudgetExhaustedInconclusive,
    EmptySet,
    InvariantViolation,
    SpaceMismatch,
    TooLarge,
    UnknownAxiom,
)
from .spaces import FiniteTopSpace, MetricSpace, _bits

NEG_INF = float("-inf")

#: Exhaustive two-valued / sign-pattern sweeps apply up to this point count.
TWO_VALUED_CAP = 5

AXIOMS = (
    "normed",
    "weakly_additive",
    "preserves_max",
    "preserves_min",
    "weakly_preserves_max",
    "weakly_preserves_min",
)

MIN_CLASS_AXIOMS = ("normed", "weakly_additive", "preserves_min", "weakly_preserves_max")
MAX_CLASS_AXIOMS = ("normed", "weakly_additive", "preserves_max", "weakly_preserves_min")

Kind = Literal["min", "max"]


# -- functions on a space -------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """One real value per point of a finite space."""

    space: FiniteTopSpace | MetricSpace
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.space.points):
            raise InvariantViolation("values", "length must match the point count")
        if not all(math.isfinite(v) for v in self.values):
            raise InvariantViolation("values", "values must be finite")

    @classmethod
    def _trusted(cls, space, values: tuple[float, ...]) -> "RealFunction":
        # fast path for library-generated tuples, which are finite by
        # construction; user input goes through the validating constructor
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "values", values)
        return obj

    def __getitem__(self, point: str) -> float:
        return self.values[self.space.index(point)]

    def __neg__(self) -> "RealFunction":
        return RealFunction(self.space, tuple(-v for v in self.values))

    def shifted(self, c: float) -> "RealFunction":
        return RealFunction(self.space, tuple(v + c for v in self.values))


def constant(space, c: float) -> RealFunction:
    return RealFunction(space, (float(c),) * len(space.points))


def indicator(space, subset, lo: float = 0.0, hi: float = 1.0) -> RealFunction:
    mask = space.mask(subset)
    return RealFunction(
        space, tuple(hi if (mask >> i) & 1 else lo for i in range(len(space.points)))
    )


def from_mapping(space, values: Mapping[str, float]) -> RealFunction:
    return RealFunction(space, tuple(float(values[p]) for p in space.points))


# -- functionals -----------------------------------------------------------


class Functional:
    """Deterministic evaluator from RealFunction to a real number."""

    space: FiniteTopSpace | MetricSpace
    label: str = ""

    def __call__(self, f: RealFunction) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class SupportFunctional(Functional):
    """min or max of the input over a fixed nonempty subset."""

    space: FiniteTopSpace | MetricSpace
    kind: Kind
    member: int  # bitmask of the support set

    def __post_init__(self):
        if self.member == 0:
            raise EmptySet("support set must be nonempty")
        if self.kind not in ("min", "max"):
            raise InvariantViolation("kind", "must be 'min' or 'max'")

    @cached_property
    def _indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.member))

    @cached_property
    def _pick(self) -> Callable:
        if len(self._indices) == 1:
            i = self._indices[0]
            return lambda vals: vals[i]
        getter = operator.itemgetter(*self._indices)
        agg = min if self.kind == "min" else max
        return lambda vals: agg(getter(vals))

    @property
    def label(self) -> str:
        pts = ",".join(self.space.points[i] for i in self._indices)
        return f"{self.kind} over {{{pts}}}"

    def __call__(self, f: RealFunction) -> float:
        return self._pick(f.values)


def support_functional(space, kind: Kind, subset) -> SupportFunctional:
    return SupportFunctional(space, kind, space.mask(subset))


def dirac(space, point: str) -> SupportFunctional:
    """Point evaluation, realised as a singleton-support functional."""
    return SupportFunctional(space, "min", 1 << space.index(point))


@dataclass(frozen=True)
class IdempotentDensity(Functional):
    """Max-plus integration against a density: mu(f) = max_x (lam(x) + f(x)).

    Densities take values in [-inf, 0] with maximum exactly 0.  The -inf
    entries are sentinels: they are excluded from the max rather than fed
    into floating-point arithmetic.
    """

    space: FiniteTopSpace | MetricSpace
    lam: tuple[float, ...]

    def __post_init__(self):
        if len(self.lam) != len(self.space.points):
            raise InvariantViolation("lambda", "one value per point required")
        finite = [v for v in self.lam if v != NEG_INF]
        if not finite:
            raise InvariantViolation("lambda", "all values are -inf")
        if any(v > 0 for v in finite):
            raise InvariantViolation("lambda", "values must lie in [-inf, 0]")
        if max(finite) != 0.0:
            raise InvariantViolation("lambda", "maximum must be exactly 0")

    @property
    def label(self) -> str:
        return "density(" + ",".join(
            "-inf" if v == NEG_INF else f"{v:g}" for v in self.lam
        ) + ")"

    @cached_property
    def _finite_terms(self) -> tuple[tuple[int, float], ...]:
        return tuple((i, v) for i, v in enumerate(self.lam) if v != NEG_INF)

    def __call__(self, f: RealFunction) -> float:
        vals = f.values
        return max(v + vals[i] for i, v in self._finite_terms)


def density(space, lam: Mapping[str, float | None]) -> IdempotentDensity:
    """Density from a mapping; ``None`` (or -inf) marks excluded points."""
    vals = tuple(
        NEG_INF if lam[p] is None else float(lam[p]) for p in space.points
    )
    return IdempotentDensity(space, vals)


@dataclass(frozen=True)
class MeanFunctional(Functional):
    """Arithmetic mean over all points; fails both lattice-preservation axioms."""

    space: FiniteTopSpace | MetricSpace

    @property
    def label(self) -> str:
        return "mean"

    def __call__(self, f: RealFunction) -> float:
        return sum(f.values) / len(f.values)


@dataclass(frozen=True)
class TableFunctional(Functional):
    """Extension point: values tabulated on enumerated two-valued inputs.

    An input ``f`` must take values in {lo, hi} only; it is looked up by the
    bitmask of its hi-entries.  Anything else raises InvariantViolation, so
    table functionals only support two-valued sweeps (use trials=0).
    """

    space: FiniteTopSpace | MetricSpace
    lo: float
    hi: float
    table: tuple[float, ...]  # indexed by hi-entry bitmask, length 2^n

    def __post_init__(self):
        if len(self.table) != 1 << len(self.space.points):
            raise InvariantViolation("table", "need one value per two-valued pattern")

    @property
    def label(self) -> str:
        return f"table[{self.lo:g},{self.hi:g}]"

    def __call__(self, f: RealFunction) -> float:
        mask = 0
        for i, v in enumerate(f.values):
            if v == self.hi:
                mask |= 1 << i
            elif v != self.lo:
                raise InvariantViolation(
                    "table.domain", f"input value {v!r} is not in {{lo, hi}}"
                )
        return self.table[mask]


@dataclass(frozen=True, eq=False)
class LambdaFunctional(Functional):
    """Wrap an arbitrary evaluator callable.

    Compared and hashed by identity: two wrappers are interchangeable only
    if they are the same object, since the callable is opaque.
    """

    space: FiniteTopSpace | MetricSpace
    fn: Callable[[RealFunction], float]
    label: str = "user"

    def __call__(self, f: RealFunction) -> float:
        return float(self.fn(f))


@dataclass(frozen=True)
class DualFunctional(Functional):
    """nu(f) = -inner(-f)."""

    inner: Functional

    @property
    def space(self):
        return self.inner.space

    @property
    def label(self) -> str:
        return f"dual({self.inner.label})"

    def __call__(self, f: RealFunction) -> float:
        return -self.inner(-f)


def dual(mu: Functional) -> Functional:
    """The order-reversing conjugate nu(f) = -mu(-f).

    An involution; it swaps min-type and max-type behavior.  Support
    functionals are flipped structurally, everything else is wrapped.
    """
    if isinstance(mu, SupportFunctional):
        other: Kind = "max" if mu.kind == "min" else "min"
        return SupportFunctional(mu.space, other, mu.member)
    if isinstance(mu, DualFunctional):
        return mu.inner
    return DualFunctional(mu)


# -- structured input families ---------------------------------------------


class _Memo:
    """Memoized evaluation of a functional on raw value tuples."""

    def __init__(self, mu: Functional):
        self.mu = mu
        self.space = mu.space
        self.cache: dict[tuple[float, ...], float] = {}

    def __call__(self, values: tuple[float, ...]) -> float:
        v = self.cache.get(values)
        if v is None:
            v = self.mu(RealFunction._trusted(self.space, values))
            self.cache[values] = v
        return v


@lru_cache(maxsize=256)
def two_valued_tuples(n: int, lo: float = 0.0, hi: float = 1.0) -> tuple[tuple[float, ...], ...]:
    """All {lo,hi}-valued tuples in bitmask order."""
    return tuple(
        tuple(hi if (m >> i) & 1 else lo for i in range(n)) for m in range(1 << n)
    )


@lru_cache(maxsize=64)
def _base_tuples(n: int) -> tuple[tuple[float, ...], ...]:
    fam = [(0.0,) * n, (1.0,) * n, (-1.0,) * n]
    for i in range(n):
        fam.append(tuple(1.0 if j == i else 0.0 for j in range(n)))
        fam.append(tuple(-1.0 if j == i else 0.0 for j in range(n)))
    return tuple(fam)


@lru_cache(maxsize=64)
def _pair_family(n: int) -> tuple[tuple[float, ...], ...]:
    """Structured inputs, closed under negation.

    Negation closure makes axiom verdicts on a functional and its
    order-reversing dual agree exactly: a violation of a min identity at
    (f, g) mirrors to a violation of the max identity at (-f, -g).
    """
    fam = list(_base_tuples(n))
    if n <= TWO_VALUED_CAP:
        fam += two_valued_tuples(n, 0.0, 1.0)
        fam += two_valued_tuples(n, -1.0, 0.0)
        fam += two_valued_tuples(n, -1.0, 1.0)
    return tuple(dict.fromkeys(fam))


def _pair_grid(n: int):
    """Pairs for the binary lattice identities, as a negation-closed set.

    All pairs within each two-valued block ({0,1}, {-1,0}, {-1,1} patterns)
    are exhausted, plus crosses against the base family; the full cross of
    everything would triple the cost without adding coverage for the
    selection-type functionals this library classifies.
    """
    base = list(dict.fromkeys(_base_tuples(n)))
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


@lru_cache(maxsize=64)
def _weak_family(n: int) -> tuple[tuple[tuple[float, ...], float], ...]:
    """(f, c) pairs for the weak (constant-argument) identities.

    Scaled two-valued functions are included so that clipping constants fall
    strictly between the two values; that is where densities with finite
    negative weights break the weak-min identity.
    """
    pairs = []
    base_cs = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    fams = [(1.0, _pair_family(n))]
    if n <= TWO_VALUED_CAP:
        fams.append((5.0, two_valued_tuples(n, 0.0, 5.0)))
    for scale, fam in fams:
        for f in fam:
            lo, hi = min(f), max(f)
            cs = set(base_cs)
            for t in (0.25, 0.5, 0.8):
                cs.add(lo + t * (hi - lo))
            for c in sorted(cs):
                pairs.append((f, c))
    # negation closure, for exact verdict exchange under duality
    mirrored = [(tuple(-v for v in f), -c) for f, c in pairs]
    return tuple(dict.fromkeys(pairs + mirrored))


def _rand_tuple(rng: np.random.Generator, n: int, amp: float = 2.0) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(-amp, amp, n))


# -- axiom checks -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation: inputs plus both sides of the failed identity."""

    f: tuple[float, ...]
    g: tuple[float, ...] | None
    c: float | None
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witness: AxiomWitness | None = None


def _tmin(a, b):
    return tuple(map(min, a, b))


def _tmax(a, b):
    return tuple(map(max, a, b))


def check_axiom(
    mu: Functional,
    axiom: str,
    trials: int = 64,
    tol: float = 1e-9,
    seed: int = 0,
    family: Sequence[tuple[float, ...]] | None = None,
) -> AxiomReport:
    """Check one identity on a structured sweep plus seeded random inputs.

    The structured sweep (constants, indicators, all two-valued and all
    sign patterns up to 5 points) runs first and deterministically, so any
    witness it finds is reproducible without the seed.  ``family`` replaces
    the structured function family, e.g. to restrict to continuous inputs.
    """
    if axiom not in AXIOMS:
        raise UnknownAxiom(axiom)
    trials = max(0, trials)
    ev = _Memo(mu)
    n = len(mu.space.points)

    if axiom == "normed":
        one = (1.0,) * n
        lhs = ev(one)
        if abs(lhs - 1.0) > tol:
            return AxiomReport(axiom, False, AxiomWitness(one, None, None, lhs, 1.0))
        return AxiomReport(axiom, True)

    rng = np.random.default_rng(seed)

    if axiom == "weakly_additive":
        cases: list[tuple[tuple[float, ...], float]]
        if family is not None:
            base = [(f, c) for f in family for c in (-1.0, 0.5, 1.0, 2.0)]
            cases = base + [(tuple(-v for v in f), -c) for f, c in base]
        else:
            cases = list(_weak_family(n))
        for _ in range(trials):
            f, c = _rand_tuple(rng, n), float(rng.uniform(-5, 5))
            cases.append((f, c))
            cases.append((tuple(-v for v in f), -c))
        for f, c in cases:
            lhs = ev(tuple(v + c for v in f))
            rhs = ev(f) + c
            if abs(lhs - rhs) > tol:
                return AxiomReport(axiom, False, AxiomWitness(f, None, c, lhs, rhs))
        return AxiomReport(axiom, True)

    if axiom in ("preserves_max", "preserves_min"):
        comb = _tmax if axiom == "preserves_max" else _tmin
        agg = max if axiom == "preserves_max" else min

        def violation(f, g):
            lhs = ev(comb(f, g))
            rhs = agg(ev(f), ev(g))
            if abs(lhs - rhs) > tol:
                return AxiomReport(axiom, False, AxiomWitness(f, g, None, lhs, rhs))
            return None

        pairs = (
            itertools.product(family, family) if family is not None else _pair_grid(n)
        )
        for f, g in pairs:
            bad = violation(f, g)
            if bad:
                return bad
        for _ in range(trials):
            f, g = _rand_tuple(rng, n), _rand_tuple(rng, n)
            # test the mirrored pair too, for verdict exchange under duality
            bad = violation(f, g) or violation(
                tuple(-v for v in f), tuple(-v for v in g)
            )
            if bad:
                return bad
        return AxiomReport(axiom, True)

    # weakly_preserves_max / weakly_preserves_min
    comb = _tmax if axiom == "weakly_preserves_max" else _tmin
    agg = max if axiom == "weakly_preserves_max" else min
    if family is not None:
        base = [(f, c) for f in family for c in (-1.0, 0.25, 0.5, 0.8, 1.0, 4.0)]
        cases = base + [(tuple(-v for v in f), -c) for f, c in base]
    else:
        cases = list(_weak_family(n))
    for _ in range(trials):
        f, c = _rand_tuple(rng, n), float(rng.uniform(-5, 5))
        cases.append((f, c))
        cases.append((tuple(-v for v in f), -c))
    for f, c in cases:
        lhs = ev(comb(f, (c,) * n))
        rhs = agg(ev(f), c)
        if abs(lhs - rhs) > tol:
            return AxiomReport(axiom, False, AxiomWitness(f, None, c, lhs, rhs))
    return AxiomReport(axiom, True)


def _passes(mu, axioms, trials, tol, seed, family=None) -> bool:
    return all(
        check_axiom(mu, a, trials=trials, tol=tol, seed=seed, family=family).passed
        for a in axioms
    )


def _is_monotone_sampled(mu, tol, trials=32, seed=0) -> bool:
    """Sampled monotonicity: f <= g pointwise implies mu(f) <= mu(g)."""
    ev = _Memo(mu)
    n = len(mu.space.points)
    rng = np.random.default_rng(seed)
    fams = _pair_family(n)
    for f in fams:
        for i in range(n):
            for bump in (0.5, 1.0):
                g = tuple(v + bump if j == i else v for j, v in enumerate(f))
                if ev(f) > ev(g) + tol:
                    return False
    for _ in range(trials):
        f = _rand_tuple(rng, n)
        g = tuple(v + b for v, b in zip(f, rng.uniform(0, 2, n)))
        if ev(f) > ev(g) + tol:
            return False
    return True


# -- support ----------------------------------------------------------------


_PROBE_SCALES = (1.0, 10.0, 100.0)


def _probe_class_support(ev: _Memo, n: int, kind: Kind, tol: float) -> int:
    """Candidate support from single-point indicator probes.

    For a genuine min-type (max-type) functional the probe with a negative
    (positive) spike at x fires exactly when x belongs to the support.
    """
    zero = ev((0.0,) * n)
    mask = 0
    for i in range(n):
        for s in _PROBE_SCALES:
            spike = -s if kind == "min" else s
            f = tuple(spike if j == i else 0.0 for j in range(n))
            if abs(ev(f) - zero) > tol:
                mask |= 1 << i
                break
    return mask


@lru_cache(maxsize=64)
def _verify_family(n: int) -> tuple[tuple[float, ...], ...]:
    """Structured inputs on which a proposed formula for a functional is checked."""
    fam = _pair_family(n)
    if n <= TWO_VALUED_CAP:
        fam += two_valued_tuples(n, 0.0, 5.0)
    return tuple(dict.fromkeys(fam))


def _reproduces(ev: _Memo, formula, n: int, tol: float, budget: int, rng) -> bool:
    """Check mu(f) == formula(f) on the structured family plus random f."""
    for f in _verify_family(n):
        if abs(ev(f) - formula(f)) > tol:
            return False
    for _ in range(budget):
        f = _rand_tuple(rng, n, amp=5.0)
        if abs(ev(f) - formula(f)) > tol:
            return False
    return True


def _verify_kind(
    ev: _Memo, n: int, kind: Kind, mask: int, tol: float, budget: int, rng
) -> bool:
    """Check mu(f) == min/max of f over ``mask`` on structured plus random f."""
    if mask == 0:
        return False
    idx = tuple(_bits(mask))
    agg = min if kind == "min" else max
    return _reproduces(ev, lambda f: agg(f[i] for i in idx), n, tol, budget, rng)


def support(
    mu: Functional, budget: int = 200, tol: float = 1e-9, seed: int = 0
) -> frozenset[str]:
    """Points where the functional is sensitive to local changes.

    A point x belongs to the support when two inputs that agree everywhere
    except at x separate the functional.  Min/max-type functionals take a
    fast certified route: indicator probes propose the support and the
    min/max formula over it is then verified; if that verification fails
    and the generic sweeps found no witness either, the result would be
    unfounded and BudgetExhaustedInconclusive is raised.
    """
    space = mu.space
    n = len(space.points)
    ev = _Memo(mu)
    rng = np.random.default_rng(seed)

    quick = 8
    kind: Kind | None = None
    if _passes(mu, MIN_CLASS_AXIOMS, quick, tol, seed):
        kind = "min"
    elif _passes(mu, MAX_CLASS_AXIOMS, quick, tol, seed):
        kind = "max"

    if kind is not None:
        mask = _probe_class_support(ev, n, kind, tol)
        if mask and _verify_kind(ev, n, kind, mask, tol, min(budget, 64), rng):
            return space.subset(mask)
        # fall through to the generic sweep; a failed verification means the
        # probe route cannot certify absence from the support

    found = 0
    zero = ev((0.0,) * n)
    sweep_grid = (-25.0, -5.0, -1.0, 1.0, 5.0, 25.0)
    fam = _base_tuples(n)
    if n <= 4:
        fam = fam + two_valued_tuples(n, 0.0, 1.0)
    fam = list(dict.fromkeys(fam))

    for i in range(n):
        hit = False
        for s in _PROBE_SCALES:
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
                f = _rand_tuple(rng, n)
                g = tuple(
                    f[i] + float(rng.uniform(-10, 10)) if j == i else f[j]
                    for j in range(n)
                )
                if abs(ev(f) - ev(g)) > tol:
                    hit = True
                    break
        if hit:
            found |= 1 << i

    if kind is not None and not _verify_kind(ev, n, kind, found, tol, min(budget, 64), rng):
        raise BudgetExhaustedInconclusive(
            "functional looks min/max-type on samples but no support set "
            "reproduces it; absence witnesses would be unfounded"
        )
    return space.subset(found)


# -- essential sets (the separation family) ---------------------------------


@dataclass(frozen=True)
class SubsetFamily:
    """A distinguished family of subsets of a space."""

    space: FiniteTopSpace
    members: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise InvariantViolation("members", "duplicate member subsets")
        full = self.space.full_mask
        if any(m & ~full for m in self.members):
            raise InvariantViolation("members", "member outside the space")

    def subsets(self) -> tuple[frozenset[str], ...]:
        return tuple(self.space.subset(m) for m in self.members)

    def __contains__(self, subset) -> bool:
        return self.space.mask(subset) in set(self.members)


@lru_cache(maxsize=8192)
def _essential_precheck_failures(mu, tol) -> tuple[str, ...]:
    failures = [
        a
        for a in ("normed", "weakly_additive")
        if not check_axiom(mu, a, trials=16, tol=tol, seed=0).passed
    ]
    if not _is_monotone_sampled(mu, tol, seed=0):
        failures.append("monotone")
    return tuple(failures)


def _essential_precheck(mu, tol, seed=0):
    failures = _essential_precheck_failures(mu, tol)
    if failures:
        raise AxiomPrecheckFailed(
            "essential-set test needs normed, weakly additive, monotone; "
            f"failing: {', '.join(failures)}"
        )


@lru_cache(maxsize=8192)
def _weakly_preserving_failures(mu, tol) -> tuple[str, ...]:
    return tuple(
        a
        for a in ("weakly_preserves_max", "weakly_preserves_min")
        if not check_axiom(mu, a, trials=16, tol=tol).passed
    )


def _pinned_candidates(space: FiniteTopSpace):
    """Test functions pinned at -1 near some open set, zero far away.

    Yields (values, anchor) pairs where ``anchor`` is the largest open set
    U with closure(U) inside the -1 region; a candidate is admissible for a
    set A exactly when A is contained in its anchor.  Values range over the
    grid {-1, -1/2, 0}; the grid is complete for min/max-type functionals
    because those only compare input values against 0 and each other.
    """
    n = space.n
    # anchor of a -1 region V: union of minimal neighborhoods whose closure
    # stays inside V
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


def _essential_pool(mu, tol, budget, seed) -> list[tuple[int, bool]]:
    """Evaluate every pinned candidate once: (anchor, separated-from-zero).

    A candidate counts as separated when the grid function and a few random
    refinements of it all evaluate away from zero.  The pool is reused for
    every queried subset, since admissibility only depends on the anchor.
    """
    space = mu.space
    ev = _Memo(mu)
    rng = np.random.default_rng(seed)
    grid = list(_pinned_candidates(space))
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
    return pool


def is_essential(
    mu: Functional,
    A,
    tol: float = 1e-9,
    budget: int = 64,
    seed: int = 0,
) -> bool:
    """Membership of A in the separation family of the functional.

    A is essential when every admissible test function (equal to -1 on a
    closed neighborhood of A, zero outside an open neighborhood, values in
    [-1,0]) is separated from zero by the functional.  The grid candidates
    are swept first, then ``budget`` random refinements.
    """
    space = mu.space
    if not isinstance(space, FiniteTopSpace):
        raise SpaceMismatch("essential-set tests need a topological space")
    amask = space.mask(A)
    if amask == 0:
        raise EmptySet("essential-set test needs a nonempty subset")
    _essential_precheck(mu, tol, seed)
    pool = _essential_pool(mu, tol, budget, seed)
    return all(sep for anchor, sep in pool if not (amask & ~anchor))


def essential_family(
    mu: Functional, tol: float = 1e-9, budget: int = 64, seed: int = 0
) -> SubsetFamily:
    """All nonempty essential subsets, smallest bitmask first."""
    space = mu.space
    if space.n > 12:
        raise TooLarge("essential-family enumeration needs |points| <= 12")
    _essential_precheck(mu, tol, seed)
    pool = _essential_pool(mu, tol, budget, seed)
    members = []
    for m in range(1, space.full_mask + 1):
        if all(sep for anchor, sep in pool if not (m & ~anchor)):
            members.append(m)
    return SubsetFamily(space, tuple(members))


def infsup_reconstruct(
    mu: Functional,
    f: RealFunction,
    family: SubsetFamily | None = None,
    tol: float = 1e-9,
) -> float:
    """Rebuild mu(f) as inf over essential sets of the sup of f on the set.

    Valid for normed, monotone, weakly additive functionals that weakly
    preserve both max and min; those prechecks run first.  Pass a
    precomputed ``family`` when evaluating many functions of one mu.
    """
    space = mu.space
    if space.n > 12:
        raise TooLarge("reconstruction needs |points| <= 12")
    _essential_precheck(mu, tol)
    weak_failures = _weakly_preserving_failures(mu, tol)
    if weak_failures:
        raise AxiomPrecheckFailed(f"reconstruction needs {', '.join(weak_failures)}")
    if family is None:
        family = essential_family(mu, tol=tol)
    if not family.members:
        raise BudgetExhaustedInconclusive("no essential sets found")
    vals = f.values
    return min(max(vals[i] for i in _bits(m)) for m in family.members)


def agreement_family(
    mu: Functional, tol: float = 1e-9, budget: int = 64, seed: int = 0
) -> SubsetFamily:
    """Subsets A such that inputs agreeing on A get equal values (sampled).

    Swept over pairs from the structured two-valued family that agree on A,
    plus random off-A perturbations.  The intersection of all members
    recovers the support for normed weakly additive monotone functionals.
    """
    space = mu.space
    if space.n > 10:
        raise TooLarge("agreement-family enumeration needs |points| <= 10")
    n = space.n
    ev = _Memo(mu)
    rng = np.random.default_rng(seed)
    fam = _pair_family(n)
    members = []
    for m in range(1, space.full_mask + 1):
        good = True
        for f, g in itertools.combinations(fam, 2):
            if all((m >> i) & 1 == 0 or f[i] == g[i] for i in range(n)):
                if abs(ev(f) - ev(g)) > tol:
                    good = False
                    break
        if good:
            for _ in range(budget):
                f = _rand_tuple(rng, n)
                g = tuple(
                    v if (m >> i) & 1 else v + float(rng.uniform(-5, 5))
                    for i, v in enumerate(f)
                )
                if abs(ev(f) - ev(g)) > tol:
                    good = False
                    break
        if good:
            members.append(m)
    return SubsetFamily(space, tuple(members))


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of classify: the class plus its witnessing data."""

    kind: Literal["R_min", "R_max", "idempotent_measure", "none"]
    support: frozenset[str] | None = None
    density: IdempotentDensity | None = None
    axiom_reports: dict[str, AxiomReport] = field(default_factory=dict, compare=False)


_DENSITY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)


def _extract_density(ev: _Memo, space, tol: float) -> tuple[float, ...]:
    """Per-point weights from spike inputs; -inf when the spike never lands."""
    n = len(space.points)
    zero = ev((0.0,) * n)
    lam = []
    for i in range(n):
        ds = []
        for c in _DENSITY_SCHEDULE:
            f = tuple(c if j == i else 0.0 for j in range(n))
            ds.append(ev(f) - c - zero)
        val = None
        for k in range(len(ds) - 1):
            if abs(ds[k] - ds[k + 1]) <= tol:
                val = ds[k + 1]
                break
        if val is None:
            drops = [
                abs((ds[k + 1] - ds[k]) + (_DENSITY_SCHEDULE[k + 1] - _DENSITY_SCHEDULE[k]))
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


def classify(
    mu: Functional, budget: int = 64, tol: float = 1e-9, seed: int = 0
) -> Classification:
    """Sort a functional into min-type, max-type, idempotent measure, or none.

    Axiom checks run first; when the min-type (max-type) set holds, the
    support is proposed by indicator probes and the min (max) formula over
    it is verified on structured plus random inputs.  When only the
    max-preservation axioms hold, a density is extracted from spike probes
    and verified the same way.  A sampled class that fails verification is
    reported as BudgetExhaustedInconclusive rather than guessed.
    """
    space = mu.space
    n = len(space.points)
    ev = _Memo(mu)
    rng = np.random.default_rng(seed)
    reports = {a: check_axiom(mu, a, trials=min(budget, 32), tol=tol, seed=seed) for a in AXIOMS}

    for kind, axioms, label in (
        ("min", MIN_CLASS_AXIOMS, "R_min"),
        ("max", MAX_CLASS_AXIOMS, "R_max"),
    ):
        if all(reports[a].passed for a in axioms):
            mask = _probe_class_support(ev, n, kind, tol)
            if mask and _verify_kind(ev, n, kind, mask, tol, budget, rng):
                return Classification(label, support=space.subset(mask), axiom_reports=reports)
            raise BudgetExhaustedInconclusive(
                f"passes the {label} axioms on samples but the {kind}-over-support "
                "formula does not verify"
            )

    if all(reports[a].passed for a in ("normed", "weakly_additive", "preserves_max")):
        lam = _extract_density(ev, space, tol)
        cand = IdempotentDensity(space, lam)
        if not _reproduces(
            ev, lambda f: cand(RealFunction._trusted(space, f)), n, tol, budget, rng
        ):
            raise BudgetExhaustedInconclusive(
                "passes the idempotent-measure axioms on samples but the "
                "extracted density does not reproduce the functional"
            )
        return Classification("idempotent_measure", density=cand, axiom_reports=reports)

    return Classification("none", axiom_reports=reports)

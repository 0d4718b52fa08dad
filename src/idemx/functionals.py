"""Functionals on finite function spaces.

The objects here are evaluators ``mu`` sending a real-valued function on a
finite space to a real number.  The toolkit checks which lattice/translation
identities a functional satisfies (normed, weakly additive, preserving or
weakly preserving min/max), locates its support by perturbation witnesses,
reconstructs it from its family of essential sets, and classifies it as a
min-type functional, a max-type functional, an idempotent measure, or none.
"""

from __future__ import annotations

import math
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


def _fold(kind: Kind, arrays) -> np.ndarray:
    """Elementwise min or max across ``arrays``, taken in order.

    Ties keep the earlier value, as Python's min and max do; that only
    shows in the sign of a zero.
    """
    it = iter(arrays)
    out = np.array(next(it), dtype=float)
    for a in it:
        out = np.where(a < out, a, out) if kind == "min" else np.where(a > out, a, out)
    return out


# -- functionals -----------------------------------------------------------


def _check_space(mu, f: RealFunction) -> None:
    if f.space != mu.space:
        raise SpaceMismatch("the function must live on the functional's space")


class Functional:
    """Deterministic evaluator from RealFunction to a real number.

    Each class evaluates a whole k x n array of inputs, one per row, in
    ``eval_batch``; calling the functional on one RealFunction evaluates a
    one-row array.
    """

    space: FiniteTopSpace | MetricSpace
    label: str = ""

    def __call__(self, f: RealFunction) -> float:
        _check_space(self, f)
        return float(self.eval_batch(np.array([f.values], dtype=float))[0])

    def eval_batch(self, A: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
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

    @property
    def label(self) -> str:
        pts = ",".join(self.space.points[i] for i in self._indices)
        return f"{self.kind} over {{{pts}}}"

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        return _fold(self.kind, (A[:, i] for i in self._indices))


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

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        return _fold("max", (A[:, i] + v for i, v in enumerate(self.lam) if v != NEG_INF))


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

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        # summed point by point, in the order of Python's sum over a tuple;
        # A.sum(axis=1) adds in another order from 8 points on
        total = np.zeros(len(A))
        for i in range(A.shape[1]):
            total = total + A[:, i]
        return total / A.shape[1]


@dataclass(frozen=True)
class TableFunctional(Functional):
    """Extension point: values tabulated on enumerated two-valued inputs.

    An input ``f`` must take values in {lo, hi} only; it is looked up by the
    bitmask of its hi-entries.  Anything else raises InvariantViolation.
    The structured sweeps of ``classify``, ``support`` and most axioms
    evaluate other inputs, so check a table through ``check_axiom`` with
    ``trials=0`` and ``family=two_valued_tuples(n, lo, hi)``; only
    ``normed`` works without a family.
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

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        hi = A == self.hi
        outside = ~hi & (A != self.lo)
        if outside.any():
            raise InvariantViolation(
                "table.domain", f"input value {float(A[outside][0])!r} is not in {{lo, hi}}"
            )
        return np.array(self.table, dtype=float)[hi @ (1 << np.arange(A.shape[1]))]


@dataclass(frozen=True, eq=False)
class LambdaFunctional(Functional):
    """Wrap an arbitrary evaluator callable.

    Compared and hashed by identity: two wrappers are interchangeable only
    if they are the same object, since the callable is opaque.  For the same
    reason it is the one class that evaluates a batch row by row.
    """

    space: FiniteTopSpace | MetricSpace
    fn: Callable[[RealFunction], float]
    label: str = "user"

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        return np.array(
            [float(self.fn(RealFunction(self.space, tuple(row)))) for row in A.tolist()],
            dtype=float,
        )


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

    def eval_batch(self, A: np.ndarray) -> np.ndarray:
        return -self.inner.eval_batch(-A)


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
#
# Families are read-only k x n arrays, one row per input, built once per n
# in the order the checks visit them.


def _array(rows, n: int) -> np.ndarray:
    a = np.array(rows, dtype=float).reshape(-1, n)
    a.flags.writeable = False
    return a


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of all pairs (a[i], b[j]), in itertools.product order."""
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


def _mirrored(a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` followed by its negation."""
    return np.stack([a, -a], axis=1).reshape(-1, *a.shape[1:])


def _spikes(n: int, values) -> np.ndarray:
    """Row i * len(values) + k is values[k] at point i and 0 elsewhere."""
    rows = np.zeros((n, len(values), n))
    idx = np.arange(n)
    rows[idx, :, idx] = values
    return rows.reshape(-1, n)


@lru_cache(maxsize=256)
def _two_valued(n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """All {lo,hi}-valued rows in bitmask order: row m is hi at point i when bit i of m is set."""
    a = np.where((np.arange(1 << n)[:, None] >> np.arange(n)) & 1, hi, lo).astype(float)
    a.flags.writeable = False
    return a


def two_valued_tuples(n: int, lo: float = 0.0, hi: float = 1.0) -> tuple[tuple[float, ...], ...]:
    """All {lo,hi}-valued tuples in bitmask order."""
    return tuple(map(tuple, _two_valued(n, lo, hi).tolist()))


def _blocks(n: int, *patterns: tuple[float, float]) -> list[np.ndarray]:
    """The two-valued block of each (lo, hi) pattern, in order; none above
    ``TWO_VALUED_CAP`` points, where a block's 2^n rows stop paying."""
    if n > TWO_VALUED_CAP:
        return []
    return [_two_valued(n, lo, hi) for lo, hi in patterns]


def _distinct(*blocks: np.ndarray) -> np.ndarray:
    """The rows of the blocks, in order, each kept where it first occurs.

    Rows are compared as tuples: -0.0 equals 0.0, and the first of two such
    rows keeps its own sign of zero.
    """
    rows = np.concatenate(blocks)
    first = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first.setdefault(row, i)
    return _array(rows[list(first.values())], rows.shape[1])


def _base(n: int) -> np.ndarray:
    """The constants 0, 1 and -1, then a +1 and a -1 spike at each point."""
    return np.concatenate([np.outer((0.0, 1.0, -1.0), np.ones(n)), _spikes(n, (1.0, -1.0))])


@lru_cache(maxsize=64)
def _pair_family(n: int) -> np.ndarray:
    """Structured inputs, closed under negation: the base rows and the
    {0,1}, {-1,0} and {-1,1} blocks, each distinct row once.

    Negation closure makes axiom verdicts on a functional and its
    order-reversing dual agree exactly: a violation of a min identity at
    (f, g) mirrors to a violation of the max identity at (-f, -g).
    """
    return _distinct(_base(n), *_blocks(n, (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)))


@lru_cache(maxsize=64)
def _pair_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs for the binary lattice identities, as a negation-closed set.

    All pairs within each two-valued block ({0,1}, {-1,0}, {-1,1} patterns)
    are exhausted, plus crosses against the base family; the full cross of
    everything would triple the cost without adding coverage for the
    selection-type functionals this library classifies.
    """
    base = _distinct(_base(n))
    parts = [(base, base)]
    for block in _blocks(n, (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)):
        parts += [(block, block), (base, block), (block, base)]
    F, G = zip(*(_product(a, b) for a, b in parts))
    return _array(np.concatenate(F), n), _array(np.concatenate(G), n)


@lru_cache(maxsize=64)
def _verify_family(n: int) -> np.ndarray:
    """Structured inputs on which a proposed formula for a functional is
    checked: ``_pair_family`` and the {0,5} block, each distinct row once."""
    return _distinct(_pair_family(n), *_blocks(n, (0.0, 5.0)))


@lru_cache(maxsize=64)
def _weak_family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, c) rows for the weak (constant-argument) identities: each row f
    of ``_verify_family`` with its constants c, then the negated rows.

    The scaled {0,5} rows are included so that clipping constants fall
    strictly between the two values; that is where densities with finite
    negative weights break the weak-min identity.
    """
    rows = []
    for f in _verify_family(n).tolist():
        lo, hi = min(f), max(f)
        cs = {-1.0, -0.5, 0.0, 0.5, 1.0, 2.0} | {lo + t * (hi - lo) for t in (0.25, 0.5, 0.8)}
        rows += [f + [c] for c in sorted(cs)]
    rows = np.array(rows)
    # negation closure, for exact verdict exchange under duality
    rows = _distinct(rows, -rows)
    return rows[:, :n], rows[:, n]


def _passes_sampled(rng, low, high, trials: int, failing) -> bool:
    """Whether none of ``trials`` sampled rows fails.

    Trial t draws one row of uniform(low, high) values, ``low`` and ``high``
    giving the bounds column by column, as a loop that draws one trial at a
    time draws them.  The rows are drawn and tested as one block; after a
    failure the generator is rewound to where a loop that stopped at the
    first failing trial would have left it, since callers draw from it again.
    """
    state = rng.bit_generator.state
    rows = rng.uniform(low, high, (trials, len(low)))
    bad = np.flatnonzero(failing(rows))
    if not len(bad):
        return True
    rng.bit_generator.state = state
    rng.uniform(low, high, (bad[0] + 1, len(low)))
    return False


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


def _first_violations(axiom, lhs, rhs, tol, F, G=None, C=None) -> list[AxiomReport]:
    """Per column of the k x m sides, the first row where they differ by more than tol."""
    bad = np.abs(lhs - rhs) > tol
    if not bad.any():
        return [AxiomReport(axiom, True)] * bad.shape[1]
    rows = bad.argmax(axis=0)  # each column's first violation, or row 0 where it has none
    at = rows, np.arange(bad.shape[1])
    rhs = np.broadcast_to(rhs, lhs.shape)
    sides = zip(rows.tolist(), bad[at].tolist(), lhs[at].tolist(), rhs[at].tolist())
    return [
        AxiomReport(axiom, False, AxiomWitness(
            tuple(F[i].tolist()),
            None if G is None else tuple(G[i].tolist()),
            None if C is None else float(C[i]),
            lv,
            rv,
        )) if failing else AxiomReport(axiom, True)
        for i, failing, lv, rv in sides
    ]


def _axiom_sweep(ev, n, axioms, trials, tol, seed, family) -> dict[str, list[AxiomReport]]:
    """Check identities for the m functionals whose values on a k x n array
    of inputs are the k x m array ``ev(A)``; one report per column.

    Each input block is built once and each distinct block evaluated once,
    in ``AXIOMS`` order, each identity's left-hand side before the blocks it
    shares: both lattice identities share the pairs (F, G) and their values
    (with a ``family`` and no random rows, gathered from one evaluation of
    its rows), and the weak identities share the rows (F, c) and the values
    of F (on a ``family``, additivity has constants of its own).  The random
    rows of either group come from a fresh ``default_rng(seed)``, as each
    identity drew them alone, so a witness is the first violating row of the
    identity's own block.
    """
    trials = max(0, trials)
    fam = None if family is None else _array(family, n)
    memo = {}

    def once(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def pair_block():
        F, G = _pair_grid(n) if fam is None else _product(fam, fam)
        if not trials:
            return F, G
        R = np.random.default_rng(seed).uniform(-2.0, 2.0, (trials, 2, n))
        # each random pair is followed by its mirror, for verdict exchange
        # under duality
        return np.concatenate([F, _mirrored(R[:, 0])]), np.concatenate([G, _mirrored(R[:, 1])])

    def pair_values():  # the values of F and of G
        F, G = once("pairs", pair_block)
        if fam is None or trials:
            return ev(F), ev(G)
        V = ev(fam)  # F and G are the family's products: evaluate its rows once and gather
        return _product(V, V)

    def weak_block(cs):
        if cs is None:
            F, C = _weak_family(n)
        else:
            F, C = np.repeat(fam, len(cs), axis=0), np.tile(cs, len(fam))
            F, C = np.concatenate([F, -F]), np.concatenate([C, -C])
        if not trials:
            return F, C
        high = np.full(n + 1, 2.0)
        high[n] = 5.0  # the constant's range
        R = np.random.default_rng(seed).uniform(-high, high, (trials, n + 1))
        return np.concatenate([F, _mirrored(R[:, :n])]), np.concatenate([C, _mirrored(R[:, n])])

    reports = {}
    for axiom in AXIOMS:
        if axiom not in axioms:
            continue
        kind = axiom[-3:]
        if axiom == "normed":
            one = np.ones((1, n))
            reports[axiom] = _first_violations(axiom, ev(one), 1.0, tol, one)
        elif axiom in ("preserves_max", "preserves_min"):
            F, G = once("pairs", pair_block)
            lhs = ev(_fold(kind, (F, G)))
            rhs = _fold(kind, once("FG", pair_values))
            reports[axiom] = _first_violations(axiom, lhs, rhs, tol, F, G)
        else:
            cs = None if fam is None else (-1.0, 0.5, 1.0, 2.0) if axiom == "weakly_additive" else (
                -1.0, 0.25, 0.5, 0.8, 1.0, 4.0
            )
            F, C = once(("weak", cs), lambda: weak_block(cs))
            c = C[:, None]
            lhs = ev(F + c) if axiom == "weakly_additive" else ev(_fold(kind, (F, c)))
            values = once(("weak F", cs), lambda: ev(F))
            rhs = values + c if axiom == "weakly_additive" else _fold(kind, (values, c))
            reports[axiom] = _first_violations(axiom, lhs, rhs, tol, F, C=C)
    return {a: reports[a] for a in axioms}


def _class_kind(reports: Mapping[str, AxiomReport]) -> Kind | None:
    """"min" when the min-type identities hold, else "max" when the max-type
    ones do, else None."""
    for kind, axioms in (("min", MIN_CLASS_AXIOMS), ("max", MAX_CLASS_AXIOMS)):
        if all(reports[a].passed for a in axioms):
            return kind
    return None


def _columns(mu: Functional):  # mu's values as a k x 1 array, for the sweeps
    return lambda A: mu.eval_batch(A)[:, None]


def check_axioms(
    mu: Functional,
    axioms: Sequence[str] = AXIOMS,
    trials: int = 64,
    tol: float = 1e-9,
    seed: int = 0,
    family: Sequence[tuple[float, ...]] | None = None,
) -> dict[str, AxiomReport]:
    """Check identities on a structured sweep plus seeded random inputs.

    The structured sweep (constants, indicators, all two-valued and all
    sign patterns up to 5 points) comes first and is deterministic, so any
    witness it finds is reproducible without the seed.  ``family`` replaces
    the structured function family, e.g. to restrict to continuous inputs.
    The identities share their input blocks: the two lattice identities
    evaluate one set of pairs (F, G) and differ only in the fold, and the
    weak identities evaluate one set of rows (f, c) and differ only in the
    left-hand side.  Each distinct block is evaluated once, as one batch;
    the witness of an identity is the first violation in its own sweep
    order, the same as when it is checked alone.
    """
    unknown = [a for a in axioms if a not in AXIOMS]
    if unknown:
        raise UnknownAxiom(unknown[0])
    sweep = _axiom_sweep(_columns(mu), len(mu.space.points), axioms, trials, tol, seed, family)
    return {a: reps[0] for a, reps in sweep.items()}


def check_axiom(
    mu: Functional,
    axiom: str,
    trials: int = 64,
    tol: float = 1e-9,
    seed: int = 0,
    family: Sequence[tuple[float, ...]] | None = None,
) -> AxiomReport:
    """Check one identity: the one-axiom case of ``check_axioms``, which
    builds and evaluates that identity's blocks only."""
    return check_axioms(mu, (axiom,), trials, tol, seed, family)[axiom]


def _is_monotone_sampled(mu, tol, trials=32, seed=0) -> bool:
    """Sampled monotonicity: f <= g pointwise implies mu(f) <= mu(g)."""
    n = len(mu.space.points)
    rng = np.random.default_rng(seed)
    # each structured input below itself raised at one point
    F, bump = _product(_pair_family(n), _spikes(n, (0.5, 1.0)))
    R = rng.uniform(np.r_[np.full(n, -2.0), np.zeros(n)], 2.0, (trials, 2 * n))
    f = np.concatenate([F, R[:, :n]])
    g = np.concatenate([F + bump, R[:, :n] + R[:, n:]])
    return not (mu.eval_batch(f) > mu.eval_batch(g) + tol).any()


# -- support ----------------------------------------------------------------


_PROBE_SCALES = (1.0, 10.0, 100.0)


def _probe_supports(ev, n: int, kind: Kind, tol: float) -> list[int]:
    """Candidate supports from single-point indicator probes, one per column
    of ``ev``'s k x m values.

    For a genuine min-type (max-type) functional the probe with a negative
    (positive) spike at x fires exactly when x belongs to the support.
    """
    spike = [-s if kind == "min" else s for s in _PROBE_SCALES]
    vals = ev(np.concatenate([np.zeros((1, n)), _spikes(n, spike)]))
    fired = (np.abs(vals[1:] - vals[0]) > tol).reshape(n, len(spike), -1).any(axis=1)
    return (fired.T.astype(np.int64) @ (1 << np.arange(n))).tolist()


def _reproduces(mu: Functional, formula, tol: float, budget: int, rng) -> bool:
    """Check mu(f) == formula(f) on the structured family plus random f.

    ``formula`` evaluates a batch, like ``Functional.eval_batch``.
    """
    n = len(mu.space.points)
    fam = _verify_family(n)
    if (np.abs(mu.eval_batch(fam) - formula(fam)) > tol).any():
        return False
    return _passes_sampled(
        rng, np.full(n, -5.0), np.full(n, 5.0), budget,
        lambda R: np.abs(mu.eval_batch(R) - formula(R)) > tol,
    )


def _verify_kind(mu: Functional, kind: Kind, mask: int, tol: float, budget: int, rng) -> bool:
    """Check mu(f) == min/max of f over ``mask`` on structured plus random f."""
    if mask == 0:
        return False
    formula = SupportFunctional(mu.space, kind, mask).eval_batch
    return _reproduces(mu, formula, tol, budget, rng)


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
    ev = mu.eval_batch
    rng = np.random.default_rng(seed)

    kind = _class_kind(check_axioms(mu, AXIOMS, trials=8, tol=tol, seed=seed))
    if kind is not None:
        mask = _probe_supports(_columns(mu), n, kind, tol)[0]
        if _verify_kind(mu, kind, mask, tol, min(budget, 64), rng):
            return space.subset(mask)
        # fall through to the generic sweep; a failed verification means the
        # probe route cannot certify absence from the support
    zero = ev(np.zeros((1, n)))[0]
    probes = [sign * s for s in _PROBE_SCALES for sign in (-1.0, 1.0)]
    probes = _spikes(n, probes).reshape(n, len(probes), n)
    sweep_grid = (-25.0, -5.0, -1.0, 1.0, 5.0, 25.0)
    # the base rows, and the {0,1} block up to 4 points only
    fam = _distinct(_base(n), *([_two_valued(n)] if n <= 4 else []))
    # each family input, to be moved along sweep_grid at one point
    swept = np.repeat(fam, len(sweep_grid), axis=0)
    shift = np.tile(sweep_grid, len(fam))
    base = np.repeat(ev(fam), len(sweep_grid))
    low, high = np.r_[np.full(n, -2.0), -10.0], np.r_[np.full(n, 2.0), 10.0]

    found = 0
    for i in range(n):

        def moved(R, i=i):  # the random inputs with a random change at i
            G = R[:, :n].copy()
            G[:, i] += R[:, n]
            return np.abs(ev(R[:, :n]) - ev(G)) > tol

        g = swept.copy()
        g[:, i] += shift
        if (
            (np.abs(ev(probes[i]) - zero) > tol).any()
            or (np.abs(ev(g) - base) > tol).any()
            or not _passes_sampled(rng, low, high, budget, moved)
        ):
            found |= 1 << i

    if kind is not None and not _verify_kind(mu, kind, found, tol, min(budget, 64), rng):
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
    reports = check_axioms(mu, ("normed", "weakly_additive"), trials=16, tol=tol)
    failures = [a for a, rep in reports.items() if not rep.passed]
    if not _is_monotone_sampled(mu, tol, seed=0):
        failures.append("monotone")
    return tuple(failures)


def _essential_precheck(mu, tol) -> None:
    """The space guard and the axiom precheck of every essential-set test."""
    if not isinstance(mu.space, FiniteTopSpace):
        raise SpaceMismatch("essential-set tests need a topological space")
    failures = _essential_precheck_failures(mu, tol)
    if failures:
        raise AxiomPrecheckFailed(
            "essential-set test needs normed, weakly additive, monotone; "
            f"failing: {', '.join(failures)}"
        )


@lru_cache(maxsize=8192)
def _weakly_preserving_failures(mu, tol) -> tuple[str, ...]:
    reports = check_axioms(mu, ("weakly_preserves_max", "weakly_preserves_min"), trials=16, tol=tol)
    return tuple(a for a, rep in reports.items() if not rep.passed)


def _essential_masks(mu, tol) -> np.ndarray:
    """``essential[m]`` for every subset mask m of mu's space.

    The pool holds one extremal test function per region V: -1 on V and 0
    elsewhere, all evaluated in one batch.  Its anchor is the union of the
    minimal neighbourhoods whose closure lies in V; the function is
    admissible for A exactly when A lies in the anchor.  A nonempty A is
    essential when no admissible extremal function evaluates to zero.
    """
    _essential_precheck(mu, tol)
    space = mu.space
    n = space.n
    regions = np.arange(1 << n)
    anchors = np.zeros(1 << n, dtype=np.int64)
    for nbhd in space.min_nbhd:
        cl = space.closure_mask(nbhd)
        anchors[(regions & cl) == cl] |= nbhd
    extremal = np.where((regions[:, None] >> np.arange(n)) & 1, -1.0, 0.0)
    blocked = np.zeros(1 << n, dtype=bool)
    blocked[anchors[np.abs(mu.eval_batch(extremal)) <= tol]] = True
    for i in range(n):  # a subset of a blocked anchor is blocked as well
        halves = blocked.reshape(-1, 2, 1 << i)
        halves[:, 0] |= halves[:, 1]
    blocked[0] = True  # members are nonempty
    return ~blocked


def is_essential(mu: Functional, A, tol: float = 1e-9) -> bool:
    """Membership of A in the separation family of the functional.

    A is essential when every admissible test function (equal to -1 on a
    closed neighborhood of A, zero outside an open neighborhood, values in
    [-1, 0]) is separated from zero by the functional.  It suffices to test
    the extremal functions, -1 on a region and 0 elsewhere: every admissible
    function lies pointwise below the extremal one of its -1 region, which
    is admissible for the same sets.  The precheck asks mu to be normed,
    weakly additive and monotone, so mu(0) = 0 and mu(g) <= mu(extremal) <= 0
    for such a g: a separated extremal function separates every function
    below it.  The answer is exact for functionals that pass the precheck
    because they are monotone, not just on its samples.
    """
    amask = mu.space.mask(A)
    if amask == 0:
        raise EmptySet("essential-set test needs a nonempty subset")
    return bool(_essential_masks(mu, tol)[amask])


def essential_family(mu: Functional, tol: float = 1e-9) -> SubsetFamily:
    """All nonempty essential subsets, smallest bitmask first.

    Decided exactly from the 2^n extremal test functions, -1 on a region and
    0 elsewhere (see ``is_essential``); this relies on the precheck that mu
    is normed, weakly additive and monotone.
    """
    space = mu.space
    if space.n > 12:
        raise TooLarge("essential-family enumeration needs |points| <= 12")
    members = np.flatnonzero(_essential_masks(mu, tol))
    return SubsetFamily(space, tuple(int(m) for m in members))


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
    _check_space(mu, f)
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
    rng = np.random.default_rng(seed)
    fam = _pair_family(n)
    vals = mu.eval_batch(fam)
    I, J = np.triu_indices(len(fam), 1)
    bad = np.abs(vals[I] - vals[J]) > tol
    # a separated pair rules out every A on which its two inputs agree
    differ = (fam[I[bad]] != fam[J[bad]]) @ (1 << np.arange(n))
    members = []
    for m in range(1, space.full_mask + 1):
        off = [i for i in range(n) if not (m >> i) & 1]

        def moved(R, off=off):  # the random inputs with random changes off A
            G = R[:, :n].copy()
            G[:, off] += R[:, n:]
            return np.abs(mu.eval_batch(R[:, :n]) - mu.eval_batch(G)) > tol

        if not ((differ & m) == 0).any() and _passes_sampled(
            rng,
            np.r_[np.full(n, -2.0), np.full(len(off), -5.0)],
            np.r_[np.full(n, 2.0), np.full(len(off), 5.0)],
            budget,
            moved,
        ):
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


def _extract_density(mu: Functional, tol: float) -> tuple[float, ...]:
    """Per-point weights from spike inputs; -inf when the spike never lands."""
    space = mu.space
    n = len(space.points)
    vals = mu.eval_batch(np.concatenate([np.zeros((1, n)), _spikes(n, _DENSITY_SCHEDULE)]))
    spiked = vals[1:].reshape(n, -1) - _DENSITY_SCHEDULE - vals[0]
    lam = []
    for i, ds in enumerate(spiked.tolist()):
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


def _class_supports(ev, n: int, budget: int, tol: float, seed: int):
    """``classify``'s min/max route for each column of ``ev``'s k x m values.

    Returns the axiom reports (a list per axiom, one per column), each
    column's kind (None unless the min- or max-type identities hold) and its
    support mask: 0 unless the min or max over the probed support reproduces
    the column on the structured family plus ``budget`` random inputs.
    """
    reports = _axiom_sweep(ev, n, AXIOMS, min(budget, 32), tol, seed, None)
    kinds = [_class_kind({a: reps[j] for a, reps in reports.items()}) for j in range(len(reports["normed"]))]
    probed = {k: _probe_supports(ev, n, k, tol) for k in ("min", "max") if k in kinds}
    masks = [probed[k][j] if k else 0 for j, k in enumerate(kinds)]
    if any(masks):
        rows = np.concatenate([
            _verify_family(n),
            np.random.default_rng(seed).uniform(np.full(n, -5.0), np.full(n, 5.0), (budget, n)),
        ])
        values = ev(rows)
        for j, (kind, m) in enumerate(zip(kinds, masks)):
            if m and (np.abs(values[:, j] - _fold(kind, (rows[:, i] for i in _bits(m)))) > tol).any():
                masks[j] = 0
    return reports, kinds, masks


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
    reports, (kind,), (mask,) = _class_supports(_columns(mu), space.n, budget, tol, seed)
    reports = {a: reps[0] for a, reps in reports.items()}
    if kind is not None:
        label = f"R_{kind}"
        if mask:
            return Classification(label, support=space.subset(mask), axiom_reports=reports)
        raise BudgetExhaustedInconclusive(
            f"passes the {label} axioms on samples but the {kind}-over-support "
            "formula does not verify"
        )

    if all(reports[a].passed for a in ("normed", "weakly_additive", "preserves_max")):
        cand = IdempotentDensity(space, _extract_density(mu, tol))
        if not _reproduces(mu, cand.eval_batch, tol, budget, np.random.default_rng(seed)):
            raise BudgetExhaustedInconclusive(
                "passes the idempotent-measure axioms on samples but the "
                "extracted density does not reproduce the functional"
            )
        return Classification("idempotent_measure", density=cand, axiom_reports=reports)

    return Classification("none", axiom_reports=reports)

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
from .spaces import FiniteTopSpace, MetricSpace, _at_points, _bits

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


# -- parameter checks -------------------------------------------------------


def _finite_real(x) -> bool:
    """Whether x is a finite real number; a bool is not one."""
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    return real and math.isfinite(x)


def _check_tol(tol) -> None:
    """A tolerance must be a finite real number >= 0."""
    if not (_finite_real(tol) and tol >= 0):
        raise InvariantViolation("tol", f"must be a finite number >= 0, got {tol!r}")


def _check_count(name: str, value) -> None:
    """A trial count, budget or seed must be an integer >= 0."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= 0):
        raise InvariantViolation(name, f"must be an integer >= 0, got {value!r}")


# -- functions on a space -------------------------------------------------


@dataclass(frozen=True)
class RealFunction:
    """One real value per point of a finite space."""

    space: FiniteTopSpace | MetricSpace
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.space.points):
            raise InvariantViolation("values", "length must match the point count")
        try:
            finite = all(math.isfinite(v) for v in self.values)
        except TypeError:  # not a number, such as a string or None
            finite = False
        if not finite:
            raise InvariantViolation("values", "values must be finite numbers")

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
    return RealFunction(space, tuple(float(v) for v in _at_points(space.points, values, "values")))


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
    one-row array; the checks pass read-only arrays, since their inputs are
    shared tables.  The axiom verdicts of ``check_axioms``, ``classify``,
    ``support`` and the essential-set precheck are memoized on the
    functional object itself, per (tol, seed), and a smaller trial count
    reads its verdicts from a sweep at a larger one; this relies on the
    functional being a deterministic evaluator.  No cache is keyed by a
    functional, so one need not be hashable.
    """

    space: FiniteTopSpace | MetricSpace
    label: str = ""

    @cached_property
    def _sweeps(self) -> dict:
        """The memo of ``_memo_reports``, per (tol, seed): for each identity,
        the largest trial count its input group was swept at and its report
        there; and per ("essential", tol) the essential-set precheck's
        failures.  Kept on the object, so equal functionals never share it."""
        return {}

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
        self.space.member(self.member, "member")
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
        if not all(v <= 0 for v in finite):  # NaN is refused here too
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
    weights = _at_points(space.points, lam, "lambda")
    return IdempotentDensity(space, tuple(NEG_INF if v is None else float(v) for v in weights))


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

    ``lo`` and ``hi`` are two distinct finite numbers, and every entry of
    ``table`` is a finite real number.  An input ``f`` must
    take values in {lo, hi} only; it is looked up by the bitmask of its
    hi-entries.  Anything else raises InvariantViolation.
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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo != self.hi):
            raise InvariantViolation("table.range", "lo and hi must be two distinct finite numbers")
        if not all(map(_finite_real, self.table)):
            raise InvariantViolation("table.values", "every entry must be a finite real number")

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
        return np.array(self.table, dtype=float)[_masks_of(hi)]


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


# -- subsets as boolean rows ------------------------------------------------


def _mask_dtype(n: int):
    """What holds a bitmask of n points exactly: int64 below 64 points,
    Python ints (numpy's object dtype) from 64 on."""
    return np.int64 if n < 64 else object


def _rows_of(masks, n: int) -> np.ndarray:
    """The boolean k x n rows of k subset bitmasks: row j holds point i when
    bit i of masks[j] is set.  ``_masks_of`` inverts it."""
    at = np.arange(n, dtype=_mask_dtype(n))
    return ((np.asarray(masks, dtype=at.dtype)[:, None] >> at) & 1).astype(bool)


def _masks_of(rows: np.ndarray):
    """The subset bitmask of each boolean row (the last axis), one mask for
    one row, of ``_mask_dtype``'s type.  ``_rows_of`` inverts it."""
    n = rows.shape[-1]
    return rows @ (1 << np.arange(n, dtype=_mask_dtype(n)))


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
    return np.concatenate([a[:, None], -a[:, None]], axis=1).reshape(-1, *a.shape[1:])


def _spikes(n: int, values) -> np.ndarray:
    """Row i * len(values) + k is values[k] at point i and 0 elsewhere."""
    rows = np.zeros((n, len(values), n))
    idx = np.arange(n)
    rows[idx, :, idx] = values
    return rows.reshape(-1, n)


@lru_cache(maxsize=64)
def _subset_table(n: int) -> np.ndarray:
    """The rows of every subset mask of n points, in mask order, read-only."""
    a = _rows_of(np.arange(1 << n), n)
    a.flags.writeable = False
    return a


def _two_valued(n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """All {lo,hi}-valued rows in bitmask order, read-only: row m is hi at
    point i when bit i of m is set.  Built from ``_subset_table(n)`` on
    each call, so each keeps the caller's own sign of zero."""
    a = np.where(_subset_table(n), float(hi), float(lo))
    a.flags.writeable = False
    return a


def two_valued_tuples(n: int, lo: float = 0.0, hi: float = 1.0) -> tuple[tuple[float, ...], ...]:
    """All {lo,hi}-valued tuples in bitmask order."""
    _check_count("n", n)
    return tuple(map(tuple, _two_valued(n, lo, hi).tolist()))


def _blocks(n: int, *patterns: tuple[float, float]) -> list[np.ndarray]:
    """The two-valued block of each (lo, hi) pattern, in order; none above
    ``TWO_VALUED_CAP`` points, where a block's 2^n rows stop paying."""
    if n > TWO_VALUED_CAP:
        return []
    return [_two_valued(n, lo, hi) for lo, hi in patterns]


def _bit_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a k x n array, compared by exact bits so that
    -0.0 and 0.0 differ, and the id of each row among them: the one
    distinct-rows kernel, behind every family and every sweep layout."""
    bits = np.ascontiguousarray(rows.view(np.uint64).T)
    order = np.lexsort(bits)
    bits = bits.take(order, axis=1)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    count = np.cumsum(new)
    ids = np.empty(len(rows), dtype=np.min_scalar_type(count[-1]))
    ids[order] = count - 1
    return rows[order[new]], ids


def _first_seen(ids: np.ndarray) -> np.ndarray:
    """Where each id first occurs, in ascending order."""
    return np.sort(np.unique(ids, return_index=True)[1])


def _distinct(*blocks: np.ndarray) -> np.ndarray:
    """The rows of the blocks, in order, each kept where it first occurs.

    Rows are compared by value through ``_bit_ids`` of the rows plus 0.0,
    which turns -0.0 into 0.0: -0.0 equals 0.0, and the first of two such
    rows keeps its own sign of zero.
    """
    rows = np.concatenate(blocks)
    return _array(rows[_first_seen(_bit_ids(rows + 0.0)[1])], rows.shape[1])


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


def _weak_family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, c) rows for the weak (constant-argument) identities: each row f
    of ``_verify_family`` with its constants c in ascending order, each
    distinct (f, c) once, then the negated rows.

    The scaled {0,5} rows are included so that clipping constants fall
    strictly between the two values; that is where densities with finite
    negative weights break the weak-min identity.
    """
    fam = _verify_family(n)
    lo, hi = fam.min(axis=1, keepdims=True), fam.max(axis=1, keepdims=True)
    fixed = np.broadcast_to([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (len(fam), 6))
    cuts = lo + np.array([0.25, 0.5, 0.8]) * (hi - lo)
    # stable, so of two equal constants the one a set built in this order keeps comes first
    cs = np.sort(np.hstack([fixed, cuts]), axis=1, kind="stable")
    rows = np.hstack([np.repeat(fam, cs.shape[1], axis=0), cs.reshape(-1, 1)])
    # negation closure, for exact verdict exchange under duality
    rows = _distinct(rows, -rows)
    return rows[:, :n], rows[:, n]


def _continuous_family(space: FiniteTopSpace) -> np.ndarray:
    """Structured continuous functions: constant on each component.

    Row j takes, on the c-th component, the c-th value of the j-th distinct
    row of the constants and the {0,1}, {-1,1} and {0,5} blocks over the
    components.
    """
    k = len(space.components)
    of = [next(c for c, m in enumerate(space.components) if m >> i & 1) for i in range(space.n)]
    return _distinct(_base(k)[:3], *_blocks(k, (0.0, 1.0), (-1.0, 1.0), (0.0, 5.0)))[:, of]


#: Entries kept by the cache of verification tables: one per key of point
#: count, row count and seed.
TABLE_CACHE = 16

#: The most random rows a cached verification table holds.  A larger row
#: count is drawn on each call, so no entry grows with a caller's budget.
TABLE_ROWS = 256


def _verification_rows(n: int, budget: int, rng, bound: float = 5.0) -> np.ndarray:
    """``_verify_family(n)``, then ``budget`` uniform(-bound, bound) rows
    from ``rng``: with bound 5, the rows every proposed formula for a
    functional is checked on."""
    return np.concatenate([_verify_family(n), rng.uniform(-bound, bound, (budget, n))])


def _verification_table(n: int, budget: int, seed: int) -> np.ndarray:
    """``_verification_rows`` from a fresh ``default_rng(seed)``, read-only:
    cached per key up to ``TABLE_ROWS`` random rows, drawn anew above."""
    if budget > TABLE_ROWS:
        return _array(_verification_rows(n, budget, np.random.default_rng(seed)), n)
    return _cached_verification_table(n, budget, seed)


@lru_cache(maxsize=TABLE_CACHE)
def _cached_verification_table(n: int, budget: int, seed: int) -> np.ndarray:
    return _array(_verification_rows(n, budget, np.random.default_rng(seed)), n)


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
    """A concrete violation: inputs plus both sides of the failed identity.

    A sweep also records ``index``, the place of the input in its
    identity's sweep order (structured inputs first, then random ones as
    drawn); it takes no part in comparison or repr.
    """

    f: tuple[float, ...]
    g: tuple[float, ...] | None
    c: float | None
    lhs: float
    rhs: float
    index: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witness: AxiomWitness | None = None


def _first_violations(axiom, lhs, rhs, tol, rows, F, G=None, C=None) -> list[AxiomReport]:
    """Per column of the k x m sides, the first row i where they are not
    within tol of each other (a NaN on either side is not); its inputs are
    ``rows[F[i]]``, ``rows[G[i]]`` and ``C[i]``."""
    bad = ~(np.abs(lhs - rhs) <= tol)
    if not bad.any():
        return [AxiomReport(axiom, True)] * bad.shape[1]
    first = bad.argmax(axis=0)  # each column's first violation, or row 0 where it has none
    at = first, np.arange(bad.shape[1])
    rhs = np.broadcast_to(rhs, lhs.shape)
    sides = zip(first.tolist(), bad[at].tolist(), lhs[at].tolist(), rhs[at].tolist())
    return [
        AxiomReport(axiom, False, AxiomWitness(
            tuple(rows[F[i]].tolist()),
            None if G is None else tuple(rows[G[i]].tolist()),
            None if C is None else float(C[i]),
            lv,
            rv,
            i,
        )) if failing else AxiomReport(axiom, True)
        for i, failing, lv, rv in sides
    ]


#: Entries kept by the cache of sweep layouts, one per (n, seed, trials) key.
SWEEP_CACHE = 4

#: The identities checked on each input group: the constant 1, the pairs
#: (F, G) and the rows (f, c).
_GROUPS = {
    "normed": ("normed",),
    "pairs": ("preserves_max", "preserves_min"),
    "weak": ("weakly_additive", "weakly_preserves_max", "weakly_preserves_min"),
}
_GROUP_OF = {a: group for group, axioms in _GROUPS.items() for a in axioms}
_UNSWEPT = (-1, None)  # the memo's entry for an identity never swept


def _combine(axiom: str, x, y):
    """An identity's operation: x + y for weak additivity, else the max or
    min of x and y, keeping x on ties as ``_fold`` does.  Applied to the
    inputs it gives the left-hand input, to the values of F and to G (or c)
    the right-hand side."""
    if axiom == "weakly_additive":
        return x + y
    return np.where(y < x, y, x) if axiom.endswith("min") else np.where(y > x, y, x)


def _group_sides(group: str, F, other) -> dict:
    """Every side of a group as rows: F (and G), then each identity's
    left-hand input in ``AXIOMS`` order, for the inputs F and G, or F and
    the constants ``other``."""
    sides = {"F": F, "G": other} if group == "pairs" else {"F": F}
    return sides | {a: _combine(a, F, other) for a in _GROUPS[group]}


@lru_cache(maxsize=64)
def _structured_ids(n: int) -> dict:
    """The structured rows of each group of a sweep without a family: the
    pairs of ``_pair_grid`` and the rows (f, c) of ``_weak_family``, with the
    left-hand inputs built from them.  Per group: its distinct rows, compared
    by exact bits, in the order a reading of its sides (``_group_sides``)
    first meets them; each side as ids into them; and the weak rows'
    constants (None for the pairs), all read-only."""
    F, G = _pair_grid(n)
    W, C = _weak_family(n)
    groups = {}
    for group, sides, c in (
        ("pairs", _group_sides("pairs", F, G), None),
        ("weak", _group_sides("weak", W, C[:, None]), C),
    ):
        # each side's distinct rows first, which keeps the temporaries small
        local = [_bit_ids(a) for a in sides.values()]
        distinct, ids = _bit_ids(np.concatenate([r for r, _ in local]))
        starts = np.cumsum([0] + [len(r) for r, _ in local])
        met = [ids[start + i.astype(np.intp)] for start, (_, i) in zip(starts, local)]
        order = np.concatenate(met)
        order = order[_first_seen(order)]  # the distinct ids, as first met
        rank = np.empty(len(order), dtype=ids.dtype)
        rank[order] = np.arange(len(order))
        rows, side_ids = distinct[order], {s: rank[m] for s, m in zip(sides, met)}
        for a in (rows, *side_ids.values()):
            a.flags.writeable = False
        groups[group] = rows, side_ids, c
    return groups


def _random_tail(n: int, seed: int, trials: int) -> dict:
    """The random rows of every sweep at n points, ``seed`` and ``trials``:
    per group, each side's rows and the weak rows' constants (None for the
    pairs), each row followed by its mirror (for verdict exchange under
    duality).  Each group's trials are uniform draws from the head of one
    fresh ``default_rng(seed)`` stream, filled one trial after another:
    for the pairs, F's n values in (-2, 2) then G's; for the weak rows, f's
    n values in (-2, 2) then the constant in (-5, 5).  So the rows of t
    trials are the first 2t of each side of any larger draw.  The stream is
    read once, as ``uniform`` reads it, low + (high - low) U per value, for
    both groups.  All arrays are read-only.  Not cached: drawn once per
    ``_sweep_layout`` entry, and once per family sweep at ``trials`` > 0."""
    U = np.random.default_rng(seed).random(max(2 * n, n + 1) * trials)
    R = -2.0 + 4.0 * U[: 2 * n * trials].reshape(trials, 2, n)
    pairs = _group_sides("pairs", _mirrored(R[:, 0]), _mirrored(R[:, 1]))
    R = U[: (n + 1) * trials].reshape(trials, n + 1)
    C = _mirrored(-5.0 + 10.0 * R[:, n])
    weak = _group_sides("weak", _mirrored(-2.0 + 4.0 * R[:, :n]), C[:, None])
    for a in (*pairs.values(), *weak.values(), C):
        a.flags.writeable = False
    return {"pairs": (pairs, None), "weak": (weak, C)}


def _with_random(rows, idx, C, random, random_C, trials: int):
    """A group's ``rows``, its sides ``idx`` as ids into them and its
    constants ``C``, with the group's random rows and constants (as
    ``_random_tail`` draws them) appended: the 2 x trials rows of each side
    in ``idx`` in turn, and the random constants after ``C``."""
    tail = len(rows) + np.arange(2 * trials)  # the first side's random rows
    idx = {s: np.concatenate([i, tail + k * 2 * trials]) for k, (s, i) in enumerate(idx.items())}
    rows = np.concatenate([rows, *(random[s] for s in idx)])
    return rows, idx, None if C is None else np.concatenate([C, random_C])


@lru_cache(maxsize=SWEEP_CACHE)
def _sweep_layout(n: int, seed: int, trials: int) -> dict:
    """What a sweep without a family evaluates at n points, ``seed`` and
    ``trials`` > 0, per group: the structured rows of ``_structured_ids(n)``
    with the random rows of one ``_random_tail`` draw appended
    (``_with_random``), as one read-only entry."""
    random = _random_tail(n, seed, trials)
    layout = {g: _with_random(*group, *random[g], trials) for g, group in _structured_ids(n).items()}
    for rows, idx, C in layout.values():
        for a in (rows, *idx.values(), *([] if C is None else [C])):
            a.flags.writeable = False
    return layout


def _family_rows(family, n: int, finite: str = "family") -> np.ndarray:
    """A ``family`` as a read-only k x n array, k >= 1, of finite reals; any
    other family is an InvariantViolation, raised before any evaluation,
    at ``finite`` for a value that is not finite."""
    try:
        fam = np.array(family)
    except (TypeError, ValueError):
        fam = np.array(None)
    if fam.dtype.kind not in "iuf":
        raise InvariantViolation("family", "must be a sequence of inputs, each a row of real numbers")
    if not len(fam):
        raise InvariantViolation("family", "must hold at least one input")
    if fam.ndim != 2 or fam.shape[1] != n:
        raise InvariantViolation("family", f"each input must be a row of {n} values, one per point")
    if not np.isfinite(fam).all():
        raise InvariantViolation(finite, "values must be finite")
    fam = fam.astype(float, copy=False)
    fam.flags.writeable = False
    return fam


def _family_group(fam: np.ndarray, group: str, asked, cs):
    """The rows a sweep on a family evaluates for the identities ``asked``
    of a group, laid out as a group's structured rows are but without
    removing repeats: the values that F (and G) gather from, then the
    left-hand inputs of ``asked``.  The pairs are the family's products;
    the weak rows are each row f with each constant c of ``cs``, then the
    negated rows."""
    k = len(fam)
    if group == "pairs":
        values, C, f = fam, None, np.repeat(np.arange(k), k)
        # row i * k + j of a left-hand input combines rows i and j
        lhs = [_combine(a, fam[:, None], fam[None]).reshape(k * k, -1) for a in asked]
        idx = {"F": f, "G": np.tile(np.arange(k), k)}
    else:
        values, f = np.concatenate([fam, -fam]), np.repeat(np.arange(2 * k), len(cs))
        C = np.tile(cs, k)
        C = np.concatenate([C, -C])
        lhs = [_combine(a, values[f], C[:, None]) for a in asked]
        idx = {"F": f}
    starts = np.cumsum([len(values), *map(len, lhs)])
    idx |= {a: start + np.arange(len(block)) for a, start, block in zip(asked, starts, lhs)}
    return np.concatenate([values, *lhs]), idx, C


def _axiom_sweep(ev, n, axioms, trials, tol, seed, family) -> dict[str, list[AxiomReport]]:
    """Check identities for the m functionals whose values on a k x n array
    of inputs are the k x m array ``ev(A)``; one report per column.

    The identities of a group share its inputs and are checked from one
    evaluation of its rows: the lattice identities from the pairs (F, G),
    the weak identities from the rows (f, c) (on a ``family``, additivity
    has constants of its own and so a group of its own).  A group's rows
    are its structured rows, then its random rows; each side of each
    identity (its left-hand input, F and G) is an index array into them, so
    the values of both sides are gathers from that one evaluation, and a
    witness is the identity's first violating input, in the order of its
    own side.  With ``normed`` a full sweep without a family makes three
    ``ev`` calls.

    Without a family a group's rows depend on n, the seed and ``trials``
    only, never on the identities asked, so a sweep of one identity
    evaluates its whole group, and reads it whole from a per-n table: the
    structured rows are each distinct row once, compared by exact bits, as
    F, G and the left-hand inputs in ``AXIOMS`` order first meet it
    (``_structured_ids``, per n); the random rows, 2 x ``trials`` per side,
    each row followed by its mirror, follow side by side in the same order
    without removing repeats (``_sweep_layout``, per (n, seed, trials), in
    ``SWEEP_CACHE`` entries with the least recently used going first).
    A family lays out its own rows on each call, for the identities asked
    only, and appends the random rows of those sides, drawn anew once per
    call at ``trials`` > 0 (``_random_tail``, the same rows a layout
    appends).
    """
    fam = None if family is None else _family_rows(family, n)
    reports = {}
    if "normed" in axioms:
        one = np.ones((1, n))
        reports["normed"] = _first_violations("normed", ev(one), 1.0, tol, one, (0,))
    batches = {}  # the identities asked of each group, groups and identities in AXIOMS order
    random = None  # a family sweep's random rows, drawn at its first group
    for a in AXIOMS[1:]:
        if a in axioms:
            group = _GROUP_OF[a]
            cs = None  # a weak identity's constants on a family
            if fam is not None and group == "weak":
                cs = (-1.0, 0.5, 1.0, 2.0) if a == "weakly_additive" else (-1.0, 0.25, 0.5, 0.8, 1.0, 4.0)
            batches.setdefault((group, cs), []).append(a)
    for (group, cs), asked in batches.items():
        if fam is None:
            rows, idx, C = (_sweep_layout(n, seed, trials) if trials else _structured_ids(n))[group]
        else:
            rows, idx, C = _family_group(fam, group, asked, cs)
            if trials:
                if random is None:
                    random = _random_tail(n, seed, trials)
                rows, idx, C = _with_random(rows, idx, C, *random[group], trials)
        V = ev(rows)
        values = V.take(idx["F"], axis=0)
        other = V.take(idx["G"], axis=0) if C is None else C[:, None]
        for a in asked:
            rhs = _combine(a, values, other)
            reports[a] = _first_violations(a, V.take(idx[a], axis=0), rhs, tol, rows, idx["F"], idx.get("G"), C)
    return {a: reports[a] for a in axioms}


def _columns(mu: Functional):  # mu's values as a k x 1 array, for the sweeps
    return lambda A: mu.eval_batch(A)[:, None]


def _memo_reports(mu, axioms, trials: int, tol: float, seed: int) -> dict[str, AxiomReport]:
    """The reports of a sweep of mu without a family, read from its memo.

    The random rows of t trials are the head of the random rows of any
    larger count, and a witness is its identity's first violation in side
    order, structured inputs first.  So the report at t <= T is the report
    at T when its witness is among the first S + 2t inputs of its side (S of
    them structured), and a pass otherwise: what a sweep at t gives, bit for
    bit.  The groups asked that were never swept, or only at fewer trials,
    are swept at ``trials`` in one call, every identity of each in
    ``AXIOMS`` order; a sweep that raises stores nothing.
    """
    memo = mu._sweeps.setdefault((tol, seed), {})
    n = len(mu.space.points)
    stale = {_GROUP_OF[a] for a in axioms if memo.get(a, _UNSWEPT)[0] < trials}
    if stale:
        asked = [a for a in AXIOMS if _GROUP_OF[a] in stale]
        sweep = _axiom_sweep(_columns(mu), n, asked, trials, tol, seed, None)
        memo.update({a: (trials, reps[0]) for a, reps in sweep.items()})
    out = {}
    for a in axioms:
        swept, rep = memo[a]
        if trials < swept and not rep.passed:
            g = _GROUP_OF[a]
            structured = 1 if g == "normed" else len(_structured_ids(n)[g][1]["F"])
            if rep.witness.index >= structured + 2 * trials:
                rep = AxiomReport(a, True)
        out[a] = rep
    return out


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
    the structured function family, e.g. to restrict to continuous inputs;
    it must be a nonempty sequence of rows of one finite real per point.
    The identities share their inputs: the two lattice identities read one
    set of pairs (F, G) and differ only in the fold, and the weak identities
    read one set of rows (f, c) and differ only in the left-hand side.  Each
    group of inputs is evaluated once, as one batch, and both sides of each
    identity are read from it; the witness of an identity is the first
    violation in its own sweep order, the same as when it is checked alone.

    Without a ``family`` the inputs are shared across calls, whatever the
    functional and whichever identities are asked, under the one cache
    policy of this module: a table of rows that depend only on numbers is
    cached by those numbers, and no cache is keyed by a functional.  The
    structured rows are built once per point count, each distinct row once
    (compared by exact bits, so -0.0 and 0.0 stay apart), and laid out with
    the random rows, drawn once for the layout, once per point count, seed
    and ``trials``, in ``SWEEP_CACHE`` = 4 entries.  Each group is evaluated
    whole: asking one identity costs as much as asking every identity of its
    group, and all six cost three evaluations of the functional: the
    constant 1, the rows (f, c) and the pairs.  A ``family`` lays out its own
    rows on each call, for the identities asked, and draws the same random
    rows anew.  A value that is NaN, on either side of an identity,
    is a violation.

    Without a ``family`` the verdicts are memoized on mu itself, per (tol,
    seed): each input group is swept once, at the largest ``trials`` asked
    so far, and a smaller trial count reads its reports from that sweep,
    the same reports, witnesses included, as a sweep of its own.
    ``classify``, ``support`` and the essential-set precheck read the same
    memo.  This relies on mu being a deterministic evaluator (see
    ``Functional``); an equal functional that is another object keeps a
    memo of its own.  A bad ``family``, ``trials`` or ``seed`` (integers >= 0),
    ``tol`` (a finite number >= 0) or a bare string of ``axioms`` is an
    InvariantViolation.
    """
    if isinstance(axioms, str):
        raise InvariantViolation("axioms", f"must be a sequence of axiom names, not the string {axioms!r}")
    unknown = [a for a in axioms if a not in AXIOMS]
    if unknown:
        raise UnknownAxiom(unknown[0])
    _check_count("trials", trials)
    _check_count("seed", seed)
    _check_tol(tol)
    if family is None:
        return _memo_reports(mu, axioms, trials, tol, seed)
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
    without a ``family`` sweeps the identity's whole input group, once per
    functional, tol and seed."""
    return check_axioms(mu, (axiom,), trials, tol, seed, family)[axiom]


@lru_cache(maxsize=64)
def _monotone_sample(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows f <= g pointwise: each row of ``_pair_family(n)`` below
    itself raised at one point, then 32 random pairs from a fresh
    ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    F, bump = _product(_pair_family(n), _spikes(n, (0.5, 1.0)))
    R = rng.uniform(np.r_[np.full(n, -2.0), np.zeros(n)], 2.0, (32, 2 * n))
    f, g = np.concatenate([F, R[:, :n]]), np.concatenate([F + bump, R[:, :n] + R[:, n:]])
    return _array(f, n), _array(g, n)


# -- support ----------------------------------------------------------------


_PROBE_SCALES = (1.0, 10.0, 100.0)
_DENSITY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)


@lru_cache(maxsize=64)
def _probe_rows(n: int) -> dict[str, np.ndarray]:
    """The spike probes at n points, read-only: per use, the zero row, then
    row 1 + i * k + j the j-th of k spikes at point i, and 0 elsewhere.  The
    min (max) probes spike by -1, -10, -100 (1, 10, 100); the density
    probes by each value of ``_DENSITY_SCHEDULE``."""
    spikes = {"min": [-s for s in _PROBE_SCALES], "max": _PROBE_SCALES, "density": _DENSITY_SCHEDULE}
    return {use: _array(np.concatenate([np.zeros((1, n)), _spikes(n, v)]), n) for use, v in spikes.items()}


def _probe_supports(ev, n: int, kind: Kind, tol: float) -> list[int]:
    """Candidate supports from single-point indicator probes, one per column
    of ``ev``'s k x m values.

    For a genuine min-type (max-type) functional the probe with a negative
    (positive) spike at x fires exactly when x belongs to the support.
    """
    vals = ev(_probe_rows(n)[kind])
    fired = (np.abs(vals[1:] - vals[0]) > tol).reshape(n, len(_PROBE_SCALES), -1).any(axis=1)
    return _masks_of(fired.T).tolist()


def _misses(values, rows, kind: Kind, mask: int, tol: float) -> np.ndarray:
    """Where ``values`` are not within tol of the rows' min/max over ``mask``
    (a NaN is not)."""
    return ~(np.abs(values - _fold(kind, (rows[:, i] for i in _bits(mask)))) <= tol)


def _class_supports(ev, n: int, reports, budget: int, tol: float, seed: int):
    """The one min/max support route, for each column of ``ev``'s k x m values.

    The caller's axiom ``reports`` (a list per axiom, one report per column,
    from a sweep at ``min(budget, 32)`` random trials for ``classify`` and
    ``supports_retraction``, 8 for ``support``) give each column's kind;
    spike probes propose its support; and the min or max over that support
    is compared with the column on one batch of
    ``_verification_table(n, budget, seed)``.  Returns the
    kinds, the masks (0 unless verified) and, per column, the rows compared
    up to and including the first that fails (0 when none was compared).
    """
    classes = (("min", MIN_CLASS_AXIOMS), ("max", MAX_CLASS_AXIOMS))
    kinds = [  # "min" where the min-type identities hold, else "max" where those do
        next((k for k, axioms in classes if all(reports[a][j].passed for a in axioms)), None)
        for j in range(len(reports["normed"]))
    ]
    probed = {k: _probe_supports(ev, n, k, tol) for k in ("min", "max") if k in kinds}
    masks = [probed[k][j] if k else 0 for j, k in enumerate(kinds)]
    compared = [0] * len(masks)
    if any(masks):
        rows = _verification_table(n, budget, seed)
        values = ev(rows)
        for j, (kind, m) in enumerate(zip(kinds, masks)):
            if m:
                bad = _misses(values[:, j], rows, kind, m, tol)
                compared[j] = int(bad.argmax()) + 1 if bad.any() else len(rows)
                masks[j] = 0 if bad.any() else m
    return kinds, masks, compared


def _own_supports(mu: Functional, trials: int, budget: int, tol: float, seed: int):
    """``_class_supports`` for mu alone, on its memoized reports at
    ``trials``: the reports, then mu's kind, mask and rows compared."""
    reports = _memo_reports(mu, AXIOMS, trials, tol, seed)
    columns = {a: [rep] for a, rep in reports.items()}
    (kind,), (mask,), (compared,) = _class_supports(_columns(mu), mu.space.n, columns, budget, tol, seed)
    return reports, kind, mask, compared


def support(
    mu: Functional, budget: int = 200, tol: float = 1e-9, seed: int = 0
) -> frozenset[str]:
    """Points where the functional is sensitive to local changes.

    A point x belongs to the support when two inputs that agree everywhere
    except at x separate the functional.  Min/max-type functionals take the
    one certified route, ``_class_supports`` at 8 axiom trials with
    ``min(budget, 64)`` random verification rows.  Otherwise a generic sweep
    looks for witnesses: the route's spikes, then at each point not yet
    found, shifts of the base rows and the {0,1} block and ``budget`` random
    changes, drawn past the random rows the route compared.  A min/max-type
    mu whose formula over the swept support fails the verification rows
    drawn after those raises BudgetExhaustedInconclusive, as absences would
    be unfounded.

    The axiom reports are those of ``check_axioms`` at 8 trials, read from
    mu's own memo per (tol, seed): a functional already swept at 8 or more
    trials is not swept again.  This relies on mu being a deterministic
    evaluator (see ``Functional``).
    """
    _check_count("budget", budget)
    _check_count("seed", seed)
    _check_tol(tol)
    space = mu.space
    n = len(space.points)
    ev = mu.eval_batch
    cols = _columns(mu)
    _, kind, mask, compared = _own_supports(mu, 8, min(budget, 64), tol, seed)
    if mask:
        return space.subset(mask)
    # the route certified no support; the sweep draws on from where it stopped
    rng = np.random.default_rng(seed)
    _verification_rows(n, max(0, compared - len(_verify_family(n))), rng)
    found = _probe_supports(cols, n, "min", tol)[0] | _probe_supports(cols, n, "max", tol)[0]
    sweep_grid = (-25.0, -5.0, -1.0, 1.0, 5.0, 25.0)
    fam = _distinct(_base(n), *_blocks(n, (0.0, 1.0)))
    # each family input, to be moved along sweep_grid at one point
    swept = np.repeat(fam, len(sweep_grid), axis=0)
    shift = np.tile(sweep_grid, len(fam))
    base = np.repeat(ev(fam), len(sweep_grid))
    low, high = np.r_[np.full(n, -2.0), -10.0], np.r_[np.full(n, 2.0), 10.0]

    for i in range(n):
        if found >> i & 1:
            continue

        def moved(R, i=i):  # the random inputs with a random change at i
            G = R[:, :n].copy()
            G[:, i] += R[:, n]
            return np.abs(ev(R[:, :n]) - ev(G)) > tol

        g = swept.copy()
        g[:, i] += shift
        if (np.abs(ev(g) - base) > tol).any() or not _passes_sampled(rng, low, high, budget, moved):
            found |= 1 << i

    if kind is not None:
        rows = _verification_rows(n, min(budget, 64), rng)
        if not found or _misses(ev(rows), rows, kind, found, tol).any():
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
        for m in self.members:
            self.space.member(m, "members")

    def subsets(self) -> tuple[frozenset[str], ...]:
        return tuple(self.space.subset(m) for m in self.members)

    def __contains__(self, subset) -> bool:
        return self.space.mask(subset) in set(self.members)


def _essential_precheck(mu, tol) -> tuple[str, ...]:
    """The tolerance and space guards and the axiom precheck of every
    essential-set test, from one sweep: normed, weakly additive, and
    "monotone", which fails when a pair f <= g of ``_monotone_sample`` has
    mu(f) not at most mu(g) + tol (a NaN is not).  Returns the failures of
    weakly_preserves_max and _min, which matter to the reconstruction only.
    All failures are kept in mu's memo per tol."""
    _check_tol(tol)
    if not isinstance(mu.space, FiniteTopSpace):
        raise SpaceMismatch("essential-set tests need a topological space")
    key = ("essential", tol)
    if key not in mu._sweeps:
        axioms = ("normed", "weakly_additive", "weakly_preserves_max", "weakly_preserves_min")
        reports = _memo_reports(mu, axioms, 16, tol, 0)
        failures = [a for a, rep in reports.items() if not rep.passed]
        f, g = _monotone_sample(mu.space.n)
        if not (mu.eval_batch(f) <= mu.eval_batch(g) + tol).all():
            failures.append("monotone")
        mu._sweeps[key] = tuple(failures)
    failures = mu._sweeps[key]
    strong = [a for a in failures if not a.startswith("weakly_preserves")]
    if strong:
        raise AxiomPrecheckFailed(
            "essential-set test needs normed, weakly additive, monotone; "
            f"failing: {', '.join(strong)}"
        )
    return failures


def _essential_masks(mu, tol) -> np.ndarray:
    """``essential[m]`` for every subset mask m of mu's space.

    The pool holds one extremal test function per region V: -1 on V and 0
    elsewhere, all evaluated in one batch.  Its anchor is the union of the
    minimal neighbourhoods whose closure lies in V; the function is
    admissible for A exactly when A lies in the anchor.  A nonempty A is
    essential when no admissible extremal function evaluates to zero.
    The table has 2^n entries, so it is refused above 12 points.
    """
    space = mu.space
    n = space.n
    if n > 12:
        raise TooLarge("the essential-set table needs |points| <= 12")
    _essential_precheck(mu, tol)
    regions = np.arange(1 << n)
    anchors = np.zeros(1 << n, dtype=np.int64)
    for nbhd in space.min_nbhd:
        cl = space.closure_mask(nbhd)
        anchors[(regions & cl) == cl] |= nbhd
    blocked = np.zeros(1 << n, dtype=bool)
    blocked[anchors[np.abs(mu.eval_batch(_two_valued(n, 0.0, -1.0))) <= tol]] = True
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
    members = np.flatnonzero(_essential_masks(mu, tol))
    return SubsetFamily(mu.space, tuple(int(m) for m in members))


def infsup_reconstruct(
    mu: Functional,
    f: RealFunction,
    family: SubsetFamily | None = None,
    tol: float = 1e-9,
) -> float:
    """Rebuild mu(f) as inf over essential sets of the sup of f on the set.

    Valid for normed, monotone, weakly additive functionals that weakly
    preserve both max and min; those prechecks run first.  Pass a
    precomputed ``family`` when evaluating many functions of one mu;
    without one the essential-set table is built, which needs at most 12
    points.  A ``family`` on another space than mu's is a SpaceMismatch.
    """
    _check_space(mu, f)
    if family is not None and family.space != mu.space:
        raise SpaceMismatch("the family must live on the functional's space")
    weak_failures = _essential_precheck(mu, tol)
    if weak_failures:
        raise AxiomPrecheckFailed(f"reconstruction needs {', '.join(weak_failures)}")
    if family is None:
        family = essential_family(mu, tol=tol)
    if not family.members:
        raise BudgetExhaustedInconclusive("no essential sets found")
    vals = f.values
    return min(max(vals[i] for i in _bits(m)) for m in family.members)


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of classify: the class plus its witnessing data."""

    kind: Literal["R_min", "R_max", "idempotent_measure", "none"]
    support: frozenset[str] | None = None
    density: IdempotentDensity | None = None
    axiom_reports: dict[str, AxiomReport] = field(default_factory=dict, compare=False)


def _extract_density(mu: Functional, tol: float) -> tuple[float, ...]:
    """Per-point weights from spike inputs; -inf when the spike never lands."""
    space = mu.space
    n = len(space.points)
    vals = mu.eval_batch(_probe_rows(n)["density"])
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


def classify(
    mu: Functional, budget: int = 64, tol: float = 1e-9, seed: int = 0
) -> Classification:
    """Sort a functional into min-type, max-type, idempotent measure, or none.

    The one min/max support route, ``_class_supports`` at ``min(budget, 32)``
    axiom trials, proposes a min (max) formula over the probed support and
    checks it on ``_verification_table`` with ``budget`` random rows.  When
    only the max-preservation identities hold, a density from spike probes
    is checked on the same rows.  A sampled class that fails its check
    raises BudgetExhaustedInconclusive rather than being guessed.

    The axiom reports, which ``axiom_reports`` returns, are those of
    ``check_axioms`` at ``min(budget, 32)`` trials, read from mu's own memo
    per (tol, seed): a functional already swept at that many trials or more
    is not swept again.  This relies on mu being a deterministic
    evaluator (see ``Functional``).
    """
    _check_count("budget", budget)
    _check_count("seed", seed)
    _check_tol(tol)
    space = mu.space
    reports, kind, mask, _ = _own_supports(mu, min(budget, 32), budget, tol, seed)
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
        rows = _verification_table(space.n, budget, seed)
        if (np.abs(mu.eval_batch(rows) - cand.eval_batch(rows)) > tol).any():
            raise BudgetExhaustedInconclusive(
                "passes the idempotent-measure axioms on samples but the "
                "extracted density does not reproduce the functional"
            )
        return Classification("idempotent_measure", density=cand, axiom_reports=reports)

    return Classification("none", axiom_reports=reports)

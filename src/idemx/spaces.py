"""Finite topological spaces stored as minimal-neighborhood tables.

A finite topology is equivalent to a preorder: keep, for every point, the
smallest open set containing it.  A subset U is then open iff it contains
the minimal neighborhood of each of its points.  Subsets are bitmasks over
positional point indices; point identifiers are strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .errors import (
    EmptySet,
    InvariantViolation,
    MembershipViolation,
    PreorderViolation,
    TooLarge,
)

if TYPE_CHECKING:
    import numpy as np

#: Hard cap for enumerating the full open-set family.
OPENS_ENUM_CAP = 12

#: Floats in one chunk of a metric's triangle test (4 MB).
TRIANGLE_FLOATS = 1 << 19

SubsetLike = Union[int, Iterable[str]]


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _at_points(points: Sequence[str], mapping: Mapping, name: str) -> list:
    """The values of ``mapping`` at ``points``, in order; a missing point,
    or a key that is not a point, is an InvariantViolation at ``name[key]``."""
    missing = [p for p in points if p not in mapping]
    if missing:
        raise InvariantViolation(f"{name}[{missing[0]}]", "missing value")
    if len(mapping) > len(points):  # every point is a key, so some key is not a point
        unknown = next(k for k in mapping if k not in points)
        raise InvariantViolation(f"{name}[{unknown}]", "not a point of the space")
    return [mapping[p] for p in points]


def _union(table: Sequence[int], mask: int) -> int:
    """The union of ``table[i]`` over the members i of ``mask``."""
    out = 0
    while mask:  # lowest member first; a hot loop, so no _bits generator
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class _PointSet:
    """Ordered point identifiers, with subsets as bitmasks over positions."""

    points: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def _check_points(self) -> int:
        """The point count, after refusing a space with no points or a repeated one."""
        if not self.points:
            raise EmptySet("a space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise InvariantViolation("points", "duplicate point identifiers")
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise InvariantViolation("point", f"{point!r} is not a point of the space")

    def mask(self, subset: SubsetLike) -> int:
        """Coerce a subset (bitmask or iterable of point ids) to a bitmask."""
        if isinstance(subset, int):
            if subset & ~self.full_mask:
                raise InvariantViolation("subset", "bitmask exceeds the point count")
            return subset
        m = 0
        for p in subset:
            m |= 1 << self.index(p)
        return m

    def member(self, mask: int, what: str) -> int:
        """``mask`` as a nonempty subset of the space: EmptySet when it is 0,
        InvariantViolation at ``what`` when it names a point past the space."""
        if not mask:
            raise EmptySet(f"{what}: must be nonempty")
        if mask >> self.n:
            raise InvariantViolation(what, "names a point outside the space")
        return mask

    def ids(self, mask: int) -> tuple[str, ...]:
        """Point identifiers of a bitmask, in point order."""
        return tuple(self.points[i] for i in _bits(mask))

    def subset(self, mask: int) -> frozenset[str]:
        return frozenset(self.ids(mask))


@dataclass(frozen=True)
class FiniteTopSpace(_PointSet):
    """A finite topological space given by minimal open neighborhoods.

    ``min_nbhd[i]`` is the bitmask of the smallest open set containing
    point ``i``.  Valid tables satisfy ``i in min_nbhd[i]`` and the nesting
    condition: ``j in min_nbhd[i]`` implies ``min_nbhd[j] <= min_nbhd[i]``.

    ``point_closures[j]`` is the bitmask of cl{j}, the points whose minimal
    neighborhood holds j: the transpose of ``min_nbhd``, and the minimal
    neighborhoods of the reversed specialization order.  It is built with
    the table and takes no part in equality or hashing.
    """

    points: tuple[str, ...]
    min_nbhd: tuple[int, ...]
    point_closures: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self._check_points()
        if len(self.min_nbhd) != n:
            raise InvariantViolation("min_nbhd", "one entry per point required")
        full = (1 << n) - 1
        for i, m in enumerate(self.min_nbhd):
            if m & ~full:
                raise InvariantViolation(
                    f"min_nbhd[{self.points[i]}]", "names a point outside the space"
                )
            if not (m >> i) & 1:
                raise MembershipViolation(
                    f"point {self.points[i]!r} is not in its own minimal neighborhood"
                )
        closures = [0] * n
        for i, m in enumerate(self.min_nbhd):
            for j in _bits(m):
                if self.min_nbhd[j] & ~m:
                    raise PreorderViolation(
                        f"min_nbhd({self.points[j]!r}) is not contained in "
                        f"min_nbhd({self.points[i]!r})"
                    )
                closures[j] |= 1 << i
        object.__setattr__(self, "point_closures", tuple(closures))

    # -- topology ------------------------------------------------------

    def is_open_mask(self, mask: int) -> bool:
        for i in _bits(mask):
            if self.min_nbhd[i] & ~mask:
                return False
        return True

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """All open sets, as bitmasks in numeric order.

        Enumeration is exponential, hence capped at ``OPENS_ENUM_CAP`` points.
        """
        if self.n > OPENS_ENUM_CAP:
            raise TooLarge(
                f"open-set enumeration needs |points| <= {OPENS_ENUM_CAP}, got {self.n}"
            )
        return tuple(m for m in range(self.full_mask + 1) if self.is_open_mask(m))

    def hull_mask(self, mask: int) -> int:
        """Smallest open superset: the union of the members' minimal neighborhoods."""
        return _union(self.min_nbhd, mask)

    def closure_mask(self, mask: int) -> int:
        """Smallest closed superset: the union of the members' point closures."""
        return _union(self.point_closures, mask)

    def is_connected_mask(self, mask: int) -> bool:
        """Connectivity of a subspace via the symmetrized specialization preorder.

        Two points of the subspace are linked when either lies in the
        other's minimal neighborhood relative to the subspace; a finite
        space is connected iff this graph has one component.
        """
        if mask == 0:
            raise EmptySet("connectivity of the empty subset is undefined")
        return self._first_component(mask) == mask

    def _first_component(self, mask: int) -> int:
        """Points of ``mask`` linked to its lowest point by a chain of
        specializations inside ``mask``."""
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            linked = (self.min_nbhd[i] | self.point_closures[i]) & mask & ~seen
            seen |= linked
            frontier |= linked
        return seen

    def is_discrete(self) -> bool:
        return all(m == (1 << i) for i, m in enumerate(self.min_nbhd))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Masks of the connected components of the whole space.

        Continuous real functions on a finite space are exactly the
        functions constant on each of these components.
        """
        remaining = self.full_mask
        out = []
        while remaining:
            comp = self._first_component(remaining)
            out.append(comp)
            remaining &= ~comp
        return tuple(out)


# -- constructors -------------------------------------------------------


def from_minimal_basis(
    min_nbhd: Mapping[str, Iterable[str]],
    points: Sequence[str] | None = None,
) -> FiniteTopSpace:
    """Build a validated space from a point -> minimal-open-set mapping.

    ``points`` fixes the point order; by default the mapping's own order is
    used.  Raises MembershipViolation or PreorderViolation on bad tables, and
    InvariantViolation on a missing point or a key that is not a point.
    """
    pts = tuple(points) if points is not None else tuple(min_nbhd.keys())
    index = {p: i for i, p in enumerate(pts)}
    masks = []
    for p, members in zip(pts, _at_points(pts, min_nbhd, "min_nbhd")):
        m = 0
        for q in members:
            if q not in index:
                raise InvariantViolation(f"min_nbhd[{p}]", f"{q!r} is not a point")
            m |= 1 << index[q]
        masks.append(m)
    return FiniteTopSpace(pts, tuple(masks))


def discrete(points: Sequence[str]) -> FiniteTopSpace:
    """Discrete topology: every singleton is open."""
    pts = tuple(points)
    return FiniteTopSpace(pts, tuple(1 << i for i in range(len(pts))))


def sierpinski() -> FiniteTopSpace:
    """Two points "0" and "1" with opens {}, {"1"}, {"0","1"}."""
    return from_minimal_basis({"0": ["0", "1"], "1": ["1"]})


# -- topology operations --------------------------------------------------


def is_open(space: FiniteTopSpace, subset: SubsetLike) -> bool:
    """True iff the subset contains the minimal neighborhood of each member."""
    return space.is_open_mask(space.mask(subset))


def closure(space: FiniteTopSpace, subset: SubsetLike) -> frozenset[str]:
    """Smallest closed superset."""
    return space.subset(space.closure_mask(space.mask(subset)))


def is_connected(space: FiniteTopSpace, subset: SubsetLike) -> bool:
    """True iff the subset, with its induced topology, has no proper nonempty clopen part."""
    return space.is_connected_mask(space.mask(subset))


@dataclass(frozen=True)
class MetricSpace(_PointSet):
    """Finite metric space: ordered points plus a distance matrix."""

    points: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        import numpy as np  # here, so the bitmask layers load without numpy

        n = self._check_points()
        try:
            d = np.asarray(self.dist, dtype=float)
        except (TypeError, ValueError):
            raise InvariantViolation("dist", "must be a square matrix of numbers") from None
        if d.shape != (n, n):
            raise InvariantViolation("dist.shape", f"expected {(n, n)}, got {d.shape}")
        # ndarray methods, not np.any/np.diag/np.array_equal: the campaign
        # builds thousands of small metrics, where call overhead dominates
        if (d < 0).any():
            raise InvariantViolation("dist.nonnegative", "negative distance")
        if d.diagonal().any():  # NaN is truthy, so a NaN diagonal fails here
            raise InvariantViolation("dist.diagonal", "d(x,x) must be 0")
        if (d != d.T).any():
            raise InvariantViolation("dist.symmetry", "d(x,y) != d(y,x)")
        off = d + np.eye(n)  # mask the diagonal before testing identity
        if n > 1 and (off == 0).any():
            raise InvariantViolation("dist.identity", "d(x,y)=0 for distinct points")
        if not np.isfinite(d).all():  # NaN failed symmetry above, so this refuses inf
            raise InvariantViolation("dist.finite", "distances must be finite")
        # triangle inequality d(x,z) <= d(x,y) + d(y,z) over all triples,
        # vectorized over a chunk of middle points y at a time, so that the
        # one temporary, via[y, x, z], holds at most TRIANGLE_FLOATS floats
        # (or one n x n slice); below 81 points it is a single chunk.  The
        # slack scales with the distances, since rounding does: points on
        # the line at 1e9 are off by far more than 1e-12
        step = max(1, TRIANGLE_FLOATS // (n * n))
        for y in range(0, n, step):
            via = d.T[y : y + step, :, None] + d[y : y + step, None, :]
            via *= 1 + 1e-12  # in place
            if (d > via).any():
                raise InvariantViolation("dist.triangle", "triangle inequality fails")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)

    @classmethod
    def _proven(cls, points: tuple[str, ...], dist: np.ndarray) -> MetricSpace:
        """The space on ``points`` and the read-only ``dist``, which the
        caller has proved to pass every check of ``__post_init__``; that
        test is skipped, all but the points' own check.  ``line_metric``,
        which holds the proof, is the one caller."""
        space = object.__new__(cls)
        object.__setattr__(space, "points", points)
        object.__setattr__(space, "dist", dist)
        space._check_points()
        return space

    def __eq__(self, other):
        # equal points give equal validated (n, n) shapes, so the matrices
        # compare elementwise; they hold no NaN
        return other is self or (
            isinstance(other, MetricSpace)
            and self.points == other.points
            and bool((self.dist == other.dist).all())
        )

    def __hash__(self):
        return hash((self.points, self.dist.tobytes()))


def line_metric(coords: Mapping[str, float]) -> MetricSpace:
    """Metric space of labelled points on the real line, d(x, y) = |x - y|.

    Each coordinate must be a finite real number, one that numpy holds as
    an integer or a float (so not a bool, a string or a sequence); anything
    else is an InvariantViolation at ``coords``.  The space is the
    one ``MetricSpace(points, |x_i - x_j|)`` builds, refused at the same
    field, without its n^3 matrix test: for finite coordinates, with fl the
    rounding to nearest and u = 2^-53, the coordinates decide every check.

    - fl(x - x) = 0 and |.| >= 0: the diagonal is 0, no distance negative.
    - fl(x - y) = -fl(y - x), since rounding is symmetric: symmetry holds.
    - fl(x - y) = 0 only when x = y, since underflow is gradual: a repeated
      coordinate (0.0 and -0.0 are one) is the only ``dist.identity`` case.
    - fl is monotone, so no distance exceeds fl(max - min): a spread that
      overflows is the only ``dist.finite`` case, tested after identity as
      the matrix test does, and in Python floats, which do not warn.
    - A sum or difference is off by a factor within [1 - u, 1 + u], and is
      exact when its result is subnormal.  So d(x, z) <= (1 + u)|x - z|,
      and the test's bound fl(fl(d(x, y) + d(y, z)) (1 + 1e-12)) is at
      least (1 - u)^3 (1 + 1e-12)|x - z|, or, for a subnormal sum, the
      exact sum, which every term then is: the triangle test passes.
    """
    import numpy as np

    pts = tuple(coords.keys())
    try:
        xs = np.array([coords[p] for p in pts])
    except (TypeError, ValueError):  # ragged sequences among the values
        xs = np.array(None)
    if xs.dtype.kind not in "iuf" or xs.ndim != 1:
        raise InvariantViolation("coords", "coordinates must be real numbers")
    xs = xs.astype(float, copy=False)
    # over Python floats: at campaign sizes numpy calls cost more than these
    vals = xs.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvariantViolation("coords", "coordinates must be finite")
    if len(set(vals)) < len(vals):  # 0.0 == -0.0, so they are one member
        raise InvariantViolation("dist.identity", "d(x,y)=0 for distinct points")
    if vals and max(vals) - min(vals) == math.inf:
        raise InvariantViolation("dist.finite", "distances must be finite")
    d = np.abs(xs[:, None] - xs[None, :])
    d.flags.writeable = False
    return MetricSpace._proven(pts, d)


@dataclass(frozen=True)
class SubspaceEmbedding:
    """A subspace X of an ambient space Y, with the induced topology on X.

    ``subset_discrete`` records whether the induced topology is discrete;
    that is the finite stand-in for the subspace being Tychonoff, which
    several whole-theorem campaigns require.
    """

    ambient: FiniteTopSpace
    subset: tuple[str, ...]

    def __post_init__(self):
        if not self.subset:
            raise EmptySet("embedding needs a nonempty subset")
        if len(set(self.subset)) != len(self.subset):
            raise InvariantViolation("subset", "duplicate points")
        for p in self.subset:
            self.ambient.index(p)

    @cached_property
    def subset_mask(self) -> int:
        return self.ambient.mask(self.subset)

    @cached_property
    def subspace(self) -> FiniteTopSpace:
        """The induced topology: intersect each minimal neighborhood with X.

        Points of X keep their ambient order; ambient index ``at[k]`` is
        subspace index k.
        """
        amb = self.ambient
        at = list(_bits(self.subset_mask))
        masks = tuple(
            sum(1 << k for k, j in enumerate(at) if (amb.min_nbhd[i] >> j) & 1)
            for i in at
        )
        return FiniteTopSpace(tuple(amb.points[i] for i in at), masks)

    @cached_property
    def subset_discrete(self) -> bool:
        return self.subspace.is_discrete()


def embed(ambient: FiniteTopSpace, subset: Iterable[str]) -> SubspaceEmbedding:
    return SubspaceEmbedding(ambient, tuple(subset))

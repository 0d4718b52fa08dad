"""The hyperspace of nonempty subsets of a finite space.

Provides subset enumeration, Hausdorff distance over finite metric spaces,
Vietoris-style neighborhoods, the topologies that upper, lower and threshold
sets generate on the hyperspace, and the round trip between subsets and
their min/max functionals: F -> (f -> min_F f) -> support recovers F.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, ModeArity, SpaceMismatch, TooLarge
from .functionals import Functional, RealFunction, SupportFunctional, classify, indicator, support
from .spaces import FiniteTopSpace, MetricSpace, _bits

#: Full hyperspace enumeration stays below 2^16 subsets.
HYPERSPACE_CAP = 16


@dataclass(frozen=True)
class HyperPoint:
    """A nonempty subset viewed as one point of the hyperspace."""

    space: FiniteTopSpace | MetricSpace
    member: int

    def __post_init__(self):
        self.space.member(self.member, "member")

    def ids(self) -> tuple[str, ...]:
        return self.space.ids(self.member)


@dataclass(frozen=True)
class VietorisNbhd:
    """A basic Vietoris neighborhood determined by finitely many opens.

    full mode: F inside the union and meeting every listed open;
    upper mode: F inside the single listed open;
    lower mode: F meeting every listed open.
    """

    space: FiniteTopSpace
    opens: tuple[int, ...]
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "upper", "lower"):
            raise InvariantViolation("mode", "must be full, upper, or lower")
        if not self.opens:
            raise InvariantViolation("opens", "at least one open set required")
        if self.mode == "upper" and len(self.opens) != 1:
            raise ModeArity("upper mode takes exactly one open set")
        for u in self.opens:
            if not self.space.is_open_mask(u):
                raise InvariantViolation("opens", f"{self.space.ids(u)} is not open")


def vietoris_contains(nbhd: VietorisNbhd, point: HyperPoint) -> bool:
    if nbhd.space != point.space:
        raise SpaceMismatch("neighborhood and point live on different spaces")
    f = point.member
    if nbhd.mode == "upper":
        return not (f & ~nbhd.opens[0])
    if nbhd.mode == "lower":
        return all(f & u for u in nbhd.opens)
    union = 0
    for u in nbhd.opens:
        union |= u
    return not (f & ~union) and all(f & u for u in nbhd.opens)


def enumerate_hyperspace(space: FiniteTopSpace | MetricSpace) -> list[HyperPoint]:
    """All nonempty subsets in numeric bitmask order."""
    n = len(space.points)
    if n > HYPERSPACE_CAP:
        raise TooLarge(f"hyperspace enumeration needs |points| <= {HYPERSPACE_CAP}")
    return [HyperPoint(space, m) for m in range(1, 1 << n)]


def hausdorff_distance(f: HyperPoint, g: HyperPoint, metric: MetricSpace) -> float:
    """max of the two directed sup-inf distances between the subsets."""
    if f.space != metric or g.space != metric:
        raise SpaceMismatch("hyperspace points must live on the metric space")
    # over Python floats: at these sizes a numpy reduction costs more than the loop
    d = metric.dist.tolist()
    fi = list(_bits(f.member))
    gi = list(_bits(g.member))
    forward = max(min(d[i][j] for j in gi) for i in fi)
    backward = max(min(d[i][j] for j in fi) for i in gi)
    return max(forward, backward)


def lipschitz_constant(f: RealFunction, metric: MetricSpace) -> float:
    """Smallest L with |f(x)-f(y)| <= L d(x,y) over all pairs."""
    if f.space != metric:
        raise SpaceMismatch("the function must live on the metric space")
    d = metric.dist.tolist()
    v = f.values
    pairs = ((i, j) for i in range(metric.n) for j in range(i + 1, metric.n))
    return max((abs(v[i] - v[j]) / d[i][j] for i, j in pairs if d[i][j] > 0), default=0.0)


def subset_min(f: RealFunction, member: int) -> float:
    return min(f.values[i] for i in _bits(f.space.member(member, "member")))


def subset_max(f: RealFunction, member: int) -> float:
    return max(f.values[i] for i in _bits(f.space.member(member, "member")))


# -- the subset <-> functional correspondence --------------------------------


@dataclass(frozen=True)
class RoundtripReport:
    cases: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def subset_roundtrip_failure(
    mu: Functional, kind: str, member: int, tol: float = 1e-9
) -> str | None:
    """Check that ``mu``, the min/max functional over a nonempty subset F,
    has support exactly F and classifies back to the same kind and support.

    Singleton supports satisfy both the min and the max formula, so either
    class label is accepted for them.  Returns a failure message, or None.
    """
    if kind not in ("min", "max"):
        raise InvariantViolation("kind", "must be 'min' or 'max'")
    want = mu.space.subset(member)
    # classify sweeps at 32 trials first, so support's 8 read mu's memo
    cls = classify(mu, tol=tol)
    got = support(mu, tol=tol)
    if got != want:
        return f"support({mu.label}) = {sorted(got)}, want {sorted(want)}"
    expected = "R_min" if kind == "min" else "R_max"
    label_ok = cls.kind == expected or (
        member.bit_count() == 1 and cls.kind in ("R_min", "R_max")
    )
    if not label_ok or cls.support != want:
        return f"classify({mu.label}) = ({cls.kind}, {sorted(cls.support or ())})"
    return None


def hyperspace_roundtrip(space: FiniteTopSpace, kind: str, tol: float = 1e-9) -> RoundtripReport:
    """Run ``subset_roundtrip_failure`` for every nonempty subset."""
    if space.n > 6:
        raise TooLarge("exhaustive roundtrip needs |points| <= 6")
    failures = []
    for m in range(1, space.full_mask + 1):
        failure = subset_roundtrip_failure(SupportFunctional(space, kind, m), kind, m, tol=tol)
        if failure:
            failures.append(failure)
    return RoundtripReport(space.full_mask, tuple(failures))


# -- generated topologies on the hyperspace (discrete base spaces) ------------


def _generated_topology(space, subbasis) -> FiniteTopSpace:
    """The topology that ``subbasis`` generates on the hyperspace of ``space``.

    Subbasis sets are bitmasks over hyperspace positions, the subset with
    bitmask m at position m - 1.  The result has one point per subset, named
    by its bitmask; the minimal neighbourhood of a point is the intersection
    of the subbasis sets that contain it.
    """
    points = enumerate_hyperspace(space)
    nbhd = [(1 << len(points)) - 1] * len(points)
    for s in subbasis:
        for i in _bits(s):
            nbhd[i] &= s
    return FiniteTopSpace(tuple(str(h.member) for h in points), tuple(nbhd))


def _hyperspace_set(space, contains) -> int:
    """The hyperspace points F with ``contains(F)``, as a bitmask over positions."""
    return sum(1 << (m - 1) for m in range(1, space.full_mask + 1) if contains(m))


def vietoris_topology(space: FiniteTopSpace, mode: str) -> FiniteTopSpace:
    """Topology generated on the hyperspace by upper or lower basic sets."""
    if mode == "upper":
        subbasis = [_hyperspace_set(space, lambda m, u=u: not (m & ~u)) for u in space.opens]
    elif mode == "lower":
        subbasis = [_hyperspace_set(space, lambda m, u=u: m & u) for u in space.opens]
    else:
        raise InvariantViolation("mode", "must be upper or lower")
    return _generated_topology(space, subbasis)


def functional_topology(space: FiniteTopSpace, kind: str, sense: str) -> FiniteTopSpace:
    """Topology induced on subsets by threshold sets of their min/max values.

    sense "above" uses {F : agg_F f > a}, sense "below" uses
    {F : agg_F f < a}; f ranges over two-valued functions and a over
    midpoints, which exhausts the generated topology on a discrete base.
    """
    if kind not in ("min", "max"):
        raise InvariantViolation("kind", "must be min or max")
    if sense not in ("above", "below"):
        raise InvariantViolation("sense", "must be above or below")
    agg = subset_min if kind == "min" else subset_max
    above = sense == "above"
    subbasis = [
        _hyperspace_set(space, lambda p: agg(f, p) > a if above else agg(f, p) < a)
        for f in (indicator(space, m) for m in range(1, space.full_mask + 1))
        for a in (-0.5, 0.5)
    ]
    return _generated_topology(space, subbasis)

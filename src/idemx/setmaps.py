"""Set-valued maps between finite spaces and their semicontinuity.

A map r assigns to each point of the domain a nonempty subset of the
codomain.  It is lower (upper) semicontinuous when the set of points whose
image meets (is contained in) an open set is always open.

On finite spaces both properties are tested one pair of domain points at a
time, for every y and every y' in minN(y), the minimal neighborhood of y:

* usc: r(y') lies inside hull(r(y)), the union of the minimal
  neighborhoods of r(y), which is the smallest open set containing r(y);
* lsc: r(y') meets minN(x) for every x in r(y); equivalently, r(y) lies
  inside the closure of r(y').

Every open set containing r(y) contains hull(r(y)), and every open set
meeting r(y) at x contains minN(x), so these rules are the open-set
definitions with the open sets left out: no open set is enumerated.

A retraction fixes an embedded subspace pointwise.  Retraction existence
is decided by an exact ordered branch-and-bound search that applies the
same pairwise rules to partial assignments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    EmptySet,
    InvariantViolation,
    SpaceMismatch,
    TooLarge,
)
from .spaces import FiniteTopSpace, SubspaceEmbedding, _bits

#: Retraction search refuses embeddings with more candidate maps than this.
SEARCH_CAP = 10**6


@dataclass(frozen=True)
class SetValuedMap:
    """point of ``domain`` -> nonempty subset of ``codomain`` (bitmask)."""

    domain: FiniteTopSpace
    codomain: FiniteTopSpace
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.n:
            raise InvariantViolation("images", "one image per domain point")
        full = self.codomain.full_mask
        for p, m in zip(self.domain.points, self.images):
            if m == 0:
                raise EmptySet(f"image of {p!r} is empty")
            if m & ~full:
                raise InvariantViolation(f"images[{p}]", "image outside the codomain")

    def image_of(self, point: str) -> frozenset[str]:
        return self.codomain.subset(self.images[self.domain.index(point)])

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return {
            p: self.codomain.ids(m) for p, m in zip(self.domain.points, self.images)
        }


def setmap(
    domain: FiniteTopSpace,
    codomain: FiniteTopSpace,
    images: Mapping[str, Iterable[str]],
) -> SetValuedMap:
    masks = []
    for p in domain.points:
        if p not in images:
            raise InvariantViolation(f"map[{p}]", "missing image")
        masks.append(codomain.mask(images[p]))
    return SetValuedMap(domain, codomain, tuple(masks))


def identity_map(space: FiniteTopSpace) -> SetValuedMap:
    return SetValuedMap(space, space, tuple(1 << i for i in range(space.n)))


def _pairs(space: FiniteTopSpace) -> list[tuple[int, int]]:
    """(y, y') for every point y and every other point y' of minN(y)."""
    return [
        (y, y2) for y, m in enumerate(space.min_nbhd) for y2 in _bits(m & ~(1 << y))
    ]


def _pair_tests(codomain: FiniteTopSpace, semicontinuity: str) -> list:
    """The pairwise rules of ``semicontinuity`` as tests of (r(y), r(y'))."""
    tests = []
    if semicontinuity != "lsc":
        hull = functools.cache(codomain.hull_mask)
        tests.append(lambda ry, ry2: not ry2 & ~hull(ry))
    if semicontinuity != "usc":
        # r(y') meets minN(x) exactly when x lies in the closure of r(y')
        closure = functools.cache(codomain.closure_mask)
        tests.append(lambda ry, ry2: not ry & ~closure(ry2))
    return tests


def _satisfies(r: SetValuedMap, semicontinuity: str) -> bool:
    tests = _pair_tests(r.codomain, semicontinuity)
    im = r.images
    return all(t(im[y], im[y2]) for y, y2 in _pairs(r.domain) for t in tests)


def is_lsc(r: SetValuedMap) -> bool:
    """Lower semicontinuity: {y : r(y) meets U} open for every open U.

    Tested pairwise: r(y') meets minN(x) for every x in r(y), y' in minN(y).
    """
    return _satisfies(r, "lsc")


def is_usc(r: SetValuedMap) -> bool:
    """Upper semicontinuity: {y : r(y) inside U} open for every open U.

    Tested pairwise: r(y') inside hull(r(y)) for every y' in minN(y).
    """
    return _satisfies(r, "usc")


def is_continuous(r: SetValuedMap) -> bool:
    return is_lsc(r) and is_usc(r)


def is_retraction(r: SetValuedMap, embedding: SubspaceEmbedding) -> bool:
    """True iff r fixes every embedded point: r(x) = {x} on the subspace."""
    if r.domain != embedding.ambient:
        raise SpaceMismatch("map domain must be the ambient space")
    if r.codomain != embedding.subspace:
        raise SpaceMismatch("map codomain must be the embedded subspace")
    for p in embedding.subset:
        if r.images[r.domain.index(p)] != 1 << r.codomain.index(p):
            return False
    return True


def is_connected_valued(r: SetValuedMap) -> bool:
    return all(r.codomain.is_connected_mask(m) for m in r.images)


def _choices(embedding: SubspaceEmbedding) -> list:
    """Image masks each ambient point may take in a map fixing the subspace.

    Embedded points map to their own singletons and every other ambient
    point ranges over the nonempty subsets of the subspace, in mask order.
    """
    amb, sub = embedding.ambient, embedding.subspace
    return [
        (1 << sub.index(p),) if (embedding.subset_mask >> i) & 1
        else range(1, sub.full_mask + 1)
        for i, p in enumerate(amb.points)
    ]


def fixing_images(embedding: SubspaceEmbedding) -> Iterator[tuple[int, ...]]:
    """Image tuples of every set-valued map fixing the subspace pointwise.

    Tuples come in ``itertools.product`` order, which is lexicographic.
    """
    return itertools.product(*_choices(embedding))


def search_retraction(
    embedding: SubspaceEmbedding, semicontinuity: str = "usc"
) -> SetValuedMap | None:
    """Find the first set-valued retraction with the requested property.

    Candidates are the maps of ``fixing_images``.  The answer is the first
    one that passes in order of total image cardinality, then
    lexicographically, so a minimal retraction is found and the result is
    deterministic.  Returns None when no candidate passes.

    The search is exact and builds no candidate list.  It is depth first:
    ambient points are assigned in index order, each trying its values in
    ascending mask order, which visits full assignments in lexicographic
    order.  Every pair (y, y') with y' in minN(y) is tested by the pairwise
    rules of the module docstring as soon as both points are assigned, and
    a partial assignment that breaks one is dropped with all its
    completions.  On top of that it is a branch and bound on total
    cardinality: once a retraction of cardinality c is found, a branch
    whose cardinality so far plus one per unassigned point reaches c is
    dropped.  Only retractions strictly smaller than the best are kept, so
    the first one found at the least cardinality, the lexicographically
    smallest, is returned.

    The size guard is the candidate count of the full product, as for an
    exhaustive search: above ``SEARCH_CAP`` it raises TooLarge.
    """
    if semicontinuity not in ("usc", "lsc", "continuous"):
        raise InvariantViolation("semicontinuity", "must be usc, lsc, or continuous")
    amb = embedding.ambient
    sub = embedding.subspace
    n_choices = sub.full_mask  # 2^|X| - 1 nonempty subsets
    n_outside = amb.n - len(embedding.subset)
    if n_choices ** n_outside > SEARCH_CAP:
        raise TooLarge(
            f"{n_choices}^{n_outside} candidates exceed the search cap"
        )
    tests = _pair_tests(sub, semicontinuity)
    choices = _choices(embedding)
    # the pairs decided by assigning point i: both points at index <= i
    closing = [[] for _ in range(amb.n)]
    for y, y2 in _pairs(amb):
        closing[max(y, y2)].append((y, y2))
    images = [0] * amb.n
    best: list = [amb.n * sub.n + 1, None]  # cardinality to beat, its images

    def extend(i: int, card: int) -> None:
        if i == amb.n:
            best[:] = [card, tuple(images)]
            return
        unassigned = amb.n - 1 - i  # each adds at least one point
        for m in choices[i]:
            c = card + m.bit_count()
            if c + unassigned >= best[0]:
                continue
            images[i] = m
            if all(t(images[y], images[y2]) for y, y2 in closing[i] for t in tests):
                extend(i + 1, c)

    extend(0, 0)
    return None if best[1] is None else SetValuedMap(amb, sub, best[1])

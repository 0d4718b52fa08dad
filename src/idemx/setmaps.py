"""Set-valued maps between finite spaces and their semicontinuity.

A map r assigns to each point of the domain a nonempty subset of the
codomain.  It is lower (upper) semicontinuous when the set of points whose
image meets (is contained in) an open set is always open.  A retraction
fixes an embedded subspace pointwise; retraction existence is decided by
exhaustive search over image assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    EmptySet,
    InvariantViolation,
    SpaceMismatch,
    TooLarge,
)
from .spaces import FiniteTopSpace, SubspaceEmbedding, _popcount

#: Exhaustive retraction search is capped at this many candidates.
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


def _preimage_meets(r: SetValuedMap, u: int) -> int:
    out = 0
    for i, m in enumerate(r.images):
        if m & u:
            out |= 1 << i
    return out


def _preimage_inside(r: SetValuedMap, u: int) -> int:
    out = 0
    for i, m in enumerate(r.images):
        if not (m & ~u):
            out |= 1 << i
    return out


def is_lsc(r: SetValuedMap) -> bool:
    """Lower semicontinuity: {y : r(y) meets U} open for every open U."""
    return all(r.domain.is_open_mask(_preimage_meets(r, u)) for u in r.codomain.opens)


def is_usc(r: SetValuedMap) -> bool:
    """Upper semicontinuity: {y : r(y) inside U} open for every open U."""
    return all(r.domain.is_open_mask(_preimage_inside(r, u)) for u in r.codomain.opens)


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


def fixing_images(embedding: SubspaceEmbedding) -> Iterator[tuple[int, ...]]:
    """Image tuples of every set-valued map fixing the subspace pointwise.

    Embedded points map to their own singletons and every other ambient
    point ranges over the nonempty subsets of the subspace.  Tuples come in
    ``itertools.product`` order, which is lexicographic.
    """
    amb, sub = embedding.ambient, embedding.subspace
    choices = [
        (1 << sub.index(p),) if (embedding.subset_mask >> i) & 1
        else range(1, sub.full_mask + 1)
        for i, p in enumerate(amb.points)
    ]
    return itertools.product(*choices)


def search_retraction(
    embedding: SubspaceEmbedding, semicontinuity: str = "usc"
) -> SetValuedMap | None:
    """Exhaustively search set-valued retractions with the requested property.

    Candidates fix the subspace pointwise and assign any nonempty subset to
    each outside point; they are tried in order of total image cardinality,
    then lexicographically, so a minimal retraction is found first and the
    result is deterministic.  Returns None when no candidate passes.
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
    predicate = {
        "usc": is_usc,
        "lsc": is_lsc,
        "continuous": is_continuous,
    }[semicontinuity]

    def total_card(images: tuple[int, ...]) -> int:
        return sum(_popcount(m) for m in images)

    # the sort is stable, so candidates of equal cardinality stay in
    # lexicographic order
    for images in sorted(fixing_images(embedding), key=total_card):
        cand = SetValuedMap(amb, sub, images)
        if predicate(cand):
            return cand
    return None

"""Set-valued maps between finite spaces and their semicontinuity.

A map r assigns to each point of the domain a nonempty subset of the
codomain.  It is lower (upper) semicontinuous when the set of points whose
image meets (is contained in) an open set is always open.

On finite spaces both properties come down to one rule on the pairs of
domain points y and y' in minN(y), the minimal neighborhood of y:

* usc: r(y') lies inside hull(r(y)), the union of the minimal
  neighborhoods of r(y), which is the smallest open set containing r(y);
* lsc: r(y) lies inside cl(r(y')), the union of the point closures of
  r(y'); equivalently, r(y') meets minN(x) for every x in r(y).

Every open set containing r(y) contains hull(r(y)), and every open set
meeting r(y) at x contains minN(x), so these rules are the open-set
definitions with the open sets left out: no open set is enumerated.

Both are one cut with two tables, a spread table on the domain and a
grow table on the codomain: for a point y, every other point of
spread[y] has its image cut down to the union of grow over r(y).  usc
reads the ``min_nbhd`` tables of both spaces, lsc their
``point_closures`` (y' lies in minN(y) iff y lies in cl{y'}), and
continuity both pairs.  The point closures are the minimal neighborhoods
of the reversed specialization order, so lsc is usc with both orders
reversed, the min/max duality the paper runs on.
Hull and closure are monotone, so a cut keeps every map of the kind that
lies pointwise below r, and r is of the kind exactly when no cut shrinks
it.  ``_narrow`` runs the cuts to the greatest fixed point below r, and
it is the only code that applies the rule.  The images of the points it
is told to freeze may not shrink:

* ``is_usc``, ``is_lsc`` and ``is_continuous`` freeze every point, so it
  checks r and stops at the first broken rule;
* ``greatest_retraction`` freezes the embedded subspace, which decides
  existence in polynomial time;
* ``search_retraction`` re-runs it after each assignment with the assigned
  points frozen, and takes the next point's images from what is left.

No table over every subset is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InvariantViolation, SpaceMismatch, TooLarge
from .spaces import FiniteTopSpace, SubspaceEmbedding, _at_points, _bits

#: Node budget of a retraction search, which raises TooLarge past it.  The
#: largest search of the benchmark's retractions workload (seeds 1-40)
#: takes 188 nodes.
SEARCH_NODES = 10**6


@dataclass(frozen=True)
class SetValuedMap:
    """point of ``domain`` -> nonempty subset of ``codomain`` (bitmask)."""

    domain: FiniteTopSpace
    codomain: FiniteTopSpace
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.n:
            raise InvariantViolation("images", "one image per domain point")
        for p, m in zip(self.domain.points, self.images):
            self.codomain.member(m, f"images[{p}]")

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
    masks = tuple(codomain.mask(v) for v in _at_points(domain.points, images, "map"))
    return SetValuedMap(domain, codomain, masks)


def identity_map(space: FiniteTopSpace) -> SetValuedMap:
    return SetValuedMap(space, space, tuple(1 << i for i in range(space.n)))


def _pairs(space: FiniteTopSpace) -> list[tuple[int, int]]:
    """(y, y') for every point y and every other point y' of minN(y)."""
    return [
        (y, y2) for y, m in enumerate(space.min_nbhd) for y2 in _bits(m & ~(1 << y))
    ]


def _rules(domain: FiniteTopSpace, codomain: FiniteTopSpace, semicontinuity: str) -> list:
    """The (spread, grow) table pairs a kind cuts by: usc the minimal
    neighborhoods of both spaces, lsc their point closures, continuity both."""
    rules = []
    if semicontinuity != "lsc":
        rules.append((domain.min_nbhd, codomain.min_nbhd))
    if semicontinuity != "usc":
        rules.append((domain.point_closures, codomain.point_closures))
    return rules


def _narrow(images: list[int] | tuple[int, ...], rules: list, frozen: int, changed: int) -> bool:
    """Shrink ``images`` in place to the greatest fixed point of the
    ``rules`` below them; False when there is none.  Each rule (spread,
    grow) cuts the image of every other point of spread[y] down to the
    union of grow over r(y).

    ``frozen`` and ``changed`` are domain masks, -1 for every point.  A
    cut can only shrink anything when the image r(y) it reads shrinks, so
    ``changed`` holds the points whose images shrank since their cuts last
    held, and each round cuts only from those.  The points a round shrinks
    are the next round's ``changed``, until a round shrinks none.

    It fails as soon as an image empties or the image of a ``frozen`` point
    would have to shrink.  With every point frozen it writes nothing
    (``images`` may be a tuple), so it is a check that stops at the first
    broken rule.  Bits are taken lowest first with ``m & -m``, not by
    ``_bits``: these are the innermost loops of every caller.
    """
    full = (1 << len(images)) - 1
    while changed:
        read, changed = changed & full, 0
        for spread, grow in rules:
            points = read
            while points:
                one = points & -points
                points ^= one
                y = one.bit_length() - 1
                targets = spread[y] & ~one
                if not targets:
                    continue
                bound, m = 0, images[y]  # the union of grow over r(y)
                while m:
                    low = m & -m
                    m ^= low
                    bound |= grow[low.bit_length() - 1]
                while targets:
                    low = targets & -targets
                    targets ^= low
                    y2 = low.bit_length() - 1
                    im = images[y2]
                    if im & ~bound:
                        if frozen & low or not im & bound:
                            return False
                        images[y2] = im & bound
                        changed |= low
    return True


def is_lsc(r: SetValuedMap) -> bool:
    """Lower semicontinuity: {y : r(y) meets U} open for every open U.

    Tested point by point: r(y) inside cl(r(y')) for every y' in minN(y).
    """
    return _narrow(r.images, _rules(r.domain, r.codomain, "lsc"), -1, -1)


def is_usc(r: SetValuedMap) -> bool:
    """Upper semicontinuity: {y : r(y) inside U} open for every open U.

    Tested point by point: r(y') inside hull(r(y)) for every y' in minN(y).
    """
    return _narrow(r.images, _rules(r.domain, r.codomain, "usc"), -1, -1)


def is_continuous(r: SetValuedMap) -> bool:
    return _narrow(r.images, _rules(r.domain, r.codomain, "continuous"), -1, -1)


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
    return itertools.product(*(
        (1 << sub.index(p),) if (embedding.subset_mask >> i) & 1
        else range(1, sub.full_mask + 1)
        for i, p in enumerate(amb.points)
    ))


def greatest_retraction(
    embedding: SubspaceEmbedding, semicontinuity: str = "usc"
) -> SetValuedMap | None:
    """The pointwise greatest retraction with the requested property, or None.

    Hull and closure preserve unions, so the pointwise union of two usc (or
    lsc) retractions is again one: when a retraction of a kind exists, a
    greatest one exists, and every other lies pointwise below it.  It is
    what ``_narrow`` leaves of r(x) = {x} on the subspace and r(y) = the
    whole subspace elsewhere, with the embedded points frozen: every cut
    keeps each retraction of the kind below r, so when the fixed point
    exists it is the greatest retraction, and otherwise none exists.  Every
    round but the last shrinks some image, so there are at most |Y| * |X|
    rounds.  ``search_retraction`` starts from this fixed point and re-runs
    ``_narrow`` after each assignment.
    """
    if semicontinuity not in ("usc", "lsc", "continuous"):
        raise InvariantViolation("semicontinuity", "must be usc, lsc, or continuous")
    amb, sub = embedding.ambient, embedding.subspace
    images = [
        1 << sub.index(p) if (embedding.subset_mask >> i) & 1 else sub.full_mask
        for i, p in enumerate(amb.points)
    ]
    if not _narrow(images, _rules(amb, sub, semicontinuity), embedding.subset_mask, -1):
        return None
    return SetValuedMap(amb, sub, tuple(images))


def _over_budget(nodes: int) -> TooLarge:
    return TooLarge(f"search reached {nodes} nodes, over its budget of {SEARCH_NODES}")


def _submasks(mask: int) -> list[int]:
    """Nonempty submasks of ``mask``, ascending."""
    out = []
    m = -mask & mask
    while m:
        out.append(m)
        m = (m - mask) & mask
    return out


def search_retraction(
    embedding: SubspaceEmbedding, semicontinuity: str = "usc"
) -> SetValuedMap | None:
    """Find the first set-valued retraction with the requested property.

    Candidates are the maps of ``fixing_images``.  The answer is the first
    one that passes in order of total image cardinality, then
    lexicographically, so a minimal retraction is found and the result is
    deterministic.  Returns None when no candidate passes.

    Existence is decided first by ``greatest_retraction``: when it returns
    None, so does the search, without visiting a node.  Otherwise every
    retraction lies pointwise below the greatest one g, and the search
    starts from g's images.

    The search is exact and builds no candidate list.  It is depth first:
    ambient points are assigned in index order, each trying the nonempty
    submasks of its current image in ascending mask order, which visits
    full assignments in lexicographic order.  After each assignment it
    re-runs ``_narrow`` with the assigned points frozen (forward checking):
    an assignment it fails on has no completion and is dropped, and
    otherwise the narrowed images give the later points their choices.
    Assigning a point its whole current image keeps the parent's fixed
    point, which is reused.  Narrowing drops only branches that hold no
    retraction and keeps the order of the rest.  On top of that it is a
    branch and bound on total cardinality, starting from g itself: a branch
    whose cardinality so far plus one per unassigned point reaches the best
    cardinality found is dropped.  Only retractions strictly smaller than
    the best are kept, so the first one found at the least cardinality,
    the lexicographically smallest, is returned; g is returned when none
    is smaller, since a retraction below g of g's cardinality is g.

    The size guard is a budget of ``SEARCH_NODES`` nodes.  The search
    first pays one node for each nonempty submask of each image of g,
    before it lists any; it then pays one node for each image of a point
    it runs through, tested or cut by the bound.  A search that needs more
    raises TooLarge, naming the nodes reached.
    """
    g = greatest_retraction(embedding, semicontinuity)
    if g is None:
        return None
    amb, sub = embedding.ambient, embedding.subspace
    n, rules = amb.n, _rules(amb, sub, semicontinuity)
    nodes = sum((1 << m.bit_count()) - 1 for m in g.images)
    if nodes > SEARCH_NODES:
        raise _over_budget(nodes)
    best = [sum(m.bit_count() for m in g.images), g.images]  # cardinality to beat, its images

    def extend(i: int, card: int, images: list[int]) -> None:
        nonlocal nodes
        if i == n:
            best[:] = [card, tuple(images)]
            return
        choices = _submasks(images[i])
        nodes += len(choices)  # each image is tried or cut by the bound
        if nodes > SEARCH_NODES:
            raise _over_budget(nodes)
        unassigned = n - 1 - i  # each adds at least one point
        assigned = (2 << i) - 1
        for m in choices:
            c = card + m.bit_count()
            if c + unassigned >= best[0]:
                continue
            if m == images[i]:  # the last choice: the parent's fixed point
                extend(i + 1, c, images)
                continue
            narrowed = images.copy()
            narrowed[i] = m
            if _narrow(narrowed, rules, assigned, 1 << i):
                extend(i + 1, c, narrowed)

    extend(0, 0, list(g.images))
    return SetValuedMap(amb, sub, best[1])

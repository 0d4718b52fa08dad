"""Set-valued maps between finite spaces and their semicontinuity.

A map r assigns to each point of the domain a nonempty subset of the
codomain.  It is lower (upper) semicontinuous when the set of points whose
image meets (is contained in) an open set is always open.

On finite spaces both properties come down to one rule on the pairs of
domain points y and y' in minN(y), the minimal neighborhood of y:

* usc: r(y') lies inside hull(r(y)), the union of the minimal
  neighborhoods of r(y), which is the smallest open set containing r(y);
* lsc: r(y') meets minN(x) for every x in r(y); equivalently, r(y) lies
  inside the closure of r(y').

Every open set containing r(y) contains hull(r(y)), and every open set
meeting r(y) at x contains minN(x), so these rules are the open-set
definitions with the open sets left out: no open set is enumerated.

The rule has two readings.  Grouped by y, it is one test per domain point,
which is how ``is_usc``, ``is_lsc`` and ``is_continuous`` decide a whole
map: usc at y when the union of r(y') over minN(y) lies inside
hull(r(y)), lsc at y when r(y) lies inside cl(r(y')) for every other y' in
minN(y), with each closure computed once per call.  Pair by pair, it is
the list of ``_rules``, which the retraction routines below apply to maps
that change one image at a time.

A retraction fixes an embedded subspace pointwise.  Hull and closure
preserve unions, so when a retraction of a kind exists a pointwise greatest
one exists: ``greatest_retraction`` computes it as a greatest fixed point of
the pairwise rules, which decides existence in polynomial time.
``search_retraction`` finds the least retraction (fewest points, then
lexicographically first) by an exact ordered branch-and-bound search run
only below that fixed point.  It applies the same rules to partial
assignments and gives up with TooLarge past ``SEARCH_NODES`` nodes.  Both
read hull and closure from tables filled on demand, one entry per subset
met, so no table over every subset is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InvariantViolation, SpaceMismatch, TooLarge
from .spaces import FiniteTopSpace, SubspaceEmbedding, _at_points, _bits

#: Node budget of a retraction search, which raises TooLarge past it.  The
#: largest search of the benchmark's retractions workload (seeds 1-40)
#: takes 816 nodes.
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


class _Table(dict):
    """mask -> f(mask), each value computed on its first lookup."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, mask: int) -> int:
        value = self[mask] = self.f(mask)
        return value


def _rules(
    domain: FiniteTopSpace,
    codomain: FiniteTopSpace,
    semicontinuity: str,
    fixed: int = 0,
) -> list:
    """The pairwise rules of ``semicontinuity`` as triples (a, b, table):
    r(a) must lie inside table[r(b)].

    usc gives (y', y, hull) and lsc gives (y, y', closure) for each pair
    (y, y') of ``_pairs``; a pair with both points in the domain mask
    ``fixed`` is left out (for a retraction, the embedded subspace: such a
    pair holds for every map fixing it).  hull and closure are ``_Table``s
    over codomain masks, shared by all the rules, so a mask's hull or
    closure is computed once, and only for the masks the rules meet.
    """
    if semicontinuity not in ("usc", "lsc", "continuous"):
        raise InvariantViolation("semicontinuity", "must be usc, lsc, or continuous")
    hull = _Table(codomain.hull_mask)
    # r(y') meets minN(x) exactly when x lies in the closure of r(y')
    closure = _Table(codomain.closure_mask)
    rules = []
    for y, y2 in _pairs(domain):
        if (fixed >> y) & 1 and (fixed >> y2) & 1:
            continue
        if semicontinuity != "lsc":
            rules.append((y2, y, hull))
        if semicontinuity != "usc":
            rules.append((y, y2, closure))
    return rules


def _satisfies(r: SetValuedMap, semicontinuity: str) -> bool:
    """The rule of the module docstring grouped by y: one pass over the
    domain points, reading the minimal neighborhoods of both spaces.

    A point y with minN(y) = {y} passes both tests, so it is skipped.  The
    closure of r(y') is computed on the first pair that needs it, and at
    most once a call.  Bits are taken lowest first with ``m & -m``, not by
    ``_bits``: these are the innermost loops of a call, and a generator
    costs more than the test.
    """
    im, cod = r.images, r.codomain
    if semicontinuity != "lsc":
        for y, m in enumerate(r.domain.min_nbhd):
            if m != 1 << y:
                below = 0  # the union of r(y') over minN(y)
                while m:
                    low = m & -m
                    below |= im[low.bit_length() - 1]
                    m ^= low
                if below & ~cod.hull_mask(im[y]):
                    return False
    if semicontinuity != "usc":
        closure = [-1] * len(im)  # -1: not computed yet
        for y, m in enumerate(r.domain.min_nbhd):
            m &= ~(1 << y)
            while m:
                low = m & -m
                y2 = low.bit_length() - 1
                m ^= low
                if closure[y2] < 0:
                    closure[y2] = cod.closure_mask(im[y2])
                if im[y] & ~closure[y2]:
                    return False
    return True


def is_lsc(r: SetValuedMap) -> bool:
    """Lower semicontinuity: {y : r(y) meets U} open for every open U.

    Tested point by point: r(y) inside cl(r(y')) for every y' in minN(y).
    """
    return _satisfies(r, "lsc")


def is_usc(r: SetValuedMap) -> bool:
    """Upper semicontinuity: {y : r(y) inside U} open for every open U.

    Tested point by point: the union of r(y') over minN(y) inside hull(r(y)).
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


def _greatest_images(embedding: SubspaceEmbedding, rules: list) -> tuple[int, ...] | None:
    """Image masks of ``greatest_retraction`` under ``rules``, or None."""
    amb, sub = embedding.ambient, embedding.subspace
    images = [
        1 << sub.index(p) if (embedding.subset_mask >> i) & 1 else sub.full_mask
        for i, p in enumerate(amb.points)
    ]
    changed = True
    while changed:
        changed = False
        for a, b, table in rules:
            m = images[a] & table[images[b]]
            if m != images[a]:
                if not m:  # an emptied image, or an embedded point moved
                    return None
                images[a] = m
                changed = True
    return tuple(images)


def greatest_retraction(
    embedding: SubspaceEmbedding, semicontinuity: str = "usc"
) -> SetValuedMap | None:
    """The pointwise greatest retraction with the requested property, or None.

    Hull and closure preserve unions, so the pointwise union of two usc (or
    lsc) retractions is again one: when a retraction of a kind exists, a
    greatest one exists, and every other lies pointwise below it.  It is
    found as a greatest fixed point.  Start from r(x) = {x} on the subspace
    and r(y) = the whole subspace elsewhere, then apply the pairwise rules
    of the module docstring as shrinking steps until nothing changes:

    * usc: r(y') becomes r(y') & hull(r(y));
    * lsc: r(y) becomes r(y) & closure(r(y'));
    * continuous: both.

    Each step keeps every retraction of the kind below r, and at the fixed
    point r satisfies every rule.  So when no image empties (an embedded
    point's singleton can only shrink to empty), r is the greatest
    retraction; otherwise none exists and the answer is None.  The loop
    shrinks some image on every round but the last, so it ends after at
    most |Y| * |X| rounds over the pairs.
    """
    rules = _rules(
        embedding.ambient, embedding.subspace, semicontinuity, embedding.subset_mask
    )
    images = _greatest_images(embedding, rules)
    if images is None:
        return None
    return SetValuedMap(embedding.ambient, embedding.subspace, images)


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
    retraction lies pointwise below the greatest one g, so each ambient
    point ranges over the nonempty submasks of g(y), in ascending mask
    order (an embedded point keeps its singleton).  This drops only
    branches that hold no retraction and keeps the order of the rest.

    The search is exact and builds no candidate list.  It is depth first:
    ambient points are assigned in index order, each trying its values in
    ascending mask order, which visits full assignments in lexicographic
    order.  Every rule of a pair (y, y') is tested by table lookup as soon
    as both points are assigned, and a partial assignment that breaks one
    is dropped with all its completions.  On top of that it is a branch
    and bound on total cardinality, starting from g itself: a branch whose
    cardinality so far plus one per unassigned point reaches the best
    cardinality found is dropped.  Only retractions strictly smaller than
    the best are kept, so the first one found at the least cardinality,
    the lexicographically smallest, is returned; g is returned when none
    is smaller, since a retraction below g of g's cardinality is g.

    The size guard is a budget of ``SEARCH_NODES`` nodes.  Listing the
    images of the points costs one node per image listed, and is paid
    before any list is built; the search then pays one node for each image
    of a point it runs through, tested or cut by the bound.  A search that
    needs more raises TooLarge, naming the nodes reached.
    """
    rules = _rules(
        embedding.ambient, embedding.subspace, semicontinuity, embedding.subset_mask
    )
    top = _greatest_images(embedding, rules)
    if top is None:
        return None
    amb = embedding.ambient
    n = amb.n
    nodes = sum((1 << m.bit_count()) - 1 for m in top)
    if nodes > SEARCH_NODES:
        raise _over_budget(nodes)
    choices = [_submasks(m) for m in top]
    # the rules decided by assigning point i: both points at index <= i
    closing = [[] for _ in range(n)]
    for a, b, table in rules:
        closing[max(a, b)].append((a, b, table))
    images = [0] * n
    best = [sum(m.bit_count() for m in top), top]  # cardinality to beat, its images

    def extend(i: int, card: int) -> None:
        nonlocal nodes
        if i == n:
            best[:] = [card, tuple(images)]
            return
        nodes += len(choices[i])  # each image is tried or cut by the bound
        if nodes > SEARCH_NODES:
            raise _over_budget(nodes)
        unassigned = n - 1 - i  # each adds at least one point
        for m in choices[i]:
            c = card + m.bit_count()
            if c + unassigned >= best[0]:
                continue
            images[i] = m
            for a, b, table in closing[i]:
                if images[a] & ~table[images[b]]:
                    break
            else:
                extend(i + 1, c)

    extend(0, 0)
    return SetValuedMap(amb, embedding.subspace, best[1])

import json
from pathlib import Path

import numpy as np
import pytest

from idemx import setmaps
from idemx.campaign import _embedding_corpus
from idemx.cli import main
from idemx.errors import EmptySet, InvariantViolation, SpaceMismatch, TooLarge
from idemx.instances import embedding_to_json, load_embedding
from idemx.setmaps import (
    SetValuedMap,
    greatest_retraction,
    identity_map,
    is_connected_valued,
    is_continuous,
    is_lsc,
    is_retraction,
    is_usc,
    fixing_images,
    search_retraction,
    setmap,
)
from idemx.spaces import (
    FiniteTopSpace,
    SubspaceEmbedding,
    discrete,
    embed,
    from_minimal_basis,
    sierpinski,
)

from conftest import random_space

WEDGE = from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]})


def test_map_validation():
    x = discrete(["p", "q"])
    with pytest.raises(EmptySet):
        SetValuedMap(sierpinski(), x, (0, 1))
    with pytest.raises(InvariantViolation):
        setmap(sierpinski(), x, {"0": ["p"]})


def test_sierpinski_example_usc_not_lsc():
    y = sierpinski()
    x = discrete(["p", "q"])
    r = setmap(y, x, {"1": ["p"], "0": ["p", "q"]})
    assert not is_lsc(r)  # U={q} pulls back to {0}, not open
    assert is_usc(r)


def test_constant_full_map_is_continuous():
    y = sierpinski()
    x = discrete(["p", "q"])
    r = setmap(y, x, {"0": ["p", "q"], "1": ["p", "q"]})
    assert is_lsc(r) and is_usc(r) and is_continuous(r)


def test_identity_on_discrete_is_continuous():
    d = discrete(["a", "b", "c"])
    assert is_continuous(identity_map(d))


def test_wedge_map_fails_usc():
    e = embed(WEDGE, ["p", "q"])
    r = setmap(WEDGE, e.subspace, {"p": ["p"], "q": ["q"], "w": ["p"]})
    assert not is_usc(r)  # U={q}: preimage {q} is not open in the wedge


def test_retraction_predicate():
    e = embed(WEDGE, ["p", "q"])
    good = setmap(WEDGE, e.subspace, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    bad = setmap(WEDGE, e.subspace, {"p": ["p", "q"], "q": ["q"], "w": ["p", "q"]})
    assert is_retraction(good, e)
    assert not is_retraction(bad, e)
    d = discrete(["a", "b"])
    assert is_retraction(identity_map(d), embed(d, ["a", "b"]))
    with pytest.raises(SpaceMismatch):
        is_retraction(good, embed(WEDGE, ["p"]))


def test_connected_valued():
    e = embed(WEDGE, ["p", "q"])
    singleton = setmap(WEDGE, e.subspace, {"p": ["p"], "q": ["q"], "w": ["q"]})
    assert is_connected_valued(singleton)
    pair = setmap(WEDGE, e.subspace, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    assert not is_connected_valued(pair)  # {p,q} discrete is disconnected
    s = sierpinski()
    r = SetValuedMap(discrete(["y"]), s, (s.full_mask,))
    assert is_connected_valued(r)  # {0,1} in the connected two-point space


def test_search_retraction_isolated_point_finds_minimal():
    y = discrete(["p", "q", "w"])
    e = embed(y, ["p", "q"])
    r = search_retraction(e, "usc")
    assert r is not None and r.image_of("w") == {"p"}  # smallest candidate first
    assert is_retraction(r, e)


def test_search_retraction_wedge_has_none_usc():
    e = embed(WEDGE, ["p", "q"])
    assert search_retraction(e, "usc") is None
    lsc = search_retraction(e, "lsc")
    assert lsc is not None and lsc.image_of("w") == {"p", "q"}


def test_search_retraction_identity_case():
    d = discrete(["a", "b"])
    e = embed(d, ["a", "b"])
    r = search_retraction(e, "continuous")
    assert r == identity_map(d)


BIG = discrete([f"p{i}" for i in range(12)])
BIG_EMBEDDING = embed(BIG, ["p0", "p1", "p2", "p3", "p4"])  # 31^7 candidates


def test_search_cap(tmp_path, capsys):
    # 31^7 candidates, far over the 10^6 the search once refused: every
    # outside point goes to {p0}, through the API and through `idemx search`
    want = {p: ["p0"] for p in BIG.points[5:]}
    want.update({p: [p] for p in BIG.points[:5]})
    r = search_retraction(BIG_EMBEDDING, "usc")
    assert {p: list(ids) for p, ids in r.as_dict().items()} == want
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(embedding_to_json(BIG_EMBEDDING)))
    assert main(["search", "--embedding", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_search_raises_too_large_when_its_node_budget_runs_out(monkeypatch):
    # the image lists cost 5 + 7 * 31 = 222 nodes; the first descent then
    # takes every image of every point, 222 more, and the bound cuts the rest
    monkeypatch.setattr(setmaps, "SEARCH_NODES", 444)
    assert search_retraction(BIG_EMBEDDING, "usc") is not None
    monkeypatch.setattr(setmaps, "SEARCH_NODES", 443)
    with pytest.raises(TooLarge, match="reached 444 nodes"):
        search_retraction(BIG_EMBEDDING, "usc")
    monkeypatch.setattr(setmaps, "SEARCH_NODES", 221)
    with pytest.raises(TooLarge, match="reached 222 nodes"):
        search_retraction(BIG_EMBEDDING, "usc")


def test_search_on_a_large_identity_embedding_returns_the_identity():
    # every pair lies inside the subspace, so no hull or closure is needed
    # and each point has one image: 30 nodes, not 2^30 table entries
    d = discrete([f"p{i}" for i in range(30)])
    for prop in ("usc", "lsc", "continuous"):
        assert search_retraction(embed(d, d.points), prop) == identity_map(d)


def _wide_cone(k: int) -> SubspaceEmbedding:
    """k discrete points inside and one point "w" outside whose minimal
    neighborhood holds them all."""
    pts = [f"p{i}" for i in range(k)]
    basis = {p: [p] for p in pts}
    basis["w"] = pts + ["w"]
    return embed(from_minimal_basis(basis), pts)


def test_search_refuses_a_large_subspace_before_building_anything(monkeypatch):
    # usc forces r(w) = X; listing the 2^20 - 1 submasks of it would cost
    # more than the budget, so the search stops before listing any
    e = _wide_cone(20)
    assert greatest_retraction(e, "usc").image_of("w") == set(e.subset)

    def never(mask):
        raise AssertionError("image lists built past the budget")

    monkeypatch.setattr(setmaps, "_submasks", never)
    with pytest.raises(TooLarge, match=f"reached {2**20 - 1 + 20} nodes"):
        search_retraction(e, "usc")


def test_greatest_retraction_needs_no_table_over_every_subspace_mask():
    # 40 points inside: a table over all 2^40 masks could not be built.
    # usc forces r(w) = X; lsc forces r(w) into the closure {x} of every x
    e = _wide_cone(40)
    usc = greatest_retraction(e, "usc")
    assert usc.image_of("w") == set(e.subset) and is_usc(usc)
    assert greatest_retraction(e, "lsc") is None
    assert greatest_retraction(e, "continuous") is None


def test_search_continuous_results_pass_both_predicates(rng):
    # fuzz: whenever the exhaustive search returns a map, it satisfies both
    for _ in range(30):
        y = random_space(rng, int(rng.integers(2, 6)))
        k = int(rng.integers(1, y.n))
        subset = [y.points[i] for i in sorted(rng.choice(y.n, size=k, replace=False))]
        e = embed(y, subset)
        r = search_retraction(e, "continuous")
        if r is not None:
            assert is_lsc(r) and is_usc(r) and is_retraction(r, e)


def test_semicontinuity_antitone_under_domain_refinement():
    # refining the domain topology to discrete never turns true into false
    y = sierpinski()
    x = discrete(["p", "q"])
    r = setmap(y, x, {"1": ["p"], "0": ["p", "q"]})
    yd = discrete(["0", "1"])
    rd = SetValuedMap(yd, x, r.images)
    assert is_usc(r) and is_usc(rd)
    assert not is_lsc(r) and is_lsc(rd)


def test_singleton_valued_continuity_matches_pointmap():
    # a continuous singleton-valued map has open preimages of opens
    y = sierpinski()
    x = sierpinski()
    r = setmap(y, x, {"0": ["0"], "1": ["1"]})
    assert is_continuous(r)
    for u in x.opens:
        pre = 0
        for i, m in enumerate(r.images):
            if not (m & ~u):
                pre |= 1 << i
        assert y.is_open_mask(pre)


def test_fixing_images_enumerates_every_retraction_in_product_order():
    y = from_minimal_basis(
        {"a": ["a"], "v": ["a", "v"], "b": ["b"], "w": ["w", "b"]}
    )
    e = embed(y, ["a", "b"])
    images = list(fixing_images(e))
    assert len(images) == (2**2 - 1) ** 2 == len(set(images))
    assert images == sorted(images)  # itertools.product order is lexicographic
    assert images[0] == (1, 1, 2, 1) and images[-1] == (1, 3, 2, 3)
    for im in images:
        assert is_retraction(SetValuedMap(y, e.subspace, im), e)


# -- the open-set definitions and the sorted exhaustive search, as reference --


def _preimage_meets(r, u):
    return sum(1 << i for i, m in enumerate(r.images) if m & u)


def _preimage_inside(r, u):
    return sum(1 << i for i, m in enumerate(r.images) if not m & ~u)


def reference_is_lsc(r):
    return all(r.domain.is_open_mask(_preimage_meets(r, u)) for u in r.codomain.opens)


def reference_is_usc(r):
    return all(r.domain.is_open_mask(_preimage_inside(r, u)) for u in r.codomain.opens)


REFERENCE = {
    "usc": reference_is_usc,
    "lsc": reference_is_lsc,
    "continuous": lambda r: reference_is_lsc(r) and reference_is_usc(r),
}


def reference_search(e, prop):
    """Every fixing map, stably sorted by total cardinality, first that passes."""
    ranked = sorted(fixing_images(e), key=lambda im: sum(bin(m).count("1") for m in im))
    for images in ranked:
        r = SetValuedMap(e.ambient, e.subspace, images)
        if REFERENCE[prop](r):
            return r
    return None


#: The candidate cap of the search before the greatest fixed point.
SEARCH_CAP = 10**6


def reference_branch_and_bound(e, prop, cap=SEARCH_CAP):
    """The search before the greatest fixed point: the ordered branch and
    bound over every fixing map, with each pair tested through
    ``hull_mask``/``closure_mask``.  It refuses more than ``cap`` candidates;
    ``cap=None`` lifts the refusal."""
    amb, sub = e.ambient, e.subspace
    n_outside = amb.n - len(e.subset)
    if cap is not None and sub.full_mask**n_outside > cap:
        raise TooLarge(f"{sub.full_mask}^{n_outside} candidates exceed the search cap")
    tests = []
    if prop != "lsc":
        tests.append(lambda ry, ry2: not ry2 & ~sub.hull_mask(ry))
    if prop != "usc":
        tests.append(lambda ry, ry2: not ry & ~sub.closure_mask(ry2))
    choices = [
        (1 << sub.index(p),) if p in e.subset else range(1, sub.full_mask + 1)
        for p in amb.points
    ]
    closing = [[] for _ in range(amb.n)]
    for y, m in enumerate(amb.min_nbhd):
        for y2 in range(amb.n):
            if y2 != y and (m >> y2) & 1:
                closing[max(y, y2)].append((y, y2))
    images = [0] * amb.n
    best = [amb.n * sub.n + 1, None]

    def extend(i, card):
        if i == amb.n:
            best[:] = [card, tuple(images)]
            return
        unassigned = amb.n - 1 - i
        for m in choices[i]:
            c = card + bin(m).count("1")
            if c + unassigned >= best[0]:
                continue
            images[i] = m
            if all(t(images[y], images[y2]) for y, y2 in closing[i] for t in tests):
                extend(i + 1, c)

    extend(0, 0)
    return None if best[1] is None else SetValuedMap(amb, sub, best[1])


def _reference_rules(domain, codomain, prop, fixed=0):
    """The rule of the ``setmaps`` module docstring pair by pair, as triples
    (a, b, f): r(a) must lie inside f(r(b)).  usc gives (y', y, hull) and
    lsc gives (y, y', closure) for each y and each other y' in minN(y); a
    pair with both points in the domain mask ``fixed`` is left out."""
    rules = []
    for y, m in enumerate(domain.min_nbhd):
        for y2 in range(domain.n):
            if y2 == y or not (m >> y2) & 1 or (fixed >> y) & (fixed >> y2) & 1:
                continue
            if prop != "lsc":
                rules.append((y2, y, codomain.hull_mask))
            if prop != "usc":
                rules.append((y, y2, codomain.closure_mask))
    return rules


def reference_pairwise_search(e, prop):
    """The search before forward checking, with the nodes it counts: the
    same ordered branch and bound below the greatest fixed point of the
    pair rules, testing each rule once both of its points are assigned.
    Returns (images or None, nodes), with no node budget."""
    amb, sub = e.ambient, e.subspace
    rules = _reference_rules(amb, sub, prop, e.subset_mask)
    top = [1 << sub.index(p) if p in e.subset else sub.full_mask for p in amb.points]
    changed = True
    while changed:
        changed = False
        for a, b, f in rules:
            m = top[a] & f(top[b])
            if m != top[a]:
                if not m:
                    return None, 0
                top[a], changed = m, True
    choices = [[m for m in range(1, g + 1) if not m & ~g] for g in top]
    nodes = sum(len(c) for c in choices)
    closing = [[] for _ in range(amb.n)]
    for a, b, f in rules:
        closing[max(a, b)].append((a, b, f))
    images = [0] * amb.n
    best = [sum(bin(m).count("1") for m in top), tuple(top)]

    def extend(i, card):
        nonlocal nodes
        if i == amb.n:
            best[:] = [card, tuple(images)]
            return
        nodes += len(choices[i])
        for m in choices[i]:
            c = card + bin(m).count("1")
            if c + amb.n - 1 - i >= best[0]:
                continue
            images[i] = m
            if not any(images[a] & ~f(images[b]) for a, b, f in closing[i]):
                extend(i + 1, c)

    extend(0, 0)
    return best[1], nodes


PREDICATE = {"usc": is_usc, "lsc": is_lsc, "continuous": is_continuous}


def assert_greatest_bounds(e, prop, found):
    """The greatest retraction is a retraction of the kind, lies above the
    search's answer, and is None exactly when the answer is."""
    g = greatest_retraction(e, prop)
    assert (g is None) == (found is None), (e.ambient.min_nbhd, e.subset, prop)
    if g is not None:
        assert is_retraction(g, e) and PREDICATE[prop](g)
        assert all(not m & ~gm for m, gm in zip(found.images, g.images))


def _random_image(rng, cod):
    roll = rng.random()
    i = int(rng.integers(cod.n))
    if roll < 0.4:
        return cod.min_nbhd[i]
    if roll < 0.7:
        return cod.closure_mask(1 << i)
    return int(rng.integers(1, cod.full_mask + 1))


def test_pairwise_predicates_match_the_open_set_definitions():
    rng = np.random.default_rng(2011)
    verdicts = {"usc": [], "lsc": []}
    for i in range(1000):
        dom = random_space(rng, int(rng.integers(1, 9)))
        cod = random_space(rng, 1 + i % 10)
        r = SetValuedMap(dom, cod, tuple(_random_image(rng, cod) for _ in range(dom.n)))
        assert is_usc(r) == reference_is_usc(r), r.as_dict()
        assert is_lsc(r) == reference_is_lsc(r), r.as_dict()
        verdicts["usc"].append(is_usc(r))
        verdicts["lsc"].append(is_lsc(r))
    for got in verdicts.values():  # both verdicts occur often
        assert 200 < sum(got) < 800


def reference_satisfies(r, prop):
    """The predicates pair by pair: every rule of ``_reference_rules``."""
    im = r.images
    rules = _reference_rules(r.domain, r.codomain, prop)
    return not any(im[a] & ~f(im[b]) for a, b, f in rules)


def assert_predicates_match_the_pair_rules(r):
    got = {"usc": is_usc(r), "lsc": is_lsc(r), "continuous": is_continuous(r)}
    want = {prop: reference_satisfies(r, prop) for prop in got}
    assert got == want, (r.domain.min_nbhd, r.codomain.min_nbhd, r.images)
    return got


def test_point_by_point_predicates_match_the_pair_rules_on_random_maps():
    # drawn as the benchmark's semicontinuity calls are: 1-8 domain points,
    # 1-12 codomain points, images a minimal neighborhood, a closure or any
    rng = np.random.default_rng(1812)
    counts = {"usc": 0, "lsc": 0, "continuous": 0}
    for i in range(2400):
        dom = random_space(rng, int(rng.integers(1, 9)))
        cod = random_space(rng, 1 + i % 12)
        r = SetValuedMap(dom, cod, tuple(_random_image(rng, cod) for _ in range(dom.n)))
        for prop, holds in assert_predicates_match_the_pair_rules(r).items():
            counts[prop] += holds
    assert all(300 < c < 2100 for c in counts.values()), counts


def test_point_by_point_predicates_match_the_pair_rules_on_every_fixing_map():
    counts = {"usc": 0, "lsc": 0, "continuous": 0, "maps": 0}
    for seed in (0, 1):
        for case in _embedding_corpus(500, seed, max_y=6):
            e = load_embedding(case["embedding"])
            for images in fixing_images(e):
                r = SetValuedMap(e.ambient, e.subspace, images)
                for prop, holds in assert_predicates_match_the_pair_rules(r).items():
                    counts[prop] += holds
                counts["maps"] += 1
    # 2,152 maps; each verdict is true and false on hundreds of them
    n = counts.pop("maps")
    assert all(500 < c < n - 500 for c in counts.values()), (n, counts)


def test_predicates_decide_beyond_the_open_set_enumeration_cap():
    # 13 codomain points: enumerating the open sets raises TooLarge
    cod = from_minimal_basis(
        {f"c{i}": [f"c{i}"] + (["c0"] if i % 2 else []) for i in range(13)}
    )
    with pytest.raises(TooLarge):
        cod.opens
    y = sierpinski()  # minN("0") = {"0", "1"}
    wide = setmap(y, cod, {"0": ["c1", "c2"], "1": ["c0", "c1"]})
    narrow = setmap(y, cod, {"0": ["c2"], "1": ["c2", "c4"]})
    assert is_usc(wide) and not is_lsc(wide)  # c2 is missed by r(1)
    assert not is_usc(narrow) and is_lsc(narrow)  # c4 is outside hull({c2})
    full = embed(cod, cod.points)
    assert search_retraction(full, "continuous") == identity_map(cod)


def _random_preorder(rng, n, density):
    """Random finite space: each point sees each other one with ``density``,
    closed under transitivity."""
    nbhd = [(1 << i) | sum(1 << j for j in range(n) if rng.random() < density) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = nbhd[i]
            for j in range(n):
                if grown >> j & 1:
                    grown |= nbhd[j]
            changed |= grown != nbhd[i]
            nbhd[i] = grown
    return FiniteTopSpace(tuple(f"y{i}" for i in range(n)), tuple(nbhd))


def test_search_matches_the_sorted_exhaustive_reference():
    # 500 random embeddings of 2-4 points with 1-5 outside, at most 15^3
    # candidates each
    rng = np.random.default_rng(1105)
    cells = [
        (k_in, k_out)
        for k_in in range(2, 5)
        for k_out in range(1, 6)
        if (2**k_in - 1) ** k_out <= 15**3
    ]
    answers = {None: 0, "found": 0}
    for _ in range(500):
        k_in, k_out = cells[int(rng.integers(len(cells)))]
        y = _random_preorder(rng, k_in + k_out, float(rng.choice([0.15, 0.3, 0.5])))
        subset = [y.points[i] for i in sorted(rng.choice(y.n, size=k_in, replace=False))]
        e = embed(y, subset)
        for prop in ("usc", "lsc", "continuous"):
            r = search_retraction(e, prop)
            assert r == reference_search(e, prop), (y.min_nbhd, subset, prop)
            assert r == reference_branch_and_bound(e, prop), (y.min_nbhd, subset, prop)
            assert_greatest_bounds(e, prop, r)
            answers[None if r is None else "found"] += 1
    assert answers[None] >= 30 and answers["found"] >= 1000


def test_search_reproduces_the_recorded_pool():
    # answers brute-forced from the definitions, independently of idemx
    path = Path(__file__).resolve().parents[1] / "bench" / "expected" / "search_pool.json"
    pool = json.loads(path.read_text())
    assert len(pool["entries"]) == 12
    for entry in pool["entries"]:
        points = tuple(f"y{i}" for i in range(len(entry["nbhd"])))
        amb = FiniteTopSpace(points, tuple(entry["nbhd"]))
        e = SubspaceEmbedding(amb, tuple(points[i] for i in entry["subset"]))
        assert (len(e.subset), amb.n - len(e.subset)) == (pool["k_in"], pool["k_out"])
        for prop, want in entry["answers"].items():
            r = search_retraction(e, prop)
            assert (None if r is None else list(r.images)) == want, (entry["subset"], prop)
            assert r == reference_branch_and_bound(e, prop), (entry["subset"], prop)
            assert_greatest_bounds(e, prop, r)


def test_search_matches_the_uncapped_branch_and_bound_on_sparse_preorders():
    # edge probability 0.15 leaves large fixed-point images, so these
    # searches go deep; 4 in / 6 out is 15^6 candidates, over the old cap
    rng = np.random.default_rng(906)
    answers = {None: 0, "found": 0}
    for k_in, k_out, count in ((4, 5, 12), (4, 6, 12)):
        for _ in range(count):
            y = _random_preorder(rng, k_in + k_out, 0.15)
            subset = [y.points[i] for i in sorted(rng.choice(y.n, size=k_in, replace=False))]
            e = embed(y, subset)
            for prop in ("usc", "lsc", "continuous"):
                r = search_retraction(e, prop)
                want = reference_branch_and_bound(e, prop, cap=None)
                assert r == want, (y.min_nbhd, subset, prop)
                assert_greatest_bounds(e, prop, r)
                answers[None if r is None else "found"] += 1
    assert answers[None] >= 10 and answers["found"] >= 10


def _sparse_embeddings(rng, k_in, k_out, count):
    for _ in range(count):
        y = _random_preorder(rng, k_in + k_out, 0.15)
        yield embed(y, [y.points[i] for i in sorted(rng.choice(y.n, size=k_in, replace=False))])


def test_forward_checking_keeps_every_answer_within_the_pairwise_node_count(monkeypatch):
    # the campaign's embedding corpora and the sparse 4/5 and 4/6 corpora
    # above: the same map as the pairwise search, and still decided with the
    # budget cut to the nodes that search counts
    rng = np.random.default_rng(906)
    embeddings = [
        load_embedding(case["embedding"])
        for seed in (0, 1)
        for case in _embedding_corpus(500, seed, max_y=6)
    ]
    embeddings += _sparse_embeddings(rng, 4, 5, 12)
    embeddings += _sparse_embeddings(rng, 4, 6, 12)
    found = 0
    for e in embeddings:
        for prop in ("usc", "lsc", "continuous"):
            want, nodes = reference_pairwise_search(e, prop)
            monkeypatch.setattr(setmaps, "SEARCH_NODES", 10**6)
            r = search_retraction(e, prop)
            assert (None if r is None else r.images) == want, (e.ambient.min_nbhd, e.subset, prop)
            monkeypatch.setattr(setmaps, "SEARCH_NODES", nodes)
            assert search_retraction(e, prop) == r, (e.ambient.min_nbhd, e.subset, prop)
            found += r is not None
    assert len(embeddings) == 1024 and found > 1000, found


#: Sparse embeddings (5 in / 8 out and 6 in / 9 out, edge probability 0.15)
#: on which the pairwise search runs out of its 10^6 nodes: (minimal
#: neighborhoods, subset indices, property, the first retraction's images).
#: Each answer was checked against ``reference_pairwise_search`` with no
#: budget, which counted 28,017,705, 4,359,899 and 2,725,485 nodes.
SPARSE_OVER_THE_PAIRWISE_BUDGET = [
    (
        [4105, 5446, 4, 4104, 16, 7526, 5444, 6084, 4352, 4608, 5444, 6144, 4096],
        [2, 7, 8, 11, 12], "usc", [2, 2, 1, 2, 1, 10, 2, 2, 4, 2, 2, 8, 16],
    ),
    (
        [1161, 6079, 6079, 8, 6079, 6079, 72, 1161, 6079, 6079, 1161, 8127, 6079],
        [6, 8, 9, 10, 12], "lsc", [8, 2, 2, 9, 2, 2, 1, 8, 2, 4, 8, 2, 16],
    ),
    (
        [6175, 6158, 4100, 6158, 6174, 14398, 15102, 6798, 32766, 6670, 31806, 6158,
         4096, 14366, 30750],
        [0, 1, 2, 6, 13, 14], "usc", [1, 2, 4, 2, 2, 16, 8, 2, 40, 2, 32, 2, 4, 16, 32],
    ),
]


@pytest.mark.parametrize(
    "nbhd, subset, prop, want", SPARSE_OVER_THE_PAIRWISE_BUDGET,
    ids=[f"{len(s)}in{len(n) - len(s)}out-{p}" for n, s, p, _ in SPARSE_OVER_THE_PAIRWISE_BUDGET],
)
def test_forward_checking_decides_sparse_searches_the_pairwise_search_could_not(
    nbhd, subset, prop, want
):
    points = tuple(f"y{i}" for i in range(len(nbhd)))
    e = SubspaceEmbedding(FiniteTopSpace(points, tuple(nbhd)), tuple(points[i] for i in subset))
    r = search_retraction(e, prop)
    assert list(r.images) == want
    assert is_retraction(r, e) and PREDICATE[prop](r)
    assert_greatest_bounds(e, prop, r)


def test_greatest_retraction_is_the_union_of_every_retraction_of_its_kind():
    # on every cell small enough to list all fixing maps
    rng = np.random.default_rng(2011)
    for _ in range(150):
        k_in, k_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        y = _random_preorder(rng, k_in + k_out, float(rng.choice([0.15, 0.3, 0.5])))
        subset = [y.points[i] for i in sorted(rng.choice(y.n, size=k_in, replace=False))]
        e = embed(y, subset)
        for prop, holds in PREDICATE.items():
            union = None
            for images in fixing_images(e):
                if holds(SetValuedMap(y, e.subspace, images)):
                    union = images if union is None else tuple(
                        a | b for a, b in zip(union, images)
                    )
            g = greatest_retraction(e, prop)
            assert (None if g is None else g.images) == union, (y.min_nbhd, subset, prop)


def test_greatest_retraction_rejects_an_unknown_property():
    with pytest.raises(InvariantViolation, match="semicontinuity"):
        greatest_retraction(embed(WEDGE, ["p", "q"]), "open")


# -- the narrowing kernel before the one cut, as reference --------------------


def _scanned_closure(space):
    """mask -> its closure, read off ``min_nbhd`` alone: x is adherent to A
    iff minN(x) meets A."""
    return lambda mask: sum(1 << i for i, m in enumerate(space.min_nbhd) if m & mask)


def reference_narrow(images, domain_nbhd, semicontinuity, frozen, changed, hull, closure):
    """The narrowing kernel as it was before the one cut: y-major, usc
    cutting each r(y') of minN(y) into hull(r(y)) after a union pre-pass,
    lsc cutting r(y) into the closure of each r(y') through a per-round
    closure cache.  Same contract as ``setmaps._narrow``."""
    while changed:
        read, changed = changed, 0
        if semicontinuity != "lsc":
            for y, nbhd in enumerate(domain_nbhd):
                if nbhd != 1 << y and (read >> y) & 1:
                    h = hull(images[y])
                    below, m = 0, nbhd  # the union of r(y') over minN(y)
                    while m:
                        low = m & -m
                        m ^= low
                        below |= images[low.bit_length() - 1]
                    if below & ~h:
                        while nbhd:  # cut each r(y') down to hull(r(y))
                            low = nbhd & -nbhd
                            nbhd ^= low
                            y2 = low.bit_length() - 1
                            im = images[y2]
                            if im & ~h:
                                if frozen & low or not im & h:
                                    return False
                                images[y2] = im & h
                                changed |= low
        if semicontinuity != "usc":
            cl = [-1] * len(images)
            for y, nbhd in enumerate(domain_nbhd):
                m = nbhd & read & ~(1 << y)
                im = images[y]
                while m:  # cut r(y) down to the closure of each r(y')
                    low = m & -m
                    m ^= low
                    y2 = low.bit_length() - 1
                    c = cl[y2]
                    if c < 0:
                        c = cl[y2] = closure(images[y2])
                    if im & ~c:
                        if (frozen >> y) & 1 or not im & c:
                            return False
                        im = images[y] = im & c
                        changed |= 1 << y
    return True


def reference_narrow_satisfies(r, prop):
    cod = r.codomain
    return reference_narrow(
        r.images, r.domain.min_nbhd, prop, -1, -1, cod.hull_mask, _scanned_closure(cod)
    )


def reference_greatest(e, prop):
    """The images of the greatest retraction through ``reference_narrow``, or None."""
    amb, sub = e.ambient, e.subspace
    images = [1 << sub.index(p) if p in e.subset else sub.full_mask for p in amb.points]
    ok = reference_narrow(
        images, amb.min_nbhd, prop, e.subset_mask, -1, sub.hull_mask, _scanned_closure(sub)
    )
    return tuple(images) if ok else None


def reference_narrowing_search(e, prop):
    """The forward-checking search through ``reference_narrow``, with the
    nodes it counts: (images or None, nodes), with no node budget."""
    top = reference_greatest(e, prop)
    if top is None:
        return None, 0
    amb, sub = e.ambient, e.subspace
    n, hull, closure = amb.n, sub.hull_mask, _scanned_closure(sub)
    nodes = sum((1 << m.bit_count()) - 1 for m in top)
    best = [sum(m.bit_count() for m in top), top]

    def extend(i, card, images):
        nonlocal nodes
        if i == n:
            best[:] = [card, tuple(images)]
            return
        choices = [m for m in range(1, images[i] + 1) if not m & ~images[i]]
        nodes += len(choices)
        for m in choices:
            c = card + m.bit_count()
            if c + n - 1 - i >= best[0]:
                continue
            if m == images[i]:
                extend(i + 1, c, images)
                continue
            narrowed = images.copy()
            narrowed[i] = m
            if reference_narrow(narrowed, amb.min_nbhd, prop, (2 << i) - 1, 1 << i, hull, closure):
                extend(i + 1, c, narrowed)

    extend(0, 0, list(top))
    return best[1], nodes


def _corpus_embeddings():
    return [
        load_embedding(case["embedding"])
        for seed in (0, 1)
        for case in _embedding_corpus(500, seed, max_y=6)
    ]


def test_one_cut_matches_the_reference_kernel(monkeypatch):
    # predicates on every fixing map of the campaign's embedding corpora;
    # greatest retraction, search answer and search nodes on those and on
    # the sparse 4/5 and 4/6 corpora
    rng = np.random.default_rng(906)
    corpora = _corpus_embeddings()
    maps = 0
    for e in corpora:
        for images in fixing_images(e):
            r = SetValuedMap(e.ambient, e.subspace, images)
            for prop, holds in PREDICATE.items():
                assert holds(r) == reference_narrow_satisfies(r, prop), (r.as_dict(), prop)
            maps += 1
    assert maps == 2152
    embeddings = corpora + list(_sparse_embeddings(rng, 4, 5, 12))
    embeddings += _sparse_embeddings(rng, 4, 6, 12)
    for e in embeddings:
        for prop in PREDICATE:
            where = (e.ambient.min_nbhd, e.subset, prop)
            g = greatest_retraction(e, prop)
            assert (None if g is None else g.images) == reference_greatest(e, prop), where
            want, nodes = reference_narrowing_search(e, prop)
            monkeypatch.setattr(setmaps, "SEARCH_NODES", 10**6)
            r = search_retraction(e, prop)
            assert (None if r is None else r.images) == want, where
            if want is not None:  # exactly ``nodes``: decided at that budget, not one below
                monkeypatch.setattr(setmaps, "SEARCH_NODES", nodes)
                assert search_retraction(e, prop) == r, where
                monkeypatch.setattr(setmaps, "SEARCH_NODES", nodes - 1)
                with pytest.raises(TooLarge):
                    search_retraction(e, prop)


def _reversed(space):
    """The space of the reversed specialization order: each minimal
    neighborhood becomes the set of points whose neighborhoods hold it."""
    nbhd = tuple(
        sum(1 << i for i, m in enumerate(space.min_nbhd) if (m >> j) & 1) for j in range(space.n)
    )
    return FiniteTopSpace(space.points, nbhd)


def test_lsc_is_usc_of_the_reversed_order():
    dual = {"usc": "lsc", "lsc": "usc", "continuous": "continuous"}
    for e in _corpus_embeddings():
        amb_op = _reversed(e.ambient)
        e_op = embed(amb_op, e.subset)
        sub_op = _reversed(e.subspace)
        assert e_op.subspace == sub_op
        for images in fixing_images(e):
            r = SetValuedMap(e.ambient, e.subspace, images)
            r_op = SetValuedMap(amb_op, sub_op, images)
            for prop, holds in PREDICATE.items():
                assert holds(r) == PREDICATE[dual[prop]](r_op), (r.as_dict(), prop)
        for prop in PREDICATE:
            where = (e.ambient.min_nbhd, e.subset, prop)
            for f in (greatest_retraction, search_retraction):
                got, want = f(e, prop), f(e_op, dual[prop])
                assert (None if got is None else got.images) == (
                    None if want is None else want.images
                ), (f.__name__, where)

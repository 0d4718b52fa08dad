import pytest

from idemx.errors import EmptySet, InvariantViolation, SpaceMismatch, TooLarge
from idemx.setmaps import (
    SetValuedMap,
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
from idemx.spaces import discrete, embed, from_minimal_basis, sierpinski

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


def test_search_cap():
    big = discrete([f"p{i}" for i in range(12)])
    e = embed(big, ["p0", "p1", "p2", "p3", "p4"])
    with pytest.raises(TooLarge):
        search_retraction(e, "usc")


def test_search_continuous_results_pass_both_predicates(rng):
    # fuzz: whenever the exhaustive search returns a map, it satisfies both
    for _ in range(30):
        y = random_space(rng, int(rng.integers(2, 6)))
        k = int(rng.integers(1, y.n))
        subset = [y.points[i] for i in sorted(rng.choice(y.n, size=k, replace=False))]
        e = embed(y, subset)
        try:
            r = search_retraction(e, "continuous")
        except TooLarge:
            continue
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

import itertools

import numpy as np
import pytest

from idemx.errors import (
    AxiomPrecheckFailed,
    ClassificationFailed,
    InvariantViolation,
    NotARetraction,
    NotNormalized,
)
from idemx.extenders import (
    EXTENSION_SCHEDULE,
    Extender,
    build_extender,
    check_open_extension_algebra,
    connectivity_analysis,
    extend_open_set,
    function_class,
    identity_extender,
    mu_at,
    retraction_from_open_sets,
    supports_retraction,
    verify_semicontinuity_theorem,
)
from idemx.functionals import RealFunction, from_mapping, two_valued_tuples
from idemx.setmaps import SetValuedMap, is_lsc, is_usc, setmap
from idemx.spaces import FiniteTopSpace, discrete, embed, from_minimal_basis, sierpinski

ISOLATED = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"]})
E_ISOLATED = embed(ISOLATED, ["p", "q"])


def map_on(e, images):
    return setmap(e.ambient, e.subspace, images)


def all_retraction_maps(e):
    """Every assignment of nonempty images to the outside points."""
    amb, sub = e.ambient, e.subspace
    outside = [p for p in amb.points if p not in set(e.subset)]
    fixed = {p: 1 << sub.index(p) for p in e.subset}
    for assign in itertools.product(range(1, sub.full_mask + 1), repeat=len(outside)):
        by = dict(zip(outside, assign))
        yield SetValuedMap(
            amb, sub, tuple(fixed.get(p) or by[p] for p in amb.points)
        )


# -- construction ---------------------------------------------------------------


def test_build_extender_examples():
    r = map_on(E_ISOLATED, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    f = from_mapping(E_ISOLATED.subspace, {"p": 0.0, "q": 2.0})
    u_min = build_extender(r, E_ISOLATED, "min")
    u_max = build_extender(r, E_ISOLATED, "max")
    assert u_min.apply(f)["w"] == 0.0
    assert u_max.apply(f)["w"] == 2.0


def test_identity_extender_is_identity():
    d = discrete(["a", "b"])
    e = embed(d, ["a", "b"])
    u = identity_extender(e)
    f = from_mapping(d, {"a": 3.0, "b": -1.0})
    assert u.apply(f).values == f.values


def test_not_a_retraction():
    r = map_on(E_ISOLATED, {"p": ["p", "q"], "q": ["q"], "w": ["p"]})
    with pytest.raises(NotARetraction):
        build_extender(r, E_ISOLATED, "min")


def test_extender_property_exact():
    for r in all_retraction_maps(E_ISOLATED):
        for kind in ("min", "max"):
            u = build_extender(r, E_ISOLATED, kind)
            for vals in two_valued_tuples(2, -1.0, 3.0):
                f = RealFunction(E_ISOLATED.subspace, vals)
                g = u.apply(f)
                for p in E_ISOLATED.subset:
                    assert g[p] == f[p]


def test_min_max_duality_pointwise():
    for r in all_retraction_maps(E_ISOLATED):
        u_max = build_extender(r, E_ISOLATED, "max")
        u_min = build_extender(r, E_ISOLATED, "min")
        for vals in two_valued_tuples(2, -2.0, 1.0):
            f = RealFunction(E_ISOLATED.subspace, vals)
            lhs = u_max.apply(f).values
            rhs = tuple(-v for v in u_min.apply(-f).values)
            assert lhs == rhs


def test_monotone_image_shrinking():
    e = E_ISOLATED
    small = map_on(e, {"p": ["p"], "q": ["q"], "w": ["p"]})
    large = map_on(e, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    for vals in two_valued_tuples(2, 0.0, 1.0):
        f = RealFunction(e.subspace, vals)
        u_small = build_extender(small, e, "min").apply(f).values
        u_large = build_extender(large, e, "min").apply(f).values
        assert all(a <= b for a, b in zip(u_large, u_small))


# -- output classification --------------------------------------------------------


def test_function_class_sierpinski():
    s = sierpinski()
    g = from_mapping(s, {"0": 0.0, "1": 1.0})
    assert function_class(g, s).klass == "lsc"
    assert function_class(from_mapping(s, {"0": 1.0, "1": 0.0}), s).klass == "usc"
    assert function_class(from_mapping(s, {"0": 2.0, "1": 2.0}), s).klass == "continuous"


def test_function_class_neither():
    chain = from_minimal_basis({"a": ["a", "b", "c"], "b": ["b"], "c": ["c"]})
    g = from_mapping(chain, {"a": 1.0, "b": 0.0, "c": 2.0})
    assert function_class(g, chain).klass == "neither"


def test_verify_theorem_on_usc_instance():
    y = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["p", "q", "w"]})
    e = embed(y, ["p", "q"])
    r = map_on(e, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    assert is_usc(r) and not is_lsc(r)
    rep_min = verify_semicontinuity_theorem(r, e, "min", sample=16)
    assert rep_min.r_usc and rep_min.passed
    rep_max = verify_semicontinuity_theorem(r, e, "max", sample=16)
    assert rep_max.passed


def test_verify_theorem_reads_continuous_inputs_on_a_subspace_that_is_not_discrete():
    # X = {p1, p2} with minN(p1) = {p1} and minN(p2) = {p1, p2}; p0 goes
    # to p1 and every image is a point, so r is continuous
    y = FiniteTopSpace(("p0", "p1", "p2"), (0b011, 0b010, 0b111))
    e = embed(y, ["p1", "p2"])
    assert e.subspace.min_nbhd == (0b01, 0b11)
    r = SetValuedMap(y, e.subspace, (0b01, 0b01, 0b10))
    assert is_usc(r) and is_lsc(r)
    for kind in ("min", "max"):
        # f = (1, 0) is not continuous on X, and its extension (1, 1, 0) is
        # lsc only: the implications do not read it
        assert build_extender(r, e, kind).apply_batch(np.array([[1.0, 0.0]])).tolist() == [[1.0, 1.0, 0.0]]
        rep = verify_semicontinuity_theorem(r, e, kind, sample=32)
        assert rep.passed
        assert all(i.cases == rep.implications[0].cases > 1 for i in rep.implications)


def test_verify_theorem_identity_continuous():
    d = discrete(["a", "b"])
    e = embed(d, ["a", "b"])
    from idemx.setmaps import identity_map

    rep = verify_semicontinuity_theorem(identity_map(d), e, "min")
    assert rep.r_usc and rep.r_lsc
    assert any("continuous" in i.name for i in rep.implications)
    assert rep.passed


# -- recovery via supports ----------------------------------------------------------


def test_supports_roundtrip_exhaustive():
    # all image assignments on instances with up to 5 ambient points
    embeddings = [E_ISOLATED]
    for n in (3, 4):
        pts = [f"p{i}" for i in range(n)] + ["w"]
        embeddings.append(embed(discrete(pts), pts[:-1]))
    for e in embeddings:
        for r in all_retraction_maps(e):
            for kind in ("min", "max"):
                u = build_extender(r, e, kind)
                assert supports_retraction(u) == r


def test_supports_retraction_fails_on_mean_point():
    def apply(f):
        return RealFunction(ISOLATED, (f["p"], f["q"], (f["p"] + f["q"]) / 2))

    u = Extender(E_ISOLATED, apply, "user")
    with pytest.raises(ClassificationFailed) as err:
        supports_retraction(u)
    assert err.value.point == "w"


# -- open-set extension ---------------------------------------------------------------


def test_extension_equals_inclusion_preimage_for_usc_max():
    for r in all_retraction_maps(E_ISOLATED):
        u = build_extender(r, E_ISOLATED, "max")
        x = E_ISOLATED.subspace
        for um in x.opens:
            got = extend_open_set(u, um, "max_usc")
            want = {
                p
                for p, m in zip(ISOLATED.points, r.images)
                if not (m & ~um)
            }
            assert got == want


def test_extension_trivial_cases():
    r = map_on(E_ISOLATED, {"p": ["p"], "q": ["q"], "w": ["q"]})
    u = build_extender(r, E_ISOLATED, "max")
    assert extend_open_set(u, E_ISOLATED.subspace.full_mask, "max_usc") == {
        "p",
        "q",
        "w",
    }
    assert extend_open_set(u, 0, "max_usc") == set()


def test_extension_rejects_non_open_and_unnormalized():
    s = sierpinski()
    y = from_minimal_basis({"0": ["0", "1"], "1": ["1"], "w": ["w"]})
    e = embed(y, ["0", "1"])
    r = map_on(e, {"0": ["0"], "1": ["1"], "w": ["0", "1"]})
    u = build_extender(r, e, "max")
    with pytest.raises(InvariantViolation):
        extend_open_set(u, {"0"}, "max_usc")  # {0} is closed, not open

    def shifted(f):
        return RealFunction(y, tuple(v + 1 for v in (f["0"], f["1"], max(f.values))))

    bad = Extender(e, shifted, "user")
    with pytest.raises(NotNormalized):
        extend_open_set(bad, {"1"}, "max_usc")


def test_recovery_via_open_sets_roundtrip_usc():
    for r in all_retraction_maps(E_ISOLATED):
        if not is_usc(r):
            continue
        u = build_extender(r, E_ISOLATED, "max")
        assert retraction_from_open_sets(u, "max_usc") == r


def test_recovery_min_variant_roundtrip():
    for r in all_retraction_maps(E_ISOLATED):
        if not is_usc(r):
            continue
        u = build_extender(r, E_ISOLATED, "min")
        assert retraction_from_open_sets(u, "min_lsc") == r


def test_recovery_default_branch():
    def blind(f):
        return RealFunction(ISOLATED, (f["p"], f["q"], 1.0))

    u = Extender(E_ISOLATED, blind, "user")
    rec = retraction_from_open_sets(u, "max_usc")
    assert rec.image_of("w") == {"p", "q"}
    assert rec.image_of("p") == {"p"}


def test_open_extension_algebra():
    r = map_on(E_ISOLATED, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    for kind, variant in (("max", "max_usc"), ("min", "min_lsc")):
        u = build_extender(r, E_ISOLATED, kind)
        rep = check_open_extension_algebra(u, variant)
        assert rep.passed and not rep.schedule_limited


def test_open_extension_algebra_precheck():
    r = map_on(E_ISOLATED, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    u = build_extender(r, E_ISOLATED, "min")
    with pytest.raises(AxiomPrecheckFailed):
        check_open_extension_algebra(u, "max_usc")  # min extender can't preserve max


# -- connectivity -----------------------------------------------------------------------


def test_connectivity_identity_case():
    d = discrete(["a", "b"])
    u = identity_extender(embed(d, ["a", "b"]))
    rep = connectivity_analysis(u)
    assert rep.region == ("a", "b")
    assert all(len(v) == 1 for v in rep.values.values())
    assert rep.connected_values and rep.usc_on_region


def test_connectivity_discrete_exhaustive_small():
    # on a discrete subspace only singleton-valued maps preserve both
    # operations, and their recovered values are singletons
    for r in all_retraction_maps(E_ISOLATED):
        for kind in ("min", "max"):
            u = build_extender(r, E_ISOLATED, kind)
            singleton = all(bin(m).count("1") == 1 for m in r.images)
            if singleton:
                rep = connectivity_analysis(u)
                assert rep.connected_values
                assert all(len(v) == 1 for v in rep.values.values())
            else:
                with pytest.raises(AxiomPrecheckFailed):
                    connectivity_analysis(u)


def test_connectivity_on_connected_nondiscrete_subspace():
    y = from_minimal_basis({"0": ["0", "1"], "1": ["1"], "w": ["w"]})
    e = embed(y, ["0", "1"])
    r = map_on(e, {"0": ["0"], "1": ["1"], "w": ["0", "1"]})
    u = build_extender(r, e, "min")
    rep = connectivity_analysis(u)
    assert rep.axioms_checked_on == "continuous"
    assert rep.connected_values


def test_mu_at_functionals_match_extender():
    r = map_on(E_ISOLATED, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
    u = build_extender(r, E_ISOLATED, "min")
    f = from_mapping(E_ISOLATED.subspace, {"p": 4.0, "q": -1.0})
    for p in ISOLATED.points:
        assert mu_at(u, p)(f) == u.apply(f)[p]


def ref_extend_opens(u, variant):
    """Each open's extension and the c that first reached each point, one
    c and one call of ``apply`` at a time."""
    x, y = u.domain_space, u.ambient_space
    sign = -1.0 if variant == "max_usc" else 1.0
    out = {}
    for um in x.opens:
        mask, attained = 0, {}
        for c in EXTENSION_SCHEDULE:
            h = tuple(1.0 + sign * c if (um >> i) & 1 else 1.0 for i in range(x.n))
            g = u.apply(RealFunction(x, h)).values
            for i, v in enumerate(g):
                hit = v < 1.0 - 1e-9 if variant == "max_usc" else v > 1.0 + 1e-9
                if hit and not (mask >> i) & 1:
                    mask |= 1 << i
                    attained[y.points[i]] = c
        out[um] = (mask, attained)
    return out


def test_batched_open_extensions_match_one_open_at_a_time():
    y = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["p", "q", "w"], "v": ["v", "p"]})
    e = embed(y, ["p", "q"])
    for r in all_retraction_maps(e):
        for kind, variant in (("max", "max_usc"), ("min", "min_lsc")):
            u = build_extender(r, e, kind)
            want = ref_extend_opens(u, variant)
            for um, (mask, _) in want.items():
                assert extend_open_set(u, um, variant) == y.subset(mask)
            rep = check_open_extension_algebra(u, variant)
            assert rep.attained == {e.subspace.ids(um): a for um, (_, a) in want.items()}
            images = []
            for i in range(y.n):
                acc = e.subspace.full_mask
                for um, (mask, _) in want.items():
                    if (mask >> i) & 1:
                        acc &= e.subspace.closure_mask(um)
                images.append(acc)
            assert retraction_from_open_sets(u, variant).images == tuple(images)


def ref_algebra_failures(x, y, want):
    """The failures of ``check_open_extension_algebra``, from the reference
    extensions, in the order the pair loop reports them."""
    e = {um: mask for um, (mask, _) in want.items()}
    out = []
    for ua, ub in itertools.combinations_with_replacement(x.opens, 2):
        if e[ua & ub] != e[ua] & e[ub]:
            lhs, rhs = y.ids(e[ua & ub]), y.ids(e[ua] & e[ub])
            out.append(f"e({x.ids(ua)} & {x.ids(ub)}): {lhs} != {rhs}")
        for a, b in ((ua, ub), (ub, ua)):
            if not (a & ~b) and (e[a] & ~e[b]):
                out.append(f"monotonicity: e({x.ids(a)}) not inside e({x.ids(b)})")
    return out


def user_extender(e, kind, terms, switch=False):
    """A user-built extender preserving max (min), normalized: at an outside
    point y, the max (min) over the terms (x, s) of y of phi_s(f(x)), where
    phi_s(t) = min(t + s, max(t, 1)) (dually max(t - s, min(t, 1))) is the
    identity at s = 0 and first falls below (rises above) 1 at t = 1 -+ c
    for c > s.  ``switch`` turns the fold at y into its opposite once some
    input is below -5 (above 5), which the precheck's {-1, 0, 1} inputs
    never reach, so the extension algebra can fail."""
    amb, sub = e.ambient, e.subspace

    def apply(f):
        v = dict(zip(sub.points, f.values))
        out = []
        for p in amb.points:
            if p in v:
                out.append(v[p])
                continue
            if kind == "max":
                vals = [min(v[x] + s, max(v[x], 1.0)) for x, s in terms[p]]
                fold = min if switch and min(v.values()) < -5 else max
            else:
                vals = [max(v[x] - s, min(v[x], 1.0)) for x, s in terms[p]]
                fold = max if switch and max(v.values()) > 5 else min
            out.append(fold(vals))
        return RealFunction(amb, tuple(out))

    return Extender(e, apply)


def user_extender_inputs():
    """Both subspace topologies, both kinds, and for each outside point a
    nonempty set of terms with shifts 0, 5 and 50, so that contributions
    are first reached at c = 1, 10 and 100."""
    discrete_x = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"], "v": ["v", "p"]})
    sierpinski_x = from_minimal_basis({"0": ["0", "1"], "1": ["1"], "w": ["w"], "v": ["v", "1"]})
    spaces = (embed(discrete_x, ["p", "q"]), embed(sierpinski_x, ["0", "1"]))
    for e in spaces:
        x0, x1 = e.subspace.points
        choices = [
            [(x, s) for x, s in zip((x0, x1), pick) if s is not None]
            for pick in itertools.product((None, 0.0, 5.0, 50.0), repeat=2)
        ][1:]
        for kind in ("max", "min"):
            for i, w_terms in enumerate(choices):
                for v_terms in (choices[(3 * i + 1) % 15], choices[(7 * i + 4) % 15]):
                    yield e, kind, {"w": w_terms, "v": v_terms}, False
            yield e, kind, {"w": [(x0, 0.0), (x1, 0.0)], "v": [(x1, 5.0)]}, True


def test_batched_open_extensions_match_one_open_at_a_time_on_user_extenders():
    seen_c = set()
    algebra_failed = recovery_failed = 0
    for e, kind, terms, switch in user_extender_inputs():
        x, y = e.subspace, e.ambient
        u = user_extender(e, kind, terms, switch)
        own = "max_usc" if kind == "max" else "min_lsc"
        for variant in ("max_usc", "min_lsc"):
            want = ref_extend_opens(u, variant)
            for um, (mask, attained) in want.items():
                assert extend_open_set(u, um, variant) == y.subset(mask)
                seen_c.update(attained.values())
            images = []
            for i in range(y.n):
                acc = x.full_mask
                for um, (mask, _) in want.items():
                    if (mask >> i) & 1:
                        acc &= x.closure_mask(um)
                images.append(acc)
            if 0 in images:
                recovery_failed += 1
                at = y.points[images.index(0)]
                with pytest.raises(InvariantViolation, match=f"empty recovered value at {at!r}"):
                    retraction_from_open_sets(u, variant)
            else:
                assert retraction_from_open_sets(u, variant).images == tuple(images)
            if variant == own:
                rep = check_open_extension_algebra(u, variant)
                assert rep.attained == {x.ids(um): a for um, (_, a) in want.items()}
                assert list(rep.failures) == ref_algebra_failures(x, y, want)
                assert rep.schedule_limited
                algebra_failed += not rep.passed
    assert seen_c == set(EXTENSION_SCHEDULE)
    assert algebra_failed and recovery_failed

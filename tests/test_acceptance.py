"""Acceptance suite: the exit criteria of the toolkit, one test per criterion.

Each test prints one CRITERION line (visible under pytest -s or on failure).
All expected values are either enumerated by hand, produced by independent
oracles in the module-level tests, or are exact identities of min/max/sign
selections, checked at zero tolerance where stated.
"""

import copy
import json
import time

import numpy as np
import pytest

from idemx.campaign import CATALOGUE, CampaignConfig, run_campaign, run_suite
from idemx.extenders import (
    build_extender,
    check_open_extension_algebra,
    function_class,
    retraction_from_open_sets,
    supports_retraction,
)
from idemx.functionals import (
    MAX_CLASS_AXIOMS,
    MIN_CLASS_AXIOMS,
    MeanFunctional,
    RealFunction,
    SupportFunctional,
    check_axiom,
    classify,
    essential_family,
    infsup_reconstruct,
    is_essential,
    support,
    two_valued_tuples,
)
from idemx.instances import load_embedding
from idemx.setmaps import SetValuedMap, fixing_images, is_lsc, is_usc, search_retraction
from idemx.spaces import discrete

SEED = 42


def _line(num, name, ok):
    print(f"CRITERION {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _dn(n):
    return discrete([f"p{i}" for i in range(n)])


def test_criterion_01_classification_roundtrip():
    """All supports on 1..6 points, both kinds: classify and support are exact."""
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        s = _dn(n)
        for m in range(1, s.full_mask + 1):
            want = s.subset(m)
            singleton = len(want) == 1
            for kind, expected in (("min", "R_min"), ("max", "R_max")):
                mu = SupportFunctional(s, kind, m)
                if support(mu) != want:
                    ok = False
                cls = classify(mu)
                if cls.support != want:
                    ok = False
                if cls.kind != expected and not (
                    singleton and cls.kind in ("R_min", "R_max")
                ):
                    ok = False
    elapsed = time.perf_counter() - start
    _line(1, "classification roundtrip", ok and elapsed < 10.0)
    print(f"    240 cases in {elapsed:.2f}s")


def test_criterion_02_axiom_suite():
    """Kind axioms exhaustively on two-valued inputs plus 1e4 random triples,
    all at zero tolerance; the mean is rejected with a witness."""
    ok = True
    functionals = []
    for n in range(1, 6):
        s = _dn(n)
        for m in range(1, s.full_mask + 1):
            functionals.append(SupportFunctional(s, "min", m))
            functionals.append(SupportFunctional(s, "max", m))
    # structured sweeps cover every two-valued pair exhaustively at n <= 5
    for mu in functionals:
        axioms = MIN_CLASS_AXIOMS if mu.kind == "min" else MAX_CLASS_AXIOMS
        for a in axioms:
            if not check_axiom(mu, a, trials=0, tol=0.0).passed:
                ok = False
    # 1e4 seeded random (f, g, c) triples, spread over the corpus
    rng = np.random.default_rng(SEED)
    triples = 0
    while triples < 10_000:
        mu = functionals[triples % len(functionals)]
        n = len(mu.space.points)
        f = tuple(float(v) for v in rng.uniform(-5, 5, n))
        g = tuple(float(v) for v in rng.uniform(-5, 5, n))
        c = float(rng.uniform(-5, 5))
        rf = RealFunction(mu.space, f)
        rg = RealFunction(mu.space, g)
        agg = min if mu.kind == "min" else max
        other = max if mu.kind == "min" else min
        if mu(RealFunction(mu.space, tuple(v + c for v in f))) != mu(rf) + c:
            ok = False
        if mu(RealFunction(mu.space, tuple(map(agg, f, g)))) != agg(mu(rf), mu(rg)):
            ok = False
        clip = tuple(other(v, c) for v in f)
        if mu(RealFunction(mu.space, clip)) != other(mu(rf), c):
            ok = False
        triples += 1
    mean_rep = check_axiom(MeanFunctional(_dn(3)), "preserves_min")
    ok = ok and not mean_rep.passed and mean_rep.witness is not None
    _line(2, "axiom suite", ok)


def test_criterion_03_reconstruction_and_essential_sets():
    """Reconstruction equals evaluation and singleton essentials equal the
    support, for every min-kind functional on up to 5 points."""
    ok = True
    for n in range(1, 6):
        s = _dn(n)
        for m in range(1, s.full_mask + 1):
            mu = SupportFunctional(s, "min", m)
            fam = essential_family(mu)
            for vals in two_valued_tuples(n, 0.0, 1.0):
                f = RealFunction(s, vals)
                if infsup_reconstruct(mu, f, family=fam) != mu(f):
                    ok = False
            singles = {p for p in s.points if is_essential(mu, {p})}
            if singles != support(mu):
                ok = False
    _line(3, "reconstruction and essential sets", ok)


def test_criterion_04_duality_fuzz():
    """Dual involution, verdict exchange, and extender duality on 1e3 cases."""
    cfg = CampaignConfig(
        seed=SEED, suites=("axioms_fuzz",), size_caps={"axioms_fuzz": 1000}
    )
    res = run_suite("axioms_fuzz", cfg)
    ok = res.cases_run == 1000 and res.failed == 0
    _line(4, "duality fuzz corpus", ok)
    if res.witnesses:
        print(res.witnesses[0]["detail"])


def test_criterion_05_forward_implications():
    """Over all maps fixing a discrete subspace on the enumerated instances:
    usc gives lsc min-extensions and usc max-extensions; dually for lsc."""
    cases = CATALOGUE["usc_forward"].gen_cases(5, 0)
    ok = True
    usc_seen = 0
    lsc_seen = 0
    for case in cases:
        e = load_embedding(case["embedding"])
        sub = e.subspace
        for images in fixing_images(e):
            r = SetValuedMap(e.ambient, sub, images)
            hyps = []
            if is_usc(r):
                usc_seen += 1
                hyps.append(("min", ("lsc", "continuous")))
                hyps.append(("max", ("usc", "continuous")))
            if is_lsc(r):
                lsc_seen += 1
                hyps.append(("min", ("usc", "continuous")))
                hyps.append(("max", ("lsc", "continuous")))
            for kind, allowed in hyps:
                u = build_extender(r, e, kind)
                for vals in two_valued_tuples(sub.n, 0.0, 1.0):
                    g = u.apply(RealFunction(sub, vals))
                    if function_class(g, e.ambient).klass not in allowed:
                        ok = False
    ok = ok and usc_seen > 0 and lsc_seen > 0
    _line(5, "semicontinuity forward implications", ok)
    print(f"    {usc_seen} usc and {lsc_seen} lsc maps checked")


@pytest.fixture(scope="module")
def retraction_corpus():
    """At least 50 embeddings, including the wedge with no usc retraction."""
    cases = CATALOGUE["open_set_recovery"].gen_cases(50, 0)
    out = []
    for case in cases:
        e = load_embedding(case["embedding"])
        out.append((e, case.get("expect_none", False)))
    return out


def test_criterion_06_recovery_roundtrip(retraction_corpus):
    """Every usc retraction found by search round-trips through both
    recovery routes; the known negative instance returns none."""
    ok = len(retraction_corpus) >= 50
    found = 0
    nones = 0
    saw_expected_none = False
    for e, expect_none in retraction_corpus:
        r = search_retraction(e, "usc")
        if expect_none:
            saw_expected_none = True
            if r is not None:
                ok = False
            continue
        if r is None:
            nones += 1
            continue
        found += 1
        u_max = build_extender(r, e, "max")
        if retraction_from_open_sets(u_max, "max_usc") != r:
            ok = False
        for kind in ("min", "max"):
            if supports_retraction(build_extender(r, e, kind)) != r:
                ok = False
    ok = ok and saw_expected_none and found > 0
    _line(6, "retraction recovery roundtrip", ok)
    print(f"    {found} retractions recovered, {nones} instances without one")


def test_criterion_07_open_extension_algebra(retraction_corpus):
    """Intersection identity and monotonicity over all open pairs, for every
    extender built on the corpus."""
    ok = True
    checked = 0
    for e, expect_none in retraction_corpus:
        r = search_retraction(e, "usc")
        if r is None:
            continue
        for kind, variant in (("max", "max_usc"), ("min", "min_lsc")):
            rep = check_open_extension_algebra(build_extender(r, e, kind), variant)
            checked += rep.pairs_checked
            if not rep.passed:
                ok = False
    ok = ok and checked > 0
    _line(7, "open-set extension algebra", ok)
    print(f"    {checked} open pairs checked")


def test_criterion_08_hausdorff_stability():
    """1e4 random (grid, F, G, f) cases of the Lipschitz stability bound."""
    cfg = CampaignConfig(
        seed=SEED,
        suites=("hausdorff_lipschitz",),
        size_caps={"hausdorff_lipschitz": 10_000},
    )
    res = run_suite("hausdorff_lipschitz", cfg)
    ok = res.cases_run == 10_000 and res.failed == 0
    _line(8, "hyperspace stability", ok)


def test_criterion_09_connectivity_shadow():
    """On discrete subspaces of up to 4 points, extenders preserving both
    operations recover singleton values; all others fail the precheck."""
    ok = True
    for n in range(1, 5):
        for case in CATALOGUE["connectivity_shadow"].gen_cases(n, 0):
            passed, detail = CATALOGUE["connectivity_shadow"].run_case(case, 1e-9)
            if not passed:
                ok = False
    _line(9, "connectivity shadow", ok)


def test_criterion_10_campaign_determinism():
    """Two full campaigns with seed 42 agree modulo timing fields."""

    def strip(data):
        data = copy.deepcopy(data)
        for s in data["suites"].values():
            s.pop("wall_time")
        return json.dumps(data, sort_keys=True)

    cfg = CampaignConfig(seed=SEED)
    a = strip(run_campaign(cfg).to_json())
    b = strip(run_campaign(cfg).to_json())
    ok = a == b
    _line(10, "campaign determinism", ok)

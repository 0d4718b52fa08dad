"""The one axiom sweep against the per-axiom and per-point loops it replaced.

``check_axioms`` must give, for every identity, the report that
``check_axiom`` gives for that identity alone.  ``supports_retraction`` and
``verify_semicontinuity_theorem`` check every pointwise functional of an
extender at once, as the columns of ``apply_batch``; the per-point loops
they replaced are kept below as the reference, and the recovered map, the
``ClassificationFailed`` point and message, and the axiom failures must
match them exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from idemx.campaign import _gen_axioms_fuzz, _random_preorder_space, _suite_seed
from idemx import extenders
from idemx.errors import BudgetExhaustedInconclusive, ClassificationFailed, UnknownAxiom
from idemx.extenders import (
    KIND_AXIOMS,
    Extender,
    _pointwise_axiom_failures,
    build_extender,
    mu_at,
    supports_retraction,
    verify_semicontinuity_theorem,
)
from idemx.functionals import (
    AXIOMS,
    RealFunction,
    check_axiom,
    check_axioms,
    classify,
    dual,
)
from idemx.instances import load_functional
from idemx.setmaps import SetValuedMap, fixing_images
from idemx.spaces import _bits, embed, from_minimal_basis

# -- reference: the per-point loops ---------------------------------------------------


def ref_supports_retraction(u, budget=128, tol=1e-9):
    x_space = u.domain_space
    y_space = u.ambient_space
    images = []
    for p in y_space.points:
        mu = mu_at(u, p)
        try:
            cls = classify(mu, budget=budget, tol=tol)
        except BudgetExhaustedInconclusive as exc:
            raise ClassificationFailed(p, str(exc)) from exc
        if cls.kind not in ("R_min", "R_max"):
            raise ClassificationFailed(p, f"classified as {cls.kind}")
        images.append(x_space.mask(cls.support))
    return SetValuedMap(y_space, x_space, tuple(images))


def ref_axiom_failures(u, kind, tol=1e-9, seed=0):
    # one functional at a time; check_axioms agrees with check_axiom axiom
    # by axiom, as the tests above show
    failures = []
    for p in u.ambient_space.points:
        reports = check_axioms(mu_at(u, p), KIND_AXIOMS[kind], trials=8, tol=tol, seed=seed)
        for a, rep in reports.items():
            if not rep.passed:
                failures.append(f"mu[{p}] fails {a}: {rep.witness}")
    return tuple(failures)


def recovered(fn, u):
    try:
        return "ok", fn(u)
    except ClassificationFailed as exc:
        return "failed", exc.point, str(exc)


def report(rep):
    w = rep.witness
    return rep.axiom, rep.passed, None if w is None else (
        tuple(v.hex() for v in w.f),
        None if w.g is None else tuple(v.hex() for v in w.g),
        None if w.c is None else w.c.hex(),
        w.lhs.hex(),
        w.rhs.hex(),
    )


def assert_sweep_matches_alone(mu, axioms, **kw):
    got = check_axioms(mu, axioms, **kw)
    assert list(got) == list(dict.fromkeys(axioms))
    for a in axioms:
        assert report(got[a]) == report(check_axiom(mu, a, **kw)), (mu.label, a, kw)


# -- check_axioms against check_axiom ---------------------------------------------------


def test_sweep_matches_each_axiom_alone_on_the_fuzz_corpus():
    seen = {}
    for case in _gen_axioms_fuzz(200, _suite_seed(42, "axioms_fuzz")):
        if case["type"] == "functional":
            key = repr(sorted(case["functional"].items()))
            seen.setdefault(key, (load_functional(case["functional"]), case["seed"]))
    assert len(seen) > 50
    orders = (AXIOMS, KIND_AXIOMS["max"][::-1])  # all, and a subset out of order
    for mu, seed in seen.values():
        for nu in (mu, dual(mu)):
            for trials in (0, 24):
                for axioms in orders:
                    assert_sweep_matches_alone(nu, axioms, trials=trials, seed=seed)


def test_sweep_reports_each_axiom_once_and_rejects_unknown_ones():
    mu = load_functional({
        "space": {"points": ["a", "b"], "min_nbhd": {"a": ["a"], "b": ["b"]}},
        "kind": "mean",
    })
    got = check_axioms(mu, ("preserves_min", "normed", "preserves_min"))
    assert list(got) == ["preserves_min", "normed"]
    with pytest.raises(UnknownAxiom):
        check_axioms(mu, ("normed", "monotone"))


# -- the column sweep against the per-point loops -------------------------------------------


def random_embeddings(count, seed):
    """Random preorder spaces of 2 or 3 points, with a subspace of 1 or 2
    points; each has at most 3 fixing maps."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        y = _random_preorder_space(rng, n)
        idx = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        out.append(embed(y, [y.points[i] for i in idx]))
    return out


def no_fallback(*args, **kwargs):
    raise AssertionError("a column of a retraction-derived extender went to classify")


def test_column_sweep_matches_the_per_point_loop_on_every_fixing_map(monkeypatch):
    maps = 0
    for e in random_embeddings(200, 2606):
        for images in fixing_images(e):
            r = SetValuedMap(e.ambient, e.subspace, images)
            maps += 1
            for kind in ("min", "max"):
                u = build_extender(r, e, kind)
                # the sweep recovers every column itself: classify, its error
                # path, is not called
                with monkeypatch.context() as m:
                    m.setattr(extenders, "classify", no_fallback)
                    got = recovered(supports_retraction, u)
                assert got == recovered(ref_supports_retraction, u) == ("ok", r)
                seed = maps % 5
                rep = verify_semicontinuity_theorem(r, e, kind, sample=0, seed=seed)
                assert rep.axiom_failures == ref_axiom_failures(u, kind, seed=seed) == ()
    assert maps >= 300


def _mean(f):
    return sum(f.values) / len(f.values)


def _density(f):
    return max(f["a"] - 0.5, f["b"])


def _hidden_min(f):
    # min over {a}, except where a - b > 6: the axiom sweep's inputs stay
    # below that, the spike probes and the verification rows do not
    return f["a"] + 1.0 if f["a"] - f["b"] > 6.0 else f["a"]


def _max_all(f):
    return max(f.values)


def _off_axioms(f):
    return f["a"] - f["b"] + 1.0


def planted(e, r, kind, plants):
    """The extender of r, with the functional at each planted point replaced."""
    fold = min if kind == "min" else max
    images = [tuple(_bits(m)) for m in r.images]
    at = {e.ambient.index(p): fn for p, fn in plants.items()}

    def apply(f):
        vals = [fold([f.values[i] for i in image]) for image in images]
        for j, fn in at.items():
            vals[j] = fn(f)
        return RealFunction(e.ambient, tuple(vals))

    return Extender(e, apply, "user")


PLANTS = [
    {},
    {"v": _max_all},
    {"v": _density, "w": _mean},
    {"v": _hidden_min},
    {"v": _max_all, "w": _hidden_min},
    {"w": _off_axioms},
]


def test_column_sweep_matches_the_per_point_loop_on_user_extenders():
    y = from_minimal_basis({"a": ["a"], "b": ["b"], "v": ["v", "a"], "w": ["w", "a", "b"]})
    e = embed(y, ["a", "b"])
    outcomes = set()
    for images, kind in (((1, 2, 3, 1), "min"), ((1, 2, 2, 3), "max")):
        r = SetValuedMap(e.ambient, e.subspace, images)
        for plants in PLANTS:
            u = planted(e, r, kind, plants)
            got = recovered(supports_retraction, u)
            assert got == recovered(ref_supports_retraction, u), (images, kind, plants)
            outcomes.add(got[:2] if got[0] == "failed" else got[0])
            seed = len(plants)
            got_failures = _pointwise_axiom_failures(u, kind, 1e-9, seed)
            assert got_failures == ref_axiom_failures(u, kind, seed=seed)
    # every route is exercised: recovery, and a failure at either point
    assert {"ok", ("failed", "v"), ("failed", "w")} <= outcomes

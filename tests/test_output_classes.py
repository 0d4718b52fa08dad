"""The stacked output-class kernel ``extenders._classes`` and the
``forward_implications`` built on it, against the per-row pair loop that
classified one extender output at a time."""

from __future__ import annotations

import numpy as np
import pytest

import idemx.extenders as ext
from idemx.campaign import _forward_instances, _random_preorder_space
from idemx.errors import InvariantViolation
from idemx.extenders import build_extender, forward_implications
from idemx.functionals import _array, _two_valued
from idemx.instances import load_embedding
from idemx.setmaps import SetValuedMap, _pairs, fixing_images

CLASS = {(True, True): "continuous", (True, False): "lsc", (False, True): "usc"}


def per_row_class(v, space) -> str:
    """One row's class by the pair loop over ``_pairs``: a pair with
    v[y'] < v[y] breaks lsc, one with v[y'] > v[y] breaks usc."""
    lsc_ok = usc_ok = True
    for y, y2 in _pairs(space):
        if v[y2] == v[y]:
            continue
        if v[y2] < v[y]:
            lsc_ok = False
        else:
            usc_ok = False
    return CLASS.get((lsc_ok, usc_ok), "neither")


def per_row_forward(u, r_usc, r_lsc, family):
    """``forward_implications`` one row of ``apply_batch`` at a time."""
    kind = u.provenance.kind
    expectations = []
    if r_usc and r_lsc:
        expectations.append(("continuous map gives continuous outputs", ("continuous",)))
    if r_usc:
        want = ("lsc", "continuous") if kind == "min" else ("usc", "continuous")
        expectations.append((f"usc map gives {want[0]} outputs ({kind} extender)", want))
    if r_lsc:
        want = ("usc", "continuous") if kind == "min" else ("lsc", "continuous")
        expectations.append((f"lsc map gives {want[0]} outputs ({kind} extender)", want))
    failures = {name: [] for name, _ in expectations}
    F = _array(family, u.domain_space.n)
    for vals, out in zip(F.tolist(), u.apply_batch(F).tolist()):
        klass = per_row_class(out, u.ambient_space)
        for name, allowed in expectations:
            if klass not in allowed:
                failures[name].append(f"f={tuple(vals)} -> u(f)={tuple(out)} is {klass}")
    return [(name, len(family), tuple(failures[name])) for name, _ in expectations]


# values from a small set, so that ties are common, with -0.0 beside 0.0
VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])


@pytest.mark.parametrize("lead", [(7,), (3, 4)])
def test_classes_match_the_per_row_pair_loop(lead):
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(400):
        space = _random_preorder_space(rng, int(rng.integers(1, 7)))
        G = VALUES[rng.integers(0, len(VALUES), (*lead, space.n))]
        got = ext._classes(G, space)
        assert got.shape == lead
        for idx in np.ndindex(*lead):
            assert got[idx] == per_row_class(G[idx].tolist(), space), (space.min_nbhd, G[idx])
        seen.update(got.ravel().tolist())
    assert seen == {"continuous", "lsc", "usc", "neither"}


def forward_corpus():
    """Every fixing map of the cap-5 forward instances, with the family the
    forward suites use between two random rows at each end."""
    rng = np.random.default_rng(5)
    for case in _forward_instances(5, 0):
        e = load_embedding(case["embedding"])
        n = e.subspace.n
        ends = VALUES[rng.integers(0, len(VALUES), (4, n))]
        family = np.concatenate([ends[:2], _two_valued(n), ends[2:]])
        for images in fixing_images(e):
            yield e, SetValuedMap(e.ambient, e.subspace, images), family


def test_forward_implications_match_the_per_row_loop():
    runs = failing = 0
    for e, r, family in forward_corpus():
        for kind in ("min", "max"):
            u = build_extender(r, e, kind)
            for r_usc in (False, True):
                for r_lsc in (False, True):
                    got = forward_implications(u, r_usc, r_lsc, family)
                    want = per_row_forward(u, r_usc, r_lsc, family)
                    assert [(i.name, i.cases, i.failures) for i in got] == want
                    runs += 1
                    failing += any(i.failures for i in got)
    assert runs > 1000 and failing > 100


def test_forward_implications_extends_and_classifies_once(monkeypatch):
    e, r, family = next(iter(forward_corpus()))
    u = build_extender(r, e, "max")
    calls = []
    kernel = ext._classes
    apply_batch = type(u).apply_batch

    def count(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    def forbidden(*args, **kwargs):
        raise AssertionError("per-row object built")

    monkeypatch.setattr(ext, "_classes", count("_classes", kernel))
    monkeypatch.setattr(type(u), "apply_batch", count("apply_batch", apply_batch))
    monkeypatch.setattr(ext, "RealFunction", forbidden)
    monkeypatch.setattr(ext, "FunctionClassReport", forbidden)
    forward_implications(u, True, True, family)
    assert sorted(calls) == ["_classes", "apply_batch"]


def test_forward_implications_rejects_non_finite_values():
    e, r, _ = next(iter(forward_corpus()))
    u = build_extender(r, e, "min")
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantViolation, match="^values: "):
            forward_implications(u, True, True, [[bad] * e.subspace.n])

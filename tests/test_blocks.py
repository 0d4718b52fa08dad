"""The structured input blocks, and the extender prechecks built on the sweep.

Each reference below is the earlier tuple-based builder or check, kept here
in substance: the two-valued tuple builder, the tuple-dict row dedupe, the
per-row weak family, the per-point continuous family and the extenders' own
normalization and lattice-preservation checks.  The
library builds every family from one block builder and checks every
identity of an extender through the axiom sweep; it must give the same rows
bit for bit and raise the same errors with the same messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from idemx.campaign import _random_preorder_space as random_space
from idemx.errors import AxiomPrecheckFailed, IdemxError, NotNormalized
from idemx import extenders
from idemx.extenders import (
    Extender,
    _continuous_family,
    build_extender,
    check_open_extension_algebra,
    connectivity_analysis,
    extend_open_set,
)
from idemx.functionals import (
    TWO_VALUED_CAP,
    LambdaFunctional,
    RealFunction,
    _axiom_sweep,
    _base,
    _blocks,
    _distinct,
    _pair_family,
    _two_valued,
    _verify_family,
    _weak_family,
    support,
    two_valued_tuples,
)
from idemx.setmaps import SetValuedMap
from idemx.spaces import FiniteTopSpace, _bits, discrete, embed


def bits(rows) -> list[list[str]]:
    """Rows as hex floats, so that 0.0 and -0.0 differ."""
    return [[float(v).hex() for v in row] for row in rows]


# -- reference: the tuple builders ---------------------------------------------------


def ref_two_valued_tuples(n, lo=0.0, hi=1.0):
    return tuple(
        tuple(hi if (m >> i) & 1 else lo for i in range(n)) for m in range(1 << n)
    )


def ref_continuous_family(space):
    comps = space.components
    k = len(comps)
    fam = []
    patterns = [(0.0,) * k, (1.0,) * k, (-1.0,) * k]
    if k <= TWO_VALUED_CAP:
        patterns += ref_two_valued_tuples(k, 0.0, 1.0)
        patterns += ref_two_valued_tuples(k, -1.0, 1.0)
        patterns += ref_two_valued_tuples(k, 0.0, 5.0)
    for pat in dict.fromkeys(patterns):
        vals = [0.0] * space.n
        for cval, cmask in zip(pat, comps):
            for i in _bits(cmask):
                vals[i] = cval
        fam.append(tuple(vals))
    return list(dict.fromkeys(fam))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, 5.0), (-0.0, 2.0)])
def test_two_valued_tuples_match_the_tuple_builder(lo, hi):
    for n in range(7):
        got = two_valued_tuples(n, lo, hi)
        want = ref_two_valued_tuples(n, lo, hi)
        assert got == want
        assert bits(got) == bits(want)
        assert all(type(v) is float for row in got for v in row)
        block = _two_valued(n, lo, hi)
        assert block.shape == (1 << n, n) and not block.flags.writeable


def test_blocks_stop_at_the_cap():
    assert len(_blocks(TWO_VALUED_CAP, (0.0, 1.0), (-1.0, 1.0))) == 2
    assert _blocks(TWO_VALUED_CAP + 1, (0.0, 1.0), (-1.0, 1.0)) == []


def test_distinct_keeps_each_row_where_it_first_occurs(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = rng.choice([-1.0, -0.0, 0.0, 1.0], (int(rng.integers(1, 30)), n))
        b = rng.choice([-1.0, -0.0, 0.0, 2.0], (int(rng.integers(1, 30)), n))
        want = list(dict.fromkeys(map(tuple, np.concatenate([a, b]).tolist())))
        got = _distinct(a, b)
        assert bits(got) == bits(want)
        assert not got.flags.writeable


def ref_distinct(*blocks):
    rows = np.concatenate(blocks)
    first = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first.setdefault(row, i)
    return rows[list(first.values())]


def ref_weak_family(n):
    rows = []
    for f in _verify_family(n).tolist():
        lo, hi = min(f), max(f)
        cs = {-1.0, -0.5, 0.0, 0.5, 1.0, 2.0} | {lo + t * (hi - lo) for t in (0.25, 0.5, 0.8)}
        rows += [f + [c] for c in sorted(cs)]
    rows = np.array(rows)
    rows = ref_distinct(rows, -rows)
    return rows[:, :n], rows[:, n]


@pytest.mark.parametrize("n", range(1, 9))
def test_families_match_the_tuple_dict_builders(n):
    pair = ref_distinct(_base(n), *_blocks(n, (0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)))
    assert bits(_pair_family(n)) == bits(pair)
    assert bits(_verify_family(n)) == bits(ref_distinct(pair, *_blocks(n, (0.0, 5.0))))
    (W, C), (ref_W, ref_C) = _weak_family(n), ref_weak_family(n)
    assert bits(W) == bits(ref_W)
    assert bits(C[:, None]) == bits(ref_C[:, None])
    assert not (W.flags.writeable or C.flags.writeable)


def sparse_space(rng, n, links):
    """A space on n points where ``links`` random points see one other point,
    closed under specialization: a non-discrete space with many components."""
    nbhd = [1 << i for i in range(n)]
    for _ in range(links):
        i, j = rng.choice(n, 2, replace=False)
        nbhd[i] |= 1 << int(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            closed = nbhd[i]
            for j in _bits(nbhd[i]):
                closed |= nbhd[j]
            changed |= closed != nbhd[i]
            nbhd[i] = closed
    return FiniteTopSpace(tuple(f"p{i}" for i in range(n)), tuple(nbhd))


def test_continuous_family_matches_the_per_point_builder(rng):
    seen = set()
    for _ in range(300):
        space = sparse_space(rng, int(rng.integers(2, 10)), int(rng.integers(1, 4)))
        assert not space.is_discrete()
        seen.add(len(space.components))
        got = _continuous_family(space)
        assert bits(got) == bits(ref_continuous_family(space))
    # both sides of the cap on the component count
    assert min(seen) <= TWO_VALUED_CAP < max(seen)


def test_support_sweeps_the_01_block_up_to_the_cap():
    """A functional that follows its last point only where the others read
    1, ..., 1, 0: only a {0,1} row of the sweep finds that point, and the
    sweep has that block up to ``TWO_VALUED_CAP`` points."""
    for n in range(3, TWO_VALUED_CAP + 2):
        swept = n <= TWO_VALUED_CAP
        space = discrete([f"p{i}" for i in range(n)])
        pattern = (1.0,) * (n - 2) + (0.0,)
        mu = LambdaFunctional(space, lambda f: f.values[-1] if f.values[:-1] == pattern else 0.0)
        assert (space.points[-1] in support(mu)) == swept


# -- reference: the extenders' own prechecks -------------------------------------------


def ref_check_normalized(u, tol):
    ones = RealFunction(u.domain_space, (1.0,) * u.domain_space.n)
    out = u.apply(ones)
    if any(abs(v - 1.0) > tol for v in out.values):
        raise NotNormalized("u(1) != 1 on the ambient space")


def ref_extender_preserves(u, op, tol, family):
    fam = np.array(family, dtype=float).reshape(-1, u.domain_space.n)
    F, G = np.repeat(fam, len(fam), axis=0), np.tile(fam, (len(fam), 1))
    outs = u.apply_batch(fam)
    uF, uG = np.repeat(outs, len(outs), axis=0), np.tile(outs, (len(outs), 1))
    agg = np.maximum if op == "max" else np.minimum
    return not (np.abs(u.apply_batch(agg(F, G)) - agg(uF, uG)) > tol).any()


def ref_open_set_precheck(u, tol):
    ref_check_normalized(u, tol)


def ref_algebra_precheck(u, tol, op):
    if not ref_extender_preserves(u, op, tol, _pair_family(u.domain_space.n)):
        raise AxiomPrecheckFailed(f"extender does not preserve {op}")
    ref_check_normalized(u, tol)


def ref_connectivity_precheck(u, tol):
    ref_check_normalized(u, tol)
    x_space = u.domain_space
    if x_space.is_discrete():
        fam, checked_on = _pair_family(x_space.n), "all"
    else:
        fam, checked_on = ref_continuous_family(x_space), "continuous"
    for op in ("max", "min"):
        if not ref_extender_preserves(u, op, tol, fam):
            raise AxiomPrecheckFailed(f"extender does not preserve {op} ({checked_on} inputs)")


def user_extender(rng, e):
    """Each ambient point gets a min, max, mean or doubled min over a random
    nonempty part of the subspace."""
    x_space = e.subspace
    columns = []
    for _ in e.ambient.points:
        idx = list(_bits(int(rng.integers(1, x_space.full_mask + 1))))
        columns.append((str(rng.choice(["min", "max", "min", "max", "mean", "double"])), idx))

    def apply(f):
        out = []
        for kind, idx in columns:
            vals = [f.values[i] for i in idx]
            if kind == "mean":
                out.append(sum(vals) / len(vals))
            else:
                v = max(vals) if kind == "max" else min(vals)
                out.append(2.0 * v if kind == "double" else v)
        return RealFunction(e.ambient, tuple(out))

    return Extender(e, apply, "user")


def precheck_error(call):
    """The precheck error a call raises, as (type, message), or None."""
    try:
        call()
    except (NotNormalized, AxiomPrecheckFailed) as exc:
        return type(exc), str(exc)
    except IdemxError:  # raised past the precheck
        pass
    return None


def test_extender_prechecks_match_the_extenders_own_checks(rng):
    tol = 1e-9
    outcomes = set()
    for _ in range(120):
        ambient = random_space(rng, int(rng.integers(2, 5)))
        k = int(rng.integers(1, min(ambient.n, 3) + 1))
        e = embed(ambient, [str(p) for p in rng.choice(ambient.points, k, replace=False)])
        u = user_extender(rng, e)
        full = e.subspace.full_mask
        for call, ref in (
            (lambda: extend_open_set(u, full, "max_usc", tol), ref_open_set_precheck),
            (lambda: check_open_extension_algebra(u, "max_usc", tol),
             lambda u, tol: ref_algebra_precheck(u, tol, "max")),
            (lambda: check_open_extension_algebra(u, "min_lsc", tol),
             lambda u, tol: ref_algebra_precheck(u, tol, "min")),
            (lambda: connectivity_analysis(u, tol), ref_connectivity_precheck),
        ):
            want = precheck_error(lambda: ref(u, tol))
            assert precheck_error(call) == want
            outcomes.add(want and want[1])
    # every error of every precheck, and passes, occurred
    assert outcomes >= {
        None,
        "u(1) != 1 on the ambient space",
        "extender does not preserve max",
        "extender does not preserve min",
        "extender does not preserve max (all inputs)",
        "extender does not preserve min (all inputs)",
        "extender does not preserve max (continuous inputs)",
        "extender does not preserve min (continuous inputs)",
    }


def test_sweep_precheck_raises_before_the_open_set_search():
    """A precheck failure stops the call before any open is extended."""
    x = random_space(np.random.default_rng(1), 1)
    e = embed(x, x.points)
    calls = []

    def apply(f):
        calls.append(f.values)
        return RealFunction(x, tuple(2.0 * v for v in f.values))

    u = Extender(e, apply, "user")
    with pytest.raises(NotNormalized, match=r"^u\(1\) != 1 on the ambient space$"):
        extend_open_set(u, x.full_mask)
    assert calls == [(1.0,)]


def test_connectivity_analysis_checks_normalization_once(monkeypatch, rng):
    """One one-row normalization sweep per analysis, also where the open-set
    extension runs: a singleton-valued extender passes every precheck."""
    sweeps = []

    def recorded(ev, n, axioms, *args):
        sweeps.append(axioms)
        return _axiom_sweep(ev, n, axioms, *args)

    monkeypatch.setattr(extenders, "_axiom_sweep", recorded)
    for _ in range(20):
        ambient = random_space(rng, int(rng.integers(2, 6)))
        k = int(rng.integers(1, ambient.n + 1))
        e = embed(ambient, [str(p) for p in rng.choice(ambient.points, k, replace=False)])
        # each embedded point to itself, every other point to one random point
        images = tuple(
            1 << e.subspace.index(p) if p in e.subspace.points else 1 << int(rng.integers(k))
            for p in ambient.points
        )
        r = SetValuedMap(ambient, e.subspace, images)
        sweeps.clear()
        report = connectivity_analysis(build_extender(r, e, "min"))
        assert report.region
        assert sweeps.count(("normed",)) == 1

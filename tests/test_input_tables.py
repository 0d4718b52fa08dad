"""The per-n input tables against the per-call builds they replaced.

Every verdict on a functional at n points reads rows that depend only on n,
a seed and a row count: each axiom sweep's layout, the verification rows of
``classify`` and ``support``, the monotone sample of the essential-set
precheck and the spike probes.  Each is built once per key, in an
``lru_cache`` keyed by integers only, and read-only; the random rows of a
sweep are drawn once per layout, and ``verify_semicontinuity_theorem``
draws its own rows on each call.  The
per-call builds are kept below as the reference; the tables must equal them
bit for bit, and the verdicts that read them must not change.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import idemx
from idemx import extenders, functionals
from idemx.extenders import forward_implications, verify_semicontinuity_theorem
from idemx.functionals import (
    _DENSITY_SCHEDULE,
    _PROBE_SCALES,
    AXIOMS,
    TABLE_ROWS,
    LambdaFunctional,
    _combine,
    _fold,
    _group_sides,
    _mirrored,
    _monotone_sample,
    _own_supports,
    _pair_family,
    _probe_rows,
    _product,
    _random_tail,
    _spikes,
    _structured_ids,
    _sweep_layout,
    _two_valued,
    _verification_rows,
    _verification_table,
    _verify_family,
    check_axioms,
    classify,
    essential_family,
    support,
)
from idemx.setmaps import SetValuedMap, fixing_images, setmap
from idemx.spaces import discrete, embed, from_minimal_basis
from test_batch_eval import PLANTED, fuzz_functionals
from test_column_sweep import random_embeddings

# -- the per-call builds the tables replaced ----------------------------------


def _reference_random_tail(n, seed, trials):
    """The random rows of every sweep, per group, as each call drew them."""
    R = np.random.default_rng(seed).uniform(-2.0, 2.0, (trials, 2, n))
    pairs = _group_sides("pairs", _mirrored(R[:, 0]), _mirrored(R[:, 1]))
    high = np.full(n + 1, 2.0)
    high[n] = 5.0
    R = np.random.default_rng(seed).uniform(-high, high, (trials, n + 1))
    C = _mirrored(R[:, n])
    weak = _group_sides("weak", _mirrored(R[:, :n]), C[:, None])
    return {"pairs": (pairs, None), "weak": (weak, C)}


def _reference_layout(n, seed, trials):
    """Each group's rows, sides and constants, concatenated as each sweep
    without a family did on every call."""
    layout = {}
    for group in ("pairs", "weak"):
        rows, idx, C = _structured_ids(n)[group]
        if trials:
            random, random_C = _reference_random_tail(n, seed, trials)[group]
            tail = len(rows) + np.arange(2 * trials)
            idx = {s: np.concatenate([i, tail + k * 2 * trials]) for k, (s, i) in enumerate(idx.items())}
            rows = np.concatenate([rows, *(random[s] for s in idx)])
            if C is not None:
                C = np.concatenate([C, random_C])
        layout[group] = rows, idx, C
    return layout


def _reference_monotone(n, trials, seed):
    rng = np.random.default_rng(seed)
    F, bump = _product(_pair_family(n), _spikes(n, (0.5, 1.0)))
    R = rng.uniform(np.r_[np.full(n, -2.0), np.zeros(n)], 2.0, (trials, 2 * n))
    return np.concatenate([F, R[:, :n]]), np.concatenate([F + bump, R[:, :n] + R[:, n:]])


def _reference_probes(n):
    return {
        kind: np.concatenate([np.zeros((1, n)), _spikes(n, [-s if kind == "min" else s for s in _PROBE_SCALES])])
        for kind in ("min", "max")
    } | {"density": np.concatenate([np.zeros((1, n)), _spikes(n, _DENSITY_SCHEDULE)])}


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


# -- the tables equal the per-call builds ------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_the_sweep_layout_is_the_per_call_concatenation(n):
    """The layout a sweep without a family reads (``_structured_ids`` alone
    at 0 trials) equals the concatenation each call made, bit for bit."""
    for seed in (0, 7, 2**31 - 1):
        for trials in (0, 1, 8, 24, 64):
            got = _sweep_layout(n, seed, trials) if trials else _structured_ids(n)
            want = _reference_layout(n, seed, trials)
            # the random rows a family sweep appends
            for (sides, C), (ref_sides, ref_C) in zip(
                _random_tail(n, seed, trials).values(), _reference_random_tail(n, seed, trials).values()
            ):
                assert list(sides) == list(ref_sides)
                assert [_bits(a) for a in sides.values()] == [_bits(a) for a in ref_sides.values()]
                assert (C is None) == (ref_C is None) and (C is None or _bits(C) == _bits(ref_C))
            assert list(got) == list(want)
            for (rows, idx, C), (ref_rows, ref_idx, ref_C) in zip(got.values(), want.values()):
                assert _bits(rows) == _bits(ref_rows)
                assert list(idx) == list(ref_idx)
                for s in idx:
                    assert idx[s].tolist() == ref_idx[s].tolist()
                assert (C is None) == (ref_C is None)
                if C is not None:
                    assert _bits(C) == _bits(ref_C)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_per_n_tables_are_the_per_call_builds(n):
    for seed in (0, 7, 2**31 - 1):
        for count in (0, 1, 32, 64):
            want = _verification_rows(n, count, np.random.default_rng(seed))
            assert _bits(_verification_table(n, count, seed)) == _bits(want)
    # the essential-set precheck's sample: 32 trials at seed 0
    got, want = _monotone_sample(n), _reference_monotone(n, 32, 0)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]
    got, want = _probe_rows(n), _reference_probes(n)
    assert list(got) == list(want)
    assert [_bits(a) for a in got.values()] == [_bits(a) for a in want.values()]


def test_a_verification_table_past_its_row_bound_is_not_kept():
    """A budget above ``TABLE_ROWS`` is drawn on each call, as fresh, and
    leaves no cache entry, so no entry grows with a caller's budget."""
    cache = functionals._cached_verification_table
    cache.cache_clear()
    for budget in (TABLE_ROWS, TABLE_ROWS + 1, 10 * TABLE_ROWS):
        got = _verification_table(4, budget, 5)
        assert _bits(got) == _bits(_verification_rows(4, budget, np.random.default_rng(5)))
        assert not got.flags.writeable
    assert cache.cache_info().currsize == 1
    assert _verification_table(4, TABLE_ROWS, 5) is _verification_table(4, TABLE_ROWS, 5)


def _cached_tables():
    """Every lru_cache in idemx, by name."""
    caches = {}
    for info in pkgutil.iter_modules(idemx.__path__):
        module = importlib.import_module(f"idemx.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj
    return caches


def test_every_cached_array_is_read_only():
    space = discrete(["a", "b", "c"])
    for mu in (functionals.MeanFunctional(space), functionals.support_functional(space, "min", ["a"])):
        check_axioms(mu, trials=8, seed=3)
        classify(mu)
        support(mu)
        essential_family(mu)
    e = embed(from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"]}), ["p", "q"])
    r = setmap(e.ambient, e.subspace, {"p": ["p"], "q": ["q"], "w": ["p"]})
    verify_semicontinuity_theorem(r, e, "min")
    values = {
        "functionals._two_valued": _two_valued(3, 0.0, -1.0),
        "functionals._pair_family": _pair_family(3),
        "functionals._verify_family": _verify_family(3),
        "functionals._structured_ids": _structured_ids(3),
        "functionals._sweep_layout": _sweep_layout(3, 3, 8),
        "functionals._cached_verification_table": (_verification_table(3, 64, 0), _verification_table(2, 32, 0)),
        "functionals._monotone_sample": _monotone_sample(3),
        "functionals._probe_rows": _probe_rows(3),
    }
    # a new cache must be listed here
    assert sorted(values) == sorted(_cached_tables())

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from arrays(v)
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)

    for name, value in values.items():
        found = list(arrays(value))
        assert found, name
        for a in found:
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flat[:1] = 0


def test_no_cache_is_keyed_by_a_functional():
    """Every cached table takes numbers only: point counts, row counts,
    seeds and bounds, and the values of a two-valued block."""
    for name, cache in _cached_tables().items():
        params = inspect.signature(cache.__wrapped__).parameters.values()
        assert all(p.annotation in ("int", "float") for p in params), name


def _bound_3_table(n, budget, seed):
    """The rows the forward implications read: uniform(-3, 3), where the
    verification rows of ``classify`` are uniform(-5, 5)."""
    return np.concatenate([_verify_family(n), np.random.default_rng(seed).uniform(-3.0, 3.0, (budget, n))])


def test_the_forward_implications_read_their_own_rows(monkeypatch):
    """``verify_semicontinuity_theorem`` draws its uniform(-3, 3) rows on each
    call, bit for bit the rows of the table it read when the verification
    table was keyed by its bound.  They cannot be the verification rows: on
    a subspace that is not discrete, the implications fail on inputs that
    are not continuous, and which rows fail depends on the rows drawn."""
    cases = [
        (SetValuedMap(e.ambient, e.subspace, images), e, kind, sample, seed % 5)
        for seed, e in enumerate(random_embeddings(40, 2627))
        for images in fixing_images(e)
        for kind in ("min", "max")
        for sample in (0, 32)
    ]
    read = []

    def recorded(u, r_usc, r_lsc, family):
        read.append(family)
        return forward_implications(u, r_usc, r_lsc, family)

    monkeypatch.setattr(extenders, "forward_implications", recorded)
    reports = [verify_semicontinuity_theorem(r, e, kind, sample, seed=seed) for r, e, kind, sample, seed in cases]
    for (_, e, _, sample, seed), fam in zip(cases, read):
        assert _bits(np.asarray(fam)) == _bits(_bound_3_table(e.subspace.n, sample, seed))
    # some report lists a failure on a random row
    random_failures = 0
    for rep, (_, e, _, _, _), fam in zip(reports, cases, read):
        drawn = {f"f={tuple(row)}" for row in fam[len(_verify_family(e.subspace.n)) :].tolist()}
        failures = [f for i in rep.implications for f in i.failures]
        random_failures += sum(f.split(" -> ")[0] in drawn for f in failures)
    assert random_failures


# -- the operation of an identity ---------------------------------------------


@pytest.mark.parametrize("axiom", AXIOMS[2:])
def test_combine_keeps_its_first_argument_on_a_zero_tie(axiom):
    for x0, y0 in ((0.0, -0.0), (-0.0, 0.0)):
        x = np.full((2, 3), x0)
        # y as rows, or as a column of constants as the weak rows' c
        for y in (np.full((2, 3), y0), np.full((2, 1), y0)):
            assert _combine(axiom, x, y).tobytes() == x.tobytes()
            assert _combine(axiom, x, y).tobytes() == _fold(axiom[-3:], (x, np.broadcast_to(y, x.shape))).tobytes()
    # away from ties, the min or the max
    x, y = np.array([[1.0, -2.0]]), np.array([[-1.0, 3.0]])
    want = np.minimum(x, y) if axiom.endswith("min") else np.maximum(x, y)
    assert _combine(axiom, x, y).tolist() == want.tolist()


# -- support reads the tables as it drew from fresh generators -----------------


def _fresh_table(n, budget, seed):
    """The verification rows drawn anew on each call, from a fresh generator."""
    return _verification_rows(n, budget, np.random.default_rng(seed))


def _support_and_route(mu, seed):
    """What ``support`` answers (or raises), and the route's rows compared."""
    try:
        answer = ("ok", support(mu, budget=64, seed=seed))
    except idemx.IdemxError as exc:
        answer = ("raised", type(exc).__name__, str(exc))
    return answer, _own_supports(mu, 8, 64, 1e-9, seed)[1:]


def _corpus():
    """The fuzz corpus, then the planted functionals at three seeds: the
    hidden one fails its route on a random verification row."""
    return fuzz_functionals() + [(mu, seed) for mu in PLANTED for seed in (0, 1, 7)]


def test_support_matches_a_fresh_generator_reference_on_the_fuzz_corpus(monkeypatch):
    assert len(fuzz_functionals()) > 100
    got = [_support_and_route(mu, seed) for mu, seed in _corpus()]
    monkeypatch.setattr(functionals, "_verification_table", _fresh_table)
    for mu, _ in _corpus():
        mu.__dict__.pop("_sweeps", None)  # an empty memo, so every verdict is made anew
    want = [_support_and_route(mu, seed) for mu, seed in _corpus()]
    assert got == want
    # the corpus reaches the route's verification rows and the generic sweep
    assert any(compared for _, (_, _, compared) in got)
    assert any(not mask for _, (_, mask, _) in got)


def test_a_hidden_support_point_is_found_past_the_route():
    """A functional the route cannot certify: the generic sweep moves the
    base rows at one point and draws past the verification rows the route
    compared."""
    space = discrete(["a", "b", "c"])
    mu = LambdaFunctional(space, lambda f: f["a"] + (0.25 if f["c"] > 1.5 else 0.0))
    assert support(mu) == {"a", "c"}

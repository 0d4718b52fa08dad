"""The cached inputs of the axiom sweep are built whole on their first use
and never change after, whatever later sweeps ask of them: the random rows
of a (point count, seed, draw size) entry, and the structured rows of a
point count."""

from __future__ import annotations

import numpy as np

from idemx.functionals import (
    AXIOMS,
    SHARED_TRIALS,
    MeanFunctional,
    _pair_family,
    _random_tail,
    _structured,
    _structured_ids,
    check_axioms,
    support_functional,
)
from idemx.spaces import discrete

N, SEED = 3, 5
SPACE = discrete(["a", "b", "c"])
SIDES = {
    "pairs": {"F", "G", "preserves_max", "preserves_min"},
    "weak": {"F", "weakly_additive", "weakly_preserves_max", "weakly_preserves_min"},
}
FULL = {
    "pairs": ("preserves_max", "F", "G", "preserves_min"),
    "weak": ("weakly_additive", "F", "weakly_preserves_max", "weakly_preserves_min"),
}


def _arrays(value):
    """Every array of a cached value, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [a for k in sorted(value) for a in _arrays(value[k])]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return []


def _snapshot():
    cached = (
        _random_tail(N, SEED, SHARED_TRIALS),
        _structured_ids(N),
        *(_structured(N, group, sides) for group, sides in FULL.items()),
    )
    return [a.tobytes() for a in _arrays(cached)]


def _clear():
    for cache in (_random_tail, _structured, _structured_ids):
        cache.cache_clear()


def test_the_entry_is_whole_and_read_only_after_a_weak_only_sweep():
    _clear()
    check_axioms(MeanFunctional(SPACE), ("weakly_additive", "weakly_preserves_min"), trials=8, seed=SEED)
    entry = _random_tail(N, SEED, SHARED_TRIALS)
    assert {group: set(sides) for group, (sides, _) in entry.items()} == SIDES
    assert entry["pairs"][1] is None
    for sides, C in entry.values():
        for a in (*sides.values(), *([] if C is None else [C])):
            assert not a.flags.writeable
            assert len(a) == 2 * SHARED_TRIALS
    # the structured rows of both groups, and every side as ids into them
    groups = _structured_ids(N)
    assert {group: set(ids) for group, (_, ids, _) in groups.items()} == SIDES
    for rows, ids, _ in groups.values():
        assert set(np.concatenate(list(ids.values())).tolist()) == set(range(len(rows)))
    for a in _arrays(groups):
        assert not a.flags.writeable
    rows, idx, _ = _structured(N, "weak", ("weakly_additive", "F", "weakly_preserves_min"))
    assert set(idx) == {"weakly_additive", "F", "weakly_preserves_min"}
    assert not any(a.flags.writeable for a in (rows, *idx.values()))


def test_later_sweeps_leave_the_entry_unchanged():
    _clear()
    mu = support_functional(SPACE, "min", ["a", "b"])
    check_axioms(mu, ("weakly_preserves_max",), trials=SHARED_TRIALS, seed=SEED)
    entry = _random_tail(N, SEED, SHARED_TRIALS)
    before = _snapshot()
    check_axioms(mu, AXIOMS, trials=SHARED_TRIALS, seed=SEED)
    check_axioms(MeanFunctional(SPACE), ("preserves_max", "normed"), trials=3, seed=SEED)
    check_axioms(mu, AXIOMS, trials=0, seed=SEED)
    check_axioms(mu, AXIOMS, trials=8, seed=SEED, family=_pair_family(N))
    check_axioms(mu, AXIOMS, trials=0, seed=SEED, family=np.eye(N))
    assert _random_tail(N, SEED, SHARED_TRIALS) is entry
    assert _random_tail.cache_info().misses == 1
    assert _structured_ids.cache_info().misses == 1
    assert _snapshot() == before

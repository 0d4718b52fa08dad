"""The cached inputs of the axiom sweep are built whole on their first use
and never change after, whatever later sweeps ask of them: the layout of a
(point count, seed, trial count) entry, and the structured rows of a point
count.  The random rows are drawn once per layout built, and once per
family sweep at trials > 0, from one read of a fresh generator."""

from __future__ import annotations

import numpy as np

from idemx import functionals
from idemx.functionals import (
    AXIOMS,
    MeanFunctional,
    _first_seen,
    _pair_family,
    _random_tail,
    _structured_ids,
    _sweep_layout,
    check_axioms,
    support_functional,
)
from idemx.spaces import discrete

N, SEED, TRIALS = 3, 5, 64
SPACE = discrete(["a", "b", "c"])
#: Each group's sides, in the order of its layout.
SIDES = {
    "pairs": ["F", "G", "preserves_max", "preserves_min"],
    "weak": ["F", "weakly_additive", "weakly_preserves_max", "weakly_preserves_min"],
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
    cached = (_sweep_layout(N, SEED, TRIALS), _structured_ids(N))
    return [a.tobytes() for a in _arrays(cached)]


def _clear():
    for cache in (_sweep_layout, _structured_ids):
        cache.cache_clear()


def test_the_entry_is_whole_and_read_only_after_a_weak_only_sweep():
    _clear()
    check_axioms(MeanFunctional(SPACE), ("weakly_additive", "weakly_preserves_min"), trials=8, seed=SEED)
    random = _random_tail(N, SEED, 8)
    assert {group: list(sides) for group, (sides, _) in random.items()} == SIDES
    assert random["pairs"][1] is None
    for sides, C in random.values():
        for a in (*sides.values(), *([] if C is None else [C])):
            assert not a.flags.writeable
            assert len(a) == 2 * 8
    entry = _sweep_layout(N, SEED, 8)
    assert {group: list(ids) for group, (_, ids, _) in entry.items()} == SIDES
    assert entry["pairs"][2] is None
    groups = _structured_ids(N)
    for group, (rows, ids, C) in entry.items():
        # the structured rows, then 2 x 8 random rows for each side in turn
        head, head_ids, head_C = groups[group]
        assert len(rows) == len(head) + len(SIDES[group]) * 2 * 8
        assert rows[: len(head)].tobytes() == head.tobytes()
        for k, (s, i) in enumerate(ids.items()):
            assert i[: len(head_ids[s])].tolist() == head_ids[s].tolist()
            assert i[len(head_ids[s]) :].tolist() == list(range(len(head) + k * 16, len(head) + (k + 1) * 16))
        if C is not None:
            assert C[: len(head_C)].tobytes() == head_C.tobytes() and len(C) == len(head_C) + 16
    for a in _arrays(entry):
        assert not a.flags.writeable
    # the structured rows of both groups, and every side as ids into them
    assert {group: list(ids) for group, (_, ids, _) in groups.items()} == SIDES
    for rows, ids, _ in groups.values():
        # the rows are numbered as a reading of the sides in order first meets them
        met = np.concatenate(list(ids.values()))
        assert met[_first_seen(met)].tolist() == list(range(len(rows)))
    for a in _arrays(groups):
        assert not a.flags.writeable


def test_later_sweeps_leave_the_entry_unchanged(monkeypatch):
    _clear()
    draws = []

    def recorded(n, seed, trials):
        draws.append(trials)
        return _random_tail(n, seed, trials)

    monkeypatch.setattr(functionals, "_random_tail", recorded)
    mu = support_functional(SPACE, "min", ["a", "b"])
    check_axioms(mu, ("weakly_preserves_max",), trials=TRIALS, seed=SEED)
    entry = _sweep_layout(N, SEED, TRIALS)
    before = _snapshot()
    check_axioms(mu, AXIOMS, trials=TRIALS, seed=SEED)
    check_axioms(MeanFunctional(SPACE), ("preserves_max", "normed"), trials=3, seed=SEED)
    check_axioms(mu, AXIOMS, trials=0, seed=SEED)
    check_axioms(mu, AXIOMS, trials=8, seed=SEED, family=_pair_family(N))
    check_axioms(mu, AXIOMS, trials=0, seed=SEED, family=np.eye(N))
    assert _sweep_layout(N, SEED, TRIALS) is entry
    # one draw per layout built, 64 and 3, and one for the family sweep at
    # 8, which its three input groups share; none for 0 trials
    assert draws == [TRIALS, 3, 8]
    # one layout per trial count asked without a family: 64 and 3; none for
    # 0 trials, which reads the structured rows alone, nor for a family
    assert _sweep_layout.cache_info().misses == 2
    assert _structured_ids.cache_info().misses == 1
    assert _snapshot() == before


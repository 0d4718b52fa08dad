"""A cached entry of the axiom sweep's shared inputs is built whole on its
first use and never changes after, whatever later sweeps ask of it."""

from __future__ import annotations

import numpy as np

from idemx.functionals import (
    AXIOMS,
    SHARED_TRIALS,
    MeanFunctional,
    _pair_family,
    _shared_inputs,
    check_axioms,
    support_functional,
)
from idemx.spaces import discrete

N, SEED = 3, 5
SPACE = discrete(["a", "b", "c"])
GROUPS = {
    "pairs": {"F", "G", "preserves_max", "preserves_min"},
    ("weak", None): {"F", "C", "weakly_additive", "weakly_preserves_max", "weakly_preserves_min"},
}


def _snapshot(entry):
    return {key: {k: a.tobytes() for k, a in group.items()} for key, group in entry.items()}


def test_the_entry_is_whole_and_read_only_after_a_weak_only_sweep():
    _shared_inputs.cache_clear()
    check_axioms(MeanFunctional(SPACE), ("weakly_additive", "weakly_preserves_min"), trials=8, seed=SEED)
    entry = _shared_inputs(N, SEED, SHARED_TRIALS)
    assert {key: set(group) for key, group in entry.items()} == GROUPS
    for group in entry.values():
        for a in group.values():
            assert not a.flags.writeable
            assert len(a) == len(group["F"])


def test_later_sweeps_leave_the_entry_unchanged():
    _shared_inputs.cache_clear()
    mu = support_functional(SPACE, "min", ["a", "b"])
    check_axioms(mu, ("weakly_preserves_max",), trials=SHARED_TRIALS, seed=SEED)
    entry = _shared_inputs(N, SEED, SHARED_TRIALS)
    before = _snapshot(entry)
    check_axioms(mu, AXIOMS, trials=SHARED_TRIALS, seed=SEED)
    check_axioms(MeanFunctional(SPACE), ("preserves_max", "normed"), trials=3, seed=SEED)
    check_axioms(mu, AXIOMS, trials=0, seed=SEED)
    check_axioms(mu, AXIOMS, trials=8, seed=SEED, family=_pair_family(N))
    check_axioms(mu, AXIOMS, trials=0, seed=SEED, family=np.eye(N))
    assert _shared_inputs(N, SEED, SHARED_TRIALS) is entry
    assert _shared_inputs.cache_info().misses == 1
    assert _snapshot(entry) == before

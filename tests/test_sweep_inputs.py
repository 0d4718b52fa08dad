"""The axiom sweep's shared inputs against a per-call build, and the
parameter boundary of the public entry points of ``functionals``.

Without a family, ``_axiom_sweep`` reads its input blocks from
``_shared_inputs``, built once per point count, seed and draw size.  The
per-call construction it replaced is kept below as the reference: every
array the sweep evaluates, and every block it reads, must equal the
reference's byte for byte, so the sign of a zero is compared too.
"""

from __future__ import annotations

import numpy as np
import pytest

from idemx.errors import InvariantViolation
from idemx.functionals import (
    AXIOMS,
    SHARED_TRIALS,
    TWO_VALUED_CAP,
    LambdaFunctional,
    MeanFunctional,
    _axiom_sweep,
    _fold,
    _first_violations,
    _mirrored,
    _pair_grid,
    _shared_inputs,
    _weak_family,
    check_axiom,
    check_axioms,
    classify,
    density,
    essential_family,
    from_mapping,
    infsup_reconstruct,
    is_essential,
    support,
    support_functional,
)
from idemx.spaces import discrete

NS = range(1, TWO_VALUED_CAP + 2)
SEEDS = (0, 1, 2**31 - 1)
TRIALS = (0, 1, 8, 16, 24, 32, 63, 64, 65, 200)


def _reference_blocks(n, trials, seed):
    """The pair and weak blocks as each call built them before they were
    shared: the structured rows, then ``trials`` random rows from a fresh
    ``default_rng(seed)``, each followed by its mirror."""
    F, G = _pair_grid(n)
    W, C = _weak_family(n)
    if trials:
        R = np.random.default_rng(seed).uniform(-2.0, 2.0, (trials, 2, n))
        F, G = np.concatenate([F, _mirrored(R[:, 0])]), np.concatenate([G, _mirrored(R[:, 1])])
        high = np.full(n + 1, 2.0)
        high[n] = 5.0
        R = np.random.default_rng(seed).uniform(-high, high, (trials, n + 1))
        W, C = np.concatenate([W, _mirrored(R[:, :n])]), np.concatenate([C, _mirrored(R[:, n])])
    return (F, G), (W, C)


def _reference_sweep(ev, n, trials, tol, seed):
    """Every identity on the reference blocks, in ``AXIOMS`` order and
    evaluating as the sweep does: each identity's left-hand side, then the
    values of its group's F (and G) on the group's first identity."""
    (F, G), (W, C) = _reference_blocks(n, trials, seed)
    c = C[:, None]
    values = {}
    reports = {}
    for a in AXIOMS:
        kind = a[-3:]
        if a == "normed":
            one = np.ones((1, n))
            reports[a] = _first_violations(a, ev(one), 1.0, tol, one)
        elif a.startswith("preserves"):
            lhs = ev(_fold(kind, (F, G)))
            if "pairs" not in values:
                values["pairs"] = ev(F), ev(G)
            reports[a] = _first_violations(a, lhs, _fold(kind, values["pairs"]), tol, F, G)
        else:
            lhs = ev(W + c) if a == "weakly_additive" else ev(_fold(kind, (W, c)))
            if "weak" not in values:
                values["weak"] = ev(W)
            V = values["weak"]
            rhs = V + c if a == "weakly_additive" else _fold(kind, (V, c))
            reports[a] = _first_violations(a, lhs, rhs, tol, W, C=C)
    return reports


def _recording(mus, seen):
    """The functionals' values as columns, keeping each array evaluated."""
    def ev(A):
        seen.append(A)
        return np.column_stack([mu.eval_batch(A) for mu in mus])
    return ev


def _functionals(n):
    space = discrete([f"p{i}" for i in range(n)])
    head = space.points[: max(1, n // 2)]
    return [
        MeanFunctional(space),
        support_functional(space, "min", head),
        density(space, {p: 0.0 if p in head else -0.5 for p in space.points}),
    ]


@pytest.mark.parametrize("n", NS)
def test_shared_inputs_match_the_per_call_build(n):
    mus = _functionals(n)
    for seed in SEEDS:
        for trials in TRIALS:
            seen, want = [], []
            got = _axiom_sweep(_recording(mus, seen), n, AXIOMS, trials, 1e-9, seed, None)
            assert got == _reference_sweep(_recording(mus, want), n, trials, 1e-9, seed)
            assert [a.tobytes() for a in seen] == [a.tobytes() for a in want]
            assert [a.shape for a in seen] == [a.shape for a in want]

            entry = _shared_inputs(n, seed, max(trials, SHARED_TRIALS))
            blocks = [(entry["pairs"]["F"], entry["pairs"]["G"]), (entry["weak", None]["F"], entry["weak", None]["C"])]
            for shared, ref in zip(blocks, _reference_blocks(n, trials, seed)):
                for a, b in zip(shared, ref):
                    assert a[: len(b)].tobytes() == b.tobytes()
                    assert len(a) - len(b) == 2 * (max(trials, SHARED_TRIALS) - trials)
            for value in entry.values():
                for a in value.values():
                    assert not a.flags.writeable
            assert not any(a.flags.writeable for a in seen[1:])


def test_reports_do_not_depend_on_what_the_cache_holds():
    space = discrete(["a", "b", "c", "d"])
    # min over {a, b}, except where f(c) + f(d) > 3.5: at seed 3 the first
    # random pair that shows it comes after 8 trials and before 64
    bent = LambdaFunctional(
        space, lambda f: min(f["a"], f["b"]) + (0.5 if f["c"] + f["d"] > 3.5 else 0.0)
    )
    mus = [MeanFunctional(space), support_functional(space, "max", ["c"]), bent]

    def fresh(mu, trials):
        _shared_inputs.cache_clear()
        return check_axioms(mu, trials=trials, seed=3)

    for mu in mus:
        want = {t: fresh(mu, t) for t in (8, 64, 200)}
        _shared_inputs.cache_clear()
        for t in (8, 64, 8, 200, 8):
            assert check_axioms(mu, trials=t, seed=3) == want[t]
    assert want[8]["preserves_min"].passed and not want[64]["preserves_min"].passed


# -- the parameter boundary ------------------------------------------------

D2 = discrete(["a", "b"])
MU = support_functional(D2, "min", ["a"])
F = from_mapping(D2, {"a": 0.5, "b": -1.0})

TOL_ENTRIES = {
    "check_axiom": lambda tol: check_axiom(MU, "preserves_min", tol=tol),
    "check_axioms": lambda tol: check_axioms(MeanFunctional(D2), tol=tol),
    "support": lambda tol: support(MU, tol=tol),
    "classify": lambda tol: classify(MU, tol=tol),
    "is_essential": lambda tol: is_essential(MU, ["a"], tol=tol),
    "essential_family": lambda tol: essential_family(MU, tol=tol),
    "infsup_reconstruct": lambda tol: infsup_reconstruct(MU, F, tol=tol),
}
COUNT_ENTRIES = {
    "trials": {
        "check_axiom": lambda v: check_axiom(MU, "preserves_min", trials=v),
        "check_axioms": lambda v: check_axioms(MU, trials=v),
    },
    "budget": {
        "support": lambda v: support(MU, budget=v),
        "classify": lambda v: classify(MU, budget=v),
    },
    "seed": {
        "check_axiom": lambda v: check_axiom(MU, "preserves_min", seed=v),
        "check_axioms": lambda v: check_axioms(MU, seed=v),
        "support": lambda v: support(MU, seed=v),
        "classify": lambda v: classify(MU, seed=v),
    },
}
BAD_COUNTS = (-1, -3, 1.5, True, "2")


def _count_cases(name):
    return [
        pytest.param(entry, v, id=f"{entry}-{v!r}")
        for entry in COUNT_ENTRIES[name]
        for v in BAD_COUNTS
    ]


@pytest.mark.parametrize("entry", TOL_ENTRIES)
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-12, "0.1"])
def test_entry_points_reject_a_bad_tol(entry, tol):
    with pytest.raises(InvariantViolation, match="^tol: "):
        TOL_ENTRIES[entry](tol)


@pytest.mark.parametrize("entry, value", _count_cases("trials"))
def test_entry_points_reject_a_bad_trials(entry, value):
    with pytest.raises(InvariantViolation, match="^trials: "):
        COUNT_ENTRIES["trials"][entry](value)


@pytest.mark.parametrize("entry, value", _count_cases("budget"))
def test_entry_points_reject_a_bad_budget(entry, value):
    with pytest.raises(InvariantViolation, match="^budget: "):
        COUNT_ENTRIES["budget"][entry](value)


@pytest.mark.parametrize("entry, value", _count_cases("seed"))
def test_entry_points_reject_a_bad_seed(entry, value):
    with pytest.raises(InvariantViolation, match="^seed: "):
        COUNT_ENTRIES["seed"][entry](value)


def test_the_boundary_keeps_the_edge_values():
    assert check_axioms(MU, trials=0, tol=0.0, seed=0)["preserves_min"].passed
    assert check_axioms(MU, trials=np.int64(3), seed=np.int64(2**31 - 1))["normed"].passed
    assert classify(MU, budget=0, tol=0).kind == "R_min"

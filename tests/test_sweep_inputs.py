"""The axiom sweep's inputs against a per-call build, and the parameter
boundary of the public entry points of ``functionals``.

Without a family, ``_axiom_sweep`` evaluates each input group once and
whole, whichever of its identities are asked: its distinct structured rows
(``_structured_ids``, built once per point count), then its random rows
(``_random_tail``, drawn once per layout), laid out once per point count,
seed and trial count (``_sweep_layout``).  The
per-call construction it replaced is kept below as the reference.  The
reports, witnesses included, must equal the reference's; every row the
sweep evaluates must be a row of the reference inputs, bit for bit, so the
sign of a zero is compared too; and an ``ev`` that raises must raise on the
first input of the group's layout that the reference raises on.  A
functional's memo of sweeps must answer every smaller trial count as a
sweep at that count would, and spare every repeated sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from idemx import functionals
from idemx.errors import InvariantViolation
from idemx.functionals import (
    AXIOMS,
    TWO_VALUED_CAP,
    Functional,
    LambdaFunctional,
    MeanFunctional,
    TableFunctional,
    _axiom_sweep,
    _columns,
    _fold,
    _first_violations,
    _mirrored,
    _pair_grid,
    _random_tail,
    _structured_ids,
    _sweep_layout,
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
            reports[a] = _first_violations(a, ev(one), 1.0, tol, one, (0,))
        elif a.startswith("preserves"):
            lhs = ev(_fold(kind, (F, G)))
            if "pairs" not in values:
                values["pairs"] = ev(F), ev(G)
            FG, k = np.concatenate([F, G]), np.arange(len(F))
            reports[a] = _first_violations(a, lhs, _fold(kind, values["pairs"]), tol, FG, k, len(F) + k)
        else:
            lhs = ev(W + c) if a == "weakly_additive" else ev(_fold(kind, (W, c)))
            if "weak" not in values:
                values["weak"] = ev(W)
            V = values["weak"]
            rhs = V + c if a == "weakly_additive" else _fold(kind, (V, c))
            reports[a] = _first_violations(a, lhs, rhs, tol, W, np.arange(len(W)), C=C)
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


def _reference_inputs(n, trials, seed):
    """Every input the reference evaluates, by group, each group's sides in
    the order of the sweep's layout: F (and G), then the left-hand inputs in
    ``AXIOMS`` order."""
    (F, G), (W, C) = _reference_blocks(n, trials, seed)
    c = C[:, None]
    return {
        "normed": {"normed": np.ones((1, n))},
        "weak": {
            "F": W,
            "weakly_additive": W + c,
            "weakly_preserves_max": _fold("max", (W, c)),
            "weakly_preserves_min": _fold("min", (W, c)),
        },
        "pairs": {
            "F": F,
            "G": G,
            "preserves_max": _fold("max", (F, G)),
            "preserves_min": _fold("min", (F, G)),
        },
    }


def _group(axiom):
    return "normed" if axiom == "normed" else "pairs" if axiom.startswith("pre") else "weak"


def _raised(call):
    """The text of the InvariantViolation ``call`` raises, or None."""
    try:
        call()
    except InvariantViolation as exc:
        return str(exc)
    return None


def _reference_raise(ev, n, axioms, trials, seed):
    """What the reference inputs raise on ``axioms`` in the sweep's layout:
    each group with an identity asked, in the order of its first identity
    in ``AXIOMS``, is evaluated whole, the structured rows of every side in
    ``_reference_inputs`` order, then the random rows of every side in the
    same order.  A row met again raises again, so repeats can stay."""
    inputs = _reference_inputs(n, trials, seed)

    def run():
        for group in dict.fromkeys(_group(a) for a in AXIOMS if a in axioms):
            sides = list(inputs[group].values())
            cut = [len(a) - (0 if group == "normed" else 2 * trials) for a in sides]
            head = [a[:k] for a, k in zip(sides, cut)]
            ev(np.concatenate(head + [a[k:] for a, k in zip(sides, cut)]))

    return _raised(run)


def _row_bits(A):
    return [row.tobytes() for row in A]


@pytest.mark.parametrize("n", NS)
def test_shared_inputs_match_the_per_call_build(n):
    mus = _functionals(n)
    for seed in SEEDS:
        for trials in TRIALS:
            seen, want = [], []
            got = _axiom_sweep(_recording(mus, seen), n, AXIOMS, trials, 1e-9, seed, None)
            assert got == _reference_sweep(_recording(mus, want), n, trials, 1e-9, seed)

            # one evaluation per group: the constant 1, the rows (f, c), the pairs
            inputs = _reference_inputs(n, trials, seed)
            assert len(seen) == len(inputs) == 3
            for A, (group, sides) in zip(seen, inputs.items()):
                rows = _row_bits(A)
                # the rows are those of the reference inputs, bit for bit, each
                # of them there, -0.0 and 0.0 apart
                assert set(rows) == {r for a in sides.values() for r in _row_bits(a)}
                random = 0 if group == "normed" else 2 * trials
                # the structured rows are pairwise distinct by bits; then come
                # each side's random rows as drawn
                head = rows[: len(rows) - len(sides) * random]
                assert len(set(head)) == len(head)
                tail = [r for a in sides.values() for r in _row_bits(a[len(a) - random :])]
                assert rows[len(head) :] == tail
            if not trials:
                assert not any(A.flags.writeable for A in seen[1:])

            entry = _random_tail(n, seed, trials)
            for group, (sides, C) in entry.items():
                for s, a in sides.items():
                    ref = inputs[group][s]
                    assert a.tobytes() == ref[len(ref) - 2 * trials :].tobytes()
                    assert not a.flags.writeable
                if C is not None:
                    ref = _reference_blocks(n, trials, seed)[1][1]
                    assert C.tobytes() == ref[len(ref) - 2 * trials :].tobytes()
                    assert not C.flags.writeable

            # each side of the layout the sweep read gathers the reference
            # side, bit for bit, from read-only arrays
            layout = _sweep_layout(n, seed, trials) if trials else _structured_ids(n)
            for group, (rows, idx, C) in layout.items():
                for s, i in idx.items():
                    assert rows[i].tobytes() == inputs[group][s].tobytes()
                    assert not i.flags.writeable
                assert not rows.flags.writeable
                if C is not None:
                    assert C.tobytes() == _reference_blocks(n, trials, seed)[1][1].tobytes()
                    assert not C.flags.writeable


@pytest.mark.parametrize("n", NS)
def test_each_identity_alone_matches_the_reference(n):
    mus = _functionals(n)
    subsets = [(a,) for a in AXIOMS] + [
        ("weakly_preserves_min", "preserves_min"),
        ("weakly_preserves_max", "weakly_preserves_min"),
        ("normed", "weakly_additive"),
    ]
    for seed in SEEDS[:2]:
        for trials in (0, 8, 65):
            want = _reference_sweep(_recording(mus, []), n, trials, 1e-9, seed)
            for axioms in subsets:
                got = _axiom_sweep(_recording(mus, []), n, axioms, trials, 1e-9, seed, None)
                assert got == {a: want[a] for a in axioms}, axioms


def test_zero_signs_stay_apart():
    """The weak rows hold rows that differ only in the sign of a zero; both
    are evaluated, each as its own row."""
    rows, _, _ = _structured_ids(2)["weak"]
    as_floats = {tuple(r) for r in rows.tolist()}
    assert len(as_floats) < len(rows) == len(set(_row_bits(rows)))
    assert {(0.0, -1.0), (-0.0, -1.0)} <= {tuple(r) for r in rows.tolist()}
    assert any(str(v) == "-0.0" for r in rows.tolist() for v in r)


@pytest.mark.parametrize("n", range(2, TWO_VALUED_CAP + 1))
def test_a_raising_ev_raises_on_the_reference_input(n):
    """A table raises on its first input outside {lo, hi}: the first such
    input of the group's layout, which does not depend on the identities
    asked, for each identity alone and for all of them."""
    space = discrete([f"p{i}" for i in range(n)])
    raised = 0
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (0.0, 2.0), (0.5, 1.0)):
        mu = TableFunctional(space, lo, hi, tuple(float(m % 3 == 0) for m in range(1 << n)))

        def ev(A):
            return mu.eval_batch(A)[:, None]

        for axioms in [AXIOMS, *((a,) for a in AXIOMS)]:
            for trials in (0, 8):
                want = _reference_raise(ev, n, axioms, trials, 0)
                assert _raised(lambda: _axiom_sweep(ev, n, axioms, trials, 1e-9, 0, None)) == want
                raised += want is not None
    assert raised >= 5 * 6 * 2


# -- the work of a sweep: deterministic counters -----------------------------

#: The distinct structured rows of the pairs and of the rows (f, c), n = 1 to 6.
PAIR_ROWS = (3, 9, 27, 81, 213, 45)
WEAK_ROWS = (26, 210, 578, 1314, 2786, 276)


@pytest.mark.parametrize("n", range(1, 7))
def test_a_full_sweep_makes_three_evaluations(n):
    mu = MeanFunctional(discrete([f"p{i}" for i in range(n)]))
    for trials in (0, 1, 8, 24, 64):
        sizes = []

        def ev(A):
            sizes.append(len(A))
            return mu.eval_batch(A)[:, None]

        _axiom_sweep(ev, n, AXIOMS, trials, 1e-9, 0, None)
        # 2 rows per trial (a random row and its mirror) for each of 4 sides
        assert sizes == [1, WEAK_ROWS[n - 1] + 8 * trials, PAIR_ROWS[n - 1] + 8 * trials]


@pytest.mark.parametrize("n", range(1, 7))
def test_a_partial_sweep_evaluates_its_whole_group(n):
    """The rows of a group do not depend on the identities asked: 1 row for
    ``normed``, then each group asked with all its structured rows and
    2 x trials random rows for each of its 4 sides."""
    mu = MeanFunctional(discrete([f"p{i}" for i in range(n)]))
    for axioms in [(a,) for a in AXIOMS] + [
        ("normed", "preserves_min"),
        ("weakly_preserves_min", "preserves_max"),
        ("weakly_additive", "weakly_preserves_max"),
    ]:
        for trials in (0, 1, 24):
            sizes = []

            def ev(A):
                sizes.append(len(A))
                return mu.eval_batch(A)[:, None]

            _axiom_sweep(ev, n, axioms, trials, 1e-9, 0, None)
            rows = {
                "normed": 1,
                "weak": WEAK_ROWS[n - 1] + 8 * trials,
                "pairs": PAIR_ROWS[n - 1] + 8 * trials,
            }
            groups = dict.fromkeys(_group(a) for a in AXIOMS if a in axioms)
            assert sizes == [rows[g] for g in groups], (axioms, trials)


@pytest.mark.parametrize("n", (1, 3, 6))
def test_random_rows_drawn_to_size_are_the_head_of_a_larger_draw(n):
    """A draw of t trials is the first t trials of a 64-trial draw (and a
    64-trial draw the first 64 of a larger one), bit for bit, side by side."""
    for seed in SEEDS:
        big = _random_tail(n, seed, 64)
        for trials in (1, 8, 24, 64, 200):
            drawn = _random_tail(n, seed, trials)
            head = 2 * min(trials, 64)
            for group, (sides, C) in drawn.items():
                big_sides, big_C = big[group]
                assert list(sides) == list(big_sides)
                for s, a in sides.items():
                    assert len(a) == 2 * trials
                    assert a[:head].tobytes() == big_sides[s][:head].tobytes()
                if C is not None:
                    assert C[:head].tobytes() == big_C[:head].tobytes()


def test_a_family_sweep_evaluates_what_its_identities_read():
    """On a family of k rows, each pair identity reads its k^2 left-hand
    inputs and the k rows; the weak rows are the rows and their negations
    with 4 constants for additivity and 6 for the lattice identities."""
    n, k = 3, 5
    fam = np.random.default_rng(0).uniform(-1.0, 1.0, (k, n))
    mu = MeanFunctional(discrete(["a", "b", "c"]))
    for axioms, want in [
        (("preserves_max",), [k * k + k]),
        (("preserves_min", "preserves_max"), [2 * k * k + k]),
        (AXIOMS, [1, 2 * k * 4 + 2 * k, 2 * k * k + k, 2 * 2 * k * 6 + 2 * k]),
    ]:
        sizes = []

        def ev(A):
            sizes.append(len(A))
            return mu.eval_batch(A)[:, None]

        _axiom_sweep(ev, n, axioms, 0, 1e-9, 0, fam)
        assert sizes == want, axioms


def test_reports_do_not_depend_on_what_the_cache_holds():
    space = discrete(["a", "b", "c", "d"])
    # min over {a, b}, except where f(c) + f(d) > 3.5: at seed 3 the first
    # random pair that shows it comes after 8 trials and before 64
    bent = LambdaFunctional(
        space, lambda f: min(f["a"], f["b"]) + (0.5 if f["c"] + f["d"] > 3.5 else 0.0)
    )
    mus = [MeanFunctional(space), support_functional(space, "max", ["c"]), bent]

    def swept(mu, trials):  # a sweep of its own, not read from mu's memo
        mu.__dict__.pop("_sweeps", None)
        return check_axioms(mu, trials=trials, seed=3)

    def fresh(mu, trials):
        for cache in (_sweep_layout, _structured_ids):
            cache.cache_clear()
        return swept(mu, trials)

    for mu in mus:
        want = {t: fresh(mu, t) for t in (8, 64, 200)}
        _sweep_layout.cache_clear()
        for t in (8, 64, 8, 200, 8):
            assert swept(mu, t) == want[t]
    assert want[8]["preserves_min"].passed and not want[64]["preserves_min"].passed


# -- the memo of each functional's sweeps ------------------------------------

MEMO_TRIALS = (0, 1, 8, 16, 24, 32, 64)


def _memo_functionals(n):
    """Functionals whose first violations lie in the structured rows, or
    for some identities in the random rows only."""
    space = discrete([f"p{i}" for i in range(n)])
    head = space.points[: max(1, n // 2)]
    # f(p0), lowered by 0.5 where f at the last point exceeds 1.9: no pair of
    # structured inputs reaches that (their values lie in [-1, 1]), about one
    # random pair in 25 does, and many structured rows (f, c) do
    bent = LambdaFunctional(space, lambda f: f.values[0] - (0.5 if f.values[-1] > 1.9 else 0.0))
    return [
        MeanFunctional(space),
        density(space, {p: 0.0 if p in head else -0.5 for p in space.points}),
        bent,
    ]


def test_the_memo_reads_a_smaller_trial_count_as_a_sweep_of_its_own():
    """After a sweep at 64 trials, the reports at each smaller count, read
    from the memo in ascending or descending order, are those of a fresh
    sweep at that count, bit for bit, with the witness in the same place;
    so are those of a memo that starts empty and grows with each count."""
    structured = late = 0
    for n in range(1, 9):
        for k, mu in enumerate(_memo_functionals(n)):
            for seed in (0, 5):
                want = {}
                for t in MEMO_TRIALS:
                    sweep = _axiom_sweep(_columns(mu), n, AXIOMS, t, 1e-9, seed, None)
                    want[t] = {a: reps[0] for a, reps in sweep.items()}
                for warm, order in ((True, MEMO_TRIALS), (True, MEMO_TRIALS[::-1]), (False, MEMO_TRIALS)):
                    mu = _memo_functionals(n)[k]  # a fresh object, its memo empty
                    if warm:
                        check_axioms(mu, trials=64, seed=seed)
                    for t in order:
                        got = check_axioms(mu, trials=t, seed=seed)
                        for a in AXIOMS:
                            rep, ref = got[a], want[t][a]
                            assert repr(rep) == repr(ref), (n, mu.label, seed, t, a)
                            assert (rep.witness and rep.witness.index) == (ref.witness and ref.witness.index)
                for a in AXIOMS:
                    structured += not want[0][a].passed
                    late += want[0][a].passed and not want[64][a].passed
    # both kinds of first violation were met
    assert structured and late


def test_the_verdicts_sequence_sweeps_a_fresh_functional_three_times(monkeypatch):
    """Every axiom, then classify, support and essential_family, on one
    functional: one sweep per input group, at 64 trials, and every later
    check, at 32, 8 or 16 trials, reads it."""
    sweeps = []

    def recorded(ev, n, axioms, *args):
        sweeps.append((tuple(axioms), args[0]))
        return _axiom_sweep(ev, n, axioms, *args)

    monkeypatch.setattr(functionals, "_axiom_sweep", recorded)
    space = discrete(["a", "b", "c", "d"])
    mu = support_functional(space, "min", ["a", "c"])
    for a in AXIOMS:
        check_axiom(mu, a)
    assert classify(mu).kind == "R_min"
    assert support(mu) == {"a", "c"}
    assert essential_family(mu).members == tuple(m for m in range(16) if m & 0b101)
    assert sweeps == [
        (("normed",), 64),
        (("weakly_additive", "weakly_preserves_max", "weakly_preserves_min"), 64),
        (("preserves_max", "preserves_min"), 64),
    ]


def test_equal_functionals_keep_memos_of_their_own():
    """Two tables that compare equal but differ in the sign of a zero each
    report their own values, whichever is checked first."""
    space = discrete(["a"])
    for signs in ((0.0, -0.0), (-0.0, 0.0)):
        first, second = (TableFunctional(space, 0.0, 1.0, (0.0, z)) for z in signs)
        assert first == second and hash(first) == hash(second)
        for mu in (first, second, first):
            fresh = _axiom_sweep(_columns(mu), 1, ("normed",), 64, 1e-9, 0, None)
            got = check_axioms(mu, ("normed",))
            assert repr(got["normed"]) == repr(fresh["normed"][0])
            assert math.copysign(1.0, got["normed"].witness.lhs) == math.copysign(1.0, mu.table[1])


@dataclass
class _MutableMin(Functional):
    """A user functional that is not hashable: a plain dataclass with eq."""

    space: object

    def eval_batch(self, A):
        return A.min(axis=1)


def test_an_unhashable_functional_is_checked_classified_and_supported():
    space = discrete(["a", "b", "c"])
    mu = _MutableMin(space)
    assert mu.__hash__ is None
    want = support_functional(space, "min", ["a", "b", "c"])
    assert check_axioms(mu) == check_axioms(want)
    assert classify(mu).kind == "R_min"
    assert support(mu) == {"a", "b", "c"}


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

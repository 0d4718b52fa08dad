"""Subsets past 63 points: the one bitmask <-> row kernel pair, and the
verdicts that read it, against pure-Python integers at every width."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from idemx import functionals
from idemx.cli import main
from idemx.extenders import build_extender, extend_open_set, supports_retraction
from idemx.functionals import (
    _masks_of,
    _rows_of,
    _two_valued,
    classify,
    support,
    support_functional,
    two_valued_tuples,
)
from idemx.instances import functional_to_json
from idemx.setmaps import setmap
from idemx.spaces import discrete, embed

WIDTHS = [*range(1, 71), 100, 200]
PLANTED = (62, 63, 64, 65, 70, 130)


@pytest.fixture(scope="module", autouse=True)
def _drop_wide_tables():
    """The per-n tables of 130 points run to tens of MB; leave none behind."""
    yield
    for name, obj in vars(functionals).items():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def ref_rows(masks, n):
    return [[bool(m >> i & 1) for i in range(n)] for m in masks]


def ref_mask(row):
    return sum(1 << i for i, b in enumerate(row) if b)


def masks_at(n, rng):
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1), full ^ 1, full >> 1]
    masks += [1 << i for i in range(n)]
    masks += [rng.getrandbits(n) for _ in range(20)]
    if n > 63:
        masks += [1 << 63, (1 << 64) - 1, full ^ (1 << 63)]
    return masks


@pytest.mark.parametrize("n", WIDTHS)
def test_the_kernel_pair_is_exact_at_every_width(n):
    masks = masks_at(n, random.Random(n))
    rows = _rows_of(masks, n)
    assert rows.dtype == bool and rows.shape == (len(masks), n)
    assert rows.tolist() == ref_rows(masks, n)
    back = _masks_of(rows)
    assert back.dtype == (np.int64 if n < 64 else object)  # int64 wherever it is exact
    assert back.tolist() == [ref_mask(r) for r in ref_rows(masks, n)] == masks
    assert all(type(m) is int for m in back.tolist())
    # one row gives one mask, and a stack of tables a table of masks
    assert all(int(_masks_of(row)) == m for row, m in zip(rows, masks))
    assert _masks_of(np.stack([rows, ~rows])).tolist() == [masks, [m ^ ((1 << n) - 1) for m in masks]]
    # the masks may come as any integer sequence
    if n < 64:
        assert _rows_of(np.array(masks), n).tolist() == rows.tolist()


def test_the_single_mask_two_to_the_63():
    for n in (64, 65, 100, 200):
        (row,) = _rows_of([1 << 63], n)
        assert np.flatnonzero(row).tolist() == [63]
        assert _masks_of(row[None]).tolist() == [1 << 63]


def test_the_two_valued_block_keeps_each_callers_sign_of_zero():
    for n in range(5):
        plus = two_valued_tuples(n, 0.0, 1.0)
        minus = two_valued_tuples(n, -0.0, 1.0)
        assert plus == minus
        assert [[str(v) for v in row] for row in minus] == [
            ["1.0" if m >> i & 1 else "-0.0" for i in range(n)] for m in range(1 << n)
        ]
        _two_valued(n, -1.0, 0.0)
        assert np.signbit(_two_valued(n, -1.0, -0.0)).all()


@pytest.mark.parametrize("n", PLANTED)
def test_classify_and_support_find_the_planted_support(n):
    X = discrete([f"p{i}" for i in range(n)])
    planted = frozenset({"p0", f"p{n - 1}"})
    for kind in ("min", "max"):
        cls = classify(support_functional(X, kind, planted))
        assert (cls.kind, cls.support) == (f"R_{kind}", planted)
        assert support(support_functional(X, kind, planted)) == planted


@pytest.mark.parametrize("n", PLANTED)
def test_both_routes_recover_the_planted_retraction(n):
    pts = [f"p{i}" for i in range(n)]
    e = embed(discrete([*pts, "w"]), pts)
    r = setmap(e.ambient, e.subspace, {p: [p] for p in pts} | {"w": ["p0", pts[-1]]})
    for kind in ("min", "max"):
        u = build_extender(r, e, kind)
        assert supports_retraction(u) == r
        for open_set in ({"p63"}, {"p64"}, {"p0", "p64"}, {pts[-1]}, {"p0", pts[-1]}):
            open_set &= set(pts)
            if not open_set:
                continue
            # the candidate 1 - c on U lowers u at y when r(y) meets U (min)
            # or lies in U (max)
            hit = {"p0", pts[-1]} & open_set if kind == "min" else {"p0", pts[-1]} <= open_set
            want = open_set | ({"w"} if hit else set())
            assert extend_open_set(u, open_set) == want, (kind, open_set)


@pytest.mark.parametrize("n", (64, 70))
def test_the_cli_classifies_past_63_points(tmp_path, capsys, n):
    X = discrete([f"p{i}" for i in range(n)])
    path = tmp_path / "min.json"
    path.write_text(json.dumps(functional_to_json(support_functional(X, "min", ["p0", f"p{n - 1}"]))))
    assert main(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"class": "R_min", "support": ["p0", f"p{n - 1}"]}
    assert main(["support", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == ["p0", f"p{n - 1}"]

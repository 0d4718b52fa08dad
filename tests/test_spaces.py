import tracemalloc
import warnings

import numpy as np
import pytest

from idemx.campaign import _embedding_corpus
from idemx.errors import (
    EmptySet,
    InvariantViolation,
    MembershipViolation,
    PreorderViolation,
)
from idemx.instances import load_embedding
from idemx.spaces import (
    TRIANGLE_FLOATS,
    FiniteTopSpace,
    MetricSpace,
    closure,
    discrete,
    embed,
    from_minimal_basis,
    is_connected,
    is_open,
    line_metric,
    sierpinski,
)

from conftest import random_space


# -- independent oracles ------------------------------------------------------


def oracle_closure(space, subset):
    """Enumerate all closed sets and intersect those containing the subset."""
    amask = space.mask(subset)
    closed = [space.full_mask ^ u for u in space.opens]
    acc = space.full_mask
    for c in closed:
        if not (amask & ~c):
            acc &= c
    return space.subset(acc)


def oracle_connected(space, subset):
    """No proper nonempty clopen part, by enumerating relative opens."""
    amask = space.mask(subset)
    rel_opens = {u & amask for u in space.opens}
    for b in rel_opens:
        if b and b != amask and (amask & ~b) in rel_opens:
            return False
    return True


# -- constructors -------------------------------------------------------------


def test_sierpinski_opens():
    s = sierpinski()
    assert [s.ids(m) for m in s.opens] == [(), ("1",), ("0", "1")]


def test_discrete_two_points_has_four_opens():
    d = discrete(["p", "q"])
    assert len(d.opens) == 4


def test_membership_violation():
    with pytest.raises(MembershipViolation):
        from_minimal_basis({"0": ["1"], "1": ["1"]})


def test_preorder_violation():
    # 1 lies in min_nbhd(0) but its own neighborhood leaves min_nbhd(0)
    with pytest.raises(PreorderViolation):
        from_minimal_basis({"0": ["0", "1"], "1": ["1", "2"], "2": ["2"]})


def test_unknown_point_in_basis():
    with pytest.raises(InvariantViolation):
        from_minimal_basis({"0": ["0", "z"]})


# -- openness ------------------------------------------------------------------


def test_is_open_sierpinski():
    s = sierpinski()
    assert is_open(s, {"1"})
    assert not is_open(s, {"0"})
    assert is_open(s, set())


def test_generated_family_is_a_topology(spaces):
    for s in spaces:
        opens = set(s.opens)
        assert 0 in opens and s.full_mask in opens
        for a in opens:
            for b in opens:
                assert a | b in opens
                assert a & b in opens


def test_open_family_matches_random_spaces(rng):
    for _ in range(20):
        s = random_space(rng, int(rng.integers(1, 6)))
        for m in range(s.full_mask + 1):
            want = all(not (s.min_nbhd[i] & ~m) for i in range(s.n) if (m >> i) & 1)
            assert s.is_open_mask(m) == want


# -- closure -------------------------------------------------------------------


def test_closure_examples():
    s = sierpinski()
    assert closure(s, {"1"}) == {"0", "1"}
    assert closure(s, {"0"}) == {"0"}
    assert closure(s, s.points) == set(s.points)


def test_closure_matches_oracle(spaces, rng):
    pool = spaces + [random_space(rng, int(rng.integers(1, 6))) for _ in range(10)]
    for s in pool:
        for m in range(s.full_mask + 1):
            assert closure(s, m) == oracle_closure(s, m)


def test_closure_laws(spaces):
    for s in spaces:
        for m in range(s.full_mask + 1):
            cl = s.closure_mask(m)
            assert not (m & ~cl)  # extensive
            assert s.closure_mask(cl) == cl  # idempotent
            for m2 in range(m, s.full_mask + 1):
                if not (m & ~m2):
                    assert not (cl & ~s.closure_mask(m2))  # monotone
            # complement of the largest open set disjoint from m
            largest = 0
            for u in s.opens:
                if not (u & m):
                    largest |= u
            assert cl == s.full_mask ^ largest


# -- connectivity --------------------------------------------------------------


def test_connectivity_examples():
    s = sierpinski()
    assert is_connected(s, {"0", "1"})
    d = discrete(["p", "q"])
    assert not is_connected(d, {"p", "q"})
    assert is_connected(d, {"p"})


def test_connectivity_empty_set_raises():
    with pytest.raises(EmptySet):
        is_connected(sierpinski(), set())


def test_connectivity_matches_clopen_oracle(spaces, rng):
    pool = spaces + [random_space(rng, int(rng.integers(1, 6))) for _ in range(10)]
    for s in pool:
        for m in range(1, s.full_mask + 1):
            assert s.is_connected_mask(m) == oracle_connected(s, m)


def test_components_partition(spaces):
    for s in spaces:
        acc = 0
        for c in s.components:
            assert s.is_connected_mask(c)
            assert not (acc & c)
            acc |= c
        assert acc == s.full_mask


# -- subspaces -----------------------------------------------------------------


def test_induced_subspace_wedge_is_discrete():
    y = from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]})
    e = embed(y, ["p", "q"])
    assert e.subspace.is_discrete()
    assert e.subset_discrete


def test_induced_subspace_identity():
    y = sierpinski()
    e = embed(y, ["0", "1"])
    assert e.subspace == y


def test_induced_subspace_single_point():
    e = embed(sierpinski(), ["0"])
    sub = e.subspace
    assert sub.points == ("0",) and sub.is_discrete()


def test_induced_opens_match_ambient_trace(spaces):
    for y in spaces:
        for m in range(1, y.full_mask + 1):
            e = embed(y, y.ids(m))
            sub = e.subspace
            traced = {frozenset(y.ids(u & m)) for u in y.opens}
            induced = {frozenset(sub.ids(u)) for u in sub.opens}
            assert traced == induced


def _subspace_by_names(e):
    """The induced space built point by point through identifiers."""
    amb = e.ambient
    order = [p for p in amb.points if p in set(e.subset)]
    sub_index = {p: i for i, p in enumerate(order)}
    masks = []
    for p in order:
        m = amb.min_nbhd[amb.index(p)] & e.subset_mask
        masks.append(sum(1 << sub_index[q] for q in amb.ids(m)))
    return FiniteTopSpace(tuple(order), tuple(masks))


def test_induced_subspace_matches_the_construction_by_names():
    for seed in (0, 1):
        for case in _embedding_corpus(500, seed):
            e = load_embedding(case["embedding"])
            for subset in (e.subset, e.subset[::-1]):  # any order of X
                f = embed(e.ambient, subset)
                assert f.subspace == _subspace_by_names(f), (e.ambient.min_nbhd, subset)


def test_embedding_validation():
    with pytest.raises(EmptySet):
        embed(sierpinski(), [])
    with pytest.raises(InvariantViolation):
        embed(sierpinski(), ["0", "0"])


# -- metric spaces -------------------------------------------------------------


def test_line_metric_and_validation():
    m = line_metric({"a": 0.0, "b": 0.5, "c": 1.0})
    assert m.dist[0, 2] == 1.0
    with pytest.raises(InvariantViolation, match="dist.symmetry"):
        MetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvariantViolation, match="dist.triangle"):
        MetricSpace(
            ("a", "b", "c"),
            np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float),
        )
    with pytest.raises(InvariantViolation, match="dist.identity"):
        MetricSpace(("a", "b"), np.zeros((2, 2)))


def test_line_metric_accepts_points_near_1e9():
    # d(a,c) rounds above d(a,b) + d(b,c) by far more than an absolute 1e-12
    m = line_metric({"a": 0.3, "b": 0.7, "c": 1e9 + 0.1})
    assert m.dist[0, 2] > m.dist[0, 1] + m.dist[1, 2]
    rng = np.random.default_rng(1009)
    for _ in range(200):
        xs = rng.uniform(0.0, 1e9, size=6)
        m = line_metric({f"p{i}": float(x) for i, x in enumerate(xs)})
        assert m.dist.max() == xs.max() - xs.min()


NAN = float("nan")


@pytest.mark.parametrize(
    "dist, path, message",
    [
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "dist.shape", "expected (2, 2), got (2, 3)"),
        ([[0.0, -1.0], [-1.0, 0.0]], "dist.nonnegative", "negative distance"),
        ([[0.5, 1.0], [1.0, 0.0]], "dist.diagonal", "d(x,x) must be 0"),
        ([[0.0, 1.0], [2.0, 0.0]], "dist.symmetry", "d(x,y) != d(y,x)"),
        ([[0.0, 0.0], [0.0, 0.0]], "dist.identity", "d(x,y)=0 for distinct points"),
        (
            [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            "dist.triangle",
            "triangle inequality fails",
        ),
        # two defects: the earlier check in the order above raises
        ([[0.0, -1.0], [2.0, 0.0]], "dist.nonnegative", "negative distance"),
        ([[1.0, 0.0], [3.0, 0.0]], "dist.diagonal", "d(x,x) must be 0"),
        # NaN compares false, except under !=
        ([[NAN, 1.0], [1.0, 0.0]], "dist.diagonal", "d(x,x) must be 0"),
        ([[0.0, NAN], [NAN, 0.0]], "dist.symmetry", "d(x,y) != d(y,x)"),
    ],
)
def test_each_metric_check_fires_on_a_planted_matrix(dist, path, message):
    d = np.array(dist, dtype=float)
    points = tuple("abc"[: len(d)])
    with pytest.raises(InvariantViolation) as exc:
        MetricSpace(points, d)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


def test_the_triangle_test_runs_in_chunks_of_bounded_memory():
    """300 points need 27 million triples; the test takes them in chunks of
    middle points, so its temporaries stay a few MB, not ~216 MB."""
    n = 300
    assert n**3 > TRIANGLE_FLOATS > 6**3  # campaign sizes are a single chunk
    points = tuple(f"p{i}" for i in range(n))
    xs = np.arange(n, dtype=float)
    line = np.abs(xs[:, None] - xs[None, :])
    tracemalloc.start()
    try:
        m = MetricSpace(points, line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dist[0, n - 1] == n - 1
    assert peak < 32 * 2**20
    # distances 2 everywhere, except that the last point is 1 from p0 and
    # p1, which are 3 apart: only the last middle point, in the last chunk,
    # breaks the inequality
    d = np.full((n, n), 2.0)
    np.fill_diagonal(d, 0.0)
    d[[0, n - 1, 1, n - 1], [n - 1, 0, n - 1, 1]] = 1.0
    MetricSpace(points, d)
    d[0, 1] = d[1, 0] = 3.0
    with pytest.raises(InvariantViolation) as exc:
        MetricSpace(points, d)
    assert str(exc.value) == "dist.triangle: triangle inequality fails"


#: Coordinates that sit at the edges of the floats: both zeros, the
#: smallest subnormals, the smallest normal, the largest finite values and
#: their neighbours, NaN and the infinities.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-300, 0.3, 0.7, 1.0, -1.0, 1e9 + 0.1, 1e308, -1e308, 8.98846567431158e307,
    -8.98846567431158e307, 1.7976931348623157e308, -1.7976931348623157e308,
    NAN, float("inf"), -float("inf"),
]


def _coordinates(rng, n, mode):
    """n coordinates: edge values (mode 0), a few values, mostly repeated
    (mode 1), or random values over every binade (mode 2), one of them an
    edge value (mode 3)."""
    if mode == 0:
        xs = rng.choice(EDGES, n)
    elif mode == 1:
        xs = rng.choice([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324], n)
    else:
        xs = rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(-1074, 1024, n).astype(float)
        if mode == 3:
            xs[rng.integers(n)] = rng.choice(EDGES)
    return [float(x) for x in xs]


def _outcome(build):
    """The matrix a space holds, or the field it was refused at."""
    try:
        return "accepted", build().dist.tobytes()
    except InvariantViolation as exc:
        return "refused", exc.path


def test_line_metric_accepts_exactly_what_the_matrix_test_accepts():
    """``line_metric`` decides the metric axioms from the coordinates; on
    every coordinate list it must accept exactly when ``MetricSpace`` of
    the matrix |x_i - x_j| does, refuse at the same field, and hold the same
    matrix, bit for bit.  A coordinate that is not finite is refused at
    ``coords`` before a distance is formed; the matrix route refuses too."""
    rng = np.random.default_rng(2801)
    cases = [(int(n), int(mode)) for n, mode in zip(rng.integers(1, 13, 600), rng.integers(0, 4, 600))]
    cases += [(n, 2) for n in (50, 100, 200, 300)] + [(300, mode) for mode in (0, 1, 3)]
    seen = set()
    for n, mode in cases:
        xs = _coordinates(rng, n, mode)
        points = tuple(f"p{i}" for i in range(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # line_metric warns on no input
            got = _outcome(lambda: line_metric(dict(zip(points, xs))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the matrix overflows where the spread does
            a = np.array(xs)
            want = _outcome(lambda: MetricSpace(points, np.abs(a[:, None] - a[None, :])))
        if np.isfinite(xs).all():
            assert got == want, xs
        else:
            assert got == ("refused", "coords") and want[0] == "refused"
        seen.add(got[1] if got[0] == "refused" else "accepted")
    # every outcome is met, so the corpus tests each rule
    assert seen == {"accepted", "coords", "dist.identity", "dist.finite"}


def test_only_line_metric_skips_the_matrix_test(monkeypatch):
    """Every other caller of ``MetricSpace``, the instance loader included,
    runs the full test, triangle inequality and all."""
    from idemx.instances import load_metric

    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(InvariantViolation, match="dist.triangle"):
        load_metric({"points": ["a", "b", "c"], "dist": bad})
    checked = []
    monkeypatch.setattr(MetricSpace, "__post_init__", lambda self: checked.append(self.points))
    line_metric({"a": 0.0, "b": 1.0})
    assert checked == []
    MetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    load_metric({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]})
    assert checked == [("a", "b"), ("a", "b")]


def test_metric_matrix_is_frozen():
    m = line_metric({"a": 0.0, "b": 1.0})
    with pytest.raises(ValueError):
        m.dist[0, 1] = 3.0

"""Campaign orchestration: deterministic theorem suites with replayable witnesses.

Each suite turns one identity of the library into a batch of self-contained
cases.  Cases are generated up front from the campaign seed and run serially,
so a fixed seed always gives the same report; failing cases are serialized
into the report and re-runnable one by one through ``replay``.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import (
    AxiomPrecheckFailed,
    IdemxError,
    InvariantViolation,
    ParseError,
    UnknownSuite,
)
from .extenders import (
    KIND_AXIOMS,
    build_extender,
    check_open_extension_algebra,
    connectivity_analysis,
    forward_implications,
    retraction_from_open_sets,
    supports_retraction,
)
from .functionals import (
    AXIOMS,
    MeanFunctional,
    RealFunction,
    SupportFunctional,
    _axiom_sweep,
    _check_count,
    _check_tol,
    _two_valued,
    density,
    dual,
    essential_family,
    infsup_reconstruct,
    is_essential,
    support,
    two_valued_tuples,
)
from .hyperspace import (
    HyperPoint,
    functional_topology,
    hausdorff_distance,
    hyperspace_roundtrip,
    lipschitz_constant,
    subset_max,
    subset_min,
    subset_roundtrip_failure,
    vietoris_topology,
)
from .instances import (
    _number,
    _object,
    embedding_to_json,
    functional_to_json,
    load_embedding,
    load_functional,
    load_setmap,
    load_space,
    read_json,
    setmap_to_json,
    space_to_json,
)
from .setmaps import (
    SetValuedMap,
    fixing_images,
    is_lsc,
    is_retraction,
    is_usc,
    search_retraction,
)
from .spaces import (
    FiniteTopSpace,
    SubspaceEmbedding,
    discrete,
    embed,
    from_minimal_basis,
    line_metric,
)

CaseRunner = Callable[[dict, float], tuple[bool, str]]
CaseGen = Callable[[int, int], list[dict]]


@dataclass(frozen=True)
class SuiteDef:
    cap_default: int
    cap_hard: int
    gen_cases: CaseGen
    run_case: CaseRunner


# -- shared generators ---------------------------------------------------------


def _dn(n: int) -> FiniteTopSpace:
    return discrete([f"p{i}" for i in range(n)])


def _support_cases(cap: int, seed: int) -> list[dict]:
    s = _dn(cap)
    sj = space_to_json(s)
    return [
        {"space": sj, "F": list(s.ids(m))} for m in range(1, s.full_mask + 1)
    ]


def _random_preorder_space(rng: np.random.Generator, n: int) -> FiniteTopSpace:
    rel = [[i == j or rng.random() < 0.3 for j in range(n)] for i in range(n)]
    for k in range(n):  # transitive closure, Warshall's pass
        for row in rel:
            if row[k]:
                row[:] = [a or b for a, b in zip(row, rel[k])]
    return FiniteTopSpace(
        tuple(f"p{i}" for i in range(n)),
        tuple(sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)),
    )


def _random_discrete_embedding(
    rng: np.random.Generator, max_y: int, max_outside: int = 2
) -> SubspaceEmbedding:
    """Random ambient space with a subset whose induced topology is discrete."""
    while True:
        n = int(rng.integers(2, max_y + 1))
        y = _random_preorder_space(rng, n)
        k = int(rng.integers(1, min(n, 4) + 1))
        if n - k > max_outside:
            continue
        idx = sorted(rng.choice(n, size=k, replace=False))
        subset = [y.points[i] for i in idx]
        e = embed(y, subset)
        if e.subset_discrete:
            return e


def _canonical_embeddings() -> list[tuple[SubspaceEmbedding, bool]]:
    """Hand instances paired with "no usc retraction exists" expectations."""
    wedge = from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]})
    isolated = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"]})
    star = from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["p", "q", "w"]})
    tail = from_minimal_basis(
        {"p": ["p"], "q": ["q"], "v": ["p", "v"], "w": ["w"]}
    )
    ident = discrete(["p", "q"])
    return [
        (embed(wedge, ["p", "q"]), True),  # all three candidate images fail usc
        (embed(isolated, ["p", "q"]), False),
        (embed(star, ["p", "q"]), False),
        (embed(tail, ["p", "q"]), False),
        (embed(ident, ["p", "q"]), False),
    ]


def _embedding_corpus(count: int, seed: int, max_y: int = 5) -> list[dict]:
    cases = []
    for e, expect_none in _canonical_embeddings():
        cases.append(
            {"embedding": embedding_to_json(e), "expect_none": expect_none}
        )
    rng = np.random.default_rng(seed)
    while len(cases) < count:
        e = _random_discrete_embedding(rng, max_y)
        cases.append({"embedding": embedding_to_json(e), "expect_none": False})
    return cases[:count]


def _forward_instances(cap: int, seed: int) -> list[dict]:
    """Ambient spaces over a discrete subspace, for the forward implications."""
    instances = []
    for n_x in (1, 2, 3):
        xs = [f"p{i}" for i in range(n_x)]
        extras_budget = max(1, min(2, cap - n_x))
        for n_w in range(1, extras_budget + 1):
            ws = [f"w{i}" for i in range(n_w)]
            # extras isolated
            basis = {p: [p] for p in xs + ws}
            instances.append((basis, xs))
            # every subspace point hangs onto the first extra (wedge style)
            basis = {p: [p, ws[0]] for p in xs}
            basis.update({w: [w] for w in ws})
            instances.append((basis, xs))
            # first extra sees the whole subspace (star style)
            basis = {p: [p] for p in xs}
            basis.update({w: [w] for w in ws})
            basis[ws[0]] = [ws[0]] + xs
            instances.append((basis, xs))
    out = []
    for basis, xs in instances:
        if len(basis) > cap:
            continue
        e = embed(from_minimal_basis(basis), xs)
        if e.subset_discrete:
            out.append({"embedding": embedding_to_json(e)})
    return out


# -- suite runners ---------------------------------------------------------------


def _run_support_roundtrip(case: dict, tol: float) -> tuple[bool, str]:
    s = load_space(case["space"])
    m = s.mask(case["F"])
    for kind in ("min", "max"):
        failure = subset_roundtrip_failure(SupportFunctional(s, kind, m), kind, m, tol=tol)
        if failure:
            return False, failure
    return True, "roundtrip holds for both kinds"


def _run_reconstruct(case: dict, tol: float) -> tuple[bool, str]:
    s = load_space(case["space"])
    mu = SupportFunctional(s, "min", s.mask(case["F"]))
    fam = essential_family(mu, tol=tol)
    for vals in two_valued_tuples(s.n, 0.0, 1.0):
        f = RealFunction(s, vals)
        if infsup_reconstruct(mu, f, family=fam, tol=tol) != mu(f):
            return False, f"reconstruction differs at f={vals}"
    return True, f"{1 << s.n} two-valued functions agree"


def _run_essential_support(case: dict, tol: float) -> tuple[bool, str]:
    s = load_space(case["space"])
    mu = SupportFunctional(s, "min", s.mask(case["F"]))
    got = {p for p in s.points if is_essential(mu, {p}, tol=tol)}
    want = support(mu, tol=tol)
    if got != want:
        return False, f"singleton essentials {sorted(got)} != support {sorted(want)}"
    if want != frozenset(case["F"]):
        return False, f"support {sorted(want)} != F"
    return True, "singleton essentials match the support"


def _run_bijection(case: dict, tol: float) -> tuple[bool, str]:
    rep = hyperspace_roundtrip(_dn(case["n"]), case["kind"], tol=tol)
    if not rep.passed:
        return False, "; ".join(rep.failures[:3])
    return True, f"{rep.cases} subsets round-trip"


def _run_monotone(case: dict, tol: float) -> tuple[bool, str]:
    s = _dn(case["n"])
    for vals in two_valued_tuples(s.n, 0.0, 1.0)[1:]:
        f = RealFunction(s, vals)
        for fm in range(1, s.full_mask + 1):
            for gm in range(1, s.full_mask + 1):
                if fm & ~gm:
                    continue
                if subset_min(f, gm) > subset_min(f, fm):
                    return False, f"min not antitone at F={fm}, G={gm}"
                if subset_max(f, fm) > subset_max(f, gm):
                    return False, f"max not monotone at F={fm}, G={gm}"
    upper = vietoris_topology(s, "upper")
    lower = vietoris_topology(s, "lower")
    pairings = [
        ("min", "above", upper),
        ("max", "below", upper),
        ("min", "below", lower),
        ("max", "above", lower),
    ]
    for kind, sense, want in pairings:
        if functional_topology(s, kind, sense) != want:
            return False, f"threshold topology ({kind},{sense}) mismatch"
    return True, "inclusion monotonicity and threshold topologies hold"


def _run_continuous_roundtrip(case: dict, tol: float) -> tuple[bool, str]:
    e = load_embedding(case["embedding"])
    r = search_retraction(e, "continuous")
    if r is None:
        return True, "no continuous retraction exists"
    family = _two_valued(e.subspace.n)
    for kind in ("min", "max"):
        u = build_extender(r, e, kind)
        rec = supports_retraction(u, tol=tol)
        if rec != r:
            return False, f"supports of the {kind} extender differ from r"
        for imp in forward_implications(u, True, True, family):
            if not imp.passed:
                return False, f"{imp.name}: {imp.failures[0]}"
    return True, "continuous retraction round-trips through both extenders"


def _forward_check(case: dict, tol: float, hypothesis: str) -> tuple[bool, str]:
    e = load_embedding(case["embedding"])
    family = _two_valued(e.subspace.n)
    checked = 0
    for images in fixing_images(e):
        r = SetValuedMap(e.ambient, e.subspace, images)
        r_usc, r_lsc = is_usc(r), is_lsc(r)
        if not (r_usc if hypothesis == "usc" else r_lsc):
            continue
        checked += 1
        for kind in ("min", "max"):
            for imp in forward_implications(build_extender(r, e, kind), r_usc, r_lsc, family):
                if not imp.passed:
                    return False, f"map {r.as_dict()}: {imp.name}: {imp.failures[0]}"
    return True, f"{checked} {hypothesis} maps conform"


def _search_usc(case: dict):
    """Search a corpus case for a usc retraction.

    Returns the embedding, the map found, and the verdict when the search
    alone decides the case (else None).
    """
    e = load_embedding(case["embedding"])
    r = search_retraction(e, "usc")
    if case.get("expect_none"):
        if r is not None:
            return e, r, (False, f"expected no usc retraction, found {r.as_dict()}")
        return e, r, (True, "no usc retraction, as required")
    if r is None:
        return e, r, (True, "no usc retraction exists")
    return e, r, None


def _run_open_recovery(case: dict, tol: float) -> tuple[bool, str]:
    e, r, verdict = _search_usc(case)
    if verdict:
        return verdict
    u_max = build_extender(r, e, "max")
    rec = retraction_from_open_sets(u_max, "max_usc", tol=tol)
    if rec != r:
        return False, f"open-set recovery differs: {rec.as_dict()} != {r.as_dict()}"
    for kind in ("min", "max"):
        rec2 = supports_retraction(build_extender(r, e, kind), tol=tol)
        if rec2 != r:
            return False, f"supports recovery ({kind}) differs"
    alg = check_open_extension_algebra(u_max, "max_usc", tol=tol)
    if not alg.passed:
        return False, f"extension algebra fails: {alg.failures[0]}"
    return True, "usc retraction round-trips through both recovery routes"


def _run_connectivity(case: dict, tol: float) -> tuple[bool, str]:
    n = case["n"]
    xs = [f"p{i}" for i in range(n)]
    basis = {p: [p] for p in xs}
    basis["w"] = ["w"] + list(case["w_sees"])
    e = embed(from_minimal_basis(basis), xs)
    for images in fixing_images(e):
        r = SetValuedMap(e.ambient, e.subspace, images)
        singleton = all(m.bit_count() == 1 for m in r.images)
        for kind in ("min", "max"):
            u = build_extender(r, e, kind)
            if singleton:
                rep = connectivity_analysis(u, tol=tol)
                if not rep.connected_values:
                    return False, f"disconnected value for {r.as_dict()}"
                if any(len(v) != 1 for v in rep.values.values()):
                    return False, f"non-singleton value for {r.as_dict()}"
            else:
                try:
                    connectivity_analysis(u, tol=tol)
                    return (
                        False,
                        f"{kind} extender of {r.as_dict()} passed the "
                        "both-operations precheck despite non-singleton values",
                    )
                except AxiomPrecheckFailed:
                    pass
    return True, "only singleton-valued extenders preserve both operations"


_DUAL_PAIRS = {
    "normed": "normed",
    "weakly_additive": "weakly_additive",
    "preserves_max": "preserves_min",
    "preserves_min": "preserves_max",
    "weakly_preserves_max": "weakly_preserves_min",
    "weakly_preserves_min": "weakly_preserves_max",
}


def _run_axioms_fuzz(case: dict, tol: float) -> tuple[bool, str]:
    if case["type"] == "extender_dual":
        e = load_embedding(case["embedding"])
        r = load_setmap(case["map"])
        u_min = build_extender(r, e, "min")
        u_max = build_extender(r, e, "max")
        n = e.subspace.n
        F = np.concatenate([
            _two_valued(n),
            np.random.default_rng(case["seed"]).uniform(-5, 5, (8, n)),
        ])
        # exact comparison, as of tuples: -0.0 equals 0.0
        broken = np.flatnonzero((u_max.apply_batch(F) != -u_min.apply_batch(-F)).any(axis=1))
        if len(broken):
            return False, f"extender duality breaks at f={tuple(F[broken[0]].tolist())}"
        return True, "extender duality holds pointwise"

    mu = load_functional(case["functional"])
    nu = dual(mu)
    seed = case["seed"]
    n = len(mu.space.points)
    # mu and its dual as the two columns of one sweep; columns are judged
    # independently, so each column's verdicts are those of check_axioms
    sweep = _axiom_sweep(
        lambda A: np.column_stack([mu.eval_batch(A), nu.eval_batch(A)]),
        n, AXIOMS, 24, tol, seed, None,
    )
    verdicts = {a: reps[0].passed for a, reps in sweep.items()}
    for a in AXIOMS:
        if verdicts[a] != sweep[_DUAL_PAIRS[a]][1].passed:
            return False, f"dual verdict differs on {a}"
    F = np.random.default_rng(seed).uniform(-5, 5, (8, n))
    if (dual(nu).eval_batch(F) != mu.eval_batch(F)).any():
        return False, "dual is not an involution"
    expected_true = {
        "support_min": KIND_AXIOMS["min"],
        "support_max": KIND_AXIOMS["max"],
        "density": ("normed", "weakly_additive", "preserves_max"),
        "mean": ("normed", "weakly_additive"),
    }[case["profile"]]
    for a in expected_true:
        if not verdicts[a]:
            return False, f"{case['profile']} unexpectedly fails {a}"
    if case["profile"] == "mean" and n > 1:
        if verdicts["preserves_min"] or verdicts["preserves_max"]:
            return False, "mean passed a lattice-preservation axiom"
    return True, "verdicts and dual pairing as expected"


def _run_hausdorff(case: dict, tol: float) -> tuple[bool, str]:
    m = line_metric({f"p{i}": x for i, x in enumerate(case["coords"])})
    f = RealFunction(m, tuple(case["fvals"]))
    lip = lipschitz_constant(f, m)
    fm, gm = case["F"], case["G"]
    dh = hausdorff_distance(HyperPoint(m, fm), HyperPoint(m, gm), m)
    if abs(subset_min(f, fm) - subset_min(f, gm)) > lip * dh + 1e-12:
        return False, "min stability inequality fails"
    if abs(subset_max(f, fm) - subset_max(f, gm)) > lip * dh + 1e-12:
        return False, "max stability inequality fails"
    return True, "stability inequality holds"


def _run_retraction_search(case: dict, tol: float) -> tuple[bool, str]:
    e, r, verdict = _search_usc(case)
    if verdict:
        return verdict
    if not is_usc(r) or not is_retraction(r, e):
        return False, "returned map fails its own predicate"
    return True, "found map verifies"


# -- fuzz generators ---------------------------------------------------------------


def _gen_axioms_fuzz(cap: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(cap):
        roll = rng.random()
        if roll < 0.25:
            e = _random_discrete_embedding(rng, 5)
            images = list(fixing_images(e))
            r = SetValuedMap(e.ambient, e.subspace, images[int(rng.integers(len(images)))])
            cases.append(
                {
                    "type": "extender_dual",
                    "embedding": embedding_to_json(e),
                    "map": setmap_to_json(r),
                    "seed": int(rng.integers(2**31)),
                }
            )
            continue
        n = int(rng.integers(2, 5))
        s = _dn(n)
        if roll < 0.55:
            kind = "min" if rng.random() < 0.5 else "max"
            mask = int(rng.integers(1, s.full_mask + 1))
            mu = SupportFunctional(s, kind, mask)
            profile = f"support_{kind}"
        elif roll < 0.85:
            weights = [float(rng.choice([0.0, -0.5, -1.0, -3.0])) for _ in range(n)]
            zero_at = int(rng.integers(n))
            weights[zero_at] = 0.0
            lam = {}
            for j, p in enumerate(s.points):
                excluded = j != zero_at and rng.random() < 0.2
                lam[p] = None if excluded else weights[j]
            mu = density(s, lam)
            profile = "density"
        else:
            mu = MeanFunctional(s)
            profile = "mean"
        cases.append(
            {
                "type": "functional",
                "functional": functional_to_json(mu),
                "profile": profile,
                "seed": int(rng.integers(2**31)),
            }
        )
    return cases


def _gen_hausdorff(cap: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(cap):
        n = int(rng.integers(2, 7))
        coords = sorted(float(x) for x in rng.uniform(0, 10, n))
        while len(set(coords)) < n:
            coords = sorted(float(x) for x in rng.uniform(0, 10, n))
        cases.append(
            {
                "coords": coords,
                "fvals": [float(v) for v in rng.uniform(-5, 5, n)],
                "F": int(rng.integers(1, 1 << n)),
                "G": int(rng.integers(1, 1 << n)),
            }
        )
    return cases


# -- catalogue -----------------------------------------------------------------------


CATALOGUE: dict[str, SuiteDef] = {
    "support_roundtrip": SuiteDef(4, 6, _support_cases, _run_support_roundtrip),
    "reconstruct_identity": SuiteDef(4, 5, _support_cases, _run_reconstruct),
    "essential_support_match": SuiteDef(4, 5, _support_cases, _run_essential_support),
    "hyperspace_bijection": SuiteDef(
        4, 6, lambda cap, seed: [{"n": cap, "kind": k} for k in ("min", "max")], _run_bijection,
    ),
    "hyperspace_monotone": SuiteDef(3, 4, lambda cap, seed: [{"n": cap}], _run_monotone),
    "continuous_retraction_roundtrip": SuiteDef(
        5, 7, lambda cap, seed: _embedding_corpus(15, seed, max_y=cap), _run_continuous_roundtrip,
    ),
    "usc_forward": SuiteDef(
        4, 5, _forward_instances, functools.partial(_forward_check, hypothesis="usc"),
    ),
    "lsc_forward": SuiteDef(
        4, 5, _forward_instances, functools.partial(_forward_check, hypothesis="lsc"),
    ),
    "open_set_recovery": SuiteDef(50, 500, _embedding_corpus, _run_open_recovery),
    "connectivity_shadow": SuiteDef(
        3, 4,
        lambda cap, seed: [
            {"n": cap, "w_sees": list(combo)}
            for r in range(0, cap + 1)
            for combo in itertools.combinations([f"p{i}" for i in range(cap)], r)
        ],
        _run_connectivity,
    ),
    "axioms_fuzz": SuiteDef(200, 100000, _gen_axioms_fuzz, _run_axioms_fuzz),
    "hausdorff_lipschitz": SuiteDef(2000, 100000, _gen_hausdorff, _run_hausdorff),
    "retraction_search": SuiteDef(50, 500, _embedding_corpus, _run_retraction_search),
}


# -- configuration and execution ------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    suites: tuple[str, ...] = tuple(CATALOGUE)
    size_caps: dict[str, int] = field(default_factory=dict)
    tol: float = 1e-9
    output: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        _check_tol(self.tol)
        _check_count("seed", self.seed)
        for name in self.suites:
            if name not in CATALOGUE:
                raise UnknownSuite(name)
        for name, cap in self.size_caps.items():
            if name not in CATALOGUE:
                raise UnknownSuite(name)
            if name not in self.suites:
                raise InvariantViolation(f"size_caps[{name}]", "caps a suite that is not selected")
            hard = CATALOGUE[name].cap_hard
            if not (1 <= cap <= hard):
                raise InvariantViolation(
                    f"size_caps[{name}]", f"must be between 1 and {hard}"
                )
        if self.fmt not in ("json", "csv"):
            raise InvariantViolation("format", "must be json or csv")


@dataclass
class SuiteResult:
    cases_run: int
    passed: int
    failed: int
    witnesses: list[dict]
    wall_time: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CampaignReport:
    config: dict
    suites: dict[str, SuiteResult]
    version: str = __version__

    @property
    def total_failed(self) -> int:
        return sum(s.failed for s in self.suites.values())

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "suites": {k: v.to_json() for k, v in self.suites.items()},
        }

    def summary(self) -> str:
        lines = []
        for name, res in self.suites.items():
            status = "ok" if res.failed == 0 else f"{res.failed} FAILED"
            lines.append(
                f"{name:32s} {res.cases_run:5d} cases  {status}  ({res.wall_time:.2f}s)"
            )
        total = sum(s.cases_run for s in self.suites.values())
        lines.append(f"{'total':32s} {total:5d} cases  {self.total_failed} failed")
        return "\n".join(lines)


def _suite_seed(master: int, name: str) -> int:
    idx = list(CATALOGUE).index(name)
    return int(np.random.SeedSequence([master, idx]).generate_state(1)[0])


def _run_case(suite: SuiteDef, case: dict, tol: float) -> tuple[bool, str]:
    """Run one case; an IdemxError it raises fails the case with its message."""
    try:
        return suite.run_case(case, tol)
    except IdemxError as exc:
        return False, f"{type(exc).__name__}: {exc}"


def run_suite(name: str, cfg: CampaignConfig) -> SuiteResult:
    suite = CATALOGUE.get(name)
    if suite is None:
        raise UnknownSuite(name)
    cap = cfg.size_caps.get(name, suite.cap_default)
    seed = _suite_seed(cfg.seed, name)
    start = time.perf_counter()  # the suite's time includes generating its cases
    cases = suite.gen_cases(cap, seed)

    witnesses = []
    passed = 0
    for case in cases:
        ok, detail = _run_case(suite, case, cfg.tol)
        if ok:
            passed += 1
        else:
            witnesses.append(
                {"suite": name, "seed": seed, "case": case, "detail": detail}
            )
    return SuiteResult(
        cases_run=len(cases),
        passed=passed,
        failed=len(cases) - passed,
        witnesses=witnesses,
        wall_time=time.perf_counter() - start,
    )


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute the requested suites deterministically and write the report.

    An ``output`` that names a directory, or a file in a directory that does
    not exist, is a ParseError raised before the first suite runs.
    """
    if cfg.output:
        out = Path(cfg.output)
        if out.is_dir() or not out.parent.is_dir():
            what = "is a directory" if out.is_dir() else f"no directory {out.parent}"
            raise ParseError(f"cannot write {cfg.output}: {what}")
    suites = {name: run_suite(name, cfg) for name in cfg.suites}
    report = CampaignReport(
        config={
            "seed": cfg.seed,
            "suites": list(cfg.suites),
            "size_caps": dict(sorted(cfg.size_caps.items())),
            "tol": cfg.tol,
            "output": cfg.output,
            "format": cfg.fmt,
        },
        suites=suites,
    )
    if cfg.output:
        write_report(report, cfg.output, cfg.fmt)
    return report


def write_report(report: CampaignReport, path: str, fmt: str = "json") -> None:
    """Write the report as JSON or CSV; a failed write is a ParseError."""
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    else:
        lines = ["suite,cases_run,passed,failed,wall_time"]
        for name, res in report.suites.items():
            lines.append(f"{name},{res.cases_run},{res.passed},{res.failed},{res.wall_time:.4f}")
        text = "\n".join(lines)
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ReplayOutcome:
    suite: str
    reproduced: bool
    detail: str


def replay_witnesses(report_path: str | Path, tol: float | None = None) -> list[ReplayOutcome]:
    """Re-run every failure witness of a report; reproduced means it fails again.

    A report of the wrong shape, or a witness case its suite cannot read, is
    a ParseError.
    """
    data = read_json(report_path)
    if tol is None:
        config = _object(data.get("config", {}), "report config")
        tol = _number(config.get("tol", 1e-9), "report config tol")
        if tol < 0:
            raise ParseError(f"report config tol must be >= 0, got {tol!r}")
    outcomes = []
    for name, res in _object(data.get("suites", {}), "report suites").items():
        suite = CATALOGUE.get(name)
        if suite is None:
            raise UnknownSuite(name)
        witnesses = _object(res, f"suite {name}").get("witnesses", [])
        if not isinstance(witnesses, list):
            raise ParseError(f"suite {name}: witnesses must be a list")
        for w in witnesses:
            case = _object(_object(w, f"{name} witness").get("case"), f"{name} witness case")
            try:
                ok, detail = _run_case(suite, case, tol)
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                raise ParseError(
                    f"{name} witness case is malformed ({type(exc).__name__}: {exc})"
                ) from exc
            outcomes.append(ReplayOutcome(name, not ok, detail))
    return outcomes

"""The three benchmark workloads: input generation, the timed calls, and checks.

Each workload turns a seed into inputs (``gen_*``, then ``build_*`` makes the
idemx objects), makes its calls into idemx one verdict at a time (``run_*``),
and compares every verdict with an answer that does not come from idemx
(``check_*``).  A verdict is "ok",
"wrong", or "undecided" (TooLarge, BudgetExhaustedInconclusive, a campaign
case reported as skipped, or a call slower than ``VERDICT_LIMIT_S``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected"

#: A verdict returned later than this counts as undecided.
VERDICT_LIMIT_S = 30.0

UNDECIDED_ERRORS = ("TooLarge", "BudgetExhaustedInconclusive")


def random_preorder(rng: random.Random, n: int, p: float = 0.3) -> tuple[int, ...]:
    """Minimal-neighbourhood table of a random reflexive transitive relation."""
    rel = [[i == j or rng.random() < p for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return tuple(sum(1 << j for j in range(n) if rel[i][j]) for i in range(n))


def _points(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(n))


def _names(mask: int) -> frozenset[str]:
    return frozenset(f"p{i}" for i in oracle.bits(mask))


class Verdicts:
    """Timed calls with their outcomes, in call order."""

    def __init__(self):
        self.ms: list[float] = []
        self.results: list = []

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        except Exception as exc:  # the check decides what an error means
            res = exc
        self.ms.append((time.perf_counter() - t0) * 1e3)
        self.results.append(res)


def _outcome(res, ms: float, expected_ok) -> str:
    if isinstance(res, Exception):
        return "undecided" if type(res).__name__ in UNDECIDED_ERRORS else "wrong"
    if ms > VERDICT_LIMIT_S * 1e3:
        return "undecided" if expected_ok(res) else "wrong"
    return "ok" if expected_ok(res) else "wrong"


def summarize(outcomes: list[str], details: list[str]) -> dict:
    return {
        "attempted": len(outcomes),
        "decided": sum(o != "undecided" for o in outcomes),
        "wrong": sum(o == "wrong" for o in outcomes),
        "wrong_detail": details[:5],
    }


# -- verdicts: calls into functionals ---------------------------------------------


def gen_verdicts(seed: int):
    """Specs of functionals on n = 3..8 points, with the calls to make.

    Per n and repetition: min- and max-support functionals, a density and
    the dual of a density on a discrete and on a random-preorder space, plus
    the mean and its dual; tables of support and mean functionals for
    n <= 6.  Set sizes follow a fixed schedule, so the mix, and with it the
    work, is the same for every seed; the seed picks which points, and the
    topologies.
    """
    rng = random.Random(seed)
    items = []
    for n in range(3, 9):
        # support sizes, and (support, negative-weight) sizes of densities
        sizes = [1, 2, max(2, n // 2), n]
        density_sizes = [(1, 0), (2, 1), (n, 0), (n, n // 2)]
        slot = 0
        for rep in range(2):
            for kind in ("discrete", "preorder"):
                nbhd = _space(rng, n, kind)
                for t in ("smin", "smax"):
                    items.append(({"type": t, "F": _random_set(rng, n, sizes[slot])}, nbhd))
                for t in ("density", "dual_density"):
                    lam = _random_density(rng, n, *density_sizes[slot])
                    items.append(({"type": t, "lam": lam}, nbhd))
                slot += 1
            for k, t in enumerate(("mean", "dual_mean")):
                kind = ("discrete", "preorder")[(k + rep) % 2]
                items.append(({"type": t}, _space(rng, n, kind)))
        if n <= 6:
            for k, t in enumerate(("table_min", "table_max", "table_mean")):
                spec = {"type": t, "F": _random_set(rng, n, sizes[k + 1])}
                items.append((spec, _space(rng, n, "discrete")))
    return items


def _space(rng: random.Random, n: int, kind: str) -> tuple[int, ...]:
    if kind == "discrete":
        return tuple(1 << i for i in range(n))
    return random_preorder(rng, n)


def _random_set(rng: random.Random, n: int, size: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), size))


def _random_density(rng: random.Random, n: int, size: int, negative: int) -> list[float]:
    """Weights 0 on size - negative points, -0.5 on negative ones, -inf elsewhere."""
    pts = rng.sample(range(n), size)
    lam = [oracle.NEG_INF] * n
    for k, i in enumerate(pts):
        lam[i] = -0.5 if k < negative else 0.0
    return lam


def build_verdicts(items):
    """idemx functionals for the specs; part of set-up."""
    from idemx.functionals import (
        IdempotentDensity,
        MeanFunctional,
        SupportFunctional,
        TableFunctional,
        dual,
    )
    from idemx.spaces import FiniteTopSpace

    out = []
    for spec, nbhd in items:
        n = len(nbhd)
        space = FiniteTopSpace(_points(n), nbhd)
        t = spec["type"]
        if t in ("smin", "smax"):
            mu = SupportFunctional(space, t[1:], spec["F"])
        elif t in ("density", "dual_density"):
            mu = IdempotentDensity(space, tuple(spec["lam"]))
            if t == "dual_density":
                mu = dual(mu)
        elif t in ("mean", "dual_mean"):
            mu = MeanFunctional(space)
            if t == "dual_mean":
                mu = dual(mu)
        else:
            mu = TableFunctional(space, 0.0, 1.0, oracle.table_values(spec, n))
            # tables only evaluate {0,1} inputs: check the identities that
            # stay inside that set, on all of it
            family = [tuple(float((m >> i) & 1) for i in range(n)) for m in range(1 << n)]
            out.append((mu, family))
            continue
        out.append((mu, None))
    return out


def run_verdicts(items, built, v: Verdicts) -> list[tuple]:
    """Make every call; returns (item index, call, axiom) per verdict."""
    from idemx.functionals import AXIOMS, check_axiom, classify, essential_family, support

    calls = []
    for k, ((spec, nbhd), (mu, family)) in enumerate(zip(items, built)):
        n = len(nbhd)
        if family is not None:
            for a in ("normed", "preserves_max", "preserves_min"):
                v.call(check_axiom, mu, a, trials=0, family=family)
                calls.append((k, "axiom", a))
            continue
        for a in AXIOMS:
            v.call(check_axiom, mu, a)
            calls.append((k, "axiom", a))
        v.call(classify, mu)
        calls.append((k, "classify", None))
        if spec["type"] in ("smin", "smax"):
            v.call(support, mu)
            calls.append((k, "support", None))
        if n <= 6:
            v.call(lambda m: essential_family(m).members, mu)
            calls.append((k, "essential", None))
    return calls


def _same_density(got, want) -> bool:
    if got is None or len(got) != len(want):
        return False
    return all(
        (a == b) if oracle.NEG_INF in (a, b) else abs(a - b) <= 1e-9
        for a, b in zip(got, want)
    )


def _verdict_ok(spec, nbhd, what, axiom, res) -> bool:
    if what == "axiom":
        return res.passed == oracle.axiom_profile(spec)[axiom]
    if what == "classify":
        kind, smask, lam = oracle.classification(spec)
        return (
            res.kind == kind
            and (smask is None or res.support == _names(smask))
            and (lam is None or _same_density(res.density and res.density.lam, lam))
        )
    if what == "support":
        return res == _names(spec["F"])
    return tuple(res) == oracle.essential_family(spec, nbhd)


def check_verdicts(items, calls, v: Verdicts) -> dict:
    outcomes, details = [], []
    for (k, what, axiom), res, ms in zip(calls, v.results, v.ms):
        spec, nbhd = items[k]
        o = _outcome(res, ms, lambda r: _verdict_ok(spec, nbhd, what, axiom, r))
        outcomes.append(o)
        if o == "wrong":
            details.append(f"{what} {axiom or ''} on {spec}: got {res!r}")
    return summarize(outcomes, details)


# -- retractions: search_retraction and the semicontinuity predicates ---------------

#: Small search cells (points inside, points outside): every cell of 1-4 by
#: 1-5 whose candidate count a brute-force oracle can recheck in each run.
SMALL_CELLS = [
    (k_in, k_out)
    for k_in in range(1, 5)
    for k_out in range(1, 6)
    if oracle.candidate_count(k_in, k_out) <= 15**3
]
PROPS = ("usc", "lsc", "continuous")
SETMAPS = 500  # each gets is_usc and is_lsc


def random_embedding(rng: random.Random, k_in: int, k_out: int):
    nbhd = random_preorder(rng, k_in + k_out)
    subset = sorted(rng.sample(range(k_in + k_out), k_in))
    return nbhd, subset


def _isolated_outside(rng: random.Random, k_in: int, k_out: int):
    """Outside points that nothing else sees: mapping each to the first
    subspace point is the first retraction of every kind."""
    n = k_in + k_out
    order = list(range(n))
    rng.shuffle(order)
    inside = sorted(order[:k_in])
    sub = random_preorder(rng, k_in)
    nbhd = [1 << i for i in range(n)]
    for a, m in zip(inside, sub):
        nbhd[a] = sum(1 << inside[b] for b in oracle.bits(m))
    return tuple(nbhd), inside


def gen_retractions(seed: int):
    rng = random.Random(seed)
    pool = json.loads((EXPECTED / "search_pool.json").read_text())["entries"]
    no_lsc = [e for e in pool if e["answers"]["lsc"] is None]
    has_cont = [e for e in pool if e["answers"]["continuous"] is not None]
    searches = [
        (rng.choice(no_lsc), "lsc"),
        (rng.choice(has_cont), "continuous"),
    ]
    for k_in, k_out in SMALL_CELLS:
        nbhd, subset = random_embedding(rng, k_in, k_out)
        for prop in PROPS:
            searches.append(({"nbhd": list(nbhd), "subset": subset}, prop))
    for prop in PROPS:  # over SEARCH_CAP: 15^6 candidates
        nbhd, subset = _isolated_outside(rng, 4, 6)
        searches.append(({"nbhd": list(nbhd), "subset": subset}, prop))
    maps = []
    for i in range(SETMAPS):
        dom = random_preorder(rng, rng.randint(1, 8))
        cod = random_preorder(rng, 1 + i % 12)
        maps.append((dom, cod, tuple(_random_image(rng, cod) for _ in dom)))
    return searches, maps


def _random_image(rng: random.Random, cod) -> int:
    n = len(cod)
    roll = rng.random()
    if roll < 0.4:
        return cod[rng.randrange(n)]
    if roll < 0.7:
        return oracle.closure(cod, 1 << rng.randrange(n))
    return rng.randint(1, (1 << n) - 1)


def build_retractions(inputs):
    from idemx.setmaps import SetValuedMap
    from idemx.spaces import FiniteTopSpace, SubspaceEmbedding

    searches, maps = inputs
    embeddings = []
    for case, prop in searches:
        amb = FiniteTopSpace(_points(len(case["nbhd"])), tuple(case["nbhd"]))
        embeddings.append(
            (SubspaceEmbedding(amb, tuple(amb.points[i] for i in case["subset"])), prop)
        )
    setmaps = [
        SetValuedMap(
            FiniteTopSpace(_points(len(dom)), dom),
            FiniteTopSpace(_points(len(cod)), cod),
            images,
        )
        for dom, cod, images in maps
    ]
    return embeddings, setmaps


def _call_order(searches, maps):
    """Half the semicontinuity calls go before the searches and half after,
    so their timings come from two stretches of the pass, not one."""
    half = len(maps) // 2
    return maps[:half], searches, maps[half:]


def run_retractions(built, v: Verdicts) -> None:
    from idemx.setmaps import is_lsc, is_usc, search_retraction

    before, searches, after = _call_order(*built)
    for r in before:
        v.call(is_usc, r)
        v.call(is_lsc, r)
    for e, prop in searches:
        v.call(search_retraction, e, prop)
    for r in after:
        v.call(is_usc, r)
        v.call(is_lsc, r)


def check_retractions(inputs, v: Verdicts) -> dict:
    before, searches, after = _call_order(*inputs)
    want = []
    for dom, cod, images in before:
        want += [oracle.is_usc(dom, cod, images), oracle.is_lsc(dom, cod, images)]
    for case, prop in searches:
        if "answers" in case:
            ans = case["answers"][prop]
            want.append(None if ans is None else tuple(ans))
        else:
            want.append(oracle.first_retraction(case["nbhd"], case["subset"], prop))
    for dom, cod, images in after:
        want += [oracle.is_usc(dom, cod, images), oracle.is_lsc(dom, cod, images)]
    outcomes, details = [], []
    for w, res, ms in zip(want, v.results, v.ms):
        o = _outcome(res, ms, lambda r: _same_answer(r, w))
        outcomes.append(o)
        if o == "wrong":
            details.append(f"want {w}, got {res!r}")
    return summarize(outcomes, details)


def _same_answer(res, want) -> bool:
    if isinstance(want, bool):
        return res is want
    if res is None or want is None:
        return res is want
    return tuple(res.images) == want


# -- campaign: `idemx campaign` through the CLI entry point --------------------------


def _strip(report: dict) -> dict:
    """The report without what legitimately differs between runs."""
    report = json.loads(json.dumps(report))
    report["config"].pop("output", None)
    for suite in report["suites"].values():
        suite.pop("wall_time", None)
    return report


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def expected_campaign(seed: int) -> dict:
    """The recorded report, stripped, for this seed.  The recorded run had
    no failures, so the seed appears only in the config block."""
    want = json.loads((EXPECTED / "campaign_report.json").read_text())
    want["config"]["seed"] = seed
    return want


def run_campaign(seed: int, v: Verdicts) -> dict:
    """One `idemx campaign --seed <seed> --out <tmp>` call, timing each case."""
    from idemx import campaign, cli

    skipped = []

    def timed(run_case):
        def run(case, tol):
            t0 = time.perf_counter()
            try:
                ok, detail = run_case(case, tol)
            finally:
                v.ms.append((time.perf_counter() - t0) * 1e3)
            v.results.append(ok)
            skipped.append(ok and detail.startswith("skipped"))
            return ok, detail

        return run

    for name, suite in list(campaign.CATALOGUE.items()):
        campaign.CATALOGUE[name] = dataclasses.replace(suite, run_case=timed(suite.run_case))
    out_dir = Path(tempfile.mkdtemp(prefix="campaign-", dir=report_dir()))
    try:
        out = out_dir / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(["campaign", "--seed", str(seed), "--out", str(out)])
            wall = time.perf_counter() - t0
        report = json.loads(out.read_text()) if out.exists() else None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall": wall, "rc": rc, "report": report, "skipped": skipped}


def check_campaign(seed: int, ran: dict, v: Verdicts) -> dict:
    n = len(v.results)
    report = ran["report"]
    want = expected_campaign(seed)
    if report is None or ran["rc"] != 0:
        return {"attempted": max(n, 1), "decided": n, "wrong": max(n, 1),
                "wrong_detail": [f"campaign exit code {ran['rc']}"], "digest": None}
    got = _strip(report)
    wrong, details = 0, []
    if {k: got[k] for k in got if k != "suites"} != {k: want[k] for k in want if k != "suites"}:
        wrong, details = n, ["report header differs from the recorded one"]
    else:
        names = set(got["suites"]) | set(want["suites"])
        for name in sorted(names):
            g, w = got["suites"].get(name), want["suites"].get(name)
            if g != w:
                wrong += (g or w)["cases_run"]
                details.append(f"suite {name} differs from the recorded report")
    undecided = sum(ran["skipped"]) + sum(
        ms > VERDICT_LIMIT_S * 1e3 for ms in v.ms
    )
    return {
        "attempted": n,
        "decided": n - undecided,
        "wrong": min(wrong, n),
        "wrong_detail": details[:5],
        "digest": digest(got),
        "expected_digest": digest(want),
    }


def report_dir() -> Path:
    """Where the campaign writes its report: inside the checkout."""
    d = ROOT / ".bench_out"
    d.mkdir(exist_ok=True)
    return d

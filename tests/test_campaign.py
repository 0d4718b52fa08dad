import copy
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from idemx import setmaps
from idemx.campaign import (
    _DUAL_PAIRS,
    CATALOGUE,
    CampaignConfig,
    _run_axioms_fuzz,
    _suite_seed,
    replay_witnesses,
    run_campaign,
    run_suite,
    write_report,
)
from idemx.cli import main
from idemx.errors import InvariantViolation, ParseError, TooLarge, UnknownSuite
from idemx.extenders import KIND_AXIOMS
from idemx.functionals import AXIOMS, RealFunction, check_axioms, dual
from idemx.instances import embedding_to_json, load_embedding, load_functional
from idemx.spaces import discrete, embed


def test_config_rejects_unknown_suite():
    with pytest.raises(UnknownSuite):
        CampaignConfig(suites=("nosuch",))
    with pytest.raises(UnknownSuite):
        CampaignConfig(size_caps={"nosuch": 3})


def test_config_rejects_caps_beyond_hard_limit():
    with pytest.raises(InvariantViolation):
        CampaignConfig(size_caps={"support_roundtrip": 9})
    with pytest.raises(InvariantViolation):
        CampaignConfig(size_caps={"usc_forward": 0})


def test_config_rejects_a_cap_on_a_suite_not_selected(capsys):
    # a cap on a suite that does not run would take no effect
    with pytest.raises(InvariantViolation, match=r"^size_caps\[axioms_fuzz\]: "):
        CampaignConfig(suites=("hyperspace_monotone",), size_caps={"axioms_fuzz": 5})
    assert main(["campaign", "--suite", "hyperspace_monotone", "--cap", "axioms_fuzz=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvariantViolation: size_caps[axioms_fuzz]: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-12}, {"seed": -1}],
    ids=["tol=nan", "tol=inf", "tol=-1e-12", "seed=-1"],
)
def test_config_rejects_bad_tol_and_seed(kwargs):
    with pytest.raises(InvariantViolation):
        CampaignConfig(**kwargs)


def test_replay_rejects_a_negative_report_tol(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"config": {"tol": -1.0}, "suites": {}}))
    with pytest.raises(ParseError):
        replay_witnesses(path)


def test_empty_suite_list_gives_empty_report():
    rep = run_campaign(CampaignConfig(seed=1, suites=()))
    assert rep.suites == {}
    assert sum(s.cases_run for s in rep.suites.values()) == 0


def test_support_roundtrip_cap4_runs_15_cases():
    rep = run_suite(
        "support_roundtrip", CampaignConfig(seed=42, suites=("support_roundtrip",),
                                            size_caps={"support_roundtrip": 4})
    )
    assert rep.cases_run == 15 and rep.failed == 0


def test_suite_wall_time_counts_case_generation(monkeypatch):
    def slow_gen_cases(cap, seed):  # no cases, so the suite's time is all generation
        time.sleep(0.05)
        return []

    suite = dataclasses.replace(CATALOGUE["support_roundtrip"], gen_cases=slow_gen_cases)
    monkeypatch.setitem(CATALOGUE, "support_roundtrip", suite)
    rep = run_suite("support_roundtrip", CampaignConfig(seed=42, suites=("support_roundtrip",)))
    assert rep.cases_run == 0 and rep.wall_time >= 0.05


def test_unknown_suite_at_run_time():
    with pytest.raises(UnknownSuite):
        run_suite("nosuch", CampaignConfig(suites=()))


def _strip_times(data):
    data = copy.deepcopy(data)
    for s in data["suites"].values():
        s.pop("wall_time")
    return data


def test_reports_are_deterministic_for_a_seed():
    cfg = CampaignConfig(
        seed=42,
        suites=("support_roundtrip", "axioms_fuzz", "retraction_search"),
        size_caps={"axioms_fuzz": 40, "retraction_search": 12},
    )
    a = _strip_times(run_campaign(cfg).to_json())
    b = _strip_times(run_campaign(cfg).to_json())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seeds_change_fuzz_cases():
    base = dict(suites=("axioms_fuzz",), size_caps={"axioms_fuzz": 10})
    a = run_suite("axioms_fuzz", CampaignConfig(seed=1, **base))
    b = run_suite("axioms_fuzz", CampaignConfig(seed=2, **base))
    ca = CATALOGUE["axioms_fuzz"].gen_cases(10, 1)
    cb = CATALOGUE["axioms_fuzz"].gen_cases(10, 2)
    assert ca != cb
    assert a.failed == 0 and b.failed == 0


def test_witness_replay_reproduces_a_failure(tmp_path):
    # an isolated extra point admits a usc retraction, so claiming
    # expect_none must fail, and the failure must replay identically
    amb = discrete(["p", "q", "w"])
    case = {
        "embedding": embedding_to_json(embed(amb, ["p", "q"])),
        "expect_none": True,
    }
    ok, detail = CATALOGUE["open_set_recovery"].run_case(case, 1e-9)
    assert not ok
    report = {
        "version": "0.1.0",
        "config": {"seed": 0, "tol": 1e-9},
        "suites": {
            "open_set_recovery": {
                "cases_run": 1,
                "passed": 0,
                "failed": 1,
                "wall_time": 0.0,
                "witnesses": [
                    {"suite": "open_set_recovery", "seed": 0, "case": case,
                     "detail": detail}
                ],
            }
        },
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(report))
    outcomes = replay_witnesses(path)
    assert len(outcomes) == 1
    assert outcomes[0].reproduced
    assert outcomes[0].detail == detail


def test_write_report_formats(tmp_path):
    cfg = CampaignConfig(
        seed=3, suites=("hausdorff_lipschitz",), size_caps={"hausdorff_lipschitz": 20}
    )
    rep = run_campaign(cfg)
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report(rep, str(jpath), "json")
    write_report(rep, str(cpath), "csv")
    assert json.loads(jpath.read_text())["config"]["seed"] == 3
    assert cpath.read_text().startswith("suite,cases_run")


def test_every_catalogue_suite_passes_at_small_caps():
    small = {
        "support_roundtrip": 3,
        "reconstruct_identity": 3,
        "essential_support_match": 3,
        "hyperspace_bijection": 3,
        "hyperspace_monotone": 3,
        "continuous_retraction_roundtrip": 4,
        "usc_forward": 4,
        "lsc_forward": 4,
        "open_set_recovery": 8,
        "connectivity_shadow": 2,
        "axioms_fuzz": 25,
        "hausdorff_lipschitz": 100,
        "retraction_search": 8,
    }
    cfg = CampaignConfig(seed=11, size_caps=small)
    rep = run_campaign(cfg)
    for name, res in rep.suites.items():
        assert res.failed == 0, (name, res.witnesses[:1])
        assert res.cases_run == res.passed + res.failed


EXPECTED_REPORT = Path(__file__).resolve().parents[1] / "bench" / "expected" / "campaign_report.json"


def test_seed_42_campaign_report_matches_the_recorded_one(tmp_path, capsys):
    # the recorded report is read only; it leaves out what differs between
    # runs, the wall times and the output path
    out = tmp_path / "report.json"
    assert main(["campaign", "--seed", "42", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    got["config"].pop("output", None)
    for suite in got["suites"].values():
        suite.pop("wall_time", None)
    assert got == json.loads(EXPECTED_REPORT.read_text())


def test_campaign_tol_reaches_every_support_suite(tmp_path, capsys):
    # support_roundtrip and hyperspace_bijection run the same round trips on
    # the 4-point discrete space, so a loose tol must fail both
    out = tmp_path / "report.json"
    args = ["campaign", "--suite", "support_roundtrip", "--suite", "hyperspace_bijection"]
    assert main(args + ["--tol", "3", "--out", str(out)]) == 1
    suites = json.loads(out.read_text())["suites"]
    assert suites["support_roundtrip"]["failed"] > 0
    assert suites["hyperspace_bijection"]["failed"] > 0
    assert main(args) == 0


SEARCH_SUITES = ("retraction_search", "open_set_recovery", "continuous_retraction_roundtrip")


def test_a_search_over_its_node_budget_fails_its_case_and_replays(monkeypatch, tmp_path):
    # no generated case comes near the budget, so shrink it: every case
    # whose search runs out must fail with the TooLarge message, none may pass
    monkeypatch.setattr(setmaps, "SEARCH_NODES", 1)
    out = tmp_path / "report.json"
    rep = run_campaign(CampaignConfig(seed=42, suites=SEARCH_SUITES, output=str(out)))
    for name in SEARCH_SUITES:
        suite = CATALOGUE[name]
        semicontinuity = "continuous" if name == "continuous_retraction_roundtrip" else "usc"
        over = []
        for case in suite.gen_cases(suite.cap_default, _suite_seed(42, name)):
            try:
                setmaps.search_retraction(load_embedding(case["embedding"]), semicontinuity)
            except TooLarge:
                over.append(case)
        assert over, name
        failed = {json.dumps(w["case"], sort_keys=True): w["detail"] for w in rep.suites[name].witnesses}
        for case in over:
            assert failed[json.dumps(case, sort_keys=True)].startswith("TooLarge: search reached")
    outcomes = replay_witnesses(out)
    assert len(outcomes) == sum(rep.suites[name].failed for name in SEARCH_SUITES)
    assert all(o.reproduced for o in outcomes)
    assert sum(o.detail.startswith("TooLarge: search reached") for o in outcomes) >= 3


def _reference_axioms_fuzz(case, tol):
    """The functional branch of the axioms_fuzz runner as two check_axioms
    sweeps and sixteen one-row calls, kept as the reference."""
    mu = load_functional(case["functional"])
    nu = dual(mu)
    reports = check_axioms(mu, AXIOMS, trials=24, tol=tol, seed=case["seed"])
    dual_reports = check_axioms(nu, AXIOMS, trials=24, tol=tol, seed=case["seed"])
    verdicts = {a: rep.passed for a, rep in reports.items()}
    for a in AXIOMS:
        if verdicts[a] != dual_reports[_DUAL_PAIRS[a]].passed:
            return False, f"dual verdict differs on {a}"
    rng = np.random.default_rng(case["seed"])
    n = mu.space.n
    for _ in range(8):
        f = RealFunction(mu.space, tuple(float(v) for v in rng.uniform(-5, 5, n)))
        if dual(dual(mu))(f) != mu(f):
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


# tol 0 and tol 2 make some of these cases fail, so failing details are compared too
@pytest.mark.parametrize("tol,some_fail", [(0.0, True), (1e-9, False), (0.3, False), (2.0, True)])
def test_axioms_fuzz_two_column_sweep_matches_two_sweeps(tol, some_fail):
    cases = [c for c in CATALOGUE["axioms_fuzz"].gen_cases(120, 5) if c["type"] == "functional"]
    outcomes = [_run_axioms_fuzz(case, tol) for case in cases]
    assert outcomes == [_reference_axioms_fuzz(case, tol) for case in cases]
    assert (not all(ok for ok, _ in outcomes)) == some_fail

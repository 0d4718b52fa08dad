import json

import pytest

from idemx.cli import main
from idemx.errors import InvariantViolation, MembershipViolation, ParseError
from idemx.functionals import IdempotentDensity, MeanFunctional, SupportFunctional
from idemx.instances import (
    embedding_to_json,
    functional_to_json,
    load_instance,
    parse_instance,
    setmap_to_json,
    space_to_json,
)
from idemx.setmaps import SetValuedMap
from idemx.spaces import (
    FiniteTopSpace,
    SubspaceEmbedding,
    discrete,
    embed,
    sierpinski,
)

SIERPINSKI_JSON = {"points": ["0", "1"], "min_nbhd": {"0": ["0", "1"], "1": ["1"]}}
D3_JSON = {
    "points": ["a", "b", "c"],
    "min_nbhd": {"a": ["a"], "b": ["b"], "c": ["c"]},
}


def test_parse_space(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(SIERPINSKI_JSON))
    s = parse_instance(p)
    assert isinstance(s, FiniteTopSpace)
    assert len(s.opens) == 3


def test_parse_metric_symmetry_violation():
    with pytest.raises(InvariantViolation, match="dist.symmetry"):
        load_instance({"points": ["a", "b"], "dist": [[0, 1], [2, 0]]})


def test_parse_support_functional_empty_F():
    with pytest.raises(InvariantViolation, match="F.nonempty"):
        load_instance({"space": D3_JSON, "kind": "support", "min": True, "F": []})


def test_parse_density_with_sentinels():
    mu = load_instance(
        {"space": D3_JSON, "kind": "density", "lambda": {"a": 0, "b": -1, "c": "-inf"}}
    )
    assert isinstance(mu, IdempotentDensity)
    assert mu.lam == (0.0, -1.0, float("-inf"))


def test_parse_setmap_and_embedding():
    m = load_instance(
        {
            "domain": SIERPINSKI_JSON,
            "codomain": D3_JSON,
            "map": {"0": ["a", "b"], "1": ["a"]},
        }
    )
    assert isinstance(m, SetValuedMap)
    e = load_instance({"ambient": SIERPINSKI_JSON, "subset": ["1"]})
    assert isinstance(e, SubspaceEmbedding)


def test_parse_rejects_unknown_shapes():
    with pytest.raises(ParseError):
        load_instance({"something": 1})
    with pytest.raises(ParseError):
        load_instance([1, 2, 3])


def test_parse_bad_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_instance(p)
    with pytest.raises(ParseError):
        parse_instance(tmp_path / "missing.json")


def test_parse_bad_space_table():
    with pytest.raises(MembershipViolation):
        load_instance({"points": ["0", "1"], "min_nbhd": {"0": ["1"], "1": ["1"]}})


def test_serialization_roundtrips():
    s = sierpinski()
    assert load_instance(space_to_json(s)) == s
    d = discrete(["p", "q"])
    e = embed(
        FiniteTopSpace(("p", "q", "w"), (1, 2, 4)), ("p", "q")
    )
    assert load_instance(embedding_to_json(e)) == e
    r = SetValuedMap(e.ambient, e.subspace, (1, 2, 3))
    assert load_instance(setmap_to_json(r)) == r
    for mu in (
        SupportFunctional(d, "max", 3),
        IdempotentDensity(d, (0.0, float("-inf"))),
        MeanFunctional(d),
    ):
        assert load_instance(functional_to_json(mu)) == mu


# -- CLI -------------------------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    out = {}
    out["mu"] = tmp_path / "mu.json"
    out["mu"].write_text(
        json.dumps({"space": D3_JSON, "kind": "support", "min": True, "F": ["a", "b"]})
    )
    out["mean"] = tmp_path / "mean.json"
    out["mean"].write_text(json.dumps({"space": D3_JSON, "kind": "mean"}))
    amb = {
        "points": ["p", "q", "w"],
        "min_nbhd": {"p": ["p"], "q": ["q"], "w": ["w"]},
    }
    sub = {"points": ["p", "q"], "min_nbhd": {"p": ["p"], "q": ["q"]}}
    out["emb"] = tmp_path / "emb.json"
    out["emb"].write_text(json.dumps({"ambient": amb, "subset": ["p", "q"]}))
    out["map"] = tmp_path / "map.json"
    out["map"].write_text(
        json.dumps(
            {
                "domain": amb,
                "codomain": sub,
                "map": {"p": ["p"], "q": ["q"], "w": ["p", "q"]},
            }
        )
    )
    out["f"] = tmp_path / "f.json"
    out["f"].write_text(json.dumps({"values": {"p": 0.0, "q": 2.0}}))
    out["tmp"] = tmp_path
    return out


def test_cli_support_and_classify(files, capsys):
    assert main(["support", str(files["mu"])]) == 0
    assert json.loads(capsys.readouterr().out) == ["a", "b"]
    assert main(["classify", str(files["mu"])]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"class": "R_min", "support": ["a", "b"]}
    assert main(["classify", str(files["mean"])]) == 1
    assert json.loads(capsys.readouterr().out)["class"] == "none"


def test_cli_check_axioms_exit_codes(files, capsys):
    assert main(["check-axioms", str(files["mu"]), "--axiom", "preserves_min"]) == 0
    assert main(["check-axioms", str(files["mu"]), "--axiom", "preserves_max"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "lhs=" in out


def test_cli_extend_and_recover(files, capsys):
    code = main(
        [
            "extend",
            "--embedding", str(files["emb"]),
            "--map", str(files["map"]),
            "--kind", "min",
            "--function", str(files["f"]),
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"p": 0.0, "q": 2.0, "w": 0.0}
    code = main(
        [
            "recover",
            "--embedding", str(files["emb"]),
            "--map", str(files["map"]),
            "--kind", "max",
            "--method", "opens",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "p": ["p"], "q": ["q"], "w": ["p", "q"],
    }


def test_cli_search(files, capsys):
    assert main(["search", "--embedding", str(files["emb"])]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == ["p"]


def test_cli_campaign_writes_report_and_replays(files, capsys):
    rep_path = files["tmp"] / "report.json"
    code = main(
        [
            "campaign",
            "--suite", "support_roundtrip",
            "--cap", "support_roundtrip=3",
            "--seed", "7",
            "--out", str(rep_path),
        ]
    )
    assert code == 0
    data = json.loads(rep_path.read_text())
    assert data["suites"]["support_roundtrip"]["cases_run"] == 7
    assert data["suites"]["support_roundtrip"]["failed"] == 0
    assert main(["replay", str(rep_path)]) == 0


def test_cli_campaign_csv(files):
    rep_path = files["tmp"] / "report.csv"
    code = main(
        [
            "campaign", "--suite", "hausdorff_lipschitz",
            "--cap", "hausdorff_lipschitz=50",
            "--out", str(rep_path), "--format", "csv",
        ]
    )
    assert code == 0
    lines = rep_path.read_text().strip().splitlines()
    assert lines[0] == "suite,cases_run,passed,failed,wall_time"
    assert lines[1].startswith("hausdorff_lipschitz,50,50,0")


@pytest.mark.parametrize(
    "command, payload",
    [
        ("classify", {"space": 3, "kind": "mean"}),
        ("classify", {"space": D3_JSON, "kind": "density", "lambda": {"a": "x"}}),
        ("search", {"ambient": D3_JSON, "subset": [["a"]]}),
        ("replay", [1, 2]),
        ("support", {"space": D3_JSON, "kind": "support", "min": True, "F": "ab"}),
    ],
    ids=["space-not-object", "density-weight", "subset-entry", "replay-list", "F-string"],
)
def test_cli_malformed_input_is_a_parse_error(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    args = [command, "--embedding", str(path)] if command == "search" else [command, str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and err.count("\n") == 1


def test_cli_extend_rejects_a_non_numeric_function_value(files, capsys):
    files["f"].write_text(json.dumps({"values": {"p": "x", "q": 2.0}}))
    args = ["extend", "--embedding", str(files["emb"]), "--map", str(files["map"])]
    assert main(args + ["--function", str(files["f"])]) == 2
    assert capsys.readouterr().err.startswith("error: ParseError")


def test_cli_rejects_flags_that_would_be_ignored(files, capsys):
    code = main(
        [
            "extend",
            "--embedding", str(files["emb"]),
            "--map", str(files["map"]),
            "--function", str(files["f"]),
            "--seed", "1",
        ]
    )
    assert code == 2


def test_cli_usage_errors(files, capsys):
    assert main(["campaign", "--suite", "nosuch"]) == 2
    capsys.readouterr()
    assert main(["support", str(files["tmp"] / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err

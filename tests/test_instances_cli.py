import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemx.cli import main
from idemx.errors import InvariantViolation, MembershipViolation, ParseError
from idemx.functionals import (
    IdempotentDensity,
    MeanFunctional,
    SupportFunctional,
    TableFunctional,
)
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
        TableFunctional(d, -1.0, 2.0, (0.0, 0.5, -3.0, 7.25)),
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


def test_python_m_idemx_runs_the_cli_with_its_exit_codes(files):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    wedge = files["tmp"] / "wedge.json"
    wedge.write_text(json.dumps({
        "ambient": {
            "points": ["p", "q", "w"],
            "min_nbhd": {"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]},
        },
        "subset": ["p", "q"],
    }))
    bad = files["tmp"] / "bad.json"
    bad.write_text("{")

    def run(path):
        return subprocess.run(
            [sys.executable, "-m", "idemx", "search", "--embedding", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    found, none, malformed = run(files["emb"]), run(wedge), run(bad)
    assert found.returncode == 0 and json.loads(found.stdout)["w"] == ["p"]
    assert none.returncode == 1 and none.stdout.strip() == "none"  # no usc retraction
    assert malformed.returncode == 2 and malformed.stderr.startswith("error: ParseError")


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
        ("support", {"space": D3_JSON, "kind": "support", "min": "no", "F": ["a"]}),
        ("classify", {"space": D3_JSON, "kind": "density", "lambda": {"a": 0, "z": -1}}),
        ("classify", {"space": D3_JSON, "kind": "density", "lambda": {"a": 10**400}}),
        ("classify", {"space": D3_JSON, "kind": "density", "lambda": {"a": False, "b": -0.5}}),
        ("classify", {"space": {"points": None, "min_nbhd": {"a": ["a"]}}, "kind": "mean"}),
        ("classify", {"space": {"points": ["a"], "min_nbhd": {"a": ["a"], "b": ["b"]}},
                      "kind": "mean"}),
        ("classify", {"space": {"min_nbhd": {}}, "kind": "mean"}),
        ("classify", {"space": D3_JSON, "kind": "table", "lo": 0, "hi": 1,
                      "table": {"a,b": 1, "b,a": 5}}),
        ("classify", {"space": D3_JSON, "kind": "table", "lo": 0, "hi": 1,
                      "table": {"a": 1, "a,a": 5}}),
        ("replay", {"suites": ["a"]}),
        ("replay", {"suites": {"support_roundtrip": {"witnesses": ["x"]}}}),
        ("replay", {"suites": {"support_roundtrip": {"witnesses": [{"case": {}}]}}}),
    ],
    ids=[
        "space-not-object", "density-weight", "subset-entry", "replay-list", "F-string",
        "min-not-bool", "weight-for-unknown-point", "weight-overflow", "weight-bool",
        "points-null", "nbhd-for-unknown-point", "empty-space",
        "table-pattern-repeated", "table-point-repeated",
        "replay-suites-list", "replay-witness-string", "replay-empty-case",
    ],
)
def test_cli_malformed_input_is_a_parse_error(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    args = [command, "--embedding", str(path)] if command == "search" else [command, str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and err.count("\n") == 1


def test_cli_extend_rejects_a_non_numeric_function_value(files, capsys):
    args = ["extend", "--embedding", str(files["emb"]), "--map", str(files["map"])]
    # a numeric string and a boolean were read as 2.0 and 1.0 by float()
    for values in ({"p": "x", "q": 2.0}, {"p": "2", "q": 2.0}, {"p": 0.0, "q": True}):
        files["f"].write_text(json.dumps({"values": values}))
        assert main(args + ["--function", str(files["f"])]) == 2, values
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and err.count("\n") == 1, err


def test_cli_extend_rejects_a_value_for_an_unknown_point(files, capsys):
    args = ["extend", "--embedding", str(files["emb"]), "--map", str(files["map"])]
    files["f"].write_text(json.dumps({"values": {"p": 1, "q": 2, "zz": 7}}))
    assert main(args + ["--function", str(files["f"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError") and err.count("\n") == 1, err
    assert "['zz']" in err


def test_cli_classify_rejects_a_table_input_outside_lo_hi(tmp_path, capsys):
    # the structured sweeps evaluate inputs outside {lo, hi}; the error names
    # the value as a plain float, not as a numpy scalar
    table = {
        "space": {"points": ["a", "b"], "min_nbhd": {"a": ["a"], "b": ["b"]}},
        "kind": "table", "lo": 0, "hi": 1,
        "table": {"": 0, "a": 0, "b": 0, "a,b": 1},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith("input value -1.0 is not in {lo, hi}"), err
    assert main(["check-axioms", str(path), "--axiom", "normed", "--trials", "0"]) == 0


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


#: (command with "{}" for a functional file, flag) pairs of every numeric flag
NUMERIC_FLAGS = [
    (["check-axioms", "{}"], "--tol"),
    (["check-axioms", "{}"], "--seed"),
    (["check-axioms", "{}"], "--trials"),
    (["support", "{}"], "--tol"),
    (["support", "{}"], "--seed"),
    (["support", "{}"], "--budget"),
    (["classify", "{}"], "--tol"),
    (["classify", "{}"], "--seed"),
    (["classify", "{}"], "--budget"),
    (["campaign", "--suite", "hyperspace_monotone"], "--tol"),
    (["campaign", "--suite", "hyperspace_monotone"], "--seed"),
    (["replay", "{}"], "--tol"),
]
BAD_VALUES = {
    "--tol": ["nan", "inf", "-inf", "-1", "-1e-12", "abc"],
    "--seed": ["-1", "1.5", "abc"],
    "--trials": ["-3", "2.0"],
    "--budget": ["-1", "x"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [pytest.param(c, f, v, id=f"{c[0]}{f}={v}") for c, f in NUMERIC_FLAGS for v in BAD_VALUES[f]],
)
def test_cli_rejects_out_of_range_numeric_flags(files, capsys, command, flag, value):
    args = [str(files["mean"]) if a == "{}" else a for a in command]
    assert main(args + [f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ParseError: argument {flag}: must be")
    assert captured.err.count("\n") == 1
    # as a separate word, "-inf" or "-1e-12" reads as an option: still one line
    assert main(args + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


# -- input-boundary fuzz -----------------------------------------------------------

WEDGE_JSON = {
    "points": ["p", "q", "w"],
    "min_nbhd": {"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]},
}
PQ_JSON = {"points": ["p", "q"], "min_nbhd": {"p": ["p"], "q": ["q"]}}
D2_JSON = {"points": ["a", "b"], "min_nbhd": {"a": ["a"], "b": ["b"]}}
EMBEDDING_JSON = {"ambient": WEDGE_JSON, "subset": ["p", "q"]}

#: Valid payloads and the command that reads each; "{}" is the payload file.
FUZZ_BASES = {
    "support": (
        ["classify", "{}"],
        {"space": D3_JSON, "kind": "support", "min": True, "F": ["a", "b"]},
    ),
    "density": (
        ["classify", "{}"],
        {"space": D3_JSON, "kind": "density", "lambda": {"a": 0, "b": -0.5, "c": "-inf"}},
    ),
    "table": (  # a table only evaluates inputs valued in {lo, hi}
        ["check-axioms", "{}", "--axiom", "normed", "--trials", "0"],
        {
            "space": D2_JSON, "kind": "table", "lo": 0, "hi": 1,
            "table": {"": 0, "a": 1, "b": 0, "a,b": 1},
        },
    ),
    "embedding": (["search", "--embedding", "{}"], EMBEDDING_JSON),
    "setmap": (
        ["recover", "--embedding", "EMB", "--map", "{}", "--method", "opens"],
        {
            "domain": WEDGE_JSON,
            "codomain": PQ_JSON,
            "map": {"p": ["p"], "q": ["q"], "w": ["p", "q"]},
        },
    ),
}
OBJECT_FIELDS = ("min_nbhd", "map", "lambda", "table", "space", "ambient", "domain", "codomain")
OPTIONAL_FIELDS = ("points", "min")


def _role(path: tuple) -> str:
    """What the schema expects at ``path`` inside a payload."""
    if not path:
        return "object"
    key = path[-1]
    parent = path[-2] if len(path) > 1 else None
    if isinstance(key, int):
        return "name"
    if parent in ("min_nbhd", "map") or key in ("points", "subset", "F"):
        return "names"
    if key in OBJECT_FIELDS:
        return "object"
    if parent == "lambda":
        return "weight"
    if parent == "table" or key in ("lo", "hi"):
        return "number"
    return key  # "kind" or "min"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _fits(role: str, v) -> bool:
    """Whether ``v`` has the type the schema asks for at a node of ``role``."""
    return {
        "object": isinstance(v, dict),
        "names": isinstance(v, list) and all(isinstance(x, str) for x in v),
        "name": isinstance(v, str),
        "weight": _is_number(v) or v is None or v == "-inf",
        "number": _is_number(v),
        "kind": v in ("support", "density", "mean", "table"),
        "min": isinstance(v, bool),
    }[role]


def _nodes(obj, path=()):
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _point_keyed(path: tuple) -> bool:
    """Dict keys at ``path`` name points (or point sets, for a table)."""
    return path[-1:] in (("min_nbhd",), ("map",), ("lambda",), ("table",))


def _get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_instances(draw):
    """(base name, payload, verdict): verdict is "valid", "malformed", or None
    when the mutation may or may not leave a valid instance."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    payload = copy.deepcopy(FUZZ_BASES[name][1])
    nodes = list(_nodes(payload))
    op = draw(st.sampled_from(["keep", "drop", "empty", "retype", "unknown-name"]))
    if op == "keep":
        return name, payload, "valid"
    if op == "empty":  # a list or an object loses all its entries
        path = draw(st.sampled_from([p for p, v in nodes if p and isinstance(v, (list, dict))]))
        _get(payload, path).clear()
        return name, payload, None
    if op == "drop":
        path = draw(st.sampled_from([p for p, _ in nodes if p]))
        parent = _get(payload, path[:-1])
        del parent[path[-1]]
        if isinstance(path[-1], int) or path[-2:-1] == ("lambda",):
            return name, payload, None
        return name, payload, "valid" if path[-1] in OPTIONAL_FIELDS else "malformed"
    if op == "retype":
        path = draw(st.sampled_from([p for p, _ in nodes]))
        value = draw(JSON_VALUES)
        if not path:
            return name, value, None if _fits("object", value) else "malformed"
        _get(payload, path[:-1])[path[-1]] = value
        return name, payload, None if _fits(_role(path), value) else "malformed"
    # unknown-name: a point name in a list, or a point-naming key, becomes "zz"
    slots = [p for p, _ in nodes if p and _role(p) == "name"]
    slots += [p + (k,) for p, v in nodes if p and _point_keyed(p) for k in v]
    path = draw(st.sampled_from(slots))
    parent = _get(payload, path[:-1])
    if isinstance(path[-1], int):
        parent[path[-1]] = "zz"
    else:
        parent["zz"] = parent.pop(path[-1])
    return name, payload, "malformed"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=mutated_instances())
def test_cli_fuzzed_instances_exit_cleanly(tmp_path_factory, case):
    name, payload, verdict = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path, emb = tmp / "instance.json", tmp / "embedding.json"
    path.write_text(json.dumps(payload))
    emb.write_text(json.dumps(EMBEDDING_JSON))
    args = [str(path) if a == "{}" else str(emb) if a == "EMB" else a for a in FUZZ_BASES[name][0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    if verdict == "valid":
        assert code in (0, 1), err.getvalue()
    elif verdict == "malformed":
        assert code == 2, (code, out.getvalue())
    else:
        assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

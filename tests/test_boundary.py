"""Malformed calls into the library end in an ``IdemxError`` with a
one-line message, never a bare exception or a silently wrong answer."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from idemx.errors import (
    AxiomPrecheckFailed,
    EmptySet,
    IdemxError,
    InvariantViolation,
    ParseError,
    SpaceMismatch,
)
from idemx.extenders import (
    Extender,
    build_extender,
    check_open_extension_algebra,
    connectivity_analysis,
    extend_open_set,
    forward_implications,
    retraction_from_open_sets,
    supports_retraction,
    verify_semicontinuity_theorem,
)
from idemx.functionals import (
    Functional,
    RealFunction,
    SubsetFamily,
    SupportFunctional,
    TableFunctional,
    check_axiom,
    check_axioms,
    density,
    essential_family,
    from_mapping,
    infsup_reconstruct,
    support_functional,
    two_valued_tuples,
)
from idemx.hyperspace import (
    functional_topology,
    lipschitz_constant,
    subset_max,
    subset_min,
    subset_roundtrip_failure,
)
from idemx.instances import functional_to_json, load_instance
from idemx.setmaps import setmap
from idemx.spaces import (
    FiniteTopSpace,
    MetricSpace,
    discrete,
    embed,
    from_minimal_basis,
    line_metric,
)

X = discrete(["a", "b"])
MU = support_functional(X, "min", ["a", "b"])
F = from_mapping(X, {"a": 1.0, "b": 2.0})
E = embed(from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w"]}), ["p", "q"])
R = setmap(E.ambient, E.subspace, {"p": ["p"], "q": ["q"], "w": ["p", "q"]})
U = build_extender(R, E, "max")
NAN = float("nan")
# min over {a, b} on three points, whose families are rows of three values
MIN_AB = support_functional(discrete(["a", "b", "c"]), "min", ["a", "b"])


@dataclass
class _Unhashable(Functional):
    """A user functional that is not hashable (a plain dataclass with eq):
    the min over all points, plus ``shift``."""

    space: object
    shift: float = 0.0

    def eval_batch(self, A):
        return A.min(axis=1) + self.shift


def _on_family(family, axiom="preserves_max"):
    return lambda: check_axiom(MIN_AB, axiom, trials=0, family=family)


CASES = {
    # a max extender does not preserve min, so the variant must go first
    "algebra-bogus-variant": (
        lambda: check_open_extension_algebra(build_extender(R, E, "max"), "bogus"),
        InvariantViolation, "^variant: ",
    ),
    "forward-user-extender": (
        lambda: forward_implications(Extender(E, lambda f: f, "user"), True, True, [(0.0, 1.0)]),
        InvariantViolation, "^provenance: ",
    ),
    # U lives on a 2-point subspace, so each input is a row of 2 values
    "forward-family-row-too-long": (
        lambda: forward_implications(U, True, False, [(0.0, 1.0, 2.0, 3.0)]),
        InvariantViolation, "^family: ",
    ),
    "forward-family-row-too-short": (
        lambda: forward_implications(U, True, False, [(0.0, 1.0, 2.0)]),
        InvariantViolation, "^family: ",
    ),
    "forward-family-empty": (
        lambda: forward_implications(U, True, False, []), InvariantViolation, "^family: ",
    ),
    "infsup-family-same-size": (
        lambda: infsup_reconstruct(MU, F, family=SubsetFamily(discrete(["x", "y"]), (0b10,))),
        SpaceMismatch, "family",
    ),
    "infsup-family-larger": (
        lambda: infsup_reconstruct(MU, F, family=SubsetFamily(discrete(["x", "y", "z"]), (0b100,))),
        SpaceMismatch, "family",
    ),
    "infsup-family-empty-member": (
        lambda: infsup_reconstruct(MU, F, family=SubsetFamily(X, (0,))), EmptySet, "nonempty",
    ),
    # the precheck keeps its verdict on the functional, never hashing it
    "essential-family-unhashable-functional": (
        lambda: essential_family(_Unhashable(X, shift=1.0)), AxiomPrecheckFailed, "failing: normed$",
    ),
    "lipschitz-other-space": (
        lambda: lipschitz_constant(
            RealFunction(discrete(["x", "y"]), (0.0, 1.0)), line_metric({"x": 0, "y": 1, "z": 2})
        ),
        SpaceMismatch, "metric space",
    ),
    "lipschitz-same-size-other-space": (
        lambda: lipschitz_constant(
            RealFunction(discrete(["x", "y"]), (0.0, 1.0)), line_metric({"x": 0, "y": 1})
        ),
        SpaceMismatch, "metric space",
    ),
    "min-basis-unknown-point": (
        lambda: from_minimal_basis({"p": ["p"], "z": ["z", "p"]}, points=["p"]),
        InvariantViolation, r"^min_nbhd\[z\]: not a point of the space$",
    ),
    "density-missing-point": (
        lambda: density(X, {"a": 0}), InvariantViolation, r"^lambda\[b\]: ",
    ),
    "from_mapping-missing-point": (
        lambda: from_mapping(X, {"a": 0}), InvariantViolation, r"^values\[b\]: ",
    ),
    "density-unknown-point": (
        lambda: density(X, {"a": 0, "b": 1, "z": 5}), InvariantViolation, r"^lambda\[z\]: ",
    ),
    "from_mapping-unknown-point": (
        lambda: from_mapping(X, {"a": 0, "b": 1, "z": 5}), InvariantViolation, r"^values\[z\]: ",
    ),
    "setmap-unknown-point": (
        lambda: setmap(E.ambient, E.subspace, {"p": ["p"], "q": ["q"], "w": ["p"], "z": ["q"]}),
        InvariantViolation, r"^map\[z\]: ",
    ),
    "topology-bad-kind-and-sense": (
        lambda: functional_topology(X, "mean", "sideways"), InvariantViolation, "^kind: ",
    ),
    "topology-bad-sense": (
        lambda: functional_topology(X, "min", "sideways"), InvariantViolation, "^sense: ",
    ),
    "topology-bad-kind": (
        lambda: functional_topology(X, "mean", "above"), InvariantViolation, "^kind: ",
    ),
    # the extender layer's parameters
    "build-extender-unknown-kind": (
        lambda: build_extender(R, E, "avg"), InvariantViolation, "^kind: must be 'min' or 'max'$",
    ),
    "theorem-unknown-kind": (
        lambda: verify_semicontinuity_theorem(R, E, "avg"), InvariantViolation, "^kind: ",
    ),
    "supports-negative-budget": (
        lambda: supports_retraction(U, budget=-1), InvariantViolation, "^budget: ",
    ),
    "supports-nan-tol": (lambda: supports_retraction(U, tol=NAN), InvariantViolation, "^tol: "),
    "extend-open-nan-tol": (
        lambda: extend_open_set(U, {"p"}, tol=NAN), InvariantViolation, "^tol: ",
    ),
    "open-sets-nan-tol": (
        lambda: retraction_from_open_sets(U, tol=NAN), InvariantViolation, "^tol: ",
    ),
    "open-sets-negative-tol": (
        lambda: retraction_from_open_sets(U, tol=-1), InvariantViolation, "^tol: ",
    ),
    "algebra-nan-tol": (
        lambda: check_open_extension_algebra(U, tol=NAN), InvariantViolation, "^tol: ",
    ),
    "connectivity-nan-tol": (
        lambda: connectivity_analysis(U, tol=NAN), InvariantViolation, "^tol: ",
    ),
    "theorem-negative-sample": (
        lambda: verify_semicontinuity_theorem(R, E, "max", sample=-1),
        InvariantViolation, "^sample: ",
    ),
    "theorem-negative-seed": (
        lambda: verify_semicontinuity_theorem(R, E, "max", seed=-1),
        InvariantViolation, "^seed: ",
    ),
    "theorem-nan-tol": (
        lambda: verify_semicontinuity_theorem(R, E, "max", tol=NAN),
        InvariantViolation, "^tol: ",
    ),
    # subset masks
    "subset-min-empty": (lambda: subset_min(F, 0), EmptySet, "nonempty"),
    "subset-min-past-space": (lambda: subset_min(F, 0b100), InvariantViolation, "^member: "),
    "subset-max-empty": (lambda: subset_max(F, 0), EmptySet, "nonempty"),
    "subset-max-past-space": (lambda: subset_max(F, 0b100), InvariantViolation, "^member: "),
    "support-functional-past-space": (
        lambda: SupportFunctional(X, "min", 0b100), InvariantViolation, "^member: ",
    ),
    # families of inputs: rows of one finite real per point, at least one
    "family-rows-too-narrow": (
        _on_family([(1, 0), (0, 1), (0, 0)]), InvariantViolation, r"^family: .* 3 values",
    ),
    "family-empty": (_on_family([]), InvariantViolation, "^family: must hold at least one"),
    "family-nan": (_on_family([(NAN, 0, 0)]), InvariantViolation, "^family: values must be finite"),
    "family-inf": (
        _on_family([(0, float("inf"), 0)], "weakly_additive"),
        InvariantViolation, "^family: values must be finite",
    ),
    "family-ragged": (_on_family([(1, 0, 0), (0, 1)]), InvariantViolation, "^family: "),
    "family-non-numeric": (_on_family([("a", 0, 0)]), InvariantViolation, "^family: "),
    "family-width-does-not-divide": (
        lambda: check_axioms(MIN_AB, trials=0, family=[(1, 0, 0, 1)]),
        InvariantViolation, r"^family: .* 3 values",
    ),
    # a bare string is a sequence of its characters, none of them an axiom
    "axioms-bare-string": (
        lambda: check_axioms(MIN_AB, "normed"), InvariantViolation, "^axioms: .*'normed'",
    ),
    # a space needs at least one point
    "discrete-no-points": (lambda: discrete([]), EmptySet, "at least one point"),
    "finite-space-no-points": (lambda: FiniteTopSpace((), ()), EmptySet, "at least one point"),
    "line-metric-no-points": (lambda: line_metric({}), EmptySet, "at least one point"),
    # weights, tables and metrics: every number finite (NaN included), the
    # two values of a table distinct, also when read from an instance file
    "density-nan-weight": (
        lambda: density(X, {"a": 0, "b": NAN}), InvariantViolation, r"^lambda: .*\[-inf, 0\]",
    ),
    "density-leading-nan-weight": (
        lambda: density(X, {"a": NAN, "b": 0}), InvariantViolation, r"^lambda: .*\[-inf, 0\]",
    ),
    "table-lo-equals-hi": (
        lambda: TableFunctional(X, 1.0, 1.0, (0.0, 1.0, 1.0, 1.0)), InvariantViolation, "^table.range: ",
    ),
    "table-lo-equals-hi-from-file": (
        lambda: load_instance({
            "space": {"min_nbhd": {"a": ["a"]}}, "kind": "table", "lo": 2, "hi": 2,
            "table": {"": 0, "a": 1},
        }),
        InvariantViolation, "^table.range: ",
    ),
    "table-infinite-hi": (
        lambda: TableFunctional(X, 0.0, float("inf"), (0.0, 1.0, 1.0, 1.0)),
        InvariantViolation, "^table.range: ",
    ),
    "table-nan-lo": (
        lambda: TableFunctional(X, NAN, 1.0, (0.0, 1.0, 1.0, 1.0)), InvariantViolation, "^table.range: ",
    ),
    # every entry of a table a finite real, as when read from a file
    "table-nan-entry": (
        lambda: TableFunctional(X, 0.0, 1.0, (0.0, NAN, 1.0, 1.0)), InvariantViolation, "^table.values: ",
    ),
    "table-infinite-entry": (
        lambda: TableFunctional(X, 0.0, 1.0, (0.0, 1.0, float("inf"), 1.0)),
        InvariantViolation, "^table.values: ",
    ),
    "table-string-entry": (
        lambda: TableFunctional(X, 0.0, 1.0, (0.0, "x", 1.0, 1.0)), InvariantViolation, "^table.values: ",
    ),
    "subset-roundtrip-unknown-kind": (
        lambda: subset_roundtrip_failure(MU, "avg", 0b11), InvariantViolation, "^kind: ",
    ),
    "metric-infinite-distance": (
        lambda: MetricSpace(("a", "b"), [[0, float("inf")], [float("inf"), 0]]),
        InvariantViolation, "^dist.finite: ",
    ),
    "metric-infinite-distance-from-file": (
        lambda: load_instance(json.loads('{"points": ["a", "b"], "dist": [[0, Infinity], [Infinity, 0]]}')),
        InvariantViolation, "^dist.finite: ",
    ),
    "metric-ragged-dist": (
        lambda: MetricSpace(("a", "b"), [[0, 1], [1]]), InvariantViolation, "^dist: ",
    ),
    "line-metric-infinite-coordinate": (
        lambda: line_metric({"a": 0, "b": float("inf")}), InvariantViolation, "^coords: ",
    ),
    "line-metric-nan-coordinate": (
        lambda: line_metric({"a": NAN, "b": 0}), InvariantViolation, "^coords: ",
    ),
    # a coordinate is a real number, not a string or a sequence
    "line-metric-string-coordinate": (
        lambda: line_metric({"a": "x", "b": 0}), InvariantViolation, "^coords: ",
    ),
    "line-metric-sequence-coordinate": (
        lambda: line_metric({"a": [1]}), InvariantViolation, "^coords: ",
    ),
    # refused as the distance matrix would be, with no overflow warning
    "line-metric-overflowing-spread": (
        lambda: line_metric({"a": -1e308, "b": 1e308}), InvariantViolation, "^dist.finite: ",
    ),
    "line-metric-repeated-coordinate": (
        lambda: line_metric({"a": 0.0, "b": -0.0}), InvariantViolation, "^dist.identity: ",
    ),
    # a value math.isfinite cannot read is refused, not a bare TypeError
    "real-function-string-value": (
        lambda: RealFunction(X, ("a", 1.0)), InvariantViolation, "^values: ",
    ),
    "real-function-none-value": (
        lambda: RealFunction(X, (1.0, None)), InvariantViolation, "^values: ",
    ),
    "two-valued-negative-n": (
        lambda: two_valued_tuples(-1), InvariantViolation, "^n: must be an integer >= 0",
    ),
    "two-valued-fractional-n": (
        lambda: two_valued_tuples(1.5), InvariantViolation, "^n: must be an integer >= 0",
    ),
    "functional-json-metric-space": (
        lambda: functional_to_json(SupportFunctional(line_metric({"a": 0, "b": 1}), "min", 1)),
        ParseError, "has no file form",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_calls_raise_one_line_idemx_errors(case):
    call, error, message = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning is no answer either
        with pytest.raises(error, match=message) as info:
            call()
    assert isinstance(info.value, IdemxError)
    assert "\n" not in str(info.value)


def test_the_boundary_keeps_the_valid_calls():
    # a well-formed family shows that min over {a, b} does not preserve max
    assert not check_axiom(MIN_AB, "preserves_max", trials=0, family=[(1, 0, 0), (0, 1, 0)]).passed
    assert check_axiom(MIN_AB, "preserves_min", trials=0, family=np.eye(3)).passed
    assert infsup_reconstruct(MU, F, family=SubsetFamily(X, (0b01, 0b10))) == MU(F) == 1.0
    assert density(X, {"a": 0, "b": None}).lam == (0.0, float("-inf"))
    assert functional_topology(X, "max", "below") == functional_topology(X, "min", "above")
    with pytest.raises(AxiomPrecheckFailed):
        check_open_extension_algebra(build_extender(R, E, "max"), "min_lsc")
    (implication,) = forward_implications(U, True, False, np.eye(2))
    assert implication.passed
    assert (subset_min(F, 0b11), subset_max(F, 0b11)) == (1.0, 2.0)
    assert extend_open_set(U, {"p"}, tol=0) == {"p"}
    assert retraction_from_open_sets(U, tol=0) == R
    assert essential_family(_Unhashable(X)) == essential_family(MU)

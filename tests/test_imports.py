"""The package imports lazily: a caller loads only the layers it touches.

Each check runs in a fresh interpreter, since the test session itself has
loaded every layer already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every name the package exported when it still imported eagerly.
EXPORTS = {
    "errors": (
        "AxiomPrecheckFailed", "BudgetExhaustedInconclusive", "ClassificationFailed",
        "EmptySet", "IdemxError", "InvariantViolation", "MembershipViolation", "ModeArity",
        "NotARetraction", "NotNormalized", "ParseError", "PreorderViolation",
        "SpaceMismatch", "TooLarge", "UnknownAxiom", "UnknownSuite",
    ),
    "spaces": (
        "FiniteTopSpace", "MetricSpace", "SubspaceEmbedding", "closure", "discrete", "embed",
        "from_minimal_basis", "is_connected", "is_open", "line_metric", "sierpinski",
    ),
    "functionals": (
        "AXIOMS", "AxiomReport", "AxiomWitness", "Classification", "DualFunctional",
        "Functional", "IdempotentDensity", "LambdaFunctional", "MeanFunctional",
        "RealFunction", "SubsetFamily", "SupportFunctional", "TableFunctional",
        "check_axiom", "check_axioms", "classify", "constant", "density", "dirac", "dual",
        "essential_family", "from_mapping", "indicator", "infsup_reconstruct",
        "is_essential", "support", "support_functional",
    ),
    "hyperspace": (
        "HyperPoint", "RoundtripReport", "VietorisNbhd", "enumerate_hyperspace",
        "functional_topology", "hausdorff_distance", "hyperspace_roundtrip",
        "lipschitz_constant", "subset_max", "subset_min", "subset_roundtrip_failure",
        "vietoris_contains", "vietoris_topology",
    ),
    "setmaps": (
        "SetValuedMap", "fixing_images", "greatest_retraction", "identity_map",
        "is_connected_valued", "is_continuous", "is_lsc", "is_retraction", "is_usc",
        "search_retraction", "setmap",
    ),
    "extenders": (
        "AlgebraReport", "ConnectivityReport", "Extender", "FromRetraction",
        "FunctionClassReport", "SemicontinuityTheoremReport", "build_extender",
        "check_open_extension_algebra", "connectivity_analysis", "extend_open_set",
        "forward_implications", "function_class", "identity_extender", "mu_at",
        "retraction_from_open_sets", "supports_retraction", "verify_semicontinuity_theorem",
    ),
}

NUMPY_LAYERS = (
    "numpy", "idemx.functionals", "idemx.hyperspace", "idemx.extenders",
    "idemx.instances", "idemx.campaign", "idemx.cli",
)


def _run(code: str):
    """Run ``code`` in a fresh interpreter; its last output line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_retraction_layer_runs_without_numpy():
    out = _run("""
        import json, sys
        import idemx.setmaps
        from idemx.setmaps import greatest_retraction, is_usc, search_retraction
        from idemx.spaces import embed, from_minimal_basis

        E = embed(from_minimal_basis({"p": ["p"], "q": ["q"], "w": ["w", "p"]}), ["p", "q"])
        r = search_retraction(E, "usc")
        verdicts = [r.images, greatest_retraction(E, "usc").images, is_usc(r)]
        print(json.dumps([verdicts, sorted(sys.modules)]))
    """)
    verdicts, modules = out
    assert verdicts == [[1, 2, 1], [1, 2, 3], True]
    assert [m for m in modules if m.startswith("idemx")] == [
        "idemx", "idemx.errors", "idemx.setmaps", "idemx.spaces",
    ]
    assert not set(NUMPY_LAYERS) & set(modules)


def test_a_bare_import_loads_no_layer():
    modules = _run("import json, sys, idemx; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in modules if m.startswith("idemx")] == ["idemx"]
    assert not set(NUMPY_LAYERS) & set(modules)


def test_every_exported_name_resolves_to_its_module():
    missing = _run(f"""
        import importlib, json
        import idemx

        exports = {EXPORTS!r}
        names = [name for names in exports.values() for name in names]
        listed = set(dir(idemx)) & set(idemx.__all__)
        bad = [name for name in names if name not in listed]
        bad += [
            name for module, names in exports.items() for name in names
            if getattr(idemx, name) is not getattr(importlib.import_module("idemx." + module), name)
        ]
        try:
            idemx.no_such_name
        except AttributeError as exc:
            bad.append(str(exc))
        from idemx import FiniteTopSpace, check_axiom, search_retraction
        print(json.dumps(bad))
    """)
    assert missing == ["module 'idemx' has no attribute 'no_such_name'"]

"""idemx: finite-model checks for min/max-preserving functional extenders.

The library builds finite topological spaces, functionals on their function
spaces, hyperspaces of nonempty subsets, set-valued maps with semicontinuity
predicates, and extenders between function spaces, and mechanically verifies
the identities tying them together at desk scale.

The package imports lazily: ``idemx.X`` and ``from idemx import X`` load the
module that defines X on first use, so a caller pays only for the layers it
touches.  ``errors``, ``spaces`` and ``setmaps`` need no numpy (a
``MetricSpace`` loads it when built); ``functionals``, ``hyperspace``,
``extenders``, ``instances``, ``campaign`` and ``cli`` load it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AxiomPrecheckFailed",
        "BudgetExhaustedInconclusive",
        "ClassificationFailed",
        "EmptySet",
        "IdemxError",
        "InvariantViolation",
        "MembershipViolation",
        "ModeArity",
        "NotARetraction",
        "NotNormalized",
        "ParseError",
        "PreorderViolation",
        "SpaceMismatch",
        "TooLarge",
        "UnknownAxiom",
        "UnknownSuite",
    ),
    "spaces": (
        "FiniteTopSpace",
        "MetricSpace",
        "SubspaceEmbedding",
        "closure",
        "discrete",
        "embed",
        "from_minimal_basis",
        "is_connected",
        "is_open",
        "line_metric",
        "sierpinski",
    ),
    "functionals": (
        "AXIOMS",
        "AxiomReport",
        "AxiomWitness",
        "Classification",
        "DualFunctional",
        "Functional",
        "IdempotentDensity",
        "LambdaFunctional",
        "MeanFunctional",
        "RealFunction",
        "SubsetFamily",
        "SupportFunctional",
        "TableFunctional",
        "check_axiom",
        "check_axioms",
        "classify",
        "constant",
        "density",
        "dirac",
        "dual",
        "essential_family",
        "from_mapping",
        "indicator",
        "infsup_reconstruct",
        "is_essential",
        "support",
        "support_functional",
    ),
    "hyperspace": (
        "HyperPoint",
        "RoundtripReport",
        "VietorisNbhd",
        "enumerate_hyperspace",
        "functional_topology",
        "hausdorff_distance",
        "hyperspace_roundtrip",
        "lipschitz_constant",
        "subset_max",
        "subset_min",
        "subset_roundtrip_failure",
        "vietoris_contains",
        "vietoris_topology",
    ),
    "setmaps": (
        "SetValuedMap",
        "fixing_images",
        "greatest_retraction",
        "identity_map",
        "is_connected_valued",
        "is_continuous",
        "is_lsc",
        "is_retraction",
        "is_usc",
        "search_retraction",
        "setmap",
    ),
    "extenders": (
        "AlgebraReport",
        "ConnectivityReport",
        "Extender",
        "FromRetraction",
        "FunctionClassReport",
        "SemicontinuityTheoremReport",
        "build_extender",
        "check_open_extension_algebra",
        "connectivity_analysis",
        "extend_open_set",
        "forward_implications",
        "function_class",
        "identity_extender",
        "mu_at",
        "retraction_from_open_sets",
        "supports_retraction",
        "verify_semicontinuity_theorem",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Per-layer spans and counters, recorded by wrapping idemx from outside.

Every public function of each layer module is replaced, in every idemx
module that binds it (``from ... import`` sites included), by a wrapper that
records a span: calls, inclusive time, and self time (the span minus the
time of the spans it caused).  Spans are aggregated by name as they close,
so memory stays flat however many calls a workload makes.

A few names need more than a plain wrapper:

* ``Functional.__call__`` of every functional class counts evaluations
  (``functionals.evals``) without a span, since evaluation is the layer's
  own work.
* ``FiniteTopSpace.opens`` is a cached property; its computation is a span.
* ``Extender.apply`` is a per-instance closure, so ``build_extender``'s
  result gets its ``apply`` wrapped.
* A semicontinuity predicate called directly by ``search_retraction`` is a
  visited candidate (``setmaps.candidates``).
* ``campaign.run_suite`` spans are named by suite, and each suite's case
  generator is wrapped as ``campaign.gen_cases``.
* The ``instances`` loaders and serializers aggregate into
  ``instances.load`` and ``instances.to_json``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("spaces", "functionals", "hyperspace", "setmaps", "extenders",
          "instances", "campaign", "cli")

SUITES = (
    "support_roundtrip", "reconstruct_identity", "essential_support_match",
    "hyperspace_bijection", "hyperspace_monotone",
    "continuous_retraction_roundtrip", "usc_forward", "lsc_forward",
    "open_set_recovery", "connectivity_shadow", "axioms_fuzz",
    "hausdorff_lipschitz", "retraction_search",
)

_SPANNED = {
    "functionals": ("check_axiom", "classify", "support", "essential_family",
                    "infsup_reconstruct"),
    "setmaps": ("search_retraction", "is_usc", "is_lsc"),
    "spaces": ("opens",),
    "extenders": ("build_extender", "apply", "supports_retraction",
                  "retraction_from_open_sets", "function_class",
                  "connectivity_analysis", "check_open_extension_algebra"),
    "hyperspace": ("hyperspace_roundtrip", "functional_topology",
                   "hausdorff_distance"),
}

_PREDICATES = ("setmaps.is_usc", "setmaps.is_lsc", "setmaps.is_continuous")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {"functionals.evals": "count"}
    for layer, names in _SPANNED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = "count"
            out[f"{layer}.{name}.self_s"] = "s"
        if layer == "setmaps":
            out["setmaps.candidates"] = "count"
            out["setmaps.candidates_per_search"] = "count"
            out["setmaps.too_large"] = "count"
    for suite in SUITES:
        out[f"campaign.suite.{suite}.s"] = "s"
    out["campaign.gen_cases.s"] = "s"
    for group in ("load", "to_json"):
        out[f"instances.{group}.calls"] = "count"
        out[f"instances.{group}.s"] = "s"
    out["cli.main.self_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, time covered by child spans]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def span(self, name, fn):
        """Wrap ``fn``; ``name`` is a string or a function of the call args."""
        stack, active = self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            if span in _PREDICATES and stack and stack[-1][0] == "setmaps.search_retraction":
                self.counts["setmaps.candidates"] += 1
            frame = [span, 0.0]
            stack.append(frame)
            active[span] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(span, type(exc).__name__)] += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                active[span] -= 1
                self.calls[span] += 1
                if not active[span]:  # count recursion once
                    self.inclusive[span] += dur
                self.self_s[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def install(self) -> None:
        """Wrap idemx in this process.  Call before the workload runs."""
        layers = {layer: importlib.import_module(f"idemx.{layer}") for layer in LAYERS}
        modules = [m for k, m in sys.modules.items() if k == "idemx" or k.startswith("idemx.")]
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self.span(self._span_name(layer, attr), fn)
                if (layer, attr) == ("extenders", "build_extender"):
                    wrapped = self._wrap_apply(wrapped)
                _rebind(modules, fn, wrapped)

        self._count_evals(layers["functionals"].Functional)

        space = layers["spaces"].FiniteTopSpace
        prop = functools.cached_property(
            self.span("spaces.opens", space.__dict__["opens"].func)
        )
        prop.__set_name__(space, "opens")
        space.opens = prop

        catalogue = layers["campaign"].CATALOGUE
        for key, suite in list(catalogue.items()):
            catalogue[key] = dataclasses.replace(
                suite, gen_cases=self.span("campaign.gen_cases", suite.gen_cases)
            )

    @staticmethod
    def _span_name(layer: str, attr: str):
        if layer == "instances":
            return "instances.to_json" if attr.endswith("_to_json") else "instances.load"
        if (layer, attr) == ("campaign", "run_suite"):
            return lambda name, *a, **k: f"campaign.suite.{name}"
        return f"{layer}.{attr}"

    def _wrap_apply(self, build):
        def build_traced(*args, **kwargs):
            u = build(*args, **kwargs)
            object.__setattr__(u, "apply", self.span("extenders.apply", u.apply))
            return u

        return functools.wraps(build)(build_traced)

    def _count_evals(self, base) -> None:
        counts = self.counts
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            call = cls.__dict__.get("__call__")
            if call is None:
                continue

            def counted(mu, f, _call=call):
                counts["functionals.evals"] += 1
                return _call(mu, f)

            cls.__call__ = functools.wraps(call)(counted)

    def metrics(self) -> dict[str, float]:
        """Per-layer values (without trace.overhead_s)."""
        out = {}
        for name, unit in metric_units().items():
            key, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[key]
            elif field == "self_s":
                out[name] = self.self_s[key]
            elif field == "s":
                out[name] = self.inclusive[key]
        out["functionals.evals"] = self.counts["functionals.evals"]
        searches = self.calls["setmaps.search_retraction"]
        out["setmaps.candidates"] = self.counts["setmaps.candidates"]
        out["setmaps.candidates_per_search"] = (
            self.counts["setmaps.candidates"] / searches if searches else 0.0
        )
        out["setmaps.too_large"] = self.errors[("setmaps.search_retraction", "TooLarge")]
        return out


def counters(metrics: dict[str, float]) -> dict[str, float]:
    """The machine-independent part: call counts and work counters."""
    return {
        k: v for k, v in metrics.items()
        if k.endswith(".calls") or k in (
            "functionals.evals", "setmaps.candidates", "setmaps.too_large"
        )
    }


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)

"""Span tracer that wraps tklab's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every tklab namespace that imported it, plus a few methods and the check
registry, with a wrapper that records a span: name, start, end and parent.
Spans stay in memory; ``summary`` turns them into per-name call counts,
inclusive and self times, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import tklab

#: the layers, named after the modules; config and errors hold no work
MODULES = ("cli_reports", "operators", "subspaces", "near_invariance",
           "representation", "model_spaces", "symbols", "hardy_core")

#: functions reported under one shared span name
ALIASES = {
    "near_invariance.verify_theorem_phi_zero": "near_invariance.verify",
    "near_invariance.verify_theorem_inner_symbol": "near_invariance.verify",
    "near_invariance.verify_theorem_invertible_factors": "near_invariance.verify",
    "near_invariance.verify_theorem_theta_star": "near_invariance.verify",
    "representation.check_coordinate_space_invariance": "representation.invariance",
    "representation.rank_one_complement_analysis": "representation.rank_one",
    "representation.rank_one_inner_kernel": "representation.rank_one",
    "representation.rank_one_invertible_kernel": "representation.rank_one",
    "representation.rank_one_theta_star_analysis": "representation.rank_one",
}

#: (module, class, method, span name)
METHODS = (
    ("hardy_core", "CoeffVec", "__init__", "hardy_core.CoeffVec"),
    ("symbols", "LaurentMatrixSymbol", "act", "symbols.act"),
    ("operators", "PerturbedToeplitz", "action_matrix", "operators.action_matrix"),
    ("subspaces", "Subspace", "__init__", "subspaces.Subspace"),
    ("subspaces", "Subspace", "perp", "subspaces.perp"),
)

def _module(name):
    return importlib.import_module(f"tklab.{name}")


class Tracer:
    """Records spans around tklab calls; one instance per traced run."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the patches in place."""
        self.spans.clear()
        self.counters.clear()

    # -- patching ----------------------------------------------------------

    def _patch(self, namespace, attr, new) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: _module(name) for name in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    span = f"{mod_name}.{attr}"
                    wrappers[id(obj)] = self._wrap(ALIASES.get(span, span), obj)
        namespaces = list(modules.values()) + [tklab]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        registry = modules["cli_reports"].CHECKS
        for check in list(registry):
            self._patch_item(registry, check,
                             self._wrap(f"cli_reports.check.{check}", registry[check]))
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, method, self._wrap(span, cls.__dict__[method]))

    def _patch_item(self, mapping, key, new) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)

    def patched(self) -> list:
        """(namespace, attribute, original) for every live patch."""
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start  # no traced function recurses
            row["self_s"] += end - start - child[i]
        return out

    def covered(self, names) -> float:
        """Seconds during which at least one span with one of ``names`` is open."""
        spans = sorted((s[1], s[2]) for s in self.spans if s[0] in names)
        total, cur_start, cur_end = 0.0, None, None
        for start, end in spans:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def longest(self, names) -> float:
        """Duration of the longest single span with one of ``names``."""
        return max((s[2] - s[1] for s in self.spans if s[0] in names), default=0.0)


# -- counters read off arguments and results ------------------------------


def _count_action_cells(counters, args, result):
    counters["operators.action_matrix.cells"] += result.size


def _count_nullspace(counters, args, result):
    counters["subspaces.nullspace.cells"] += args[0].size
    _sigma_ratio(counters, args, result)


def _sigma_ratio(counters, args, result):
    ratio = result.sigma_gap.ratio
    if ratio != float("inf"):
        key = "subspaces.sigma_ratio_max"
        counters[key] = max(counters[key], ratio)


def _count_kernel(counters, args, result):
    counters["near_invariance.kernel_dim_sum"] += result.subspace.dim


def _count_peel(counters, args, result):
    series = result.K0 if result.K0 is not None else (result.k[0] if result.k else None)
    counters["representation.peel_steps"] += series.N if series is not None else 0


_OBSERVERS = {
    "operators.action_matrix": _count_action_cells,
    "subspaces.nullspace": _count_nullspace,
    "subspaces.span_of": _sigma_ratio,
    "subspaces.zero_at_origin_slice": _sigma_ratio,
    "near_invariance.kernel_of": _count_kernel,
    "representation.extract_coordinates": _count_peel,
}

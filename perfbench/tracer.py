"""Span tracer for the benchmark's traced run.

The tracer wraps named public functions of the bellcert modules from
outside; nothing in the package is instrumented.  Every bellcert module that
holds a reference to a listed function (its own module, the modules that
imported the name, the package namespace) gets the wrapper in its place, so
calls are seen whatever path they take.  A class is traced through its
``__init__``.  A name the package no longer defines is listed in
``missing`` and reports zero calls.

Spans stay in memory as ``[name, start, end, parent, op]`` lists, ``parent``
being the index of the enclosing span (-1 for none), and are written out by
the caller when the run ends.  Helpers left untraced (``dagger``,
``max_abs``, private functions) count toward the layer of their caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer (bellcert module) -> traced public names.
TRACED = {
    "cli": ("main",),
    "serialize": ("load_strategy", "save_strategy", "record_to_dict", "report_to_dict"),
    "reference": (
        "reference_strategy",
        "target_observables",
        "entangling_unitary",
        "ghz_like_vector",
        "pre_interaction_basis",
        "pre_interaction_vector",
    ),
    "scenario": (
        "run_scenario",
        "conditional_post_interaction_state",
        "canonical_reordering",
        "scramble_strategy",
    ),
    "quantum": ("QuantumState", "born_probability", "expectation", "post_measurement_state", "evolve"),
    "bell": ("build_bell_operator", "quantum_value", "extra_statistics_check"),
    "certify": (
        "run_full_certification",
        "support_isometry",
        "check_projectivity",
        "extract_local_frame",
        "certify_source_state",
        "certify_interaction",
    ),
    "linalg": (
        "kron",
        "herm_eig",
        "sign_operator",
        "partial_trace",
        "operator_block",
        "factorize_tensor_product",
    ),
    "seesaw": ("seesaw_restarts", "seesaw_maximize", "optimal_state_update", "optimal_observable_update"),
}

# Traced name -> (counter, attribute of its result summed into the counter).
RESULT_COUNTERS = {"seesaw.seesaw_maximize": ("seesaw.iterations", "iterations")}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op = -1  # id of the op being run; the caller sets it
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items()) if name == "bellcert" or name.startswith("bellcert.")]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"bellcert.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                elif isinstance(original, type):
                    self._patch(original, "__init__", self._wrap(f"{layer}.{name}", original.__init__))
                else:
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                self.counters[counter[0]] += getattr(result, counter[1], 0)
            return result

        return traced


def summarize(spans) -> tuple[dict, dict, dict]:
    """Calls and inclusive seconds per traced name, and self seconds per
    layer: a span's duration minus the durations of its child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_s[name.split(".", 1)[0]] += end - start - child[i]
    return calls, inclusive, self_s

"""Spans around szverify's layer functions, installed from outside the package.

``install`` wraps each function in ``TARGETS`` at every module attribute of
the package that is bound to it, so both ``wilson.is_suzuki`` and the copy
that ``groups`` imports with ``from .wilson import is_suzuki`` record spans.
Nothing finer than these functions is wrapped.  Spans stay in memory as
``[name, start, end, parent, note]`` lists until the caller writes them out.

``layer_metrics`` turns spans into the per-layer figures: self time (a
span's duration minus its child spans) and call counts per function, plus
the work counts kept by ``_NOTES``.  This module imports nothing from
szverify until ``install`` runs.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

TARGETS = (
    ("context", "make_context"),
    ("kernels", "field_tables"),
    ("kernels", "row_action_table"),
    ("kernels", "suzuki_mask"),
    ("kernels", "fixed_point_mask"),
    ("kernels", "involution_mask"),
    ("wilson", "is_suzuki"),
    ("wilson", "is_suzuki_bruteforce"),
    ("groups", "build_suzuki"),
    ("groups", "closure"),
    ("groups", "element_order"),
    ("groups", "derived_series"),
    ("groups", "conjugation_orbit"),
    ("fixed_set", "fixed_set_result"),
    ("fixed_set", "equation_census"),
    ("triples", "search_rank4"),
    ("triples", "find_rank4_witnesses"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)

# What each span keeps of its call's result, for the work counts.
_NOTES = {
    "kernels.suzuki_mask": lambda out: (len(out), int(out.sum())),
    "wilson.is_suzuki": bool,
    "groups.closure": lambda out: out.order,
    "triples.find_rank4_witnesses": len,
}


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(out)
            return out
        return traced


def install(tracer: Tracer) -> int:
    """Wrap every target at each of its bindings; return the binding count."""
    importlib.import_module("szverify.cli")
    modules = [m for n, m in list(sys.modules.items())
               if n == "szverify" or n.startswith("szverify.")]
    patched = 0
    for mod_name, fn_name in TARGETS:
        orig = getattr(sys.modules[f"szverify.{mod_name}"], fn_name)
        traced = tracer.wrap(f"{mod_name}.{fn_name}", orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, traced)
                    patched += 1
    return patched


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer figures from spans, as {name: (value, unit)}.

    Every name is present whether or not the layer ran, so that one
    schema covers every workload.
    """
    self_s = {name: 0.0 for name in SPAN_NAMES}
    calls = {name: 0 for name in SPAN_NAMES}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child_s[i]
        calls[name] += 1

    mask_rows = mask_accepted = 0
    member_true = 0
    closure_elements = 0
    witness_closures = witnesses = 0
    for name, _, _, parent, note in spans:
        if note is None:  # the call raised, or its result is not counted
            continue
        if name == "kernels.suzuki_mask":
            mask_rows += note[0]
            mask_accepted += note[1]
        elif name == "wilson.is_suzuki":
            member_true += note
        elif name == "groups.closure":
            closure_elements += note
            if parent >= 0 and spans[parent][0] == "triples.find_rank4_witnesses":
                witness_closures += 1
        elif name == "triples.find_rank4_witnesses":
            witnesses += note

    out = {f"{name}_s": (self_s[name], "s") for name in SPAN_NAMES}
    for name in ("kernels.suzuki_mask", "wilson.is_suzuki",
                 "wilson.is_suzuki_bruteforce", "groups.closure",
                 "kernels.row_action_table", "groups.element_order"):
        out[f"{name}_calls"] = (calls[name], "count")
    out["kernels.suzuki_mask_rows"] = (mask_rows, "count")
    out["kernels.suzuki_mask_accept_ratio"] = (
        _ratio(mask_accepted, mask_rows), "ratio")
    out["wilson.is_suzuki_accept_ratio"] = (
        _ratio(member_true, calls["wilson.is_suzuki"]), "ratio")
    out["groups.closure_elements"] = (closure_elements, "count")
    out["triples.generation_yield"] = (
        _ratio(witnesses, witness_closures), "ratio")
    return out

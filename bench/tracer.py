"""Spans around the calls into each ``lineagekg`` layer, recorded from outside.

``install`` replaces module attributes with timing wrappers, so a call that
looks the name up at run time (``cli`` calling ``paths.build_training_set``,
``convert`` calling its imported ``match_pattern``, ``siamese.train`` calling
``forward``) opens a span.  A span records its name, start, end, parent span
and the (task, profile) cell it belongs to, plus counts taken from the call's
arguments and result.  Spans stay in memory until ``dump``.

Layers are the package modules.  A few per-element helpers are left
unwrapped (``UNWRAPPED``): they are called hundreds of thousands of times for
microseconds each, so a wrapper would cost more than the work it measures;
their time counts as self time of the layer that calls them.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("reldb", "scenario", "ontology", "kgstore", "convert", "paths",
          "siamese", "metrics", "cli")

UNWRAPPED = {
    "kgstore.is_var", "kgstore.canonical_lexical", "kgstore.render_decimal",
    "kgstore.make_literal", "reldb.canonical_cell", "convert.sanitize",
    "convert.local_name", "scenario.task_by_name",
}


def _layer_of(module_name: str) -> Optional[str]:
    package, _, layer = module_name.partition(".")
    return layer if package == "lineagekg" and layer in LAYERS else None


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _nopath_counts(args, kwargs, result) -> dict:
    from lineagekg.paths import NOPATH

    return {"useful": len({p for p in result if p[0] != NOPATH}),
            "slots": len(result)}


def _train_counts(args, kwargs, result) -> dict:
    params, samples = args[0], args[1]
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or params.cfg
    return {"sample_epochs": len(samples) * cfg.epochs,
            "final_loss": result.epoch_losses[-1]}


# counts recorded per span, from (args, kwargs, result)
COUNTERS: dict[str, Callable] = {
    "siamese.train": _train_counts,
    "siamese.predict": lambda a, k, r: {"samples": len(a[1])},
    "paths.PathSampler.sample_paths": _nopath_counts,
    "convert.populate_kg": lambda a, k, r: {"triples": r["triples"]},
    "convert.resolve_lineage_detailed":
        lambda a, k, r: {"tuples": _sized(a[1]), "row_pairs": len(r.row_pairs)},
    "convert._match_rows": lambda a, k, r: {"matched": int(bool(r))},
    "kgstore.serialize_ntriples": lambda a, k, r: {"triples": len(a[0])},
    "kgstore.parse_ntriples": lambda a, k, r: {"triples": len(r)},
    "scenario.generate_scenario": lambda a, k, r: {"tuples": len(r.all_tuples())},
}


def _stage_cell(args, kwargs) -> str:
    """Cell id of a ``Pipeline.stage_*`` call: task[/profile], or the run."""
    return "/".join(str(a) for a in args[1:3])


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, cell, counts]
        self.stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, Callable] = {}

    # -- recording ----------------------------------------------------------------

    def _open(self, name: str, cell: Optional[str]) -> list:
        parent = self.stack[-1] if self.stack else -1
        if cell is None:
            cell = self.spans[parent][4] if parent >= 0 else ""
        span = [name, 0.0, 0.0, parent, cell, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, cell_of: Optional[Callable] = None):
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the span runs from the first item to exhaustion; the pipeline
            # consumes these generators at once with list()
            def gen_wrapper(*args, **kwargs):
                span = tracer._open(name, cell_of(args, kwargs) if cell_of else None)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(span)
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                span = tracer._open(name, cell_of(args, kwargs) if cell_of else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if counter is not None:
                    try:
                        span[5] = counter(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - a changed signature
                        span[5] = {"counter_failed": 1}  # must not fail the run
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ---------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public function each layer module holds, including the
        ones it imported from another layer, plus the stage methods of
        ``cli.Pipeline``, ``PathSampler.sample_paths`` and ``convert._match_rows``
        (whose results give the walk and tuple-match counts)."""
        import importlib

        modules = {layer: importlib.import_module(f"lineagekg.{layer}")
                   for layer in LAYERS}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                layer = _layer_of(fn.__module__)
                name = f"{layer}.{fn.__name__}"
                if layer is None or name in UNWRAPPED:
                    continue
                if id(fn) not in self._wrapped:
                    self._wrapped[id(fn)] = self.wrap(name, fn)
                self._patch(module, attr, self._wrapped[id(fn)])
        # each hook is skipped if a later version of the program drops it
        for owner, attr, name in (
                (modules["convert"], "_match_rows", "convert._match_rows"),
                (getattr(modules["paths"], "PathSampler", None), "sample_paths",
                 "paths.PathSampler.sample_paths")):
            if callable(getattr(owner, attr, None)):
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        pipeline = getattr(modules["cli"], "Pipeline", object)
        for attr, fn in list(vars(pipeline).items()):
            if attr.startswith("stage_"):
                self._patch(pipeline, attr,
                            self.wrap(f"cli.Pipeline.{attr}", fn, cell_of=_stage_cell))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON: names and cells are interned to indices."""
        names: dict[str, int] = {}
        cells: dict[str, int] = {}
        rows = []
        for name, start, end, parent, cell, counts in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent,
                         cells.setdefault(cell, len(cells)), counts])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "cells": list(cells), "spans": rows}, fh)


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, cells = data["names"], data["cells"]
    return [
        {"name": names[n], "start": s, "end": e, "parent": p, "cell": cells[c],
         "counts": counts or {}}
        for n, s, e, p, c, counts in data["spans"]
    ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total seconds and summed counts; per layer: self
    seconds."""
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0})
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = by_name[span["name"]]
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
        layer_self[span["name"].split(".", 1)[0]] += own
    return {"by_name": dict(by_name), "layer_self": layer_self}

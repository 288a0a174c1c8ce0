"""Traced in-process CLI run: ``python3 trace_child.py SPANS_OUT -- CLI_ARGS...``.

Wraps the module attributes the pipeline calls through with span recorders,
calls ``topictree.cli.main(CLI_ARGS)`` once, and writes the spans, the counts
read from the wrapped functions' return values and the list of absent spans
to SPANS_OUT as JSON. Exits with the CLI's exit code. A wrapped function that
no longer exists, or that the run never calls, is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

#: (span name, module, attribute); "model.tet_init" wraps ``Tet.__init__``.
TARGETS = (
    ("ingest.parse_profile", "topictree.ingest", "parse_profile"),
    ("ingest.parse_tes", "topictree.ingest", "parse_tes"),
    ("builder.build_tet", "topictree.builder", "build_tet"),
    ("builder.candidate_parents", "topictree.builder", "candidate_parents"),
    ("builder.prune_candidates", "topictree.builder", "prune_candidates"),
    ("model.tet_init", "topictree.model", "Tet.__init__"),
    ("states.classify_all", "topictree.states", "classify_all"),
    ("layout.compute_layout", "topictree.layout", "compute_layout"),
    ("layout.compute_positions", "topictree.layout", "compute_positions"),
    ("layout.place_labels", "topictree.layout", "place_labels"),
    ("render.to_json", "topictree.render", "to_json"),
    ("render.to_svg", "topictree.render", "to_svg"),
    ("render.to_dot", "topictree.render", "to_dot"),
    ("render.tet_from_json", "topictree.render", "tet_from_json"),
)


class Tracer:
    """Records spans (name, start, end, parent) and keeps selected return values."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.results: dict[str, list] = {}

    def wrap(self, name: str, fn):
        keep = self.results.setdefault(name, [])

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            keep.append(out)
            return out

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the names of targets that do not exist."""
    importlib.import_module("topictree.cli")
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("topictree.")]
    missing = []
    for span_name, module_name, attr in TARGETS:
        owner = sys.modules.get(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append(span_name)
                continue
            setattr(cls, method, tracer.wrap(span_name, vars(cls)[method]))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(span_name)
            continue
        wrapped = tracer.wrap(span_name, original)
        for module in modules:  # rebind `from x import f` copies too
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def _overlapping_labels(layout) -> int:
    """Labels whose box overlaps another label or any node glyph with nonzero area."""
    r = layout.canvas.glyph_radius
    boxes = [(a.box.x0, a.box.y0, a.box.x1, a.box.y1, True) for a in layout.label_anchors.values()]
    boxes += [(x - r, y - r, x + r, y + r, False) for x, y in layout.positions.values()]
    boxes.sort()
    hit = [False] * len(boxes)
    for i, (x0, y0, x1, y1, _) in enumerate(boxes):
        for k in range(i + 1, len(boxes)):
            bx0, by0, bx1, by1, _ = boxes[k]
            if bx0 >= x1:
                break
            if min(x1, bx1) - max(x0, bx0) > 0 and min(y1, by1) - max(y0, by0) > 0:
                hit[i] = hit[k] = True
    return sum(1 for i, b in enumerate(boxes) if b[4] and hit[i])


def _tes_cells(results: list) -> dict:
    return {"ingest.tes_cells": sum(matrix.n * matrix.n for matrix, _ in results)}


def _candidates(results: list) -> dict:
    return {"builder.candidates": sum(len(c) for c in results)}


def _edges(results: list) -> dict:
    edges = [e for tet in results for e in tet.edges]
    roots = sum(1 for e in edges if e.is_root_edge)
    return {"builder.root_edges": roots, "builder.retained_edges": len(edges) - roots}


def _states(results: list) -> dict:
    hist = Counter()
    for tet in results:
        for emerging, evolving in tet.states.values():
            hist[emerging.value.replace("flourishing", "emerging_flourishing")] += 1
            hist[evolving.value.replace("flourishing", "evolving_flourishing")] += 1
    states = ("born", "fused", "reborn", "emerging_flourishing", "split", "dead", "evolving_flourishing")
    return {f"states.{state}": hist[state] for state in states}


def _labels(results: list) -> dict:
    return {"layout.labels_overlapping": sum(_overlapping_labels(layout) for layout in results)}


def _text_bytes(fmt: str):
    return lambda results: {f"render.{fmt}_bytes": sum(len(text.encode("utf-8")) for text in results)}


#: Span name -> count extractor over the values that span's calls returned.
COUNTERS = {
    "ingest.parse_tes": _tes_cells,
    "builder.candidate_parents": _candidates,
    "builder.build_tet": _edges,
    "states.classify_all": _states,
    "layout.compute_layout": _labels,
    **{f"render.to_{fmt}": _text_bytes(fmt) for fmt in ("json", "svg", "dot")},
}


def counts(results: dict[str, list]) -> dict[str, float]:
    """Work counts read at the layer boundaries from the wrapped functions' results.

    A return value whose shape a later version changed yields no count
    instead of failing the traced run.
    """
    out: dict[str, float] = {}
    for name, extract in COUNTERS.items():
        if values := results.get(name):
            try:
                out.update(extract(values))
            except (AttributeError, TypeError, ValueError):
                pass
    return out


def main(argv: list[str]) -> int:
    spans_out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_OUT -- CLI_ARGS...")
    tracer = Tracer()
    missing = install(tracer)
    cli = sys.modules["topictree.cli"]
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    called = {span["name"] for span in tracer.spans}
    absent = missing + [name for name, _, _ in TARGETS if name not in called and name not in missing]
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": counts(tracer.results), "absent": absent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""In-memory call spans around the public functions of survfuse's modules.

A :class:`Tracer` wraps every public module-level function of each layer
(the modules under ``src/survfuse/``) and rebinds the wrapper at every
import site: a module that did ``from .metrics import c_index`` holds its
own reference, so the name is replaced there too, not only in ``metrics``.
Each call becomes one span ``(name, start, end, parent, failed)`` kept in
memory; :meth:`Tracer.write` dumps them as JSON lines when the traced
process ends. The package itself is not modified.

The summary functions below turn a span list into per-layer figures:
``calls``, ``total_s`` (outermost spans of a name only, so recursion is not
counted twice), ``self_s`` (a span's duration minus the part of it that its
child spans cover) and ``failed`` (calls that raised).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "survfuse"
LAYERS = (
    "analysis",
    "metrics",
    "cox_linear",
    "deep_survival",
    "rsf",
    "fusion",
    "dataset",
    "artifacts",
    "pesi",
    "svg",
    "cli",
    "synthetic",
)

# span fields, in the order a span list stores them
NAME, START, END, PARENT, FAILED, ROWS = range(6)


def _predict_rows(args) -> int:
    """Rows scored by ``rsf.predict_risk(model, x)``: 1 for a single record."""
    x = args[1]
    return int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1


class Tracer:
    """Collects spans for one traced process, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        count_rows = _predict_rows if name == "rsf.predict_risk" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, False, None]
            if count_rows is not None:
                span[ROWS] = count_rows(args)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of the layers wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def write(self, path) -> None:
        """One JSON object per line; a span's ``id`` is its line index."""
        run_id = json.dumps(self.run_id)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, failed, rows) in enumerate(self.spans):
                extra = "" if rows is None else f',"rows":{rows}'
                fh.write(f'{{"id":{i},"name":"{name}","start_ns":{start},"end_ns":{end},'
                         f'"parent":{"null" if parent is None else parent},"run_id":{run_id},'
                         f'"failed":{"true" if failed else "false"}{extra}}}\n')


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the union of its direct children's intervals.

    Spans are indexed by their position, which is also their ``id``.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = []
    for i, s in enumerate(spans):
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per function name: calls, total_s, self_s, failed and rows."""
    selfs = self_times_ns(spans)
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s["name"], {"calls": 0, "total_ns": 0, "self_ns": 0,
                                           "failed": 0, "rows": 0})
        row["calls"] += 1
        row["self_ns"] += selfs[i]
        row["failed"] += int(s["failed"])
        row["rows"] += s.get("rows", 0)
        if not _has_ancestor_named(spans, i, s["name"]):
            row["total_ns"] += s["end_ns"] - s["start_ns"]
    return {
        name: {"calls": r["calls"], "total_s": r["total_ns"] / 1e9,
               "self_s": r["self_ns"] / 1e9, "failed": r["failed"], "rows": r["rows"]}
        for name, r in table.items()
    }


def merge_tables(tables) -> dict[str, dict]:
    """Sum the figures of several :func:`layer_table` results."""
    out: dict[str, dict] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
    return out


def _has_ancestor_named(spans: list[dict], i: int, name: str) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def calls_by_parent(spans: list[dict], name: str) -> dict[str, int]:
    """How many calls of ``name`` each calling function made."""
    out: dict[str, int] = {}
    for s in spans:
        if s["name"] == name:
            caller = "<root>" if s["parent"] is None else spans[s["parent"]]["name"]
            out[caller] = out.get(caller, 0) + 1
    return dict(sorted(out.items()))

"""Timing wrappers around dynlab's layers, installed from outside the program.

Each wrapper goes on the name its callers look up: a module global (on
every dynlab module that binds the same function object, since
`from .x import f` copies the binding), a class attribute, or an entry of
the experiment registry. A wrapper records one span per call (name, parent
span, start, end) in compact in-memory arrays; self time is the span's
duration minus that of its child spans, accumulated when the span closes.
Counters read the wrapped call's arguments or result. A name that no longer
exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import PresetSuite

PRESETS = PresetSuite.PRESETS

# (metric prefix, module, attribute path). Attribute paths with a dot are
# class attributes; "REGISTRY:<preset>" is an experiment registry entry.
TARGETS = (
    ("spaces.cell_index", "dynlab.spaces", "StateSpace.cell_index"),
    ("spaces.canonicalize", "dynlab.spaces", "StateSpace.canonicalize"),
    ("maps.evaluate", "dynlab.maps", "evaluate"),
    ("maps.invert", "dynlab.maps", "SmoothMap.invert"),
    ("maps.raw", "dynlab.maps", "SmoothMap.raw"),
    ("fixed_points.find_fixed_point", "dynlab.fixed_points", "find_fixed_point"),
    ("ifs.minimality_experiment", "dynlab.ifs", "minimality_experiment"),
    ("ifs.forward_orbit", "dynlab.ifs", "forward_orbit"),
    ("ifs.coarsen_cells", "dynlab.ifs", "coarsen_cells"),
    ("ifs.compute_fixed_points", "dynlab.ifs", "IFS.compute_fixed_points"),
    ("covering.verify_covering", "dynlab.covering", "verify_covering"),
    ("covering.certify_density", "dynlab.covering", "certify_density"),
    ("covering.compute_d", "dynlab.covering", "compute_d"),
    ("perturb.perturb_ifs", "dynlab.perturb", "perturb_ifs"),
    ("perturb.perturb_map", "dynlab.perturb", "perturb_map"),
    ("blender.verify_strip_intersection", "dynlab.blender", "verify_strip_intersection"),
    ("blender.verify_covering_geometric", "dynlab.blender", "verify_covering_geometric"),
    ("horseshoe.rect_of", "dynlab.horseshoe", "HorseshoeBase.rect_of"),
    ("fmu.word_into", "dynlab.fmu", "word_into"),
    ("fmu.FMuFamily.eval", "dynlab.fmu", "FMuFamily.eval"),
    ("skew.enumerate_unstable", "dynlab.skew", "enumerate_unstable"),
    ("skew.verify_symbolic_cs_blender", "dynlab.skew", "verify_symbolic_cs_blender"),
    ("integrate.implicit_midpoint", "dynlab.integrate", "implicit_midpoint"),
    ("reports.Report.to_json", "dynlab.reports", "Report.to_json"),
) + tuple((f"experiments.{p}", "dynlab.experiments", f"REGISTRY:{p}") for p in PRESETS)


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _on_raw(tracer, args, out):
    tracer.count["maps.raw.points"] += _points(args[1])


def _on_minimality(tracer, args, out):
    for r in out["reaches"]:
        tracer.count["ifs.visits"] += int(r.visited_count)
        tracer.count["ifs.cells"] += len(r.cells())


def _on_verify_covering(tracer, args, out):
    tracer.count["covering.cells_decided"] += len(out.assignment)


def _on_strip(tracer, args, out):
    tracer.count["blender.strips_hit"] += int(bool(out["hit"]))


COUNTERS = {
    "maps.raw": _on_raw,
    "ifs.minimality_experiment": _on_minimality,
    "covering.verify_covering": _on_verify_covering,
    "blender.verify_strip_intersection": _on_strip,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.count: dict[str, float] = {
            "maps.raw.points": 0, "ifs.visits": 0, "ifs.cells": 0,
            "covering.cells_decided": 0, "blender.strips_hit": 0,
        }
        # spans: name id, parent span index (-1 at the top), start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple] = []
        self.absent: list[str] = []
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            stack = tr._stack
            idx = len(tr.span_t0)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tr.span_t0.append(t0)
            tr.span_t1.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.span_t1[idx] = t1
                tr.calls[nid] += 1
                tr.total[nid] += dur
                tr.self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(tr, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for name, modname, attr in TARGETS:
            try:
                self._install_one(name, modname, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)

    def _install_one(self, name, modname, attr):
        mod = importlib.import_module(modname)
        hook = COUNTERS.get(name)
        if attr.startswith("REGISTRY:"):
            key = attr.split(":", 1)[1]
            registry = mod.REGISTRY
            entry = registry[key]
            registry[key] = (self.wrap(name, entry[0], hook),) + tuple(entry[1:])
            self._restore.append((registry.__setitem__, key, entry))
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig, hook))
            self._restore.append((functools.partial(setattr, cls), meth, orig))
        else:
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, hook)
            for m in [m for k, m in sys.modules.items() if k == "dynlab" or k.startswith("dynlab.")]:
                if m.__dict__.get(attr) is orig:
                    setattr(m, attr, wrapped)
                    self._restore.append((functools.partial(setattr, m), attr, orig))

    def uninstall(self) -> None:
        for setter, key, orig in reversed(self._restore):
            setter(key, orig)
        self._restore.clear()

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds), zeros when never wrapped."""
        if name not in self.names:
            return 0, 0.0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i]

    def metrics(self, per_layer: list[dict], src_lines: int, run_s: float) -> dict:
        """Every per-layer metric of BENCHMARK.json: `<prefix>.calls` and
        `<prefix>.self_s` from the spans of the wrapper named `<prefix>`,
        the rest from the counters."""
        raw_calls = self.stats("maps.raw")[0]
        explore_s = self.stats("ifs.minimality_experiment")[1]
        derived = {
            **self.count,
            "maps.raw.points_per_call": self.count["maps.raw.points"] / raw_calls if raw_calls else 0.0,
            "ifs.visits_per_s": self.count["ifs.visits"] / explore_s if explore_s else 0.0,
            "dynlab.src_lines": src_lines,
            "trace.run_s": run_s,
            "trace.spans": len(self.span_t0),
        }
        out = {}
        for metric in per_layer:
            name = metric["name"]
            prefix, _, stat = name.rpartition(".")
            if stat == "calls":
                value = self.stats(prefix)[0]
            elif stat == "self_s":
                value = self.stats(prefix)[2]
            else:
                value = derived[name]
            out[name] = (value, metric["unit"])
        return out

    def write(self, path: Path) -> None:
        """Spans as one .npz (names indexed by span_name) plus a summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_t0=np.frombuffer(self.span_t0, dtype=np.float64),
            span_t1=np.frombuffer(self.span_t1, dtype=np.float64),
        )
        summary = {
            "absent": self.absent,
            "layers": {
                n: {"calls": c, "total_s": t, "self_s": s}
                for n, c, t, s in zip(self.names, self.calls, self.total, self.self_time)
            },
            "counters": self.count,
        }
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

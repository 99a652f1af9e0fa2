"""Report assembly and line-oriented artifact formats.

Reach sets serialize one cell per line (cell index, representative
coordinates, witness word); point clouds go to CSV with a fixed header.
JSON reports sort keys and normalize numpy scalars, so identical runs
produce byte-identical files apart from the wall-clock entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ifs import ReachSet


def _plain(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def reachset_lines(reach: ReachSet) -> list[str]:
    """One cell per line, in increasing key order: cell, coordinates, word."""
    keys, reps, words = reach.keys.tolist(), reach.reps.tolist(), reach.words()
    lines = []
    for i in np.lexsort(reach.keys.T[::-1]).tolist():
        cell = ",".join(str(v) for v in keys[i])
        coords = ",".join(repr(v) for v in reps[i])
        w = ",".join(str(s) for s in words[i])
        lines.append(f"{cell} {coords} {w}")
    return lines


def save_reachset(reach: ReachSet, path: str | Path) -> None:
    Path(path).write_text("\n".join(reachset_lines(reach)) + "\n")


def enumeration_lines(enum) -> list[str]:
    """One leaf per line: word, fiber point."""
    out = []
    for leaf in enum.leaves:
        w = ",".join(str(s) for s in leaf.word)
        fiber = leaf.fiber
        if hasattr(fiber, "__len__"):
            f = ",".join(repr(float(v)) for v in fiber)
        else:
            f = repr(float(fiber))
        out.append(f"{w} {f}")
    return out


def certificate_lines(cert) -> list[str]:
    """One covering cell per line: cell index, assigned generator."""
    return [f"{i} {int(g)}" for i, g in enumerate(cert.assignment)]


def save_point_cloud(path: str | Path, points: np.ndarray, words=None) -> None:
    """CSV columns x0, x1, ..., one per coordinate, then the witness word
    (dot-joined)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = [",".join(f"x{i}" for i in range(points.shape[1])) + ",word"]
    for i, p in enumerate(points):
        w = "" if words is None else ".".join(str(s) for s in words[i])
        rows.append(",".join(repr(float(v)) for v in p) + f",{w}")
    Path(path).write_text("\n".join(rows) + "\n")


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    checks: list[dict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.get("pass", False) for c in self.checks)

    def to_json(self) -> str:
        body = {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": _plain(self.config),
            "checks": _plain(self.checks),
            "artifacts": _plain(self.artifacts),
            "pass": self.passed,
            "wall_clock": round(self.wall_clock, 3),
        }
        return json.dumps(body, sort_keys=True, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def comparable_json(text: str) -> str:
    """Report content with the timing stripped, for determinism checks."""
    body = json.loads(text)
    body.pop("wall_clock", None)
    return json.dumps(body, sort_keys=True)

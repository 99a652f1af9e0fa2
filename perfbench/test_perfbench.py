"""Tests of the benchmark itself: every workload at a tiny size, every output
check against a corrupted result, the tracer, and the refusal to run
without dynlab's source.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_dynlab()

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    OrbitCoverage,
    PerturbedCovering,
    PerturbedStrips,
    PresetSuite,
)


def tiny(wl, n_ops, seed=5):
    wl.setup()
    inputs = wl.inputs(np.random.default_rng(seed), n_ops)
    return inputs, [wl.extract(inp, wl.op(inp)) for inp in inputs]


@pytest.fixture(scope="module")
def orbit():
    wl = OrbitCoverage(eps=1 / 8, seeds_per_op=2)
    return (wl, *tiny(wl, 1))


@pytest.fixture(scope="module")
def covering():
    wl = PerturbedCovering(lam=0.7, dim=1)
    return (wl, *tiny(wl, 2))


@pytest.fixture(scope="module")
def strips():
    wl = PerturbedStrips()
    wl.setup()
    inputs = wl.inputs(np.random.default_rng(5), wl.ROUND)
    inputs = [inp for inp in inputs if inp["eta"] > 0]  # one s- and one u-strip per eta > 0
    return wl, inputs, [wl.extract(inp, wl.op(inp)) for inp in inputs]


def test_tiny_workloads_pass(orbit, covering, strips):
    for wl, inputs, data in (orbit, covering, strips):
        for inp, d in zip(inputs, data):
            assert wl.check(inp, d) == [], wl.name


def test_preset_passes_agree_and_corruptions_fail():
    wl = PresetSuite(presets=("ifs-density", "recurrence-fraction"))
    inputs, data = tiny(wl, 2)
    assert [wl.check(inp, d) for inp, d in zip(inputs, data)] == [[], []]
    changed = json.loads(data[1]["reports"]["ifs-density"]["comparable"])
    changed["checks"][0]["max_word"] += 1
    data[1]["reports"]["ifs-density"]["comparable"] = json.dumps(changed, sort_keys=True)
    assert any("differs" in p for p in wl.check(inputs[1], data[1]))
    data[0]["reports"]["recurrence-fraction"]["checks"]["translation-control"]["fraction"] = 0.02
    assert any("translation control" in p for p in wl.check(inputs[0], data[0]))
    shifted = dict(data[0], ball_shift=data[0]["ball_shift"] + [1e-6, 0.0])
    assert any("bump moves" in p for p in wl.check(inputs[0], shifted))
    assert any("bump inverse" in p for p in wl.check(inputs[0], dict(data[0], round_trip=1e-6)))


def test_orbit_check_rejects_changed_witness_symbol(orbit):
    wl, inputs, data = orbit
    lines = []
    for line in data[0]["lines"]:
        cell, coords, word = line.split(" ")
        if word:
            syms = word.split(",")
            syms[0] = str((int(syms[0]) + 1) % len(wl.pack))
            word = ",".join(syms)
        lines.append(f"{cell} {coords} {word}")
    assert any("lands" in p for p in wl.check(inputs[0], dict(data[0], lines=lines)))


def test_orbit_check_rejects_low_coverage_and_truncation(orbit):
    wl, inputs, data = orbit
    first = data[0]["points"][0]
    points = [first[first[:, 0] < 0.5]] + data[0]["points"][1:]  # the left half of the torus
    problems = wl.check(inputs[0], dict(data[0], points=points, truncated=[False, True, False]))
    assert any("coverage" in p for p in problems)
    assert any("truncated" in p for p in problems)


def test_covering_check_rejects_shifted_density_target(covering):
    wl, inputs, data = covering
    shifted = dict(inputs[0], center=inputs[0]["center"] + 3 * wl.TARGET_RADIUS)
    assert any("density word lands" in p for p in wl.check(shifted, dict(data[0], center=shifted["center"])))


def test_covering_check_rejects_wrong_assignment(covering):
    wl, inputs, data = covering
    wrong = data[0]["assignment"].copy()
    wrong[:] = (wrong + len(data[0]["generators"]) // 2) % len(data[0]["generators"])
    assert wl.check(inputs[0], dict(data[0], assignment=wrong))


def test_covering_check_rejects_overlong_word(covering):
    wl, inputs, data = covering
    word = data[0]["word"]
    padded = (word[0],) * (wl.word_bound() + 1 - len(word)) + word
    assert any("exceeds" in p or "lands" in p for p in wl.check(inputs[0], dict(data[0], word=padded)))


def test_strip_check_rejects_start_nudged_off_itinerary(strips):
    wl, inputs, data = strips
    height = wl.model.base.height
    for inp, d in zip(inputs, data):
        start = d["start"].copy()
        start[1] += height * height  # one second-level cylinder over
        assert wl.check(inp, dict(d, start=start)), inp["kind"]


def test_strip_check_rejects_miss(strips):
    wl, inputs, data = strips
    assert wl.check(inputs[0], dict(data[0], hit=False, reason="test"))


def test_tracer_self_time_and_absent_names(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("maps.gone", "dynlab.maps", "no_such_function"),
                           ("nowhere.f", "dynlab.no_such_module", "f")),
    )
    tr = tracing.Tracer()
    tr.install()
    try:
        wl = PerturbedCovering(lam=0.7, dim=1)
        wl.setup()
        inp = wl.inputs(np.random.default_rng(0), 1)[0]
        wl.op(inp)
        recorded = list(tr.calls)
        with tr.pause():
            wl.op(inp)
        assert tr.calls == recorded
    finally:
        tr.uninstall()
    assert tr.absent == ["maps.gone", "nowhere.f"]
    calls, total, self_s = tr.stats("perturb.perturb_ifs")
    child = tr.stats("perturb.perturb_map")[1]
    assert calls == 1 and self_s == pytest.approx(total - child, abs=1e-9)
    assert tr.stats("ifs.compute_fixed_points")[0] >= 1
    assert tr.stats("fixed_points.find_fixed_point")[0] == len(wl.ifs.generators)
    assert len(tr.span_t0) == sum(tr.calls)
    parents = np.frombuffer(tr.span_parent, dtype=np.int32)
    assert parents[0] == -1 and np.all(parents < np.arange(len(parents)))


def test_uninstall_restores_every_name():
    import dynlab
    import dynlab.ifs

    before = (dynlab.ifs.find_fixed_point, dynlab.StateSpace.cell_index, dynlab.minimality_experiment)
    tr = tracing.Tracer()
    tr.install()
    assert dynlab.ifs.find_fixed_point is not before[0]
    tr.uninstall()
    assert (dynlab.ifs.find_fixed_point, dynlab.StateSpace.cell_index,
            dynlab.minimality_experiment) == before


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_traced_runs_repeat_call_counts():
    args = ("--workload", "perturbed-covering", "--seed", "3", "--seconds", "0.2", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    m1 = json.loads(first.stdout.splitlines()[-1])["metrics"]
    m2 = json.loads(second.stdout.splitlines()[-1])["metrics"]
    counts = [k for k, v in m1.items() if v["unit"] == "count"]
    assert counts and all(m1[k]["value"] == m2[k]["value"] for k in counts)
    assert m1["maps.invert.calls"]["value"] > 0
    assert m1["blender.verify_strip_intersection.calls"]["value"] == 0  # not on this workload


def test_refuses_to_run_without_dynlab_source():
    iso = BENCH_DIR / "results" / "isolated"
    shutil.rmtree(iso, ignore_errors=True)
    shutil.copytree(BENCH_DIR, iso / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", iso)
    try:
        proc = bench("--workload", "preset-suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=iso)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(iso, ignore_errors=True)

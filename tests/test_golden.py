"""Golden digests: byte-level outputs that a refactor must not move.

Each preset's ``comparable_json`` report at its default parameters is pinned
by its sha256: all presets at seed 0, and every preset but the slow
``twist-transitivity`` at seed 1. Two more digests pin ``verify_strips`` on
one set of s- and u-strips on the symplectic model: its result bytes
(start, final, witness word, reason, residual) on the model itself and on a
perturbation of 0.3 x the covering margin, and its verdicts (hit, reason,
witness word, depth) at 0, 0.3, 1 and 3 x the margin.

The digests are stable across processes and ``PYTHONHASHSEED`` values, and
pinned to numpy 2.4.6: another numpy may round differently. A change that
moves an output on purpose updates the digest here and says so in a
CHANGES.md line.
"""

import hashlib

import numpy as np
import pytest

from dynlab.blender import Strip, sample_strips, verify_strips
from dynlab.cli import run_experiment
from dynlab.experiments import REGISTRY, validate_params
from dynlab.perturb import perturb_map
from dynlab.reports import comparable_json
from dynlab.spaces import Box

PRESET_DIGESTS = {
    ("ifs-density", 0): "71bb85c014dd433c985b543232f53ba5484dd252ce2d88514a9f55fc0185227a",
    ("ifs-construct", 0): "4284881ec8e50b0fef28e536b1e8892a7aae3ae68d234c0615e7f62264b52f40",
    ("skew-unstable-equivalence", 0): "c8b9600a9cafa49c98aa67cf180807aab15aa56f2e35a5bdcfa06bc0a4832f46",
    ("symbolic-blender", 0): "7e9b5b991b541503fd086edce67ec90f89c1d8541108b8b1aabdf9c9b6f68c22",
    ("geometric-blender", 0): "ee4bb51494d8ef28466dd5839aaf69fec2fd85b59bc1efc6b2938eb708398b13",
    ("double-blender", 0): "61d7f1f42b67dc23553b586e0b7718bd4e9be68cd18197a8cf770af5942418d0",
    ("f-mu-minimality", 0): "94dd3fb7d320296f2a2bba1927aa6051b237cdc4c6a4b969046be2ef3791ebf6",
    ("twist-transitivity", 0): "d73eeb2523598e47a60920c3ef875a153a0389f194893bc56ab6a24369c01ffd",
    ("chain-shadow", 0): "75a02ef1aa240e0b56e1cc0c958ce7dca9e7b75421dd8690ac20fb83c8c74b90",
    ("robustness-sweep", 0): "73e00e4829eb9c4582116c07629e528e638c3fed3ae056e38d34f8e799e45f73",
    ("recurrence-fraction", 0): "6bc45d81666e2b4741973ed39aac4b913564e4ff3c218c8185bb1647b9b174a7",
    ("ifs-density", 1): "847f93fab335903c3ba07b6f5cf01e61a3987fff99f1b3b64eb247e66424cf06",
    ("ifs-construct", 1): "b297dbfe4c1e3dd3cd3ab2d7eaa308c3bbc2cced6928c10e9ad52bdc90d0d560",
    ("skew-unstable-equivalence", 1): "c8bfc6ed0e954d0f8450545a2bc6483a96223ddfbdabe92762711043e86310dc",
    ("symbolic-blender", 1): "f7eb2c997a47ba72c5353b22f1f5944650a0c2e0d90c5a2693f11808fa9c2858",
    ("geometric-blender", 1): "2ac61c3af8edf5e0ddc51adaf7d6591b04886e565c2c24e8af21caa8cd92f52d",
    ("double-blender", 1): "703c1744bc84e36a4c0dcb7622009b15c5f8dc46cd1ab90169e241b746bcc1e5",
    ("f-mu-minimality", 1): "ea2744f12a7b333312e654af94eaff6875490223b12f88290f233b7aa46823e1",
    ("chain-shadow", 1): "a0f3ffc45f5c845ba20cdc68ab802368d40ccbe28d54b70c1e6140776b597759",
    ("robustness-sweep", 1): "81205ff8bacfba37167375148ff50702fb25ffbfea1a1d94856157f1ff103ffd",
    ("recurrence-fraction", 1): "b43fe46847a6d50b78bd18c431543b0f367dd8a95570488669e351d7f5c1b5c7",
}

STRIP_DIGEST = "e1267674013b1153e73477d0acddf6ea7ff840f53ec0884d217ba1ef3bebb958"
STRIP_VERDICT_DIGEST = "7bc02c05d72873dc8ece4908c96808512d89fe30205d12f56e45572c5b4e7dae"


def test_every_preset_is_pinned():
    assert {name for name, _ in PRESET_DIGESTS} == set(REGISTRY)
    slow = {"twist-transitivity"}
    assert {name for name, seed in PRESET_DIGESTS if seed == 1} == set(REGISTRY) - slow


@pytest.mark.parametrize("name, seed", sorted(PRESET_DIGESTS), ids=lambda v: str(v))
def test_preset_report_is_byte_identical(name, seed):
    text = run_experiment(name, seed, validate_params(name, {})).to_json()
    assert hashlib.sha256(comparable_json(text).encode()).hexdigest() == PRESET_DIGESTS[name, seed]


def golden_strip_results(model, report, eta_factors):
    """verify_strips results of the golden strip set, one list per eta =
    factor x the covering margin."""
    space = model.region_cs.space
    strips = sample_strips(model, "s", 8, 1 / 32, seed=51) + sample_strips(model, "u", 8, 1 / 32, seed=52)
    # decided before any replay (ball outside the certified region), and a
    # leaf above its slab (the itinerary breaks, or no shot orbit exists)
    strips.append(Strip("s", 1, model.base.slab_lo[1] + 0.5 * model.base.height, Box.ball(space, [3.0], 0.05),
                        np.array([0.4])))
    strips.append(Strip("s", 0, 1.05, Box.ball(space, [0.4], 0.05), np.array([0.4])))
    F = model.as_map()
    for factor in eta_factors:
        eta = factor * report["fiber_cert"].margin
        G = F if eta == 0 else perturb_map(F, eta, seed=4)
        yield verify_strips(model, strips, report["fiber_cert"], 30, 0.02, G=G,
                            fiber_cert_cu=report["fiber_cert_cu"])


def strip_result_digest(model, report) -> str:
    """sha256 over every verify_strips result byte, strips in order, at
    eta = 0 and eta = 0.3 x the covering margin."""
    h = hashlib.sha256()
    for res in golden_strip_results(model, report, (0.0, 0.3)):
        for r in res:
            for key in ("start", "final"):
                h.update(np.asarray(r.get(key, [])).tobytes())
            h.update(repr((r.get("witness_word"), r.get("reason"), r.get("residual"))).encode())
    return h.hexdigest()


def strip_verdict_digest(model, report) -> str:
    """sha256 over every strip's verdict (hit, reason, witness word, depth),
    strips in order, at eta = 0, 0.3, 1 and 3 x the covering margin."""
    h = hashlib.sha256()
    for res in golden_strip_results(model, report, (0.0, 0.3, 1.0, 3.0)):
        for r in res:
            h.update(repr((r["hit"], r.get("reason"), r.get("witness_word"), r.get("depth"))).encode())
    return h.hexdigest()


def test_strip_results_are_byte_identical(symplectic_model, symplectic_model_report):
    assert strip_result_digest(symplectic_model, symplectic_model_report) == STRIP_DIGEST


def test_strip_verdicts_are_identical(symplectic_model, symplectic_model_report):
    assert strip_verdict_digest(symplectic_model, symplectic_model_report) == STRIP_VERDICT_DIGEST

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dynlab.cli import cmd_list, load_config, main, run_experiment
from dynlab.errors import ConfigInvalid
from dynlab.experiments import REGISTRY, validate_params
from dynlab.reports import comparable_json


def write_config(tmp_path, body, name="exp.ini") -> Path:
    p = tmp_path / name
    p.write_text(body)
    return p


def test_registry_has_eleven_presets():
    assert len(REGISTRY) == 11
    expected = {
        "ifs-density", "ifs-construct", "skew-unstable-equivalence",
        "symbolic-blender", "geometric-blender", "double-blender",
        "f-mu-minimality", "twist-transitivity", "chain-shadow",
        "robustness-sweep", "recurrence-fraction",
    }
    assert set(REGISTRY) == expected


def test_list_filter(capsys):
    class Args:
        filter = "blender"

    assert cmd_list(Args()) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_validate_and_defaults(tmp_path):
    p = write_config(tmp_path, "[experiment]\nname = recurrence-fraction\nseed = 5\n")
    name, seed, _, params = load_config(str(p))
    assert name == "recurrence-fraction" and seed == 5
    assert params["horizon"] == 500  # default filled in


def test_unknown_key_rejected():
    with pytest.raises(ConfigInvalid) as e:
        validate_params("recurrence-fraction", {"spam": 1})
    assert e.value.field == "params.spam"


def test_negative_epsilon_rejected(tmp_path):
    p = write_config(
        tmp_path,
        "[experiment]\nname = recurrence-fraction\n\n[params]\nepsilon = -0.1\n",
    )
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


def test_cli_exit_codes(tmp_path):
    good = write_config(
        tmp_path,
        "[experiment]\nname = recurrence-fraction\nseed = 2\n\n[params]\nsamples = 30\n",
    )
    rc = main(["run", str(good), "--out-dir", str(tmp_path)])
    assert rc == 0
    bad = write_config(
        tmp_path,
        "[experiment]\nname = recurrence-fraction\n\n[params]\nepsilon = -1\n",
        name="bad.ini",
    )
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert main(["validate", str(good)]) == 0


def test_report_determinism(tmp_path):
    p = write_config(
        tmp_path,
        "[experiment]\nname = ifs-density\nseed = 4\n\n[params]\ntargets = 3\n",
    )
    name, seed, _, params = load_config(str(p))
    r1 = run_experiment(name, seed, params).to_json()
    r2 = run_experiment(name, seed, params).to_json()
    assert comparable_json(r1) == comparable_json(r2)


def test_skew_equivalence_preset():
    params = validate_params("skew-unstable-equivalence", {"depth": 5})
    rep = run_experiment("skew-unstable-equivalence", 0, params)
    assert rep.passed


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dynlab.cli", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 11


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dynlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_failed_check_exit_code(tmp_path):
    # an impossible link budget makes the chain check fail: exit 1
    p = write_config(
        tmp_path,
        "[experiment]\nname = chain-shadow\nseed = 1\n\n[params]\nmax_links = 1\n",
        name="fail.ini",
    )
    assert main(["run", str(p), "--out-dir", str(tmp_path)]) == 1


def test_budget_exhaustion_exit_code(tmp_path):
    p = write_config(
        tmp_path,
        "[experiment]\nname = twist-transitivity\nseed = 1\n\n"
        "[params]\nbudget = 200\nseeds = 1\n",
        name="tiny.ini",
    )
    assert main(["run", str(p), "--out-dir", str(tmp_path)]) == 3


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNLAB_OUT_DIR", str(tmp_path / "envout"))
    p = write_config(
        tmp_path,
        "[experiment]\nname = recurrence-fraction\nseed = 1\n\n[params]\nsamples = 20\n",
        name="env.ini",
    )
    assert main(["run", str(p)]) == 0
    assert (tmp_path / "envout" / "recurrence-fraction-seed1.json").exists()


def test_point_cloud_emission(tmp_path):
    p = write_config(
        tmp_path,
        "[experiment]\nname = ifs-density\nseed = 2\n\n[params]\ntargets = 2\n",
        name="cloud.ini",
    )
    assert main(["run", str(p), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ifs-density-seed2.json").read_text())
    cloud_path = Path(report["artifacts"]["cloud_orbit-dyadic"])
    lines = cloud_path.read_text().strip().splitlines()
    assert lines[0] == "x0,word"
    assert len(lines) > 10


def test_reachset_and_certificate_serialization(tmp_path, dyadic_ifs):
    from dynlab.covering import verify_covering
    from dynlab.ifs import forward_orbit
    from dynlab.reports import certificate_lines, reachset_lines, save_reachset

    reach = forward_orbit(dyadic_ifs, [0.0], depth=4, eps=1 / 16)
    lines = reachset_lines(reach)
    assert len(lines) == len(reach.cells())
    cell, coords, word = lines[1].split(" ")
    assert "," not in cell or cell.count(",") == 0  # 1D cell index
    save_reachset(reach, tmp_path / "reach.txt")
    assert (tmp_path / "reach.txt").read_text().count("\n") == len(lines)
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    clines = certificate_lines(cert)
    assert len(clines) == len(cert.assignment)


def test_enumeration_serialization():
    from fractions import Fraction as F

    from dynlab.reports import enumeration_lines
    from dynlab.skew import SkewProduct, affine_fiber, enumerate_unstable
    from dynlab.spaces import unit_interval_space

    line = unit_interval_space(1)
    sk = SkewProduct(
        d=2, fiber_space=line,
        contracting=[affine_fiber(line, F(1, 2), F(0)), affine_fiber(line, F(1, 2), F(1, 2))],
    )
    enum = enumerate_unstable(sk, sk.fixed_point(0, F(0)), 3)
    lines = enumeration_lines(enum)
    assert len(lines) == len(enum.leaves)
    word, fiber = lines[0].split(" ")
    float(fiber)  # parses


def test_delta_budget_config_check(tmp_path):
    p = write_config(
        tmp_path,
        "[experiment]\nname = f-mu-minimality\nseed = 1\n\n"
        "[params]\ndelta = 0.2\ndepth = 12\nsamples = 16\n",
        name="delta.ini",
    )
    # (1 - 0.2)^12 < 1/2: the weak-hyperbolicity budget rejects the config
    assert main(["run", str(p), "--out-dir", str(tmp_path)]) == 2

"""Command-line experiment driver.

Subcommands: run <config>, list, validate <config>. Configs are INI files
with an [experiment] section (name, seed, out_dir) and a [params] section
validated against the preset's schema. Reports land as JSON next to any
point-cloud CSVs; exit status is 0 when every asserted check passed, 1 on
check failure, 2 on configuration errors, 3 on budget exhaustion.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from pathlib import Path

from .errors import BudgetExhausted, ConfigInvalid, DynlabError
from .experiments import REGISTRY, validate_params
from .reports import Report, save_point_cloud

OUT_DIR_ENV = "DYNLAB_OUT_DIR"


def load_config(path: str) -> tuple[str, int, str | None, dict]:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigInvalid(f"cannot read config file {path}", field="<file>")
    if "experiment" not in cp:
        raise ConfigInvalid("missing [experiment] section", field="experiment")
    exp = dict(cp["experiment"])
    known = {"name", "seed", "out_dir"}
    for key in exp:
        if key not in known:
            raise ConfigInvalid(f"unknown key '{key}'", field=f"experiment.{key}")
    name = exp.get("name")
    if not name:
        raise ConfigInvalid("experiment.name is required", field="experiment.name")
    try:
        seed = int(exp.get("seed", "0"))
    except ValueError as e:
        raise ConfigInvalid("experiment.seed must be an integer", field="experiment.seed") from e
    raw_params = dict(cp["params"]) if "params" in cp else {}
    params = validate_params(name, raw_params)
    return name, seed, exp.get("out_dir"), params


def run_experiment(name: str, seed: int, params: dict) -> Report:
    runner, _, _ = REGISTRY[name]
    artifacts: dict = {}
    t0 = time.time()
    checks = runner(params, seed, artifacts)
    return Report(
        experiment=name,
        seed=seed,
        config={"name": name, "seed": seed, "params": params},
        checks=checks,
        artifacts=artifacts,
        wall_clock=time.time() - t0,
    )


def cmd_run(args) -> int:
    try:
        name, seed, out_dir, params = load_config(args.config)
    except ConfigInvalid as e:
        print(f"config error ({e.field}): {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        seed = args.seed
    if args.budget is not None and "budget" in params:
        params["budget"] = args.budget
    out = Path(args.out_dir or out_dir or os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = run_experiment(name, seed, params)
    except BudgetExhausted as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DynlabError as e:
        print(f"{name}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    # point clouds land as CSVs next to the report; the report keeps paths
    clouds = report.artifacts.pop("clouds", {})
    for cname, (points, words) in clouds.items():
        cpath = out / f"{name}-seed{seed}-{cname}.csv"
        save_point_cloud(cpath, points, words)
        report.artifacts[f"cloud_{cname}"] = str(cpath)
    path = out / f"{name}-seed{seed}.json"
    report.save(path)
    for check in report.checks:
        status = "pass" if check.get("pass") else "FAIL"
        print(f"[{status}] {name}:{check['name']}")
    print(f"report: {path}")
    return 0 if report.passed else 1


def cmd_list(args) -> int:
    if not REGISTRY:
        print("experiment registry is empty", file=sys.stderr)
        return 1
    rows = [
        (name, desc)
        for name, (_, _, desc) in sorted(REGISTRY.items())
        if args.filter is None or args.filter in name
    ]
    width = max((len(n) for n, _ in rows), default=10)
    for name, desc in rows:
        print(f"{name:<{width}}  {desc}")
    return 0


def cmd_validate(args) -> int:
    try:
        name, seed, _, params = load_config(args.config)
    except ConfigInvalid as e:
        print(f"config error ({e.field}): {e}", file=sys.stderr)
        return 2
    print(f"ok: {name} seed={seed} params={params}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dynlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--budget", type=int, default=None, help="override a budget param")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="list experiment presets")
    p_list.add_argument("--filter", default=None)
    p_list.set_defaults(fn=cmd_list)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

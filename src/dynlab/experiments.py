"""Named experiment presets with validated parameter schemas.

Each preset builds its models from scratch, runs the relevant checks and
returns a list of check dicts plus artifact payloads; the CLI wraps them
into reports. Randomness flows only through the seed parameter, so a rerun
with the same config reproduces every verdict and cell set.
"""

from __future__ import annotations

import numpy as np

from . import covering as cov
from . import blender as bl
from . import fmu as fmu_mod
from . import skew as sk
from . import twist as tw
from .errors import ConfigInvalid, StepLimit
from .horseshoe import HorseshoeBase
from .ifs import IFS, apply_words, forward_orbit, minimality_experiment, recurrence_experiment
from .maps import affine_map, check_symplectic
from .spaces import Box, Circle, Interval, StateSpace, torus, unit_interval_space


def _dyadic_ifs():
    line = unit_interval_space(1)
    g0 = affine_map(line, [[0.5]], [0.0], name="half")
    g1 = affine_map(line, [[0.5]], [0.5], name="half+1/2")
    return IFS([g0, g1], Box(line, [0.0], [1.0]))


def _triple_ifs():
    space = unit_interval_space(1)
    gens = [
        affine_map(space, [[0.5]], [c], name=f"half+{c}") for c in (0.0, 0.25, 0.5)
    ]
    return IFS(gens, Box(space, [0.0], [1.0]))


def _triple_skew():
    line = unit_interval_space(1)
    fibers = [sk.affine_fiber(line, 0.5, c, f"f{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    return sk.SkewProduct(d=3, fiber_space=line, contracting=fibers)


def _symplectic_model():
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    wide = StateSpace((Interval(-4.0, 5.0),))
    cs = [affine_map(wide, [[0.5]], [c], name=f"cs{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    D = Box(wide, [0.0], [1.0])
    return bl.build_geometric_model(
        base, cs, D, fibers_cu=[m.inverse for m in cs], region_cu=D, symplectic=True
    )


def _desk_For_mu(mu: float):
    l = 3
    base = HorseshoeBase.build(2 * l + 5, mu_ss=0.02)
    sched = fmu_mod.BlockSchedule(base, l=l)
    t2 = torus(2)
    f2 = tw.twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="fiber-twist")
    pack = [
        fmu_mod.shear_family(t2, 2.2, 0.13, "pack1"),
        fmu_mod.shear_family(t2, 2.6, 0.57, "pack2"),
    ]
    ball = Box.ball(t2, [0.5, 0.5], 0.10)
    return fmu_mod.build_F_mu(base, f2, sched, mu, pack, blender_ball=ball, zeta=20.0)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def run_ifs_density(params: dict, seed: int, artifacts: dict) -> list[dict]:
    eps = params["epsilon"]
    rng = np.random.default_rng(seed)
    checks = []
    for tag, ifs in (("dyadic", _dyadic_ifs()), ("triple", _triple_ifs())):
        cert = cov.verify_covering(ifs, ifs.domain_region, 1 / 16)
        centers = rng.uniform(0.05, 0.95, (params["targets"], 1))
        words = cov.certify_densities(ifs, [0.0], [Box.ball(ifs.space, c, eps) for c in centers], 60, cert)
        failed = [w for w in words if isinstance(w, StepLimit)]
        if failed:
            raise failed[0]
        ok = bool((ifs.space.distance(apply_words(ifs.generators, words, [0.0]), centers) < eps).all())
        checks.append(
            {
                "name": f"density-{tag}",
                "pass": ok,
                "max_word": max(len(w) for w in words),
            }
        )
        artifacts[f"words_{tag}"] = [list(w) for w in words]
        reach = forward_orbit(ifs, [0.0], depth=8, eps=eps, budget=10**6)
        artifacts.setdefault("clouds", {})[f"orbit-{tag}"] = (reach.points(), reach.words())
    return checks


def run_ifs_construct(params: dict, seed: int, artifacts: dict) -> list[dict]:
    n, lam = params["n"], params["lam"]
    space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
    phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="contraction")
    eps = 0.9 * (1 - lam) / (1 + lam)
    ifs = cov.construct_translations(phi, lam, eps)
    cert = cov.verify_covering(ifs, ifs.domain_region, eps * lam / 2)
    d = cov.compute_d(ifs, ifs.domain_region, eps * lam / 2, cert)
    wd, _ = cov.verify_well_distributed(ifs, ifs.domain_region, d)
    cert.well_distributed = wd
    word = cov.certify_density(
        ifs, np.zeros(n), Box.ball(space, np.full(n, 0.3 * eps), params["target_radius"]),
        80, cert,
    )
    artifacts["k"] = ifs.k
    artifacts["d"] = d
    return [
        {"name": "covering", "pass": cert.valid, "margin": cert.margin},
        {"name": "well-distributed", "pass": bool(wd), "d": d},
        {"name": "density", "pass": True, "word_length": len(word)},
    ]


def run_skew_unstable(params: dict, seed: int, artifacts: dict) -> list[dict]:
    depth = params["depth"]
    eps = params["epsilon"]
    checks = []
    skp = _triple_skew()
    fp = skp.fixed_point(0, 0.0)
    rep = sk.project_unstable_equals_ifs(skp, fp, depth, eps)
    checks.append(
        {"name": "projection-match", "pass": rep["match"], "cells": rep["enum_cells"]}
    )
    return checks


def run_symbolic_blender(params: dict, seed: int, artifacts: dict) -> list[dict]:
    skp = _triple_skew()
    D = Box(skp.fiber_space, [0.0], [1.0])
    rep = sk.verify_symbolic_cs_blender(
        skp, D, params["epsilon"], params["strips"], seed
    )
    artifacts["worst_depth"] = rep["worst_depth"]
    artifacts["per_strip"] = rep["per_strip"]
    return [
        {
            "name": "cs-blender-strips",
            "pass": rep["pass"] and rep["worst_depth"] <= params["max_depth"],
            "hits": rep["hits"],
            "worst_depth": rep["worst_depth"],
        }
    ]


def run_geometric_blender(params: dict, seed: int, artifacts: dict) -> list[dict]:
    model = _symplectic_model()
    covrep = bl.verify_covering_geometric(model, grid_step=1 / 16)
    strips = bl.sample_strips(model, "s", params["strips"], params["min_radius"], seed)
    res = bl.verify_strips(
        model, strips, covrep["fiber_cert"], 30, 1e-9, fiber_cert_cu=covrep.get("fiber_cert_cu")
    )
    hits = sum(r["hit"] for r in res)
    artifacts["worst_depth"] = max((r.get("depth", 0) for r in res), default=0)
    witnesses = [r["final"] for r in res if r["hit"]]
    words = [r["witness_word"] for r in res if r["hit"]]
    if witnesses:
        artifacts.setdefault("clouds", {})["strip-witnesses"] = (np.array(witnesses), words)
    return [
        {"name": "covering-geometric", "pass": covrep["pass"], "d": covrep["d_value"]},
        {"name": "s-strip-hits", "pass": hits == len(strips), "hits": hits},
    ]


def run_double_blender(params: dict, seed: int, artifacts: dict) -> list[dict]:
    model = _symplectic_model()
    covrep = bl.verify_covering_geometric(model, grid_step=1 / 16)
    ss = bl.sample_strips(model, "s", params["strips"], params["min_radius"], seed)
    us = bl.sample_strips(model, "u", params["strips"], params["min_radius"], seed + 1)
    rep = bl.verify_double_blender(
        model, ss, us, covrep["fiber_cert"], covrep["fiber_cert_cu"], 30, 1e-9
    )
    F = model.as_map()
    rng = np.random.default_rng(seed)
    region = model.region_full()
    pts = []
    while len(pts) < 100:
        p = region.sample(rng)
        if model.base.rect_of(p[:2]) >= 0:
            pts.append(p)
    sym = check_symplectic(F, np.array(pts), 1e-8)
    return [
        {"name": "s-strips", "pass": rep["s_hits"] == len(ss), "hits": rep["s_hits"]},
        {"name": "u-strips", "pass": rep["u_hits"] == len(us), "hits": rep["u_hits"]},
        {"name": "symplectic", "pass": sym["pass"], "residual": sym["max_residual"]},
    ]


def run_f_mu_minimality(params: dict, seed: int, artifacts: dict) -> list[dict]:
    from .errors import ScheduleTooSmall

    try:
        fmu_mod.weak_hyperbolicity_budget(params["delta"], params["depth"])
    except ScheduleTooSmall as e:
        raise ConfigInvalid(str(e), field="params.delta") from e
    fm = _desk_For_mu(params["mu"])
    g = int(np.sqrt(params["samples"]))
    axis = np.linspace(0.05, 0.95, g)
    samples = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    L = fm.base.height * fm.base.mu_uu ** params["depth"]
    rep = fmu_mod.almost_minimality_experiment(fm, samples, L, eps=1 / 64)
    artifacts["fractions"] = {
        "connected": rep["connected_fraction"],
        "forward": rep["forward_fraction"],
        "backward": rep["backward_fraction"],
    }
    return [
        {
            "name": "almost-minimality",
            "pass": rep["connected_fraction"] >= params["threshold"],
            "connected_fraction": rep["connected_fraction"],
            "depth": rep["depth"],
        }
    ]


def run_twist_transitivity(params: dict, seed: int, artifacts: dict) -> list[dict]:
    t2 = torus(2)
    twist = tw.twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="twist")
    pack = tw.minimal_generator_pack(twist, params["mode"], seed=seed)
    g = int(np.sqrt(params["seeds"]))
    axis = np.linspace(0.1, 0.9, g)
    seeds = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    rep = minimality_experiment(
        IFS(pack, Box(t2, [0, 0], [1, 1])), seeds, eps=params["epsilon"],
        budget=params["budget"],
    )
    if rep["truncated"]:
        from .errors import BudgetExhausted

        raise BudgetExhausted(
            f"coverage exploration hit the {params['budget']}-visit budget"
        )
    control = minimality_experiment(
        IFS([twist], Box(t2, [0, 0], [1, 1])), seeds, eps=params["epsilon"],
        budget=params["budget"],
    )
    artifacts["min_coverage"] = rep["min_coverage"]
    artifacts["control_max"] = max(control["per_seed_coverage"])
    # the recurrent-map pack reports its fraction; the minimal packs demand
    # the grid be (essentially) filled
    informational = params["mode"] == "recurrent"
    return [
        {
            "name": "pack-coverage",
            "pass": True if informational else rep["min_coverage"] >= params["threshold"],
            "min_coverage": rep["min_coverage"],
            "asserted": not informational,
        },
        {
            "name": "single-generator-control",
            "pass": max(control["per_seed_coverage"]) <= 0.05,
            "max_coverage": max(control["per_seed_coverage"]),
        },
    ]


def run_chain_shadow(params: dict, seed: int, artifacts: dict) -> list[dict]:
    ann = StateSpace((Interval(-0.2, 1.2), Circle(1.0)))
    twist = tw.twist_map(lambda I: I, lambda I: np.ones_like(I), space=ann)
    shear = tw.conjugating_shear(params["shear"], space=ann)
    U = Box(ann, [params["start"] - 0.02, 0.0], [params["start"] + 0.02, 1.0])
    V = Box(ann, [params["end"] - 0.02, 0.0], [params["end"] + 0.02, 1.0])
    chain = tw.chain_of_tori_search(twist, shear, params["shear"], 0.0, U, V, params["grid"])
    from .maps import compose

    T2 = compose(shear, compose(twist, shear.inverse), name="conjugate")
    word = tw.shadow_chain([twist, T2], chain, chain.entry, eps=params["epsilon"])
    # replay and confirm the transition balls are visited in order
    p = chain.entry.copy()
    targets = [l.crossing for l in chain.links[:-1]] + [chain.exit]
    visited = []
    ti = 0
    for s in word:
        p = [twist, T2][s](p)
        if ti < len(targets) and ann.distance(p, targets[ti]) < params["epsilon"]:
            visited.append(ti)
            ti += 1
    artifacts["links"] = len(chain)
    artifacts["word_length"] = len(word)
    # plot-ready circle clouds: each link's invariant circle, sampled
    th = np.linspace(0, 1, 64, endpoint=False)
    cloud = []
    for link in chain.links:
        if link.map_tag == 1:
            cloud.append(np.stack([np.full_like(th, link.level), th], -1))
        else:
            cloud.append(shear(np.stack([np.full_like(th, link.level), th], -1)))
    artifacts.setdefault("clouds", {})["chain-circles"] = (np.concatenate(cloud), None)
    return [
        {"name": "chain-found", "pass": len(chain) <= params["max_links"], "links": len(chain)},
        {"name": "shadow-replay", "pass": ti == len(targets), "visited": len(visited)},
    ]


def run_robustness_sweep(params: dict, seed: int, artifacts: dict) -> list[dict]:
    model = _symplectic_model()
    covrep = bl.verify_covering_geometric(model, grid_step=1 / 16)
    margin = covrep["fiber_cert"].margin
    eta_list = [float(s) * margin for s in params["eta_factors"]]

    def verifier(m, G):
        strips = bl.sample_strips(m, "s", params["strips"], 1 / 32, seed)
        res = bl.verify_strips(
            m, strips, covrep["fiber_cert"], 30, eps=0.02, G=G,
            fiber_cert_cu=covrep["fiber_cert_cu"],
        )
        return all(r["hit"] for r in res)

    from .perturb import robustness_sweep as sweep

    rows = sweep(model, verifier, eta_list, trials=params["trials"], seed=seed)
    artifacts["table"] = rows
    return [
        {
            "name": "sweep",
            "pass": all(r["pass_rate"] == 1.0 for r in rows if r["eta"] <= 0.3 * margin),
            "rows": rows,
        }
    ]


def run_recurrence(params: dict, seed: int, artifacts: dict) -> list[dict]:
    ann = StateSpace((Interval(0, 1), Circle(1.0)))
    twist = tw.twist_map(lambda I: I, lambda I: np.ones_like(I), space=ann)
    rng = np.random.default_rng(seed)
    samples = np.stack([rng.uniform(0, 1, params["samples"]), rng.random(params["samples"])], -1)
    rep = recurrence_experiment(twist, samples, params["epsilon"], params["horizon"])
    line = StateSpace((Interval(-1e9, 1e9),))
    trans = affine_map(line, [[1.0]], [1.0], name="translate")
    rep2 = recurrence_experiment(
        trans, rng.uniform(-5, 5, (params["samples"], 1)), params["epsilon"], params["horizon"]
    )
    artifacts["twist_fraction"] = rep["recurrent_fraction"]
    artifacts["translation_fraction"] = rep2["recurrent_fraction"]
    return [
        {
            "name": "twist-recurrence",
            "pass": rep["recurrent_fraction"] >= params["threshold"],
            "fraction": rep["recurrent_fraction"],
        },
        {
            "name": "translation-control",
            "pass": rep2["recurrent_fraction"] == 0.0,
            "fraction": rep2["recurrent_fraction"],
        },
    ]


# registry: name -> (runner, schema, what the run demonstrates)
# schema: param -> (type, default, validator or None)
REGISTRY = {
    "ifs-density": (
        run_ifs_density,
        {
            "epsilon": (float, 2 ** -8, lambda v: v > 0),
            "targets": (int, 5, lambda v: v > 0),
        },
        "backward density words for contracting systems with shared-edge and overlapping images",
    ),
    "ifs-construct": (
        run_ifs_construct,
        {
            "n": (int, 1, lambda v: v in (1, 2, 3)),
            "lam": (float, 0.5, lambda v: 0 < v < 1),
            "target_radius": (float, 1e-3, lambda v: v > 0),
        },
        "translated-contraction construction with covering and spread-fixed-point certificates",
    ),
    "skew-unstable-equivalence": (
        run_skew_unstable,
        {
            "depth": (int, 6, lambda v: 1 <= v <= 10),
            "epsilon": (float, 2 ** -6, lambda v: v > 0),
        },
        "fiber projection of the unstable set matches the orbit grid of the induced map system",
    ),
    "symbolic-blender": (
        run_symbolic_blender,
        {
            "epsilon": (float, 1 / 32, lambda v: v > 0),
            "strips": (int, 100, lambda v: v > 0),
            "max_depth": (int, 8, lambda v: v > 0),
        },
        "every sampled strip meets the fixed point's unstable set over the full shift",
    ),
    "geometric-blender": (
        run_geometric_blender,
        {
            "strips": (int, 100, lambda v: v > 0),
            "min_radius": (float, 1 / 32, lambda v: v > 0),
        },
        "horseshoe-times-fiber model: covering reduction and strip intersections",
    ),
    "double-blender": (
        run_double_blender,
        {
            "strips": (int, 100, lambda v: v > 0),
            "min_radius": (float, 1 / 32, lambda v: v > 0),
        },
        "inverse-paired fibers: both strip directions plus the symplectic form check",
    ),
    "f-mu-minimality": (
        run_f_mu_minimality,
        {
            "mu": (float, 1.0, lambda v: 0 <= v <= 1),
            "samples": (int, 64, lambda v: v >= 4),
            "depth": (int, 12, lambda v: v >= 1),
            "delta": (float, 0.04, lambda v: 0 < v < 1),
            "threshold": (float, 0.95, lambda v: 0 < v <= 1),
        },
        "block-scheduled family: fiber words carry strong-manifold segments into the marked ball",
    ),
    "twist-transitivity": (
        run_twist_transitivity,
        {
            "mode": (str, "three", lambda v: v in ("three", "paper_m", "recurrent")),
            "seeds": (int, 16, lambda v: v >= 1),
            "epsilon": (float, 1 / 64, lambda v: v > 0),
            "budget": (int, 10 ** 6, lambda v: v > 0),
            "threshold": (float, 0.99, lambda v: 0 < v <= 1),
        },
        "conjugate-twist generator pack reaches almost every cell; one twist alone does not",
    ),
    "chain-shadow": (
        run_chain_shadow,
        {
            "shear": (float, 0.1, lambda v: 0 < v < 0.2),
            "start": (float, 0.1, lambda v: 0 <= v <= 1),
            "end": (float, 0.9, lambda v: 0 <= v <= 1),
            "grid": (float, 0.02, lambda v: v > 0),
            "epsilon": (float, 0.04, lambda v: v > 0),
            "max_links": (int, 22, lambda v: v > 0),
        },
        "ladder of crossing invariant circles connecting two action windows, then shadowed",
    ),
    "robustness-sweep": (
        run_robustness_sweep,
        {
            "eta_factors": (list, [0.0, 0.15, 0.3], None),
            "trials": (int, 5, lambda v: v > 0),
            "strips": (int, 20, lambda v: v > 0),
        },
        "strip verdicts across perturbation sizes scaled by the covering margin",
    ),
    "recurrence-fraction": (
        run_recurrence,
        {
            "samples": (int, 100, lambda v: v > 0),
            "epsilon": (float, 0.02, lambda v: v > 0),
            "horizon": (int, 500, lambda v: v > 0),
            "threshold": (float, 0.95, lambda v: 0 < v <= 1),
        },
        "area-preserving twist returns near every start; the free translation never does",
    ),
}


def validate_params(name: str, raw: dict) -> dict:
    if name not in REGISTRY:
        raise ConfigInvalid(f"unknown experiment '{name}'", field="experiment.name")
    _, schema, _ = REGISTRY[name]
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigInvalid(f"unknown key '{key}' for {name}", field=f"params.{key}")
        typ, _, check = schema[key]
        try:
            if typ is list:
                parsed = [float(v) for v in str(value).replace(",", " ").split()]
            else:
                parsed = typ(value)
        except (TypeError, ValueError) as e:
            raise ConfigInvalid(f"bad value for '{key}': {value}", field=f"params.{key}") from e
        if check is not None and not check(parsed):
            raise ConfigInvalid(f"value out of range for '{key}': {parsed}", field=f"params.{key}")
        params[key] = parsed
    for key, (typ, default, _) in schema.items():
        params.setdefault(key, default)
    return params

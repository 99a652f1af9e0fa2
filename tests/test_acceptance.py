"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime. Expected values are either exact statements, oracle
outputs frozen in the module tests, or thresholds fixed here once."""

import time
from fractions import Fraction as F

import numpy as np

from dynlab.blender import sample_strips, verify_double_blender
from dynlab.covering import (
    certify_density,
    compute_d,
    construct_translations,
    density_step_bound,
    verify_covering,
    verify_well_distributed,
)
from dynlab.fmu import (
    BlockSchedule,
    almost_minimality_experiment,
    build_F_mu,
    depth_from_diameter,
    shear_family,
)
from dynlab.horseshoe import HorseshoeBase
from dynlab.ifs import IFS, forward_orbit, minimality_experiment, recurrence_experiment
from dynlab.maps import affine_map, check_symplectic, compose
from dynlab.perturb import perturb_ifs, perturb_map
from dynlab.shifts import ShiftPoint
from dynlab.skew import (
    FiberMap,
    SkewProduct,
    affine_fiber,
    enumerate_unstable,
    project_unstable_equals_ifs,
    verify_symbolic_cs_blender,
)
from dynlab.spaces import Box, Circle, Interval, StateSpace, torus, unit_interval_space
from dynlab.twist import (
    chain_of_tori_search,
    conjugating_shear,
    flow_h_epsilon,
    minimal_generator_pack,
    shadow_chain,
    twist_map,
)
from oracles import brute_force_unstable_level


def report(criterion: str, passed: bool, t0: float, detail: str = ""):
    dt = time.time() - t0
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {criterion} ({dt:.1f}s) {detail}")
    assert passed, f"{criterion}: {detail}"


def dyadic_skew():
    line = unit_interval_space(1)
    return SkewProduct(
        d=2,
        fiber_space=line,
        contracting=[affine_fiber(line, F(1, 2), F(0)), affine_fiber(line, F(1, 2), F(1, 2))],
    )


def triple_skew(exact=False):
    line = unit_interval_space(1)
    cs = [F(0), F(1, 4), F(1, 2)] if exact else (0.0, 0.25, 0.5)
    a = F(1, 2) if exact else 0.5
    return SkewProduct(
        d=3,
        fiber_space=line,
        contracting=[affine_fiber(line, a, c, f"f{i}") for i, c in enumerate(cs)],
    )


def test_criterion_1_skew_ifs_correspondence():
    t0 = time.time()
    eps = 2.0**-8
    ok = True
    for sk, seed_fiber in ((dyadic_skew(), F(0)), (triple_skew(exact=True), F(0))):
        p = sk.fixed_point(0, seed_fiber)
        for n in range(0, 9):
            rep = project_unstable_equals_ifs(sk, p, n, eps)
            ok = ok and rep["match"]
    report("criterion 1: skew/IFS projection equality, n <= 8, eps = 2^-8", ok, t0)
    assert time.time() - t0 < 10


def test_criterion_2_enumeration_equals_brute_force():
    t0 = time.time()
    ok = True
    systems = [dyadic_skew(), triple_skew(exact=True)]
    points = [
        (ShiftPoint.constant(2, 0), F(0)),
        (ShiftPoint.from_words(3, left=(2, 1), right=(0,)), F(1, 8)),
    ]
    for sk, p in zip(systems, points):
        enum = enumerate_unstable(sk, p, 6)
        for n in range(1, 7):
            got = {(l.word, l.fiber, l.base) for l in enum.leaves_at(n)}
            oracle = {(w, f, b) for w, f, b in brute_force_unstable_level(sk, p, n)}
            ok = ok and got == oracle
    report("criterion 2: enumeration leaf-for-leaf vs direct iteration, n <= 6", ok, t0)
    assert time.time() - t0 < 5


def _certify_construction(n, lam, rng):
    space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
    phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="phi")
    eps = 0.9 * (1 - lam) / (1 + lam)
    ifs = construct_translations(phi, lam, eps)
    cert = verify_covering(ifs, ifs.domain_region, eps * lam / 2)
    d = compute_d(ifs, ifs.domain_region, eps * lam / 2, cert)
    wd, _ = verify_well_distributed(ifs, ifs.domain_region, d)
    cert.well_distributed = wd
    words = []
    for _ in range(5):
        c = rng.uniform(-0.8 * eps, 0.8 * eps, n)
        words.append(certify_density(ifs, np.zeros(n), Box.ball(space, c, 1e-3), 80, cert))
    bound = density_step_bound(1e-3, 2 * eps, lam)
    return ifs, cert, d, wd, words, bound, eps


def test_criterion_3_covering_construction():
    t0 = time.time()
    rng = np.random.default_rng(30)
    ok = True
    details = []
    for n in (1, 2):
        for lam in (0.3, 0.5, 0.7):
            _, cert, d, wd, words, bound, _ = _certify_construction(n, lam, rng)
            this = cert.valid and wd and all(len(w) <= 2 * bound for w in words)
            ok = ok and this
            details.append(f"n={n},lam={lam}:{'ok' if this else 'FAIL'}")
    report("criterion 3: construction certificates and density words", ok, t0, " ".join(details))
    assert time.time() - t0 < 60


def test_criterion_4_density_robustness():
    # the robustness content of the construction: covering and density
    # survive 20 seeded generator perturbations of size 0.05 * lam (the
    # spread of the drifted fixed points is analyzed in the module tests)
    t0 = time.time()
    rng = np.random.default_rng(40)
    ok = True
    for n in (1, 2):
        for lam in (0.3, 0.5, 0.7):
            space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
            phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="phi")
            eps = 0.9 * (1 - lam) / (1 + lam)
            ifs = construct_translations(phi, lam, eps)
            bound = density_step_bound(1e-3, 2 * eps, lam + 0.05 * lam)
            for seed in range(20):
                pert = perturb_ifs(ifs, 0.05 * lam, seed=seed)
                cert = verify_covering(pert, ifs.domain_region, eps * lam / 2)
                c = rng.uniform(-0.8 * eps, 0.8 * eps, n)
                w = certify_density(pert, np.zeros(n), Box.ball(space, c, 1e-3), 80, cert)
                ok = ok and cert.assignment.min() >= 0 and len(w) <= 2 * bound
    report("criterion 4: covering and density survive 20 seeded perturbations", ok, t0)
    assert time.time() - t0 < 120


def _perturbed_triple_skew(eta, seed):
    line = unit_interval_space(1)
    fibers = []
    for i, c in enumerate((0.0, 0.25, 0.5)):
        base = affine_fiber(line, 0.5, c, f"f{i}")
        pert = perturb_map(base.smooth, eta, seed=seed * 10 + i)
        fibers.append(
            FiberMap(
                smooth=pert,
                apply=lambda y, m=pert: float(m.fn(np.array([float(y)]))[0]),
                apply_inv=lambda y, m=pert: float(m.invert(np.array([float(y)]))[0]),
            )
        )
    return SkewProduct(d=3, fiber_space=line, contracting=fibers)


def test_criterion_5_symbolic_blender():
    t0 = time.time()
    sk = triple_skew()
    D = Box(sk.fiber_space, [0.0], [1.0])
    rep = verify_symbolic_cs_blender(sk, D, 1 / 32, 100, seed=50)
    ok = rep["pass"] and rep["worst_depth"] <= 8
    # the same strips after fiber perturbations at 0.3 x covering margin
    fiber_ifs = IFS([f.smooth for f in sk.contracting], D)
    margin = verify_covering(fiber_ifs, D, 1 / 16).margin
    eta = 0.3 * margin
    for seed in (1, 2):
        skp = _perturbed_triple_skew(eta, seed)
        repp = verify_symbolic_cs_blender(skp, D, 1 / 32, 100, seed=50)
        ok = ok and repp["pass"]
    report(
        "criterion 5: symbolic strips all hit, depth <= 8, and after perturbation",
        ok, t0, f"worst depth {rep['worst_depth']}, eta {eta:.4f}",
    )
    assert time.time() - t0 < 60


def test_criterion_6_double_symplectic_blender(symplectic_model, symplectic_model_report):
    t0 = time.time()
    model = symplectic_model
    rep0 = symplectic_model_report
    ss = sample_strips(model, "s", 100, 1 / 32, seed=60)
    us = sample_strips(model, "u", 100, 1 / 32, seed=61)
    rep = verify_double_blender(model, ss, us, rep0["fiber_cert"], rep0["fiber_cert_cu"], 30, 1e-9)
    rng = np.random.default_rng(62)
    pts = []
    while len(pts) < 100:
        p = model.region_full().sample(rng)
        if model.base.rect_of(p[:2]) >= 0:
            pts.append(p)
    sym = check_symplectic(model.as_map(), np.array(pts), tol=1e-8)
    ok = rep["pass"] and sym["pass"]
    report(
        "criterion 6: both strip directions and the symplectic form",
        ok, t0, f"s {rep['s_hits']}/100, u {rep['u_hits']}/100, residual {sym['max_residual']:.1e}",
    )
    assert time.time() - t0 < 120


def _desk_family(mu):
    l = 3
    base = HorseshoeBase.build(2 * l + 5, mu_ss=0.02)
    sched = BlockSchedule(base, l=l)
    t2 = torus(2)
    f2 = twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="fiber-twist")
    pack = [shear_family(t2, 2.2, 0.13, "p1"), shear_family(t2, 2.6, 0.57, "p2")]
    ball = Box.ball(t2, [0.5, 0.5], 0.10)
    return build_F_mu(base, f2, sched, mu, pack, blender_ball=ball, zeta=20.0), f2


def test_criterion_7_f_mu_family():
    t0 = time.time()
    fm0, f2 = _desk_family(0.0)
    base = fm0.base
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(1000):
        while True:
            b = rng.uniform(0, 1, 2)
            if base.rect_of(b) >= 0:
                break
        y = rng.uniform(0, 1, 2)
        p = np.concatenate([b, y])
        rhs = np.concatenate([base.apply(b), f2.domain.canonicalize(f2.raw(y))])
        if not np.array_equal(fm0.eval(p), rhs):
            ok = False
            break
    fm, _ = _desk_family(1.0)
    codes = fm.schedule.forward_codes()
    for sigma in (0, 1, 2):
        for _ in range(20):
            nxt = codes[int(rng.integers(0, 3))]
            u = base.u_from_itinerary((0, codes[sigma], nxt), 0.5)
            p = np.concatenate([[rng.uniform(0, 1), u], rng.uniform(0, 1, 2)])
            out = fm.eval(p)
            expected = f2.domain.canonicalize(
                np.atleast_1d(fm.minimality_maps[sigma].raw(p[2:]))
            )
            if np.max(np.abs(out[2:] - expected)) > 0:
                ok = False
    report("criterion 7: mu=0 exact product; block behavior matches the pack", ok, t0)


def test_criterion_8_almost_minimality():
    t0 = time.time()
    fm, _ = _desk_family(1.0)
    axis = np.linspace(0.05, 0.95, 8)
    samples = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)  # 64 samples
    L = fm.base.height * fm.base.mu_uu**12
    assert depth_from_diameter(fm.base, L) == 12
    rep = almost_minimality_experiment(fm, samples, L, eps=1 / 64)
    ok = rep["connected_fraction"] >= 0.95 and all(r < 1e-9 for r in rep["replay_residuals"])
    report(
        "criterion 8: almost minimality on the desk family",
        ok, t0, f"connected {rep['connected_fraction']:.3f} at depth {rep['depth']}",
    )
    assert time.time() - t0 < 600


def test_criterion_9_twist_transitivity():
    t0 = time.time()
    t2 = torus(2)
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="twist")
    pack = minimal_generator_pack(tw, "three", seed=11)
    axis = np.linspace(0.1, 0.9, 4)
    seeds = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    budget = 10**6
    rep = minimality_experiment(IFS(pack, Box(t2, [0, 0], [1, 1])), seeds, eps=1 / 64, budget=budget)
    visits = max(r.visited_count for r in rep["reaches"])
    control = minimality_experiment(IFS([tw], Box(t2, [0, 0], [1, 1])), seeds, eps=1 / 64, budget=budget)
    ok = (
        rep["min_coverage"] >= 0.99
        and visits <= budget
        and max(control["per_seed_coverage"]) <= 0.05
    )
    report(
        "criterion 9: three-generator pack covers the 64x64 grid; lone twist does not",
        ok, t0,
        f"min {rep['min_coverage']:.4f}, visits {visits}, control {max(control['per_seed_coverage']):.4f}",
    )
    assert time.time() - t0 < 300


def test_criterion_10_chain_of_tori():
    t0 = time.time()
    ann = StateSpace((Interval(-0.2, 1.2), Circle(1.0)))
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I), space=ann)
    sh = conjugating_shear(0.1, space=ann)
    U = Box(ann, [0.08, 0.0], [0.12, 1.0])
    V = Box(ann, [0.88, 0.0], [0.92, 1.0])
    chain = chain_of_tori_search(tw, sh, 0.1, 0.0, U, V, level_grid=0.02)
    T2 = compose(sh, compose(tw, sh.inverse))
    eps = 0.04
    word = shadow_chain([tw, T2], chain, chain.entry, eps=eps)
    p = chain.entry.copy()
    targets = [l.crossing for l in chain.links[:-1]] + [chain.exit]
    ti = 0
    for s in word:
        p = [tw, T2][s](p)
        if ti < len(targets) and ann.distance(p, targets[ti]) < eps:
            ti += 1
    ok = len(chain) <= 22 and ti == len(targets)
    report(
        "criterion 10: chain connects the action windows and is shadowed",
        ok, t0, f"{len(chain)} links, word length {len(word)}",
    )
    assert time.time() - t0 < 60


def test_criterion_11_bump_flow():
    t0 = time.time()
    fl = flow_h_epsilon(0.3, 1.0, steps=256)
    outside = np.array([[1.2, 0.3], [1.01, 0.8], [1.5, 0.0]])
    identity_exact = np.array_equal(fl(outside), outside)
    rng = np.random.default_rng(110)
    pts = np.stack([rng.uniform(0.1, 0.9, 20), rng.random(20)], -1)
    sym = check_symplectic(fl, pts, tol=1e-6)
    th = np.linspace(0, 1, 48, endpoint=False)
    img = fl(np.stack([np.full_like(th, 0.5), th], -1))
    moved = np.max(np.abs(img[:, 0] - 0.5)) > 1e-3
    ok = identity_exact and sym["pass"] and moved
    report(
        "criterion 11: bump flow identity, symplectic residual, moved circle",
        ok, t0, f"residual {sym['max_residual']:.1e}",
    )
    assert time.time() - t0 < 30


def test_criterion_12_recurrence():
    t0 = time.time()
    ann = StateSpace((Interval(0, 1), Circle(1.0)))
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I), space=ann)
    rng = np.random.default_rng(120)
    samples = np.stack([rng.uniform(0, 1, 100), rng.random(100)], -1)
    rep = recurrence_experiment(tw, samples, eps=0.02, horizon=500)
    line = StateSpace((Interval(-1e9, 1e9),))
    trans = affine_map(line, [[1.0]], [1.0])
    rep2 = recurrence_experiment(trans, rng.uniform(-5, 5, (50, 1)), 0.02, 500)
    ok = rep["recurrent_fraction"] >= 0.95 and rep2["recurrent_fraction"] == 0.0
    report(
        "criterion 12: twist recurrence vs translation control",
        ok, t0, f"fractions {rep['recurrent_fraction']:.2f} / {rep2['recurrent_fraction']:.2f}",
    )
    assert time.time() - t0 < 10


def test_criterion_13_determinism(dyadic_ifs):
    t0 = time.time()
    from dynlab.cli import run_experiment
    from dynlab.experiments import validate_params
    from dynlab.reports import comparable_json

    ok = True
    for name, raw in (
        ("ifs-density", {"targets": 3}),
        ("skew-unstable-equivalence", {"depth": 5}),
        ("recurrence-fraction", {"samples": 40}),
    ):
        params = validate_params(name, raw)
        r1 = run_experiment(name, 9, params).to_json()
        r2 = run_experiment(name, 9, params).to_json()
        ok = ok and comparable_json(r1) == comparable_json(r2)
    a = forward_orbit(dyadic_ifs, [0.0], depth=8, eps=1 / 128)
    b = forward_orbit(dyadic_ifs, [0.0], depth=8, eps=1 / 128)
    ok = ok and a.cells() == b.cells() and a.words() == b.words()
    report("criterion 13: identical configs reproduce cell sets and verdicts", ok, t0)

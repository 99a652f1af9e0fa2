from fractions import Fraction as F

import numpy as np
import pytest

from dynlab.covering import verify_covering
from dynlab.errors import NotFixedPoint, NotInvertible
from dynlab.perturb import perturb_map
from dynlab.shifts import ShiftPoint, insert_word
from dynlab.skew import (
    FiberMap,
    SkewProduct,
    _fiber_point_array,
    affine_fiber,
    brute_force_unstable_level,
    enumerate_unstable,
    fiber_ifs,
    iterate_skew,
    local_unstable,
    project_unstable_equals_ifs,
    sample_strip,
    verify_symbolic_cs_blender,
    verify_symbolic_double_blender,
)
from dynlab.spaces import Box, unit_interval_space


def dyadic_skew():
    line = unit_interval_space(1)
    f0 = affine_fiber(line, F(1, 2), F(0), "f0")
    f1 = affine_fiber(line, F(1, 2), F(1, 2), "f1")
    return SkewProduct(d=2, fiber_space=line, contracting=[f0, f1])


def triple_skew(exact=True):
    line = unit_interval_space(1)
    cs = [F(0), F(1, 4), F(1, 2)] if exact else [0.0, 0.25, 0.5]
    a = F(1, 2) if exact else 0.5
    fibers = [affine_fiber(line, a, c, f"f{i}") for i, c in enumerate(cs)]
    return SkewProduct(d=3, fiber_space=line, contracting=fibers)


def test_iterate_composition_order():
    sk = dyadic_skew()
    x = ShiftPoint.from_words(2, left=(0,), right=(1,))
    _, y = iterate_skew(sk, (x, F(0)), 2)
    assert y == F(1, 2)  # f1(f0(0)) = 1/2


def test_fixed_point_stays():
    sk = dyadic_skew()
    p = sk.fixed_point(0, F(0))
    for n in (1, 3, -2):
        x, y = iterate_skew(sk, p, n)
        assert y == F(0)
        assert x == p[0]


def test_inverse_consistency_exact():
    sk = dyadic_skew()
    x = ShiftPoint.from_words(2, left=(1, 0, 1), right=(0, 1))
    p = (x, F(3, 8))
    fwd = iterate_skew(sk, p, 4)
    back = iterate_skew(sk, fwd, -4)
    assert back[0] == p[0] and back[1] == p[1]


def test_backward_needs_inverses():
    line = unit_interval_space(1)
    f = affine_fiber(line, 0.5, 0.0)
    f.apply_inv = None
    sk = SkewProduct(d=1, fiber_space=line, contracting=[f])
    with pytest.raises(NotInvertible):
        iterate_skew(sk, (ShiftPoint.constant(1, 0), 0.3), -1)


def test_local_unstable_description():
    sk = dyadic_skew()
    x = ShiftPoint.from_words(2, left=(1, 0), right=(0, 1))
    desc = local_unstable(sk, (x, 0.25))
    assert desc["base_constraint"]["agree_up_to"] == 0
    assert desc["fiber"] == {0.25}
    # same left tails give identical descriptions
    x2 = ShiftPoint.from_words(2, left=(1, 0), right=(1, 1))
    desc2 = local_unstable(sk, (x2, 0.25))
    assert desc["base_constraint"]["point"].left_pre == desc2["base_constraint"]["point"].left_pre
    # differing symbol at index 0: the constraint sets are disjoint
    x3 = ShiftPoint.from_words(2, left=(0, 0), right=(0, 1))
    desc3 = local_unstable(sk, (x3, 0.25))
    a = desc["base_constraint"]["point"]
    b = desc3["base_constraint"]["point"]
    assert a.symbol(0) != b.symbol(0)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_enumeration_equals_brute_force_dyadic(depth):
    sk = dyadic_skew()
    p = sk.fixed_point(0, F(0))
    enum = enumerate_unstable(sk, p, depth)
    got = {(l.word, l.fiber, l.base) for l in enum.leaves_at(depth)}
    oracle = {(w, f, b) for (w, f, b) in brute_force_unstable_level(sk, p, depth)}
    assert got == oracle


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_enumeration_equals_brute_force_triple_nonfixed(depth):
    sk = triple_skew()
    p = (ShiftPoint.from_words(3, left=(2, 1), right=(0, 2)), F(1, 8))
    enum = enumerate_unstable(sk, p, depth)
    got = {(l.word, l.fiber, l.base) for l in enum.leaves_at(depth)}
    oracle = {(w, f, b) for (w, f, b) in brute_force_unstable_level(sk, p, depth)}
    assert got == oracle


def test_leaf_count_formula():
    sk = triple_skew()
    p = sk.fixed_point(0, F(0))
    enum = enumerate_unstable(sk, p, 4)
    assert len(enum.leaves) == 3 + 9 + 27 + 81
    words = {l.word for l in enum.leaves}
    assert len(words) == len(enum.leaves)  # no duplicate or missing words
    for n in (1, 2, 3, 4):
        level = enum.leaves_at(n)
        assert len({l.base for l in level}) == len(level)  # distinct per level


def test_depth_one_fiber_is_identity():
    # length-one words do not move the fiber point
    sk = dyadic_skew()
    p = (ShiftPoint.from_words(2, left=(1,), right=(0,)), F(1, 3))
    enum = enumerate_unstable(sk, p, 1)
    assert all(l.fiber == F(1, 3) for l in enum.leaves)
    assert len(enum.leaves) == 2


def test_shift_consistency():
    sk = dyadic_skew()
    x = ShiftPoint.from_words(2, left=(1,), right=(0, 1))
    y = F(1, 4)
    x1, y1 = iterate_skew(sk, (x, y), 1)
    assert x1 == x.shift()
    assert y1 == sk.contracting[x.symbol(0)].apply(y)


def test_projection_identity_at_fixed_points(dyadic_ifs):
    sk = dyadic_skew()
    p = sk.fixed_point(0, F(0))
    rep = project_unstable_equals_ifs(sk, p, 6, 2**-6)
    assert rep["match"] and not rep["mismatched_cells"]
    # the other fixed point works as well
    p1 = sk.fixed_point(1, F(1))
    rep1 = project_unstable_equals_ifs(sk, p1, 5, 2**-6)
    assert rep1["match"]


def test_projection_depth_zero():
    sk = dyadic_skew()
    rep = project_unstable_equals_ifs(sk, sk.fixed_point(0, F(0)), 0, 2**-6)
    assert rep["match"] and rep["enum_cells"] == 1


def test_projection_mismatch_on_corrupted_fiber():
    line = unit_interval_space(1)
    good = [affine_fiber(line, 0.5, c, f"f{i}") for i, c in enumerate((0.0, 0.5))]
    bad = [affine_fiber(line, 0.5, c, f"g{i}") for i, c in enumerate((0.0, 0.4))]
    sk_bad = SkewProduct(d=2, fiber_space=line, contracting=[good[0], bad[1]])
    p = sk_bad.fixed_point(0, 0.0)
    # compare the corrupted enumeration against the clean system's orbit
    from dynlab.ifs import forward_orbit
    from dynlab.skew import fiber_ifs

    enum = enumerate_unstable(sk_bad, p, 5, eps=2**-6)
    clean = fiber_ifs(good, Box(line, [0.0], [1.0]))
    reach = forward_orbit(clean, [0.0], depth=4, eps=2**-6)
    assert enum.projection.cells() != reach.cells()


def test_projection_requires_fixed_point():
    sk = dyadic_skew()
    x = ShiftPoint.from_words(2, left=(1,), right=())
    with pytest.raises(NotFixedPoint):
        project_unstable_equals_ifs(sk, (x, F(0)), 3, 2**-5)


def scalar_symbolic_search(phi, region, eps, strip_samples, seed, depth_max, generator_major):
    """Reference: the scalar dict search that verify_symbolic_cs_blender ran
    per strip before the orbit core. It visited images frontier-major (for
    each frontier point, each symbol); generator_major swaps the two loops."""
    rng = np.random.default_rng(seed)
    x0, y0 = phi.fixed_point(0)
    results = []
    worst = 0
    for _ in range(strip_samples):
        sbase, ball = sample_strip(phi, region, eps, rng)
        hit = None
        dedup_eps = min(eps, ball.radius) / 8.0
        space = region.space
        seen = {tuple(space.cell_index(_fiber_point_array(y0), dedup_eps))}
        frontier = [((), y0)]
        if ball.contains(_fiber_point_array(y0)):
            hit = ((), y0)
        depth = 0
        while hit is None and depth < depth_max and frontier:
            depth += 1
            nxt = []
            if generator_major:
                visits = [(w, v, s) for s in range(phi.d) for w, v in frontier]
            else:
                visits = [(w, v, s) for w, v in frontier for s in range(phi.d)]
            for w, v, s in visits:
                v2 = phi.contracting[s].apply(v)
                pt = _fiber_point_array(v2)
                if not region.contains(pt, tol=1e-12):
                    continue
                w2 = w + (s,)
                if ball.contains(pt):
                    hit = (w2, v2)
                    break
                key = tuple(space.cell_index(pt, dedup_eps))
                if key not in seen:
                    seen.add(key)
                    nxt.append((w2, v2))
            frontier = nxt
        if hit is None:
            results.append({"hit": False, "depth": None})
        else:
            word, fiber = hit
            leaf_base = insert_word(x0, word + (sbase.symbol(1),))
            witness = leaf_base.splice_right(sbase)
            ok = witness.agrees(sbase, 1, 12)
            results.append({"hit": True, "depth": len(word), "witness_ok": ok})
            worst = max(worst, len(word))
    n_hit = sum(1 for r in results if r["hit"])
    return {
        "pass": n_hit == strip_samples,
        "worst_depth": worst,
        "hits": n_hit,
        "samples": strip_samples,
        "per_strip": results,
    }


def perturbed_triple_skew(eta, seed):
    line = unit_interval_space(1)
    fibers = []
    for i, c in enumerate((0.0, 0.25, 0.5)):
        pert = perturb_map(affine_fiber(line, 0.5, c, f"f{i}").smooth, eta, seed=seed * 10 + i)
        fibers.append(
            FiberMap(
                smooth=pert,
                apply=lambda y, m=pert: float(m.fn(np.array([float(y)]))[0]),
                apply_inv=lambda y, m=pert: float(m.invert(np.array([float(y)]))[0]),
            )
        )
    return SkewProduct(d=3, fiber_space=line, contracting=fibers)


def fraction_double_skew():
    """Contracting maps and their exact inverses as the expanding part."""
    line = unit_interval_space(1)
    shifts = [F(0), F(1, 4), F(1, 2)]
    cs = [affine_fiber(line, F(1, 2), c, f"f{i}") for i, c in enumerate(shifts)]
    exp = [affine_fiber(line, F(2), -2 * c, f"inv{i}") for i, c in enumerate(shifts)]
    return SkewProduct(d=3, fiber_space=line, contracting=cs, expanding=exp)


def test_symbolic_search_matches_the_scalar_search():
    line = unit_interval_space(1)
    D = Box(line, [0.0], [1.0])
    fd = fraction_double_skew()
    cu = [FiberMap(smooth=f.smooth.inverse, apply=f.apply_inv, apply_inv=f.apply) for f in fd.expanding]
    gap = [affine_fiber(line, 0.5, c, f"g{i}") for i, c in enumerate((0.0, 0.6))]
    margin = verify_covering(fiber_ifs(triple_skew(exact=False).contracting, D), D, 1 / 16).margin
    systems = {
        "triple": (triple_skew(exact=False), 24),
        "gap-pair": (SkewProduct(d=2, fiber_space=line, contracting=gap), 12),
        "fraction-double-cs": (fd, 24),
        "fraction-double-cu": (SkewProduct(d=3, fiber_space=line, contracting=cu), 24),
        **{f"perturbed-{s}": (perturbed_triple_skew(0.3 * margin, s), 24) for s in (1, 2, 3)},
    }
    order_changes = []
    for name, (sk, depth_max) in systems.items():
        for eps in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
            for seed in range(3):
                got = verify_symbolic_cs_blender(sk, D, eps, 40, seed, depth_max)
                assert got == scalar_symbolic_search(sk, D, eps, 40, seed, depth_max, True)
                frontier_major = scalar_symbolic_search(sk, D, eps, 40, seed, depth_max, False)
                if got != frontier_major:
                    pairs = enumerate(zip(frontier_major["per_strip"], got["per_strip"]))
                    strips = [(i, a["depth"], b["depth"]) for i, (a, b) in pairs if a != b]
                    worst = (frontier_major["worst_depth"], got["worst_depth"])
                    order_changes.append((name, eps, seed, strips, *worst))
    # frontier-major and generator-major visits keep different cell
    # representatives; on these 84 runs of 40 strips one strip's word
    # comes out one level longer, and no verdict changes
    assert order_changes == [("perturbed-3", 1 / 128, 2, [(30, 4, 5)], 5, 5)]
    double = verify_symbolic_double_blender(fd, D, D, 1 / 32, 40, seed=5)
    assert double["cs"] == verify_symbolic_cs_blender(fd, D, 1 / 32, 40, 5)
    assert double["cu"] == verify_symbolic_cs_blender(systems["fraction-double-cu"][0], D, 1 / 32, 40, 6)


def test_cs_blender_triple_passes():
    sk = triple_skew(exact=False)
    D = Box(sk.fiber_space, [0.0], [1.0])
    rep = verify_symbolic_cs_blender(sk, D, 1 / 32, 100, seed=7)
    assert rep["pass"]
    assert rep["worst_depth"] <= 8
    assert all(r.get("witness_ok", True) for r in rep["per_strip"])


def test_cs_blender_huge_ball_trivial_depth():
    sk = triple_skew(exact=False)
    D = Box(sk.fiber_space, [0.0], [1.0])
    rep = verify_symbolic_cs_blender(sk, D, 2.0, 10, seed=1)
    assert rep["pass"] and rep["worst_depth"] <= 1


def test_cs_blender_gap_pair_fails():
    line = unit_interval_space(1)
    gap = [affine_fiber(line, 0.5, c, f"g{i}") for i, c in enumerate((0.0, 0.6))]
    sk = SkewProduct(d=2, fiber_space=line, contracting=gap)
    rep = verify_symbolic_cs_blender(sk, Box(line, [0.0], [1.0]), 1 / 64, 40, seed=1, depth_max=12)
    assert not rep["pass"]


def test_double_blender_affine_pair():
    line = unit_interval_space(1)
    cs = [affine_fiber(line, 0.5, c, f"f{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    exp = [affine_fiber(line, 2.0, -2 * c, f"e{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    sk = SkewProduct(d=3, fiber_space=line, contracting=cs, expanding=exp)
    D = Box(line, [0.0], [1.0])
    rep = verify_symbolic_double_blender(sk, D, D, 1 / 32, 60, seed=3)
    assert rep["pass"] and rep["cs"]["pass"] and rep["cu"]["pass"]


def test_double_blender_symplectic_pairing():
    # expanding maps are the inverses of the contracting ones
    sk = fraction_double_skew()
    for f, e in zip(sk.contracting, sk.expanding):
        assert e.apply(f.apply(F(1, 3))) == F(1, 3)
    D = Box(sk.fiber_space, [0.0], [1.0])
    rep = verify_symbolic_double_blender(sk, D, D, 1 / 32, 60, seed=5)
    assert rep["pass"]


def test_double_blender_requires_expanding_part():
    sk = triple_skew(exact=False)
    D = Box(sk.fiber_space, [0.0], [1.0])
    with pytest.raises(NotInvertible):
        verify_symbolic_double_blender(sk, D, D, 1 / 32, 10, seed=0)


def test_blender_verdict_stable_under_perturbation():
    # perturb the fiber maps by 0.05 * lam and re-run the strip check
    for seed in range(3):
        sk = perturbed_triple_skew(0.05 * 0.5, seed)
        rep = verify_symbolic_cs_blender(sk, Box(sk.fiber_space, [0.0], [1.0]), 1 / 32, 40, seed=11)
        assert rep["pass"], seed

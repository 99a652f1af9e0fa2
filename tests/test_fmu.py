import numpy as np
import pytest

from dynlab.errors import ScheduleTooSmall
from dynlab.fmu import (
    BlockSchedule,
    almost_minimality_experiment,
    build_F_mu,
    depth_from_diameter,
    itinerary_for_word,
    shear_family,
    weak_hyperbolicity_budget,
    word_into,
    words_into,
)
from dynlab.horseshoe import HorseshoeBase
from dynlab.ifs import CellSet
from dynlab.spaces import Box, torus
from dynlab.twist import twist_map


@pytest.fixture(scope="module")
def desk():
    l = 3
    base = HorseshoeBase.build(2 * l + 5, mu_ss=0.02)
    sched = BlockSchedule(base, l=l)
    t2 = torus(2)
    f2 = twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="fiber-twist")
    pack = [shear_family(t2, 2.2, 0.13, "p1"), shear_family(t2, 2.6, 0.57, "p2")]
    ball = Box.ball(t2, [0.5, 0.5], 0.10)
    return base, sched, f2, pack, ball


def test_schedule_needs_enough_symbols():
    base = HorseshoeBase.build(6, mu_ss=0.02)
    with pytest.raises(ScheduleTooSmall):
        BlockSchedule(base, l=1)  # needs 2l+5 = 7 symbols


def test_weak_hyperbolicity_budget():
    weak_hyperbolicity_budget(0.05, 13)  # 0.95^13 ~ 0.513
    with pytest.raises(ScheduleTooSmall) as e:
        weak_hyperbolicity_budget(0.05, 14)
    assert "k <= 13" in str(e.value)


def test_mu_zero_is_exact_product(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 0.0, pack, blender_ball=ball)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        while True:
            b = rng.uniform(0, 1, 2)
            if base.rect_of(b) >= 0:
                break
        y = rng.uniform(0, 1, 2)
        p = np.concatenate([b, y])
        lhs = fm.eval(p)
        rhs = np.concatenate([base.apply(b), f2.domain.canonicalize(f2.raw(y))])
        assert np.array_equal(lhs, rhs)


def test_block_restriction_equals_twist_composition(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    codes = sched.forward_codes()
    rng = np.random.default_rng(1)
    t2 = f2.domain
    for sigma in (0, 1, 2):
        for _ in range(10):
            nxt = codes[int(rng.integers(0, 3))]
            u = base.u_from_itinerary((0, codes[sigma], nxt), 0.5)
            p = np.concatenate([[rng.uniform(0, 1), u], rng.uniform(0, 1, 2)])
            out = fm.eval(p)
            expected = fm.minimality_maps[sigma].raw(p[2:]) if sigma else f2.raw(p[2:])
            expected = t2.canonicalize(np.atleast_1d(expected))
            assert np.max(np.abs(out[2:] - expected)) < 1e-15, sigma


def test_blender_rows_translate_the_ball(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    # a point whose image lands in row 1 gets the fiber translated after f2
    u = base.u_from_itinerary((0, 1, 0), 0.5)
    y = np.array([0.5, 0.5])  # ball center
    p = np.concatenate([[0.3, u], y])
    out = fm.eval(p)
    fy = f2.domain.canonicalize(f2.raw(y))
    if ball.contains(fy):
        moved = out[2:] - fy
        assert np.max(np.abs(moved)) == pytest.approx(fm.eps, abs=1e-12)


def test_untouched_blocks_are_plain_product(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    # rows/columns outside every scheduled block: symbol 0 everywhere
    u = base.u_from_itinerary((0, 0, 0), 0.5)
    p = np.concatenate([[0.2, u], [0.31, 0.77]])
    out = fm.eval(p)
    rhs = np.concatenate([base.apply(p[:2]), f2.domain.canonicalize(f2.raw(p[2:]))])
    assert np.array_equal(out, rhs)


def test_batch_evaluates_as_its_rows(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    rng = np.random.default_rng(4)
    rects = rng.integers(0, base.n_rect, 60)
    u = base.slab_lo[rects] + rng.uniform(0, 1, 60) * base.height
    pts = np.column_stack([rng.uniform(0, 1, 60), u, rng.uniform(0, 1, (60, 2))])
    out = fm.eval(pts)
    assert out.shape == pts.shape
    assert np.array_equal(out, np.stack([fm.eval(p) for p in pts]))
    # some rows meet a scheduled block, so they are not the plain product
    plain = f2.domain.canonicalize(f2.raw(pts[:, 2:]))
    assert np.any(out[:, 2:] != plain)


def test_itinerary_realizes_words(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    rng = np.random.default_rng(2)
    t2 = f2.domain
    for _ in range(5):
        w = tuple(int(s) for s in rng.integers(0, 3, size=6))
        itin = itinerary_for_word(sched, w)
        u0 = base.u_from_itinerary(itin, base.slab_lo[0] + base.height / 2)
        s0 = base.col_lo[0] / (1 - base.mu_ss)
        q = rng.uniform(0, 1, 2)
        p = np.concatenate([[s0, u0], q])
        for _ in range(len(w)):
            p = fm.eval(p)
        expected = q.copy()
        for s in w:
            expected = t2.canonicalize(np.atleast_1d(fm.minimality_maps[s].raw(expected)))
        assert np.max(np.abs(t2.canonicalize(p[2:]) - expected)) < 1e-12


def test_depth_from_diameter(desk):
    base, *_ = desk
    L = base.height * base.mu_uu**12
    assert depth_from_diameter(base, L) == 12
    assert depth_from_diameter(base, base.height * 0.5) == 0


def test_word_into_finds_targets(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    w = word_into(fm.minimality_maps, np.array([0.1, 0.9]), ball, 12, 1 / 128)
    assert w is not None
    p = np.array([0.1, 0.9])
    for s in w:
        p = f2.domain.canonicalize(fm.minimality_maps[s].raw(p))
    assert ball.contains(p)


def cellset_word_into(maps, seed, target, depth, eps):
    """Reference: the CellSet loop that word_into ran before the orbit core."""
    space = maps[0].domain
    seed = np.asarray(seed, dtype=float)
    if target.contains(space.canonicalize(seed)):
        return ()
    seen = CellSet(space, eps)
    seen.add_new(space.cell_index(seed[None], eps))
    words: list[tuple[int, ...]] = [()]
    pts = seed[None]
    for _ in range(depth):
        if not words:
            return None
        nxt_words, nxt_pts = [], []
        for gi, g in enumerate(maps):
            imgs = space.canonicalize(g.raw(pts))
            hits = np.flatnonzero(target.contains(imgs))
            if len(hits):
                return words[hits[0]] + (gi,)
            new = seen.add_new(space.cell_index(imgs, eps))
            nxt_words += [words[j] + (gi,) for j in new.tolist()]
            nxt_pts.append(imgs[new])
        words, pts = nxt_words, np.concatenate(nxt_pts)
    return None


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
def test_word_into_matches_reference(desk, mu):
    # the lockstep search of every seed gives each seed its own word: the
    # ball's center is a seed already inside, and depth 3 leaves seeds
    # without a word
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, mu, pack, blender_ball=ball, zeta=20.0)
    inv_bwd = [m.inverse for m in fm.minimality_maps_bwd]
    axis = np.linspace(0.03, 0.97, 12)
    seeds = np.concatenate([np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2), [[0.5, 0.5]]])
    words = []
    for eps, depth in ((1 / 64, 12), (1 / 128, 12), (1 / 128, 3)):
        for maps in (fm.minimality_maps, inv_bwd):
            got = words_into(maps, seeds, ball, depth, eps)
            assert got == [cellset_word_into(maps, q, ball, depth, eps) for q in seeds]
            assert got[::29] == [word_into(maps, q, ball, depth, eps) for q in seeds[::29]]
            words += got
    assert () in words and None in words and any(words)


def test_words_into_at_a_fine_grid_runs_each_seed_on_its_own_grid(desk):
    # at eps 1/2048 a seed's grid holds 2**22 cells, so five seeds cannot
    # share one grid of 2**24 cells; each still gets its word alone
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    seeds = np.random.default_rng(5).uniform(0.05, 0.95, (5, 2))
    got = words_into(fm.minimality_maps, seeds, ball, 12, 1 / 2048)
    assert got == [word_into(fm.minimality_maps, q, ball, 12, 1 / 2048) for q in seeds] and any(got)


def test_almost_minimality_small(desk):
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    axis = np.linspace(0.1, 0.9, 4)
    samples = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    L = base.height * base.mu_uu**12
    rep = almost_minimality_experiment(fm, samples, L, eps=1 / 64)
    assert rep["connected_fraction"] >= 0.95
    assert all(r < 1e-10 for r in rep["replay_residuals"])


def test_uu_witnesses_reconnect_after_iteration(desk):
    # a fiber witness inside the marked ball, iterated through the family
    # along any scheduled itinerary, again admits a word back into the ball
    # in both time directions (tested on 20 witnesses over 5 iterations)
    base, sched, f2, pack, ball = desk
    fm = build_F_mu(base, f2, sched, 1.0, pack, blender_ball=ball, zeta=20.0)
    inv_bwd = [m.inverse for m in fm.minimality_maps_bwd]
    rng = np.random.default_rng(7)
    t2 = f2.domain
    witnesses = ball.sample(rng, 20)
    for q in witnesses:
        fwd = q.copy()
        bwd = q.copy()
        for _ in range(5):
            s = int(rng.integers(0, 3))
            fwd = t2.canonicalize(fm.minimality_maps[s].raw(fwd))
            assert word_into(fm.minimality_maps, fwd, ball, 12, 1 / 128) is not None
            bwd = t2.canonicalize(inv_bwd[s].raw(bwd))
            assert word_into(inv_bwd, bwd, ball, 12, 1 / 128) is not None


def test_mu_zero_control_matches_orbit_oracle(desk):
    base, sched, f2, pack, ball = desk
    fm0 = build_F_mu(base, f2, sched, 0.0, pack, blender_ball=ball)
    axis = np.linspace(0.05, 0.95, 6)
    samples = np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)
    L = base.height * base.mu_uu**12
    depth = depth_from_diameter(base, L)
    rep = almost_minimality_experiment(fm0, samples, L, eps=1 / 64)
    # oracle: with a single generator the question is a plain orbit check
    t2 = f2.domain
    oracle = []
    for q in samples:
        p = q.copy()
        hit = ball.contains(p)
        for _ in range(depth):
            p = t2.canonicalize(f2.raw(p))
            if ball.contains(p):
                hit = True
                break
        oracle.append(hit)
    # both directions coincide for the twist, so connectivity = forward hits
    assert rep["connected_fraction"] == pytest.approx(np.mean(oracle))


def test_block_role_tags(desk):
    base, sched, *_ = desk
    l = sched.l
    assert sched.role_of(1, 0) == "blender-contracting"
    assert sched.role_of(0, l + 1) == "blender-expanding"
    assert sched.role_of(2 * l + 1, 0) == "minimality-forward"
    assert sched.role_of(0, 2 * l + 3) == "minimality-backward"
    assert sched.role_of(0, 0) == "untouched"

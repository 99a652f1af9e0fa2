import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.blender import (
    _ABORT,
    _BISECT_STEPS,
    _TREE_DEPTH,
    ConeField,
    _bisect_tree,
    _replay_batch,
    build_geometric_model,
    sample_strips,
    verify_cone_invariance,
    verify_covering_geometric,
    verify_double_blender,
    verify_strip_intersection,
)
from dynlab.bumps import hamiltonian_bump_translation
from dynlab.covering import backward_itinerary
from dynlab.errors import DominationViolated, NotInvertible, RectanglesOverlap, VectorTooLarge
from dynlab.horseshoe import HorseshoeBase
from dynlab.maps import affine_map, check_symplectic
from dynlab.perturb import perturb_map
from dynlab.spaces import Box, Interval, StateSpace


def wide_line():
    return StateSpace((Interval(-4.0, 5.0),))


def triple_fibers(space):
    return [affine_map(space, [[0.5]], [c], name=f"cs{i}") for i, c in enumerate((0.0, 0.25, 0.5))]


def test_build_valid_model(symplectic_model):
    assert symplectic_model.k == 3
    P = symplectic_model.fixed_point()
    F = symplectic_model.as_map()
    assert np.max(np.abs(F.raw(P) - P)) < 1e-12


def test_domination_violation():
    # base contraction 0.6 is weaker than the fiber bound 0.5
    base = HorseshoeBase.build(1, mu_ss=0.6, mu_uu=10.0)
    sp = wide_line()
    cs = [affine_map(sp, [[0.5]], [0.25], name="c0")]
    with pytest.raises(DominationViolated):
        build_geometric_model(base, cs, Box(sp, [0.0], [1.0]))


def test_rectangle_overlap_detected():
    with pytest.raises(RectanglesOverlap):
        HorseshoeBase.build(3, mu_ss=0.4, mu_uu=10.0)  # columns 3 * 0.4 > 1


def test_symplectic_flag_needs_inverses():
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    cs = triple_fibers(sp)
    with pytest.raises(NotInvertible):
        build_geometric_model(base, cs, Box(sp, [0.0], [1.0]), symplectic=True)


def test_product_exactness(symplectic_model):
    model = symplectic_model
    rng = np.random.default_rng(0)
    base = model.base
    for _ in range(50):
        while True:
            b = rng.uniform(0, 1, 2)
            r = int(base.rect_of(b))
            if r >= 0:
                break
        y = rng.uniform(0, 1, 1)
        z = rng.uniform(0, 1, 1)
        p = np.concatenate([b, y, z])
        out = model.eval(p)
        assert np.array_equal(out[:2], base.apply(b))
        assert np.array_equal(out[2:3], model.fibers_cs[r].raw(y))
        j = int(base.nearest_rect(base.apply(b)[1]))
        assert np.array_equal(out[3:], model.fibers_cu[j].raw(z))


unit = st.floats(0.0, 1.0)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2), unit, unit, unit, unit), max_size=9))
def test_batches_evaluate_as_their_rows(symplectic_model, extra):
    # one row in every rectangle, then any others: a batch evaluates bit for
    # bit as its rows one at a time, and a point comes back as a point
    model = symplectic_model
    base, dim = model.base, model.dim
    rows = [(r, 0.5, 0.5, 0.5, 0.5) for r in range(model.k)] + extra
    pts = np.array([[s, base.slab_lo[r] + f * base.height, y, z] for r, s, f, y, z in rows])
    for fn, batch, tail in (
        (model.eval, pts, (dim,)),
        (model.eval_inv, model.eval(pts), (dim,)),
        (model.jacobian, pts, (dim, dim)),
    ):
        singles = [fn(p) for p in batch]
        assert all(out.shape == tail for out in singles)
        assert np.array_equal(fn(batch), np.stack(singles))
        assert np.array_equal(fn(batch[None]), np.stack(singles)[None])


def test_full_product_symplectic(symplectic_model):
    F = symplectic_model.as_map()
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 100:
        p = symplectic_model.region_full().sample(rng)
        if symplectic_model.base.rect_of(p[:2]) >= 0:
            pts.append(p)
    rep = check_symplectic(F, np.array(pts), tol=1e-8)
    assert rep["pass"] and rep["max_residual"] < 1e-10


def test_covering_geometric_reduces_to_fiber_certificates(symplectic_model_report):
    rep = symplectic_model_report
    assert rep["pass"]
    assert rep["fiber_cert"].valid
    assert rep["d_value"] == pytest.approx(1 / 8, abs=1 / 16)
    assert rep["leaf_condition_fraction"] == 1.0
    assert rep["iterated_condition_fraction"] == 1.0


def test_covering_geometric_gap_negative():
    base = HorseshoeBase.build(2, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    gap = [affine_map(sp, [[0.5]], [c], name=f"g{i}") for i, c in enumerate((0.0, 0.6))]
    model = build_geometric_model(base, gap, Box(sp, [0.0], [1.0]))
    from dynlab.errors import Uncovered

    with pytest.raises(Uncovered):
        verify_covering_geometric(model, grid_step=1 / 32)


def test_strip_hit_at_depth_zero(symplectic_model, symplectic_model_report):
    model = symplectic_model
    P = model.fixed_point()
    from dynlab.blender import Strip

    # ball already containing the fixed point's fiber coordinate
    strip = Strip(kind="s", rect=0, level=model.base.slab_lo[0] + 0.01,
                  fiber_ball=Box.ball(model.region_cs.space, P[2:3], 0.05),
                  other_level=np.array([0.4]))
    rep = verify_strip_intersection(model, strip, symplectic_model_report["fiber_cert"], 20, 1e-9)
    assert rep["hit"] and rep["depth"] <= 1


def test_strip_depth_exhausted_diagnosis(symplectic_model, symplectic_model_report):
    # a tiny fiber ball with a depth budget below the analytic pullback bound
    model = symplectic_model
    from dynlab.blender import Strip
    from dynlab.errors import DepthExhausted

    strip = Strip(kind="s", rect=0, level=model.base.slab_lo[0] + 0.01,
                  fiber_ball=Box.ball(model.region_cs.space, [0.333], 1e-6),
                  other_level=np.array([0.4]))
    with pytest.raises(DepthExhausted) as e:
        verify_strip_intersection(model, strip, symplectic_model_report["fiber_cert"], 2, 1e-9)
    assert e.value.depth_bound > 2


def test_strip_miss_in_gap_basin():
    base = HorseshoeBase.build(2, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    # images [0, 0.5] and [0.6, 1.1]: within [0,1] the zone (0.5, 0.6) has no
    # covering preimage, so pullbacks cannot reach strips there
    gap = [affine_map(sp, [[0.5]], [c], name=f"g{i}") for i, c in enumerate((0.0, 0.6))]
    model = build_geometric_model(base, gap, Box(sp, [0.0], [1.0]))
    from dynlab.blender import Strip
    from dynlab.covering import verify_covering

    region = Box(sp, [0.0], [0.5])  # certify the reachable left part only
    cert = verify_covering(model.fiber_ifs_cs(), region, 1 / 32, image_region=Box(sp, [0.0], [1.0]))
    strip = Strip(kind="s", rect=0, level=model.base.slab_lo[0] + 0.01,
                  fiber_ball=Box.ball(sp, [0.55], 0.04))
    rep = verify_strip_intersection(model, strip, cert, 25, 1e-9)
    assert not rep["hit"]


def test_double_blender_both_directions(symplectic_model, symplectic_model_report):
    model = symplectic_model
    rep0 = symplectic_model_report
    ss = sample_strips(model, "s", 25, 1 / 32, seed=21)
    us = sample_strips(model, "u", 25, 1 / 32, seed=22)
    rep = verify_double_blender(
        model, ss, us, rep0["fiber_cert"], rep0["fiber_cert_cu"], 30, 1e-9
    )
    assert rep["pass"]
    assert rep["s_hits"] == 25 and rep["u_hits"] == 25


def test_nested_ball_witnesses_accumulate(symplectic_model, symplectic_model_report):
    # shrinking fiber balls around a pinned point produce witnesses whose
    # distance to the strong-stable leaf of that point goes to zero
    model = symplectic_model
    rep0 = symplectic_model_report
    from dynlab.blender import Strip

    x2 = np.array([0.37])
    z2 = np.array([0.61])
    level = model.base.slab_lo[1] + 0.37 * model.base.height
    dists = []
    for eps_k in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        strip = Strip(kind="s", rect=1, level=level,
                      fiber_ball=Box.ball(model.region_cs.space, x2, eps_k),
                      other_level=z2)
        rep = verify_strip_intersection(model, strip, rep0["fiber_cert"], 40, 1e-9,
                                        fiber_cert_cu=rep0["fiber_cert_cu"])
        assert rep["hit"]
        # distance of the witness endpoint to the pinned leaf coordinates
        final = rep["final"]
        dists.append(max(abs(final[2] - x2[0]), abs(final[1] - level)))
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 1 / 64


def test_cone_invariance_standard(symplectic_model):
    cones = ConeField.standard(symplectic_model, 0.2)
    rep = verify_cone_invariance(symplectic_model, cones, samples=40, seed=2)
    assert rep["pass"]
    assert all(v["margin"] > 0 for v in rep["per_cone"].values())


def test_cone_equal_rates_fail():
    # expansion 2 in the base and 2 in the cu fiber: no strict invariance
    base = HorseshoeBase.build(1, mu_ss=0.4, mu_uu=2.0)
    sp = wide_line()
    cs = [affine_map(sp, [[0.5]], [0.25], name="c0")]
    model = build_geometric_model(base, cs, Box(sp, [0.0], [1.0]),
                                  fibers_cu=[cs[0].inverse], region_cu=Box(sp, [0.0], [1.0]))
    rep = verify_cone_invariance(model, ConeField.standard(model, 1.5), samples=30, seed=2)
    assert not rep["pass"]


def test_cone_margin_shrinks_under_perturbation(symplectic_model):
    F = symplectic_model.as_map()
    cones = ConeField.standard(symplectic_model, 0.2)
    clean = verify_cone_invariance(symplectic_model, cones, samples=30, seed=3)
    G = perturb_map(F, 0.01, seed=4)
    pert = verify_cone_invariance(symplectic_model, cones, samples=30, seed=3, G=G)
    assert pert["pass"]
    worst_clean = min(v["margin"] for v in clean["per_cone"].values())
    worst_pert = min(v["margin"] for v in pert["per_cone"].values())
    assert worst_pert <= worst_clean + 1e-9


# ---------------------------------------------------------------------------
# bump translations
# ---------------------------------------------------------------------------

def pair_space():
    return StateSpace((Interval(-1, 1), Interval(-1, 1)))


def test_bump_translation_core_exact():
    sp = pair_space()
    U = Box(sp, [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(sp, [-0.8, -0.8], [0.8, 0.8])
    bt = hamiltonian_bump_translation([0.1], [0.05], U, Ut)
    p = np.array([0.0, 0.1])
    assert np.array_equal(bt(p), p + [0.1, 0.05])


def test_bump_translation_identity_outside():
    sp = pair_space()
    U = Box(sp, [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(sp, [-0.8, -0.8], [0.8, 0.8])
    bt = hamiltonian_bump_translation([0.1], [0.05], U, Ut)
    q = np.array([0.9, -0.9])
    assert np.array_equal(bt(q), q)


def test_bump_translation_zero_vector_identity():
    sp = pair_space()
    U = Box(sp, [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(sp, [-0.8, -0.8], [0.8, 0.8])
    bt = hamiltonian_bump_translation([0.0], [0.0], U, Ut)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.95, 0.95, (40, 2))
    assert np.array_equal(bt(pts), pts)


def test_bump_translation_symplectic_and_invertible():
    sp = pair_space()
    U = Box(sp, [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(sp, [-0.8, -0.8], [0.8, 0.8])
    bt = hamiltonian_bump_translation([0.1], [0.05], U, Ut)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.95, 0.95, (60, 2))
    rep = check_symplectic(bt, pts, tol=1e-8)
    assert rep["pass"]
    inner = rng.uniform(-0.75, 0.75, (40, 2))
    assert np.max(np.abs(bt.inverse(bt(inner)) - inner)) < 1e-10


def test_bump_translation_batches_keep_shapes_and_closed_forms():
    # rows translated exactly or left outside the support are closed forms,
    # the same bits in a batch as alone; collar rows share one integrator
    # whose inner solve stops on the batch-wide residual, so only shapes compare
    sp = pair_space()
    U = Box(sp, [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(sp, [-0.8, -0.8], [0.8, 0.8])
    bt = hamiltonian_bump_translation([0.1], [0.05], U, Ut)
    delta = np.array([0.1, 0.05])
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.uniform(-0.2, 0.2, (8, 2)), rng.uniform(-0.95, 0.95, (40, 2))])
    outside = ~Ut.contains(pts, tol=0.0)
    fwd_in, inv_in = U.contains(pts), U.contains(pts - delta)
    for fn, moved, expected in (
        (bt.raw, fwd_in, np.where(fwd_in[:, None], pts + delta, pts)),
        (bt.inverse.raw, inv_in, np.where(inv_in[:, None], pts - delta, pts)),
        (bt.jacobian, fwd_in, np.broadcast_to(np.eye(2), (len(pts), 2, 2))),
    ):
        closed = moved | outside
        assert moved.sum() >= 5 and outside.sum() >= 5 and (~closed).sum() >= 10
        batch = fn(pts)
        tail = batch.shape[1:]
        assert fn(pts[0]).shape == tail
        assert fn(pts.reshape(6, 8, 2)).shape == (6, 8) + tail
        assert np.array_equal(batch[closed], expected[closed])
        assert np.array_equal(batch[closed], np.stack([fn(p) for p in pts[closed]]))


def test_bump_translation_vector_too_large():
    sp = pair_space()
    U = Box(sp, [-0.3, -0.3], [0.3, 0.3])
    Ut = Box(sp, [-0.5, -0.5], [0.5, 0.5])
    with pytest.raises(VectorTooLarge):
        hamiltonian_bump_translation([0.5], [0.0], U, Ut)


# ---------------------------------------------------------------------------
# perturbation stability and iterated-leaf properties
# ---------------------------------------------------------------------------

def test_strip_verdicts_persist_under_perturbation(symplectic_model, symplectic_model_report):
    # twenty seeds at eta = 0.3 x covering margin, both strip directions
    model = symplectic_model
    rep0 = symplectic_model_report
    eta = 0.3 * rep0["fiber_cert"].margin
    F = model.as_map()
    for seed in range(20):
        G = perturb_map(F, eta, seed=seed)
        ss = sample_strips(model, "s", 3, 1 / 32, seed=300 + seed)
        us = sample_strips(model, "u", 3, 1 / 32, seed=400 + seed)
        for s in ss + us:
            rep = verify_strip_intersection(
                model, s, rep0["fiber_cert"], 30, eps=0.02, G=G,
                fiber_cert_cu=rep0["fiber_cert_cu"],
            )
            assert rep["hit"], (seed, s.kind, rep.get("reason"))


def test_uu_leaf_forward_backward_iteration(symplectic_model, symplectic_model_report):
    # a fiber witness inside the region keeps meeting it: forward images stay
    # inside (images nest into the region), and backward pullbacks chosen by
    # the covering assignment stay inside as well
    model = symplectic_model
    cert = symplectic_model_report["fiber_cert"]
    ifs = model.fiber_ifs_cs()
    rng = np.random.default_rng(9)
    region = model.region_cs
    for _ in range(20):
        y = region.sample(rng)
        fwd = y.copy()
        for step in range(5):
            gi = int(rng.integers(ifs.k))
            fwd = ifs.generators[gi].raw(fwd)
            assert region.contains(fwd, tol=1e-12)
        word = backward_itinerary(ifs, y, 5, cert)
        back = y.copy()
        for s in word:
            back = ifs.generators[s].invert(back)
            assert region.contains(back, tol=1e-9)


def test_witness_distance_shrinks_with_depth(symplectic_model, symplectic_model_report):
    # strip-hit residuals measured at three depths around a recurrent sample
    model = symplectic_model
    rep0 = symplectic_model_report
    from dynlab.blender import Strip

    sample_fiber = np.array([0.5])
    level = model.base.slab_lo[2] + 0.5 * model.base.height
    residuals = []
    for radius in (1 / 4, 1 / 16, 1 / 64):
        strip = Strip(kind="s", rect=2, level=level,
                      fiber_ball=Box.ball(model.region_cs.space, sample_fiber, radius),
                      other_level=np.array([0.5]))
        rep = verify_strip_intersection(model, strip, rep0["fiber_cert"], 40, 1e-9,
                                        fiber_cert_cu=rep0["fiber_cert_cu"])
        assert rep["hit"]
        residuals.append(abs(rep["final"][2] - sample_fiber[0]))
    assert residuals[2] <= 1 / 64
    assert residuals[0] <= 1 / 4 and residuals[1] <= 1 / 16


def test_model_map_takes_the_exact_path(symplectic_model, symplectic_model_report):
    # the model's own map (eta = 0 hands it back from perturb_map) needs no
    # fixed-point continuation or shooting: same word and start as G=None
    model = symplectic_model
    rep0 = symplectic_model_report
    F = model.as_map()
    assert model.as_map() is F
    assert perturb_map(F, 0.0, seed=1) is F
    strips = sample_strips(model, "s", 4, 1 / 32, seed=5)
    strips += sample_strips(model, "u", 4, 1 / 32, seed=6)
    for s in strips:
        kw = dict(fiber_cert_cu=rep0["fiber_cert_cu"])
        exact = verify_strip_intersection(model, s, rep0["fiber_cert"], 30, eps=0.02, **kw)
        via_map = verify_strip_intersection(model, s, rep0["fiber_cert"], 30, eps=0.02, G=F, **kw)
        assert exact["hit"] and via_map["hit"]
        assert via_map["witness_word"] == exact["witness_word"]
        np.testing.assert_array_equal(via_map["start"], exact["start"])


def test_jacobian_raises_in_gaps():
    # u = 0.05 lies below the first slab: eval and jacobian both refuse it
    base = HorseshoeBase.build(3, 0.1, 10.0)
    sp = wide_line()
    cs = [affine_map(sp, [[c]], [0.0], name=f"c{i}") for i, c in enumerate((0.5, 0.4, 0.3))]
    model = build_geometric_model(base, cs, Box(sp, [0.0], [1.0]))
    p = np.array([0.3, 0.05, 0.5])
    assert int(base.rect_of(p[:2])) == -1
    with pytest.raises(ValueError):
        model.eval(p)
    with pytest.raises(ValueError):
        model.jacobian(p)


# ---------------------------------------------------------------------------
# shooting: bisection trees and batched replays
# ---------------------------------------------------------------------------

def sequential_bisect(a, b, decide_one, steps=90):
    """The reference walk: one midpoint scored at a time."""
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        code = decide_one(mid)
        if code == _ABORT:
            return None
        if code:
            a = mid
        else:
            b = mid
    return a, b


def threshold(t):
    """Monotone decisions: the bracket's low end moves up to midpoints <= t."""
    return lambda mids: (np.asarray(mids) <= t).astype(int)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(finite, st.one_of(st.integers(1, 8), st.floats(1e-9, 1e3)), st.floats(-0.1, 1.1))
def test_bisection_tree_walks_the_sequential_path(a, width, frac):
    # integer widths are a few ulps, so a midpoint equal to an end stops the
    # walk inside a tree; the threshold may also lie outside the bracket
    if isinstance(width, int):
        b = a
        for _ in range(width):
            b = float(np.nextafter(b, np.inf))
    else:
        b = a + width
    t = a + frac * (b - a)
    decide = threshold(t)
    expected = sequential_bisect(a, b, lambda mid: int(decide([mid])[0]))
    got = _bisect_tree(a, b, decide)
    assert np.array_equal(np.array(got), np.array(expected))


def test_bisection_tree_reads_only_walked_codes():
    a, b, t = 0.0, 1.0, 0.3141592653589793
    walked = []
    sequential_bisect(a, b, lambda mid: walked.append(mid) or int(mid <= t))
    assert len(walked) > 2 * _TREE_DEPTH

    def aborting(targets):
        def decide(mids):
            codes = threshold(t)(mids)
            codes[np.isin(mids, targets)] = _ABORT
            return codes
        return decide

    # every node of the first tree off the walked path may abort: no effect
    trees = []
    clean = _bisect_tree(a, b, lambda mids: trees.append(mids.copy()) or threshold(t)(mids))
    off_path = np.setdiff1d(trees[0], walked)
    assert len(off_path) == len(trees[0]) - _TREE_DEPTH == 2**_TREE_DEPTH - 1 - _TREE_DEPTH
    assert _bisect_tree(a, b, aborting(off_path)) == clean
    # a walked node aborts, in the first tree and in a later one
    for node in (walked[2], walked[_TREE_DEPTH + 1]):
        assert _bisect_tree(a, b, aborting([node])) is None


def test_bisection_tree_caps_steps_across_trees():
    # always moving b down from 1e300 needs far more than 90 halvings to
    # reach 0, so the budget ends the walk, exactly where the sequential one
    # ends, after whole trees of scored midpoints
    scored = []

    def down(mids):
        scored.append(len(mids))
        return np.zeros(len(mids), dtype=int)

    got = _bisect_tree(0.0, 1e300, down)
    assert got == sequential_bisect(0.0, 1e300, lambda mid: 0)
    assert got == (0.0, 1e300 * 2.0**-_BISECT_STEPS)
    assert sum(scored) == (_BISECT_STEPS // _TREE_DEPTH) * (2**_TREE_DEPTH - 1)


def single_model():
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    return build_geometric_model(base, triple_fibers(sp), Box(sp, [0.0], [1.0]))


@pytest.mark.parametrize("which", ["symplectic", "trig-field"])
def test_replay_batch_equals_its_rows(symplectic_model, which):
    # rows that break at step 0 (in a gap or in the wrong slab), mid
    # itinerary (into a gap or a wrong slab) or never, under a perturbed map
    model = symplectic_model if which == "symplectic" else single_model()
    G = perturb_map(model.as_map(), 1e-4, seed=3)
    assert G.symplectic == (which == "symplectic")
    base = model.base
    itinerary = (1, 0, 2, 2, 1, 0)
    rng = np.random.default_rng(11)
    m = len(itinerary)
    rows = []
    for i in range(80):
        cut = (0, m, int(rng.integers(1, m)), int(rng.integers(0, m)))[i % 4]
        # the tail is a slab fraction, or a u in the gap below the first slab
        tail = rng.random() if i % 4 < 3 else rng.random() * base.slab_lo[0]
        u = base.u_from_itinerary(itinerary[:cut], tail)
        rows.append([rng.random(), u, *rng.uniform(0.0, 1.0, model.dim - 2)])
    P = np.array(rows)
    k, Q = _replay_batch(base, G, P, itinerary)
    assert (k == 0).sum() >= 5 and ((k > 0) & (k < m)).sum() >= 5 and (k == m).sum() >= 5
    stopped = Q[k < m, :2]
    assert (base.rect_of(stopped) < 0).sum() >= 5 and (base.rect_of(stopped) >= 0).sum() >= 5
    for r in range(len(P)):
        k1, Q1 = _replay_batch(base, G, P[r : r + 1], itinerary)
        assert k1[0] == k[r]
        assert np.array_equal(Q1[0], Q[r])

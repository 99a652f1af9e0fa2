import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.blender import (
    _PAD,
    ConeField,
    _replay,
    build_geometric_model,
    sample_strips,
    verify_cone_invariance,
    verify_covering_geometric,
    verify_double_blender,
    verify_strip_intersection,
    verify_strips,
)
from dynlab.bumps import hamiltonian_bump_translation
from dynlab.covering import backward_itinerary
from dynlab.errors import DominationViolated, NotInvertible, RectanglesOverlap, VectorTooLarge
from dynlab.fixed_points import find_fixed_point
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


def test_fixed_point_reads_the_fiber_records_of_one_ifs_per_model():
    """Each fiber IFS is built once per model, and the fixed point of every
    anchor is its base point with find_fixed_point of the anchor's fibers
    from the regions' centers."""
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    cs = [affine_map(sp, [[0.5]], [c]).with_meta(affine=None, name=f"cs{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    D = Box(sp, [0.0], [1.0])
    model = build_geometric_model(base, cs, D, fibers_cu=[m.inverse for m in cs], region_cu=D)
    assert model.fiber_ifs_cs() is model.fiber_ifs_cs()
    assert model.fiber_ifs_cu_inverted() is model.fiber_ifs_cu_inverted()
    for anchor in range(model.k):
        model.anchor = anchor
        ref = np.concatenate([
            base.fixed_point_base(anchor),
            find_fixed_point(model.fibers_cs[anchor], model.region_cs.center).point,
            find_fixed_point(model.fibers_cu[anchor].inverse, model.region_cu.center).point,
        ])
        assert model.fixed_point().tobytes() == ref.tobytes()
    cs_only = build_geometric_model(base, cs, D)
    ref = np.concatenate([base.fixed_point_base(0), find_fixed_point(cs[0], D.center).point])
    assert cs_only.fixed_point().tobytes() == ref.tobytes()
    with pytest.raises(NotInvertible):
        cs_only.fiber_ifs_cu_inverted()


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


def test_verify_strips_raises_the_first_failing_strips_error(symplectic_model, symplectic_model_report):
    # every s-strip's density word comes from one lockstep call, yet the
    # strips are still decided in list order: a u-strip without its
    # certificate (Uncovered) and a tiny s-strip below the analytic depth
    # bound (DepthExhausted) raise whichever comes first
    from dynlab.blender import Strip
    from dynlab.errors import DepthExhausted, Uncovered

    model = symplectic_model
    space = model.region_cs.space
    fine = Strip("s", 0, model.base.slab_lo[0] + 0.01, Box.ball(space, model.fixed_point()[2:3], 0.3), np.array([0.4]))
    tiny = Strip("s", 0, model.base.slab_lo[0] + 0.01, Box.ball(space, [0.333], 1e-6), np.array([0.4]))
    u = sample_strips(model, "u", 1, 1 / 32, seed=3)[0]
    cert = symplectic_model_report["fiber_cert"]
    assert verify_strips(model, [fine], cert, 2, 1e-9)[0]["hit"]
    for strips, error in (([fine, u, tiny], Uncovered), ([fine, tiny, u], DepthExhausted)):
        with pytest.raises(error):
            verify_strips(model, strips, cert, 2, 1e-9)


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


@pytest.mark.parametrize("eta_factor", [0.0, 0.3, 3.0])
def test_verify_strips_matches_each_strip_alone(symplectic_model, symplectic_model_report,
                                                 eta_factor, monkeypatch):
    # mixed s- and u-strips, a strip whose ball lies outside the certified
    # region (decided before any replay), and an s-strip whose leaf lies
    # above its slab: the exact replay breaks its itinerary at the last step,
    # and no shot orbit of a perturbed map reaches it. Alone, each strip's
    # shooting system has its own length, not the batch's padded one
    import dynlab.blender as bl
    from dynlab.blender import Strip

    model = symplectic_model
    rep0 = symplectic_model_report
    F = model.as_map()
    G = F if eta_factor == 0 else perturb_map(F, eta_factor * rep0["fiber_cert"].margin, seed=4)
    space = model.region_cs.space
    strips = sample_strips(model, "s", 5, 1 / 32, seed=31) + sample_strips(model, "u", 5, 1 / 32, seed=32)
    mid = model.base.slab_lo[1] + 0.5 * model.base.height
    strips.insert(3, Strip("s", 1, mid, Box.ball(space, [3.0], 0.05), np.array([0.4])))
    strips.insert(7, Strip("s", 0, 1.05, Box.ball(space, [0.4], 0.05), np.array([0.4])))
    kw = dict(G=G, fiber_cert_cu=rep0["fiber_cert_cu"])
    solves = []
    monkeypatch.setattr(bl, "find_fixed_point", lambda *a: solves.append(a) or find_fixed_point(*a))
    batch = verify_strips(model, strips, rep0["fiber_cert"], 30, 0.02, **kw)
    assert len(solves) == (eta_factor > 0)  # once per call, not per strip
    alone = [verify_strip_intersection(model, s, rep0["fiber_cert"], 30, 0.02, **kw) for s in strips]
    for got, ref in zip(batch, alone):
        assert got.keys() == ref.keys()
        for key in ("hit", "reason", "witness_word", "residual", "depth"):
            assert got.get(key) == ref.get(key)
        if "final" in ref:
            assert got["start"].tobytes() == ref["start"].tobytes()
            assert got["final"].tobytes() == ref["final"].tobytes()
            p = got["start"].copy()
            for _ in got["witness_word"]:
                p = G.raw(p)
            assert p.tobytes() == got["final"].tobytes()
    assert [r["hit"] for r in batch] == [i not in (3, 7) for i in range(len(strips))]
    assert "outside the certified region" in batch[3]["reason"]
    broke = "itinerary broke at step" if eta_factor == 0 else "shooting found no orbit"
    assert batch[7]["reason"].startswith(broke)
    assert verify_strips(model, [], rep0["fiber_cert"], 30, 0.02, **kw) == []


@pytest.mark.parametrize("eta_factor", [0.3, 3.0])
def test_shot_starts_keep_their_pinned_columns(symplectic_model, symplectic_model_report, eta_factor, monkeypatch):
    # only a start's u and cu-fiber columns are unknowns of the shooting
    # solve: its s and cs-fiber columns keep the unshot start's bytes, as
    # the strip's stable level must hold exactly on a u-strip
    import dynlab.blender as bl

    model = symplectic_model
    rep0 = symplectic_model_report
    G = perturb_map(model.as_map(), eta_factor * rep0["fiber_cert"].margin, seed=7)
    strips = sample_strips(model, "s", 10, 1 / 32, seed=61) + sample_strips(model, "u", 10, 1 / 32, seed=62)
    shots = []
    shoot = bl._shoot

    def spy(model, G, starts, *rest):
        out = shoot(model, G, starts, *rest)
        shots.append((starts, out[0]))
        return out

    monkeypatch.setattr(bl, "_shoot", spy)
    res = verify_strips(model, strips, rep0["fiber_cert"], 30, 0.02, G=G, fiber_cert_cu=rep0["fiber_cert_cu"])
    assert all(r["hit"] for r in res)
    (unshot, shot), = shots
    pinned, free = [0, 2], [1, 3]
    assert shot[:, pinned].tobytes() == unshot[:, pinned].tobytes()
    assert (shot[:, free] != unshot[:, free]).any(axis=1).all()
    assert np.array([r["start"] for r in res]).tobytes() == shot.tobytes()
    for strip, start in zip(strips[10:], shot[10:]):
        assert start[0] == strip.level and start[2] == strip.other_level[0]


def test_shooting_calls_the_map_a_bounded_number_of_times(symplectic_model, symplectic_model_report):
    # every strip of a call shares each map evaluation: the fixed point's
    # continuation, a few Newton steps and one replay of all starts, however
    # many strips there are
    model = symplectic_model
    rep0 = symplectic_model_report
    G = perturb_map(model.as_map(), 0.3 * rep0["fiber_cert"].margin, seed=4)
    calls = []
    counted = G.with_meta(fn=lambda x: calls.append(len(x)) or G.fn(x))
    strips = sample_strips(model, "s", 10, 1 / 32, seed=8) + sample_strips(model, "u", 10, 1 / 32, seed=9)
    res = verify_strips(model, strips, rep0["fiber_cert"], 30, 0.02, G=counted, fiber_cert_cu=rep0["fiber_cert_cu"])
    assert all(r["hit"] for r in res)
    assert len(calls) <= 30


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
# shooting: batched replays
# ---------------------------------------------------------------------------

def single_model():
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    sp = wide_line()
    return build_geometric_model(base, triple_fibers(sp), Box(sp, [0.0], [1.0]))


@pytest.mark.parametrize("which", ["symplectic", "trig-field"])
def test_replay_batch_equals_its_rows(symplectic_model, which):
    # rows that break at step 0 (in a gap or in the wrong slab), mid word
    # (into a gap or a wrong slab) or never, each along its own word, under
    # a perturbed map
    model = symplectic_model if which == "symplectic" else single_model()
    G = perturb_map(model.as_map(), 1e-4, seed=3)
    assert G.symplectic == (which == "symplectic")
    base = model.base
    itineraries = [(1, 0, 2, 2, 1, 0), (2, 1), (0, 0, 1, 2, 2), (1,)]
    rng = np.random.default_rng(11)
    rows, words = [], []
    for i in range(80):
        itinerary = itineraries[int(rng.integers(len(itineraries)))]
        m = len(itinerary)
        cut = (0, m, int(rng.integers(1, m + 1)), int(rng.integers(0, m)))[i % 4]
        # the tail is a slab fraction, or a u in the gap below the first slab
        tail = rng.random() if i % 4 < 3 else rng.random() * base.slab_lo[0]
        u = base.u_from_itinerary(itinerary[:cut], tail)
        rows.append([rng.random(), u, *rng.uniform(0.0, 1.0, model.dim - 2)])
        words.append(itinerary)
    P = np.array(rows)
    m = np.array([len(w) for w in words])
    W = np.full((len(P), m.max()), _PAD)
    for r, w in enumerate(words):
        W[r, : len(w)] = w
    k, X = _replay(base, G, P, W)
    assert (k == 0).sum() >= 5 and ((k > 0) & (k < m)).sum() >= 5 and (k == m).sum() >= 5
    assert len(set(m[k == m].tolist())) == len(itineraries)
    stopped = X[k < m, -1, :2]
    assert (base.rect_of(stopped) < 0).sum() >= 5 and (base.rect_of(stopped) >= 0).sum() >= 5
    for r in range(len(P)):
        k1, X1 = _replay(base, G, P[r : r + 1], np.asarray(words[r])[None])
        assert k1[0] == k[r]
        assert np.array_equal(X1[0], X[r, : m[r] + 1])
        # and step by step through the map, one point at a time; the orbit
        # holds its point from the step where it stops
        p, t = P[r].copy(), 0
        while t < m[r] and base.rect_of(p[:2]) == words[r][t]:
            assert p.tobytes() == X[r, t].tobytes()
            p, t = G.raw(p), t + 1
        assert t == k[r] and all(q.tobytes() == p.tobytes() for q in X[r, t:])

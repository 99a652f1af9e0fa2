import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynlab.covering import (
    _slack,
    backward_itinerary,
    certify_density,
    compute_d,
    construct_translations,
    cover_unit_ball,
    translation_count,
    verify_covering,
    verify_well_distributed,
)
from dynlab.errors import LambdaOutOfRange, NoConvergence, Uncovered
from dynlab.fixed_points import find_fixed_point
from dynlab.ifs import IFS, GeneratorBank
from dynlab.maps import SmoothMap, affine_map
from dynlab.perturb import perturb_ifs, perturb_map
from dynlab.spaces import Box, Interval, StateSpace, unit_interval_space


def test_dyadic_pair_covers_with_split_assignment(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    assert cert.assign([0.3]) == 0
    assert cert.assign([0.7]) == 1
    assert cert.margin == pytest.approx(0.0, abs=1e-12)


def test_single_generator_uncovered():
    line = unit_interval_space(1)
    ifs = IFS([affine_map(line, [[0.5]], [0.0])], Box(line, [0.0], [1.0]))
    with pytest.raises(Uncovered) as exc:
        verify_covering(ifs, ifs.domain_region, 1 / 16)
    assert exc.value.witness.center[0] > 0.5  # cell near 1


def test_gap_pair_uncovered_in_gap(gap_ifs):
    with pytest.raises(Uncovered) as exc:
        verify_covering(gap_ifs, gap_ifs.domain_region, 1 / 32)
    c = exc.value.witness.center[0]
    assert 0.5 < c < 0.6


def brute_force_d(images, lo, hi, n_x=4001):
    """Oracle: exact inner radius over a fine grid for interval images,
    relative to the region [lo, hi]."""
    xs = np.linspace(lo, hi, n_x)
    best = np.full(n_x, -np.inf)
    for a, b in images:
        low = xs - a if a > lo + 1e-12 else np.full(n_x, np.inf)
        high = b - xs if b < hi - 1e-12 else np.full(n_x, np.inf)
        best = np.maximum(best, np.minimum(low, high))
    return float(best.min())


def test_compute_d_triple_is_one_eighth(triple_ifs):
    grid = 1 / 256
    cert = verify_covering(triple_ifs, triple_ifs.domain_region, 1 / 16)
    d = compute_d(triple_ifs, triple_ifs.domain_region, grid, cert)
    oracle = brute_force_d([(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)], 0.0, 1.0)
    assert oracle == pytest.approx(1 / 8, abs=1e-9)
    assert d == pytest.approx(oracle, abs=grid)
    assert d <= oracle + 1e-12  # approximation from below


def test_compute_d_single_image_is_boundary_distance():
    # region strictly inside one generator image (a contraction cannot cover
    # its own region, so the image is taken of the full domain box):
    # d = distance from the region to the image boundary
    line = unit_interval_space(1)
    g = affine_map(line, [[0.5]], [0.25])  # image of [0,1] is [0.25, 0.75]
    ifs = IFS([g], Box(line, [0.0], [1.0]))
    region = Box(line, [0.4], [0.6])
    domain = Box(line, [0.0], [1.0])
    cert = verify_covering(ifs, region, 1 / 64, image_region=domain)
    d = compute_d(ifs, region, 1 / 512, cert, image_region=domain)
    # worst point is at the region edge 0.4 or 0.6: distance 0.15 to the image edge
    assert d == pytest.approx(0.15, abs=1 / 256)


def test_compute_d_fails_between_closed_images(dyadic_ifs):
    # shared-edge images leave no inner radius at the split point
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    with pytest.raises(Uncovered):
        compute_d(dyadic_ifs, dyadic_ifs.domain_region, 1 / 64, cert)


def test_well_distributed_triple_fails_with_witness(triple_ifs):
    # fixed points {0, 1/2, 1}: a ball of diameter 1/8 near 1/4 misses all
    ok, witness = verify_well_distributed(triple_ifs, triple_ifs.domain_region, 1 / 8)
    assert ok is False
    fps = triple_ifs.fixed_point_array().ravel()
    assert np.min(np.abs(fps - witness[0])) >= 1 / 16


def test_well_distributed_dense_grid_passes():
    line = unit_interval_space(1)
    d = 1 / 8
    gens = [affine_map(line, [[0.5]], [z / 2], name=f"z{z}") for z in np.arange(0.0, 1.01, d / 4)]
    ifs = IFS(gens, Box(line, [0.0], [1.0]))
    ok, _ = verify_well_distributed(ifs, ifs.domain_region, d)
    assert ok is True


def test_well_distributed_empty_fixed_points():
    line = unit_interval_space(1)
    ifs = IFS([affine_map(line, [[0.5]], [0.0])], Box(line, [0.0], [1.0]))
    ifs.fixed_points = []
    ok, witness = verify_well_distributed(ifs, ifs.domain_region, 1 / 8)
    assert ok is False and witness is not None


# ---------------------------------------------------------------------------
# sheared affine generators: corner pullbacks and inverse-Lipschitz radii
# ---------------------------------------------------------------------------

def sheared_ifs():
    sq = unit_interval_space(2)
    A = [[0.5, 0.1], [0.0, 0.5]]
    gens = [
        affine_map(sq, A, [0.25 * i, 0.25 * j], name=f"g{i}{j}")
        for i in range(3)
        for j in range(3)
    ]
    return IFS(gens, Box(sq, [0.0, 0.0], [1.0, 1.0]))


def test_sheared_certificate_pulls_every_cell_back():
    ifs = sheared_ifs()
    square = ifs.domain_region
    region = Box(ifs.space, [0.3, 0.3], [0.7, 0.7])
    cert = verify_covering(ifs, region, 1 / 16, image_region=square)
    assert cert.valid
    rng = np.random.default_rng(9)
    idx = np.stack(np.unravel_index(np.arange(len(cert.assignment)), cert.axis_counts), -1)
    for cell, gi in zip(idx, cert.assignment):
        lo = region.lo + cell * cert.axis_steps
        pts = lo + rng.random((50, 2)) * cert.axis_steps
        pulled = ifs.generators[gi].invert(pts)
        assert np.all(square.contains(pulled, tol=1e-12))


@pytest.mark.parametrize("off_diagonal", [5e-9, 0.0])
def test_near_diagonal_generator_is_not_certified_by_its_diagonal(off_diagonal):
    # the image of [0, 1]^2 under this shear misses the corner (0.25, 0.75)
    # of the region by 1e-8 in the pullback, far more than the cell tolerance
    sq = unit_interval_space(2)
    square = Box(sq, [0.0, 0.0], [1.0, 1.0])
    region = Box(sq, [0.25, 0.25], [0.75, 0.75])
    gen = affine_map(sq, [[0.5, off_diagonal], [0.0, 0.5]], [0.25, 0.25])
    ifs = IFS([gen], square)
    if off_diagonal:
        assert gen.invert(np.array([0.25, 0.75]))[0] < 0.0
        with pytest.raises(Uncovered):
            verify_covering(ifs, region, 1 / 16, image_region=square)
    else:
        assert verify_covering(ifs, region, 1 / 16, image_region=square).valid


def test_sheared_d_balls_fit_in_an_image():
    ifs = sheared_ifs()
    square = ifs.domain_region
    region = Box(ifs.space, [0.3, 0.3], [0.7, 0.7])
    cert = verify_covering(ifs, region, 1 / 16, image_region=square)
    d = compute_d(ifs, region, 1 / 64, cert, image_region=square)
    assert d > 0 and cert.d_value == d
    # images are parallelograms, so a ball (a box) fits iff its corners do
    signs = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    rng = np.random.default_rng(10)
    for x in region.sample(rng, 300):
        corners = x + d * signs
        assert any(
            np.all(square.contains(g.invert(corners), tol=1e-12)) for g in ifs.generators
        )


def curved_map(space, c=0.01, k=6):
    """(x, y) -> (x/2 + 1/4 + c sin(2 pi k y), y/2 + 1/4): its image has wavy
    sides, so a box can keep a 3-per-axis subgrid inside and still stick out."""
    w = 2 * np.pi * k

    def fn(x):
        x = np.asarray(x, dtype=float)
        u = 0.5 * x[..., 0] + 0.25 + c * np.sin(w * x[..., 1])
        return np.stack([u, 0.5 * x[..., 1] + 0.25], -1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = J[..., 1, 1] = 0.5
        J[..., 0, 1] = c * w * np.cos(w * x[..., 1])
        return J

    # ||J^-1||_inf <= 2 + 4 c w bounds the max-metric contraction from below
    lam = 1 / (2 + 4 * c * w)
    return SmoothMap(space, space, fn, jac=jac, name="curved", lam=lam, lip=0.5 + c * w)


def slack_generators():
    sq = unit_interval_space(2)
    diag = affine_map(sq, [[0.5, 0.0], [0.0, 0.4]], [0.25, 0.3], name="diag")
    shear = affine_map(sq, [[0.5, 0.1], [0.0, 0.5]], [0.2, 0.25], name="shear")
    return {
        "diagonal": diag,
        "sheared": shear,
        "perturbed": perturb_map(diag, 0.02, seed=3),
        "curved": curved_map(sq),
    }


SLACK_GENERATORS = slack_generators()


@settings(max_examples=80)
@given(
    st.sampled_from(sorted(SLACK_GENERATORS)),
    st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)), min_size=1, max_size=4),
    st.floats(0.0, 0.1),
    st.floats(0.0, 0.1),
    st.booleans(),
    st.integers(0, 2**16),
)
# a box whose 3-per-axis subgrid pulls back inside while points between
# the samples do not: only the gap term keeps its slack from being positive
@example("curved", [(0.27, 0.4)], 0.02, 0.08, False, 0)
def test_positive_slack_means_the_box_pulls_back(form, centers, rx, ry, relative, seed):
    # boxes of one batch share their sides, as the cells of a grid do
    gen = SLACK_GENERATORS[form]
    square = Box(gen.domain, [0.0, 0.0], [1.0, 1.0])
    half = np.array([rx, ry])
    c = np.array(centers)
    lo, hi = c - half, c + half
    inside = np.all((lo >= 0.0) & (hi <= 1.0), axis=1)
    lo, hi = lo[inside], hi[inside]
    if len(lo) == 0:
        return
    slack = _slack(gen, square, lo, hi, square if relative else None)
    t = np.linspace(0.0, 1.0, 9)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), -1).reshape(-1, 2)
    unit = np.concatenate([grid, np.random.default_rng(seed).random((40, 2))])
    for b_lo, b_hi in zip(lo[slack > 0], hi[slack > 0]):
        pulled = gen.invert(b_lo + unit * (b_hi - b_lo))
        assert np.all(square.contains(pulled, tol=1e-12)), (form, b_lo, b_hi)


@pytest.mark.parametrize("form", ["sheared", "perturbed", "curved"])
def test_slack_matches_a_per_cell_reference(form):
    # the pulled-back forms, one cell at a time: corners for affine maps,
    # a 3-per-axis subgrid minus the gap term otherwise
    gen = SLACK_GENERATORS[form]
    square = Box(gen.domain, [0.0, 0.0], [1.0, 1.0])
    region = Box(gen.domain, [0.3, 0.2], [0.7, 0.8])
    counts, sides = region.grid_axes(1 / 16)
    centers = region.grid(1 / 16)
    lo, hi = centers - sides / 2.0, centers + sides / 2.0
    per_axis = 2 if gen.affine is not None else 3
    expected = []
    for a, b in zip(lo, hi):
        axes = [np.linspace(x, y, per_axis) for x, y in zip(a, b)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], -1)
        clear = float(np.min(square.clearance(gen.invert(pts))))
        gap = 0.0 if gen.affine is not None else float(np.max(b - a)) / 4.0 / gen.lam
        expected.append(clear - gap)
    got = _slack(gen, square, lo, hi, None)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    points = _slack(gen, square, centers, centers, None)
    np.testing.assert_allclose(points, square.clearance(gen.invert(centers)), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# translated-contraction construction
# ---------------------------------------------------------------------------

def certificates_for(ifs, lam, eps):
    cert = verify_covering(ifs, ifs.domain_region, eps * lam / 2)
    d = compute_d(ifs, ifs.domain_region, eps * lam / 2, cert)
    wd, _ = verify_well_distributed(ifs, ifs.domain_region, d)
    cert.well_distributed = wd
    cert.d_value = d
    return cert, d, wd


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7])
def test_construct_translations_certified(n, lam):
    space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
    phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="phi")
    eps = 0.9 * (1 - lam) / (1 + lam)
    ifs = construct_translations(phi, lam, eps)
    assert ifs.k == 2 * len(cover_unit_ball(n, lam / 4)) + 1
    cert, d, wd = certificates_for(ifs, lam, eps)
    assert cert.valid
    assert wd is True


def test_translation_count_formula():
    # the greedy cover oracle supplies the ball-covering constant: counts
    # scale like (1/lam)^n with the dimension in the exponent
    assert translation_count(1, 0.5) == 2 * len(cover_unit_ball(1, 0.125)) + 1
    for n, lam in ((1, 0.3), (1, 0.5), (2, 0.5), (2, 0.7), (3, 0.7)):
        space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
        phi = affine_map(space, lam * np.eye(n), np.zeros(n), name="phi")
        eps = 0.9 * (1 - lam) / (1 + lam)
        assert translation_count(n, lam) == construct_translations(phi, lam, eps).k
    assert len(cover_unit_ball(1, 0.125)) == 8
    assert len(cover_unit_ball(2, 0.125)) == 64
    k1_many = len(cover_unit_ball(1, 0.3 / 4))
    k1_few = len(cover_unit_ball(1, 0.9 / 4))
    assert k1_few < k1_many  # lam -> 1 needs the fewest translations


def test_cover_oracle_actually_covers():
    for n, r in ((1, 0.3), (2, 0.25), (2, 0.4)):
        centers = cover_unit_ball(n, r)
        rng = np.random.default_rng(0)
        probes = rng.uniform(-1, 1, (2000, n))
        dist = np.abs(probes[:, None, :] - centers[None, :, :]).max(axis=2).min(axis=1)
        assert dist.max() <= r + 1e-9


def test_construct_rejects_bad_lambda():
    line = StateSpace((Interval(-1, 1),))
    phi = affine_map(line, [[0.5]], [0.0])
    with pytest.raises(LambdaOutOfRange):
        construct_translations(phi, 1.2, 0.1)
    with pytest.raises(ValueError):
        construct_translations(phi, 0.9, 0.1)  # claimed bound above the map's


# ---------------------------------------------------------------------------
# density words and backward itineraries
# ---------------------------------------------------------------------------

def bfs_shortest_word(ifs, seed, target, max_len):
    """Oracle: exhaustive breadth-first search over words."""
    frontier = [((), np.asarray(seed, dtype=float))]
    for _ in range(max_len + 1):
        nxt = []
        for word, p in frontier:
            if target.contains(p) and ifs.space.distance(p, target.center) < target.radius:
                return word
            for gi, g in enumerate(ifs.generators):
                nxt.append((word + (gi,), g(p)))
        frontier = nxt
    return None


def test_dyadic_density_word(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    target = Box.ball(dyadic_ifs.space, [0.3], 2.0**-8)
    word = certify_density(dyadic_ifs, [0.0], target, 20, cert)
    assert len(word) <= 9
    landed = dyadic_ifs.apply_word(word, [0.0])
    assert abs(landed[0] - 0.3) < 2.0**-8
    oracle = bfs_shortest_word(dyadic_ifs, [0.0], target, 9)
    assert oracle is not None and len(word) <= 9
    # the word reproduces the binary expansion of the target, read backward:
    # replaying digit words of this length is exactly how the oracle lands
    assert len(word) >= len(oracle)


def test_density_trivial_when_seed_inside(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    word = certify_density(dyadic_ifs, [0.3], Box.ball(dyadic_ifs.space, [0.3], 0.1), 20, cert)
    assert word == ()


def test_density_requires_certificate(dyadic_ifs):
    with pytest.raises(Uncovered):
        certify_density(dyadic_ifs, [0.0], Box.ball(dyadic_ifs.space, [0.3], 0.01), 20, None)


def test_density_words_always_land(triple_ifs):
    cert = verify_covering(triple_ifs, triple_ifs.domain_region, 1 / 16)
    rng = np.random.default_rng(6)
    for _ in range(25):
        c = rng.uniform(0.02, 0.98, 1)
        r = 10.0 ** rng.uniform(-4, -1.5)
        word = certify_density(triple_ifs, [0.0], Box.ball(triple_ifs.space, c, r), 60, cert)
        landed = triple_ifs.apply_word(word, [0.0])
        assert triple_ifs.space.distance(landed, c) < r


def certified_systems():
    """IFSs whose covering certificate is valid on their own region: affine
    halvings of the line, translated planar contractions, and the latter
    perturbed (Newton inverses, sampled slacks)."""
    line = unit_interval_space(1)
    triple = IFS([affine_map(line, [[0.5]], [c]) for c in (0.0, 0.25, 0.5)], Box(line, [0.0], [1.0]))
    lam = 0.5
    eps = 0.9 * (1 - lam) / (1 + lam)
    plane = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    translations = construct_translations(affine_map(plane, lam * np.eye(2), np.zeros(2)), lam, eps)
    perturbed = perturb_ifs(translations, 0.01, seed=3)
    step = eps * lam / 2
    systems = {"triple": (triple, 1 / 32), "translations": (translations, step), "perturbed": (perturbed, step)}
    return {name: (ifs, verify_covering(ifs, ifs.domain_region, g)) for name, (ifs, g) in systems.items()}


CERTIFIED = certified_systems()


@settings(max_examples=60)
@given(
    st.sampled_from(sorted(CERTIFIED)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.integers(0, 10),
)
def test_backward_itinerary_stays_in_a_valid_certificate(name, frac, steps):
    ifs, cert = CERTIFIED[name]
    assert cert.valid
    region = cert.region
    x = region.lo + np.array(frac[: region.space.dim]) * (region.hi - region.lo)
    word = backward_itinerary(ifs, x, steps, cert)
    assert len(word) == steps
    p = x
    for s in word:
        p = ifs.generators[s].invert(p)
        assert region.contains(p, tol=1e-9)


def test_backward_itinerary_dyadic(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    word = backward_itinerary(dyadic_ifs, [0.3], 4, cert)
    assert len(word) == 4
    # replay the inverses and confirm every pullback stays inside [0, 1]
    p = np.array([0.3])
    for s in word:
        p = dyadic_ifs.generators[s].invert(p)
        assert -1e-9 <= p[0] <= 1 + 1e-9


def test_backward_itinerary_fixed_point_constant(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    word = backward_itinerary(dyadic_ifs, [0.0], 5, cert)
    assert word == (0, 0, 0, 0, 0)


def test_backward_itinerary_zero_steps(dyadic_ifs):
    cert = verify_covering(dyadic_ifs, dyadic_ifs.domain_region, 1 / 16)
    assert backward_itinerary(dyadic_ifs, [0.3], 0, cert) == ()


def test_certificate_soundness_random_points(triple_ifs):
    # assigned generator's image contains the point's cell, 1000 samples
    grid = 1 / 32
    cert = verify_covering(triple_ifs, triple_ifs.domain_region, grid)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (1000, 1))
    images = [(0.0, 0.5), (0.25, 0.75), (0.5, 1.0)]
    for p in pts:
        gi = cert.assign(p)
        cell_idx = cert.cell_of(p)
        lo = cert.region.lo[0] + cell_idx * cert.axis_steps[0]
        hi = lo + cert.axis_steps[0]
        a, b = images[gi]
        assert a <= lo + 1e-12 and hi <= b + 1e-12


def test_density_robust_under_small_perturbation():
    lam = 0.5
    line = StateSpace((Interval(-1, 1),))
    phi = affine_map(line, [[lam]], [0.0], name="phi")
    eps = 0.9 * (1 - lam) / (1 + lam)
    ifs = construct_translations(phi, lam, eps)
    rng = np.random.default_rng(8)
    for seed in range(3):
        pert = perturb_ifs(ifs, 0.05 * lam, seed=seed)
        cert = verify_covering(pert, ifs.domain_region, eps * lam / 2)
        assert cert.valid
        for _ in range(5):
            c = rng.uniform(-0.8 * eps, 0.8 * eps, 1)
            word = certify_density(pert, [0.0], Box.ball(line, c, 1e-3), 60, cert)
            landed = pert.apply_word(word, [0.0])
            assert abs(landed[0] - c[0]) < 1e-3


# ---------------------------------------------------------------------------
# the generator bank and the stacked fixed-point solve
# ---------------------------------------------------------------------------

_FAMILIES: dict = {}


def _translated_family(n, lam, offset):
    """construct_translations of x -> lam x + offset on [-1, 1]^n, built once
    per (n, lam, offset). A nonzero offset (phi(0) = 0 holds to 1e-9) makes
    the association of the offset and the translations visible."""
    if (n, lam, offset) not in _FAMILIES:
        space = StateSpace(tuple(Interval(-1, 1) for _ in range(n)))
        phi = affine_map(space, lam * np.eye(n), np.full(n, offset), name="phi")
        _FAMILIES[n, lam, offset] = construct_translations(phi, lam, 0.9 * (1 - lam) / (1 + lam))
    return _FAMILIES[n, lam, offset]


def _scalar_contraction(m, x, tol=1e-12, max_iter=200):
    """Reference: the scalar contraction loop, two evaluations per step."""
    x = m.domain.canonicalize(np.asarray(x, dtype=float).copy())

    def residual(p):
        return m.domain.diff(m.codomain.canonicalize(m.fn(p)), p)

    if np.max(np.abs(residual(x))) >= tol:
        eff = tol * max(1.0 - m.lip, 1e-3)
        for _ in range(max_iter):
            x = m.domain.canonicalize(m.fn(x))
            if np.max(np.abs(residual(x))) < eff:
                break
        else:
            raise NoConvergence(f"{m.name}: contraction iteration stalled")
    return x


def _assert_records_match_reference(ifs, rows):
    """The IFS's records equal, byte for byte, find_fixed_point from the
    region's center, one generator at a time; the points also equal the
    scalar contraction loop's."""
    recs = ifs.compute_fixed_points()
    center = ifs.domain_region.center
    for i in rows:
        g = ifs.generators[i]
        ref = find_fixed_point(g, center)
        got = recs[i]
        assert got.point.tobytes() == ref.point.tobytes(), g.name
        assert got.eigen_moduli == ref.eigen_moduli and got.residual == ref.residual
        assert got.classification == ref.classification and got.map is g
        if g.affine is None:
            assert got.point.tobytes() == _scalar_contraction(g, center).tobytes(), g.name


@settings(max_examples=10)
@given(
    n=st.sampled_from([1, 2, 3]),
    lam=st.sampled_from([0.3, 0.5, 0.7]),
    offset=st.sampled_from([0.0, 3e-10]),
    seed=st.integers(0, 2**20),
    rows_seed=st.integers(0, 2**20),
)
def test_stacked_fixed_points_match_the_scalar_reference(n, lam, offset, seed, rows_seed):
    ifs = _translated_family(n, lam, offset)
    pert = perturb_ifs(ifs, 0.05 * lam, seed=seed)
    assert pert.bank is not None and pert.bank.freqs.shape == (ifs.k, n, n)
    # a sample of the rows, though all of them are solved together
    rows = np.random.default_rng(rows_seed).choice(ifs.k, min(ifs.k, 100), replace=False)
    _assert_records_match_reference(pert, rows)


@settings(max_examples=12)
@given(
    n=st.sampled_from([1, 2, 3]),
    lam=st.sampled_from([0.3, 0.5, 0.7]),
    offset=st.sampled_from([0.0, 3e-10]),
    seed=st.integers(0, 2**20),
    eta=st.sampled_from([0.0, 0.01, 0.05]),
)
def test_bank_rows_equal_their_generators(n, lam, offset, seed, eta):
    ifs = perturb_ifs(_translated_family(n, lam, offset), eta * lam, seed=seed)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ifs.k, 64)
    X = rng.uniform(-1, 1, (64, n))
    got = ifs.bank.raw(X, rows)
    for j, i in enumerate(rows):
        assert got[j].tobytes() == ifs.generators[i].fn(X[j]).tobytes()


def test_stalling_row_names_its_generator():
    line = StateSpace((Interval(-1, 1),))
    # "slow" and "slower" declare lip 0.5 but contract by 0.9999 and
    # 0.99995, so 200 steps leave them far from their fixed points 0.4 and
    # -0.4; the error names "slow", the first the scalar loop would meet
    slopes = np.array([0.5, 0.9999, 0.5, 0.99995])
    shifts = np.array([0.1, 0.4 * 1e-4, -0.1, -0.4 * 0.5e-4])
    gens = [
        SmoothMap(line, line, lambda x, a=a, c=c: x * a + 0.0 + c, name=name, lam=0.5, lip=0.5)
        for a, c, name in zip(slopes, shifts, ("left", "slow", "right", "slower"))
    ]
    bank = GeneratorBank(A=slopes[:, None, None], b=np.zeros((4, 1)), c=shifts[:, None])
    ifs = IFS(gens, Box(line, [-0.5], [0.5]), bank=bank)
    with pytest.raises(NoConvergence, match="^slow: contraction iteration stalled$"):
        ifs.compute_fixed_points()
    with pytest.raises(NoConvergence, match="^slow: contraction iteration stalled$"):
        find_fixed_point(gens[1], [0.0])
    # without the stalling rows, the stacked solve matches the scalar one
    keep = [0, 2]
    bank = GeneratorBank(A=bank.A[keep], b=bank.b[keep], c=bank.c[keep])
    _assert_records_match_reference(IFS([gens[i] for i in keep], ifs.domain_region, bank=bank), [0, 1])


def test_non_affine_base_keeps_the_scalar_path():
    space = StateSpace((Interval(-1, 1), Interval(-1, 1)))
    lam = 0.5
    # phi(x) = lam x + (lam/10) sin(x): contracting, fixing 0, not affine
    phi = SmoothMap(
        space, space, lambda x: lam * x + 0.1 * lam * np.sin(x),
        jac=lambda x: np.eye(2) * (lam + 0.1 * lam * np.cos(x))[..., None, :],
        name="phi", lam=0.9 * lam, lip=1.1 * lam,
    )
    ifs = construct_translations(phi, 0.9 * lam, 0.25)
    assert ifs.bank is None
    _assert_records_match_reference(ifs, range(0, ifs.k, 5))
    pert = perturb_ifs(ifs, 0.02, seed=3)
    assert pert.bank is None
    _assert_records_match_reference(pert, range(0, pert.k, 5))

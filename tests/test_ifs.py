import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.covering import construct_translations
from dynlab.errors import DynlabError, PointOutsideDomain
from dynlab.ifs import (
    IFS, CellSet, _explore, _roots, apply_word, apply_words, extend_orbit, forward_orbit, minimality_experiment,
    replay_check,
)
from dynlab.maps import affine_map, identity_map
from dynlab.perturb import perturb_ifs
from dynlab.reports import reachset_lines
from dynlab.spaces import Box, Circle, Interval, StateSpace, annulus, torus, unit_interval_space
from dynlab.twist import minimal_generator_pack, twist_map


def witnesses(reach):
    """Cell key -> witness word."""
    return dict(zip(map(tuple, reach.keys.tolist()), reach.words()))


@pytest.fixture(scope="module")
def torus_pack_ifs():
    """The criterion-9 pack: the twist and two conjugates on the 2-torus."""
    t2 = torus(2)
    tw = twist_map(lambda I: I, lambda I: np.ones_like(I), space=t2, name="twist")
    return IFS(minimal_generator_pack(tw, "three", seed=11), Box(t2, [0, 0], [1, 1]))


@pytest.fixture(scope="module")
def annulus_ifs():
    """Two contractions of the interval factor, each shearing the circle."""
    ann = annulus()
    gens = [
        affine_map(ann, [[0.5, 0.0], [0.3, 1.0]], [0.0, 0.1]),
        affine_map(ann, [[0.5, 0.0], [0.2, 1.0]], [0.5, 0.37]),
    ]
    return IFS(gens, Box(ann, [0, 0], [1, 1]))


# -- reference: the dict-keyed breadth-first search the array core replaced --


def dict_forward_orbit(ifs, seed, depth, eps, budget=1_000_000):
    space = ifs.space
    seed = space.canonicalize(np.asarray(seed, dtype=float))
    reach = SimpleNamespace(
        eps=eps, grid={}, visited_count=1, truncated=False, depth_reached=0, frontier=[((), seed)]
    )
    reach.grid[tuple(int(v) for v in space.cell_index(seed, eps))] = ((), seed)
    return dict_extend_orbit(ifs, reach, depth, budget)


def dict_extend_orbit(ifs, reach, extra_depth, budget=1_000_000):
    space = ifs.space
    eps = reach.eps
    frontier = reach.frontier
    for level in range(reach.depth_reached + 1, reach.depth_reached + extra_depth + 1):
        if not frontier:
            break
        nxt = []
        pts = np.array([p for _, p in frontier])
        for gi, g in enumerate(ifs.generators):
            if reach.truncated:
                break
            images = g(pts)
            keys = space.cell_index(images, eps)
            for (word, _), img, key in zip(frontier, images, keys, strict=True):
                if reach.visited_count >= budget:
                    reach.truncated = True
                    break
                reach.visited_count += 1
                k = tuple(int(v) for v in key)
                if k not in reach.grid:
                    w = word + (gi,)
                    reach.grid[k] = (w, img)
                    nxt.append((w, img))
        reach.depth_reached = level
        frontier = nxt
        if reach.truncated:
            break
    reach.frontier = frontier
    return reach


def assert_matches_reference(reach, ref):
    """Same cells in the same order, same witnesses, bitwise-equal
    representatives, same counters and the same frontier."""
    assert list(map(tuple, reach.keys.tolist())) == list(ref.grid)
    words = reach.words()
    assert words == [w for w, _ in ref.grid.values()]
    want = np.array([p for _, p in ref.grid.values()])
    assert reach.reps.dtype == want.dtype and reach.reps.shape == want.shape
    assert reach.reps.tobytes() == want.tobytes()
    assert (reach.visited_count, reach.truncated, reach.depth_reached) == (
        ref.visited_count, ref.truncated, ref.depth_reached,
    )
    assert [words[i] for i in reach.frontier.tolist()] == [w for w, _ in ref.frontier]


def brute_force_orbit_cells(ifs, seed, depth, eps):
    """Oracle: enumerate every word up to the depth and collect cells."""
    cells = set()
    for n in range(depth + 1):
        for word in itertools.product(range(ifs.k), repeat=n):
            p = apply_word(ifs.generators, word, seed)
            cells.add(tuple(int(v) for v in ifs.space.cell_index(p, eps)))
    return cells


def test_dyadic_depth3_matches_exhaustive_enumeration(dyadic_ifs):
    reach = forward_orbit(dyadic_ifs, [0.0], depth=3, eps=1 / 16, budget=10**6)
    oracle = brute_force_orbit_cells(dyadic_ifs, np.array([0.0]), 3, 1 / 16)
    assert reach.cells() == oracle
    pts = sorted(float(p[0]) for p in reach.points())
    assert pts == pytest.approx([k / 8 for k in range(8)])


def test_identity_single_cell():
    line = unit_interval_space(1)
    ifs = IFS([identity_map(line)], Box(line, [0.0], [1.0]))
    reach = forward_orbit(ifs, [0.37], depth=5, eps=1 / 16)
    assert len(reach.cells()) == 1


def test_single_contraction_dyadic_tail():
    line = unit_interval_space(1)
    ifs = IFS([affine_map(line, [[0.5]], [0.0])], Box(line, [0.0], [1.0]))
    reach = forward_orbit(ifs, [1.0], depth=10, eps=1e-3)
    assert len(reach.cells()) == 11  # seed plus ten halvings, all in distinct cells


def test_replay_soundness(dyadic_ifs, triple_ifs):
    for ifs in (dyadic_ifs, triple_ifs):
        reach = forward_orbit(ifs, [0.0], depth=6, eps=1 / 64)
        assert replay_check(ifs, reach)


def test_depth_monotonicity(triple_ifs):
    prev = set()
    for depth in range(1, 7):
        reach = forward_orbit(triple_ifs, [0.0], depth=depth, eps=1 / 64)
        assert prev <= reach.cells()
        prev = reach.cells()


def test_budget_truncation_flag(triple_ifs):
    reach = forward_orbit(triple_ifs, [0.0], depth=12, eps=1 / 256, budget=40)
    assert reach.truncated
    full = forward_orbit(triple_ifs, [0.0], depth=12, eps=1 / 256, budget=10**6)
    assert not full.truncated
    assert reach.cells() <= full.cells()


def test_resume_matches_fresh_run(triple_ifs):
    from dynlab.ifs import extend_orbit

    partial = forward_orbit(triple_ifs, [0.0], depth=3, eps=1 / 64)
    resumed = extend_orbit(triple_ifs, partial, extra_depth=2)
    fresh = forward_orbit(triple_ifs, [0.0], depth=5, eps=1 / 64)
    assert resumed.cells() == fresh.cells()
    assert resumed.depth_reached == 5
    assert witnesses(resumed) == witnesses(fresh)


def test_contraction_metadata_bounds(triple_ifs):
    # lam * d(x,y) <= d(gx, gy) <= lip * d(x,y) on sampled pairs
    rng = np.random.default_rng(11)
    for g in triple_ifs.generators:
        x = rng.uniform(0, 1, (50, 1))
        y = rng.uniform(0, 1, (50, 1))
        d0 = np.abs(x - y).ravel()
        d1 = np.abs(g(x) - g(y)).ravel()
        assert np.all(d1 <= g.lip * d0 + 1e-12)
        assert np.all(d1 >= g.lam * d0 - 1e-12)
        assert g.lip < 1


def test_determinism(dyadic_ifs):
    a = forward_orbit(dyadic_ifs, [0.0], depth=8, eps=1 / 128)
    b = forward_orbit(dyadic_ifs, [0.0], depth=8, eps=1 / 128)
    assert a.cells() == b.cells()
    assert witnesses(a) == witnesses(b)


def test_matches_reference_on_interval_systems(dyadic_ifs, triple_ifs):
    for ifs in (dyadic_ifs, triple_ifs):
        for seed, depth, eps in (([0.0], 6, 1 / 64), ([0.3], 9, 1 / 256), ([1.0], 40, 1 / 1024)):
            assert_matches_reference(
                forward_orbit(ifs, seed, depth, eps), dict_forward_orbit(ifs, seed, depth, eps)
            )


def test_matches_reference_on_torus_pack(torus_pack_ifs):
    # the criterion-9 system explored to the end at fine eps 1/64
    for seed in ([0.1, 0.9], [0.6333, 0.3667]):
        reach = forward_orbit(torus_pack_ifs, seed, 10**6, 1 / 64)
        assert len(reach.cells()) > 3000 and not reach.truncated
        assert_matches_reference(reach, dict_forward_orbit(torus_pack_ifs, seed, 10**6, 1 / 64))


def test_matches_reference_on_annulus(annulus_ifs):
    reach = forward_orbit(annulus_ifs, [0.4, 0.8], 10**6, 1 / 32)
    assert len(reach.cells()) > 100
    assert_matches_reference(reach, dict_forward_orbit(annulus_ifs, [0.4, 0.8], 10**6, 1 / 32))


def test_matches_reference_at_every_budget(triple_ifs):
    # the budget runs out inside a generator batch for most of these
    for budget in range(1, 61):
        assert_matches_reference(
            forward_orbit(triple_ifs, [0.0], 12, 1 / 256, budget=budget),
            dict_forward_orbit(triple_ifs, [0.0], 12, 1 / 256, budget=budget),
        )


def test_resume_matches_reference(triple_ifs, torus_pack_ifs):
    for ifs, seed, eps, budget in (
        (triple_ifs, [0.0], 1 / 256, 10**6),
        (triple_ifs, [0.0], 1 / 256, 20),  # resumes a truncated exploration
        (torus_pack_ifs, [0.25, 0.7], 1 / 64, 10**6),
    ):
        reach = extend_orbit(ifs, forward_orbit(ifs, seed, 3, eps, budget), 4, budget=60 * budget)
        ref = dict_extend_orbit(ifs, dict_forward_orbit(ifs, seed, 3, eps, budget), 4, budget=60 * budget)
        assert_matches_reference(reach, ref)


def test_images_leaving_an_interval_keep_their_cell():
    line = unit_interval_space(1)
    ifs = IFS([affine_map(line, [[0.5]], [0.0]), affine_map(line, [[1.0]], [0.7])], Box(line, [0.0], [1.0]))
    reach = forward_orbit(ifs, [0.5], depth=1, eps=1 / 16)
    assert reachset_lines(reach) == ["4 0.25 0", "8 0.5 ", "19 1.2 1"]
    assert_matches_reference(reach, dict_forward_orbit(ifs, [0.5], 1, 1 / 16))
    with pytest.raises(PointOutsideDomain):
        forward_orbit(ifs, [0.5], depth=2, eps=1 / 16)
    # in two dimensions an off-grid key must not alias an on-grid one:
    # (0, 5) lies past the 5 x 5 grid of keys of the unit square at eps 1/4
    square = unit_interval_space(2)
    eye = np.eye(2)
    ifs = IFS([affine_map(square, eye, [0.0, 0.6]), affine_map(square, eye, [0.2, -0.7])], Box(square, [0, 0], [1, 1]))
    reach = forward_orbit(ifs, [0.1, 0.7], depth=1, eps=1 / 4)
    assert reach.cells() == {(0, 2), (0, 5), (1, 0)}
    assert_matches_reference(reach, dict_forward_orbit(ifs, [0.1, 0.7], 1, 1 / 4))


def test_every_target_gets_its_single_target_word(torus_pack_ifs):
    # one search with many targets ends where the last one is hit, and gives
    # each the word a search for it alone gives: words of length 5 to 8, no
    # word within depth 8, and the empty word of a target holding the seed
    t2 = torus_pack_ifs.space
    gens = torus_pack_ifs.generators
    seed = np.array([0.3, 0.6])
    centers = np.random.default_rng(3).uniform(0.05, 0.95, (20, 2))
    targets = [Box.ball(t2, c, 0.01) for c in centers] + [Box.ball(t2, seed, 0.01)]
    def search(targets):
        return _explore(gens, _roots(t2, seed, 1 / 64), 8, np.inf, targets=targets, region=None)[0]

    together = search(targets)
    assert together == [search([t])[0] for t in targets]
    assert together[-1] == () and None in together
    assert {len(w) for w in together if w is not None} == {0, 5, 6, 7, 8}
    for w, t in zip(together, targets):
        assert w is None or t.contains(apply_word(gens, w, seed))


def test_region_search_expands_a_seed_outside_its_region(triple_ifs):
    # the region, not the space, bounds a region search: the seed -0.5 lies
    # outside both and is still expanded; its image -0.25 is dropped, not
    # visited, and the search ends at the image 0.25 that hits its target
    line = triple_ifs.space
    reach = _roots(line, [-0.5], 1 / 16)[0]
    words = _explore(
        triple_ifs.generators, [reach], 5, np.inf, targets=[Box(line, [0.2], [0.3])], region=Box(line, [0.0], [1.0])
    )
    assert words == [[(2,)]]
    assert reach.reps.ravel().tolist() == [-0.5, 0.0] and reach.visited_count == 3
    with pytest.raises(PointOutsideDomain):
        forward_orbit(triple_ifs, [-0.5], depth=1, eps=1 / 16)


def test_lockstep_minimality_gives_each_seed_its_own_orbit(torus_pack_ifs):
    # every seed's reach set equals forward_orbit of the seed alone; at
    # budget 2000 the seed by the seam ends after 7 visits while the others
    # truncate, and at eps 1/64 the seeds run in groups of two
    seeds = np.array([[0.3, 0.6], [0.00885255, 0.63561522], [0.7, 0.2], [0.45, 0.95], [0.1, 0.1]])
    for eps, budget in ((1 / 16, 2000), (1 / 16, 10**6), (1 / 64, 5000)):
        rep = minimality_experiment(torus_pack_ifs, seeds, eps=eps, budget=budget)
        for seed, reach in zip(seeds, rep["reaches"]):
            alone = forward_orbit(torus_pack_ifs, seed, budget, eps / 4, budget)
            for f in ("seed", "keys", "reps", "parent", "symbol", "frontier"):
                a, b = getattr(reach, f), getattr(alone, f)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert (reach.visited_count, reach.truncated, reach.depth_reached) == (
                alone.visited_count, alone.truncated, alone.depth_reached,
            )
        if budget == 2000:
            assert [r.truncated for r in rep["reaches"]] == [True, False, True, True, True]


def test_roots_whose_images_outgrow_a_shared_grid_run_as_if_alone():
    # at depth 1 the images 0, -50000 and 50000 of three seeds fit a grid of
    # 2**24 cells each alone but not together, so the group runs in halves;
    # at depth 2 the seed 0 is the first to leave the line, so the seed 0.5
    # before it is explored and the seed 1 after it is not
    line = unit_interval_space(1)
    ifs = IFS([affine_map(line, [[1e5]], [-5e4])], Box(line, [0.0], [1.0]))
    seeds = [[0.5], [0.0], [1.0]]
    reaches = _roots(line, seeds, 1 / 256)
    assert _explore(ifs.generators, reaches, 1, np.inf, targets=(), region=None) == [[], [], []]
    for seed, reach in zip(seeds, reaches):
        alone = forward_orbit(ifs, seed, 1, 1 / 256)
        assert reachset_lines(reach) == reachset_lines(alone) and len(reach.keys) == 2
    reaches = _roots(line, seeds, 1 / 256)
    with pytest.raises(PointOutsideDomain):
        _explore(ifs.generators, reaches, 2, np.inf, targets=(), region=None)
    assert [r.depth_reached for r in reaches] == [2, 0, 0]


@settings(max_examples=25)
@given(st.floats(0.0, 1.0))
def test_witnesses_replay_from_random_seed_interval(triple_ifs, x):
    assert replay_check(triple_ifs, forward_orbit(triple_ifs, [x], depth=6, eps=1 / 64))


@settings(max_examples=10)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
def test_witnesses_replay_from_random_seed_torus(torus_pack_ifs, x, y):
    reach = forward_orbit(torus_pack_ifs, [x, y], depth=10**6, eps=1 / 32, budget=3000)
    assert replay_check(torus_pack_ifs, reach)


def test_replay_check_rejects_corrupted_witnesses(torus_pack_ifs):
    reach = forward_orbit(torus_pack_ifs, [0.3, 0.6], depth=4, eps=1 / 32)
    assert replay_check(torus_pack_ifs, reach)
    row = len(reach.reps) - 1
    moved = replace(reach, reps=reach.reps.copy())
    moved.reps[row] = torus_pack_ifs.space.canonicalize(moved.reps[row] + 0.6 * reach.eps)
    assert not replay_check(torus_pack_ifs, moved)
    resymboled = replace(reach, symbol=reach.symbol.copy())
    resymboled.symbol[row] = (reach.symbol[row] + 1) % torus_pack_ifs.k
    assert not replay_check(torus_pack_ifs, resymboled)


@pytest.fixture(scope="module")
def word_systems(triple_ifs, torus_pack_ifs, symplectic_model):
    """(maps, region): the triple IFS, the torus pack, a perturbed bank and
    the blender model's inverted cu fibers."""
    line = StateSpace((Interval(-1, 1),))
    bank = perturb_ifs(construct_translations(affine_map(line, [[0.5]], [0.0]), 0.5, 0.3), 0.025, seed=1)
    systems = (triple_ifs, torus_pack_ifs, bank, symplectic_model.fiber_ifs_cu_inverted())
    return [(ifs.generators, ifs.domain_region) for ifs in systems]


@settings(max_examples=40)
@given(st.data())
def test_apply_words_keeps_each_rows_bits(word_systems, data):
    # every row is its word applied to its point alone, one map call per
    # symbol, whether X is one point for every word or one row per word
    maps, region = data.draw(st.sampled_from(word_systems))
    words = data.draw(st.lists(st.lists(st.integers(0, len(maps) - 1), max_size=8).map(tuple), max_size=6))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    dim = region.space.dim
    corners = data.draw(st.lists(st.lists(unit, min_size=dim, max_size=dim), min_size=len(words) + 1,
                                 max_size=len(words) + 1))
    X = region.lo + np.array(corners) * (region.hi - region.lo)

    def alone(word, x):
        y = x
        for s in word:
            y = maps[s](y)
        return y

    for X_in, starts in ((X[0], [X[0]] * len(words)), (X[1:], X[1:])):
        got = apply_words(maps, words, X_in)
        assert got.shape == (len(words), dim)
        for row, w, x in zip(got, words, starts):
            assert row.tobytes() == alone(w, x).tobytes()
    for w in words + [()]:
        assert apply_word(maps, w, X[0]).tobytes() == alone(w, X[0]).tobytes()


# ---------------------------------------------------------------------------
# the occupancy grid against a first-occurrence reference on a Python set
# ---------------------------------------------------------------------------

CELL_SPACES = {
    "circle": torus(2),
    "interval": unit_interval_space(2),
    "mixed": annulus(),
    "mixed3": StateSpace((Circle(1.0), Interval(-1.0, 1.0), Circle(0.5))),
}


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(sorted(CELL_SPACES)), st.sampled_from([1 / 3, 1 / 4, 1 / 8]))
def test_cell_set_inserts_first_occurrences_as_a_python_set_does(data, name, eps):
    # circle keys come wrapped, as cell_index makes them; interval keys may
    # lie up to 3 cells off the grid on either side and grow the box
    space = CELL_SPACES[name]
    lo, hi = space.cell_range(eps)
    off = [0 if isinstance(f, Circle) else 3 for f in space.factors]
    key = st.tuples(*[st.integers(int(a) - o, int(b) + o) for a, b, o in zip(lo, hi, off)])
    batches = data.draw(st.lists(st.lists(key, max_size=40), max_size=6))
    cells, ref = CellSet(space, eps), set()
    for batch in batches:
        want = []
        for i, k in enumerate(batch):
            if k not in ref:
                ref.add(k)
                want.append(i)
        got = cells.add_new(np.array(batch, dtype=np.int64).reshape(len(batch), space.dim))
        assert got.dtype == np.intp and got.tolist() == want
    assert cells.rows().tolist() == [list(k) for k in sorted(ref)]


def test_cell_set_box_over_the_limit_raises():
    with pytest.raises(DynlabError):
        CellSet(torus(2), 1 / 4097)  # 4097**2 > 2**24 cells
    with pytest.raises(AssertionError):
        CellSet(torus(2), 1 / 8, roots=2).rows()  # rows() lists one root
    cells = CellSet(unit_interval_space(1), 1 / 8)
    cells.add_new(np.array([[3], [-2]]))
    with pytest.raises(DynlabError):
        cells.add_new(np.array([[2**24]]))
    # the failed insertion leaves the set as it was
    assert cells.rows().ravel().tolist() == [-2, 3]
    assert cells.add_new(np.array([[3], [9], [9]])).tolist() == [1]

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlab.errors import PointOutsideDomain
from dynlab.ifs import IFS, _explore, _root, apply_word, extend_orbit, forward_orbit, replay_check
from dynlab.maps import affine_map, identity_map
from dynlab.reports import reachset_lines
from dynlab.spaces import Box, annulus, torus, unit_interval_space
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
    together = _explore(gens, _root(t2, seed, 1 / 64), 8, targets=targets)
    assert together == [_explore(gens, _root(t2, seed, 1 / 64), 8, targets=[t])[0] for t in targets]
    assert together[-1] == () and None in together
    assert {len(w) for w in together if w is not None} == {0, 5, 6, 7, 8}
    for w, t in zip(together, targets):
        assert w is None or t.contains(apply_word(gens, w, seed))


def test_region_search_expands_a_seed_outside_its_region(triple_ifs):
    # the region, not the space, bounds a region search: the seed -0.5 lies
    # outside both and is still expanded; its image -0.25 is dropped, not
    # visited, and the search ends at the image 0.25 that hits its target
    line = triple_ifs.space
    reach = _root(line, [-0.5], 1 / 16)
    words = _explore(
        triple_ifs.generators, reach, 5, targets=[Box(line, [0.2], [0.3])], region=Box(line, [0.0], [1.0])
    )
    assert words == [(2,)]
    assert reach.reps.ravel().tolist() == [-0.5, 0.0] and reach.visited_count == 3
    with pytest.raises(PointOutsideDomain):
        forward_orbit(triple_ifs, [-0.5], depth=1, eps=1 / 16)


@settings(max_examples=25)
@given(st.floats(0.0, 1.0))
def test_witnesses_replay_from_random_seed_interval(triple_ifs, x):
    assert replay_check(triple_ifs, forward_orbit(triple_ifs, [x], depth=6, eps=1 / 64))


@settings(max_examples=10)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
def test_witnesses_replay_from_random_seed_torus(torus_pack_ifs, x, y):
    reach = forward_orbit(torus_pack_ifs, [x, y], depth=10**6, eps=1 / 32, budget=3000)
    assert replay_check(torus_pack_ifs, reach)

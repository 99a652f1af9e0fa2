"""The SmoothMap contract: every map the library's constructors build, and
its inverse, yields a Jacobian of shape (N, n, n) from what it declares.
Where that Jacobian comes from the inverse-function rule, it agrees with
central differences of the map itself."""

import numpy as np
import pytest

from dynlab.bumps import hamiltonian_bump_translation
from dynlab.covering import construct_translations
from dynlab.maps import affine_map, check_symplectic, compose, jacobian, pair_shear
from dynlab.perturb import perturb_ifs, perturb_map
from dynlab.spaces import Box, Circle, Interval, StateSpace, torus
from dynlab.twist import conjugating_shear, flow_h_epsilon, minimal_generator_pack, twist_map
from oracles import fd_jacobian

FD_STEP = 1e-6
FD_TOL = 1e-6


def _uniform(lo, hi, n=40, seed=0):
    return np.random.default_rng(seed).uniform(lo, hi, (n, len(lo)))


def _annulus_twist():
    sp = StateSpace((Interval(-1, 2), Circle(1.0)))
    return twist_map(lambda I: I, lambda I: np.ones_like(I), space=sp)


def _square(n=2):
    return StateSpace(tuple(Interval(-1, 1) for _ in range(n)))


def _translations():
    lam = 0.5
    phi = affine_map(_square(), lam * np.eye(2), np.zeros(2), name="phi")
    return construct_translations(phi, lam, 0.9 * (1 - lam) / (1 + lam))


def _model_points(model, n=40, seed=1):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        p = model.region_full().sample(rng)
        if model.base.rect_of(p[:2]) >= 0:
            pts.append(p)
    return np.array(pts)


def _cases(model):
    """(name, map, points of its domain) for every constructor."""
    tw = _annulus_twist()
    sp2 = tw.domain
    ann = ([0.0, 0.0], [1.0, 1.0])
    shear2 = pair_shear(
        torus(2), 0, 1, lambda a: 0.1 * np.sin(2 * np.pi * a), lambda a: 0.2 * np.pi * np.cos(2 * np.pi * a), "pair"
    )
    affine = affine_map(_square(), [[0.5, 0.1], [0.0, 0.4]], [0.1, -0.2], name="affine")
    pack = minimal_generator_pack(twist_map(lambda I: I, lambda I: np.ones_like(I), space=torus(2)), "three", seed=11)
    ifs = _translations()
    G = model.as_map()
    U = Box(_square(), [-0.2, -0.2], [0.2, 0.2])
    Ut = Box(_square(), [-0.8, -0.8], [0.8, 0.8])
    cases = [
        ("affine_map", affine, _uniform([-0.9, -0.9], [0.9, 0.9])),
        ("pair_shear", shear2, _uniform([0.0, 0.0], [1.0, 1.0])),
        ("twist_map", tw, _uniform(*ann)),
        ("conjugating_shear", conjugating_shear(0.1, space=sp2), _uniform(*ann)),
        ("compose", compose(tw, conjugating_shear(0.05, space=sp2)), _uniform(*ann)),
        ("perturb_map-symplectic", perturb_map(tw, 0.02, seed=5), _uniform(*ann)),
        ("perturb_map-trig", perturb_map(affine, 0.07, seed=3), _uniform([-0.9, -0.9], [0.9, 0.9])),
        ("flow_h_epsilon", flow_h_epsilon(0.3, 1.0), _uniform([-0.3, 0.0], [1.2, 1.0])),
        ("hamiltonian_bump_translation", hamiltonian_bump_translation([0.1], [0.05], U, Ut), _uniform([-0.9, -0.9], [0.9, 0.9])),
        ("blender-model", G, _model_points(model)),
        ("perturbed-blender-model", perturb_map(G, 0.01, seed=2), _model_points(model)),
    ]
    cases += [(f"pack-{i}", g, _uniform([0.0, 0.0], [1.0, 1.0])) for i, g in enumerate(pack)]
    for tag, fam in (("translations", ifs), ("perturbed-translations", perturb_ifs(ifs, 0.02, seed=4))):
        cases += [(f"{tag}-{i}", fam.generators[i], _uniform([-0.5, -0.5], [0.5, 0.5])) for i in range(0, fam.k, 16)]
    return cases


def _declares(m):
    return m.jac is not None or m.affine is not None


@pytest.fixture(scope="module")
def cases(symplectic_model):
    return _cases(symplectic_model)


def test_every_map_and_inverse_yields_a_jacobian(cases):
    ruled = []
    for name, m, X in cases:
        assert m.inverse is not None, name
        n = m.domain.dim
        for g, pts in ((m, X), (m.inverse, m.fn(X))):
            J = jacobian(g, pts)
            assert J.shape == (len(pts), n, n), g.name
            assert np.all(np.isfinite(J)), g.name
            if not _declares(g):
                ruled.append(g.name)
                err = np.max(np.abs(J - fd_jacobian(g, pts, FD_STEP)))
                assert err < FD_TOL, (name, g.name, err)
    # the inverses that declare no Jacobian of their own
    maps = {name: m for name, m, _ in cases}
    for name in (
        "perturb_map-symplectic", "perturb_map-trig", "perturbed-translations-0",
        "hamiltonian_bump_translation", "blender-model",
    ):
        assert maps[name].inverse.name in ruled, name


def test_the_blender_model_inverse_is_symplectic(symplectic_model):
    F = symplectic_model.as_map()
    pts = F.fn(_model_points(symplectic_model, n=100, seed=2))
    rep = check_symplectic(F.inverse, pts, 1e-8)
    assert rep["pass"], rep

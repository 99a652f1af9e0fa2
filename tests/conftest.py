from math import pi

import numpy as np
import pytest
from hypothesis import settings

from dynlab.blender import build_geometric_model, verify_covering_geometric
from dynlab.horseshoe import HorseshoeBase
from dynlab.ifs import IFS
from dynlab.maps import affine_map
from dynlab.spaces import Box, Interval, StateSpace, unit_interval_space

# property tests judge results, never wall-clock time: one example may take
# several times longer when the machine is busy. Examples are drawn
# deterministically, so two checkouts run the same ones
settings.register_profile("dynlab", deadline=None, derandomize=True)
settings.load_profile("dynlab")


@pytest.fixture(scope="session")
def dyadic_ifs():
    line = unit_interval_space(1)
    g0 = affine_map(line, [[0.5]], [0.0], name="half")
    g1 = affine_map(line, [[0.5]], [0.5], name="half+1/2")
    return IFS([g0, g1], Box(line, [0.0], [1.0]))


@pytest.fixture(scope="session")
def triple_ifs():
    line = unit_interval_space(1)
    gens = [affine_map(line, [[0.5]], [c], name=f"half+{c}") for c in (0.0, 0.25, 0.5)]
    return IFS(gens, Box(line, [0.0], [1.0]))


@pytest.fixture(scope="session")
def gap_ifs():
    line = unit_interval_space(1)
    gens = [affine_map(line, [[0.5]], [c], name=f"g{c}") for c in (0.0, 0.6)]
    return IFS(gens, Box(line, [0.0], [1.0]))


@pytest.fixture(scope="session")
def symplectic_model():
    base = HorseshoeBase.build(3, mu_ss=0.1, mu_uu=10.0)
    wide = StateSpace((Interval(-4.0, 5.0),))
    cs = [affine_map(wide, [[0.5]], [c], name=f"cs{i}") for i, c in enumerate((0.0, 0.25, 0.5))]
    D = Box(wide, [0.0], [1.0])
    return build_geometric_model(
        base, cs, D, fibers_cu=[m.inverse for m in cs], region_cu=D, symplectic=True
    )


@pytest.fixture(scope="session")
def symplectic_model_report(symplectic_model):
    return verify_covering_geometric(symplectic_model, grid_step=1 / 16)


def _closure_generator(phi, c, field):
    """Reference: the closures that evaluated a translated, perturbed
    generator of an affine phi before the bank did, on one point: fn,
    Jacobian and inverse of x -> ((x A^T + b) + c) + B(x), the inverse
    Newton's steps from ((y - c) - b) A^-1^T stopping after the step whose
    residual is below 1e-13, at most 6."""
    A, b = phi.affine
    Ainv = np.linalg.inv(A)

    def fn(x):
        y = x @ A.T + b + c
        if field is None:
            return y
        freqs, phases, amps = field
        return y + amps * np.sin(2 * pi * (x @ freqs.T + phases))

    def jac(x):
        if field is None:
            return A
        freqs, phases, amps = field
        return A + (amps * np.cos(2 * pi * (x @ freqs.T + phases)))[:, None] * (2 * pi * freqs)

    def fn_inv(y):
        x = ((y - c) - b) @ Ainv.T
        if field is None:
            return x
        for _ in range(6):
            r = fn(x) - y
            x = x - np.linalg.solve(jac(x)[None], r[None, :, None])[0, :, 0]
            if np.abs(r).max() < 1e-13:
                break
        return x

    return fn, jac, fn_inv


@pytest.fixture(scope="session")
def closure_generator():
    """Reference (fn, jac, fn_inv) of a translated, perturbed generator of
    an affine phi, for (phi, c, field), field (freqs, phases, amps) or None."""
    return _closure_generator

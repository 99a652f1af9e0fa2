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

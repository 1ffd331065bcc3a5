import numpy as np
import pytest
from hypothesis import settings

from levylab import (JumpLaw, LatticeSpec, LevyCharacteristic, ModelParams)

# Every run draws the same examples, and no example fails for running slowly
# on a loaded machine; each test keeps its own max_examples.
settings.register_profile("levylab", derandomize=True, deadline=None)
settings.load_profile("levylab")


@pytest.fixture
def small_spec():
    return LatticeSpec(3, 8, 0.5)


@pytest.fixture
def desk_spec():
    return LatticeSpec(3, 16, 0.5)


@pytest.fixture
def gaussian_chi():
    return LevyCharacteristic(b=0.0, sigma2=1.0, lam=0.0)


@pytest.fixture
def poisson_chi():
    return LevyCharacteristic(b=0.0, sigma2=0.0, lam=2.0,
                              jump_law=JumpLaw.atom(1.0))


@pytest.fixture
def mixed_chi():
    return LevyCharacteristic(b=0.3, sigma2=0.5, lam=1.5,
                              jump_law=JumpLaw.uniform(0.5, 2.0))


@pytest.fixture
def model_half():
    return ModelParams(0.5, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

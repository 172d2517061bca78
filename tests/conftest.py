import numpy as np
import pytest

from dgmem.encoder import PatchEncoder
from dgmem.gridworld import GridEnv, make_four_rooms


@pytest.fixture(scope="session")
def four_rooms():
    return make_four_rooms(0)


@pytest.fixture()
def env(four_rooms):
    return GridEnv(four_rooms)


@pytest.fixture(scope="session")
def encoder():
    return PatchEncoder()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def forgetful_rollout():
    """A ``learner.Rollout`` whose decision memo keeps nothing, so every
    ``ActorCritic.act`` runs its own forward."""
    from dgmem import learner

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    class ForgetfulRollout(learner.Rollout):
        def __init__(self):
            super().__init__()
            self.decisions = Forgetful()

    return ForgetfulRollout

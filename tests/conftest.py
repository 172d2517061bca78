import dataclasses

import numpy as np
import pytest

from dgmem import gridworld as gw
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
    """A ``learner.Rollout`` whose decision memo and block-product tables
    keep nothing, so every ``ActorCritic.act`` computes its own decision."""
    from dgmem import learner

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    class ForgetfulRollout(learner.Rollout):
        def __init__(self):
            super().__init__()
            self.decisions, self.views, self.targets = (
                Forgetful(), Forgetful(), Forgetful())

    return ForgetfulRollout


@pytest.fixture(scope="session")
def duplicate_heavy():
    """``make(rng, k, n, dim)``: n rows drawn from k distinct random rows,
    each of them used."""
    def make(rng, k, n, dim=259):
        base = rng.standard_normal((k, dim))
        pick = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        return base[rng.permutation(pick)]

    return make


@pytest.fixture(scope="session")
def reference_adam():
    """``nn.Adam`` with the step written as fresh-array expressions, the
    formula the in-place step must reproduce byte for byte."""
    from dgmem.nn import Adam

    class ReferenceAdam(Adam):
        def step(self, params, grads, lr):
            self.t += 1
            b1c = 1.0 - self.beta1 ** self.t
            b2c = 1.0 - self.beta2 ** self.t
            for k, g in grads.items():
                self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
                self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * (g * g)
                params[k] -= lr * (self.m[k] / b1c) / (
                    np.sqrt(self.v[k] / b2c) + self.eps)

    return ReferenceAdam


def _replace_step(env, state, action, rng):
    """Reference transition: ``dataclasses.replace`` and ``GridMap.is_free``."""
    dx, dy, heading = gw.action_effect(env.variant, action, state.heading)
    nx, ny = state.x + dx, state.y + dy
    collided = (dx or dy) and not env.grid.is_free(nx, ny)
    if collided:
        nx, ny = state.x, state.y
    true_delta = np.array([nx - state.x, ny - state.y,
                           float(heading - state.heading)])
    if env.noise_scale > 0.0:
        noisy_delta = true_delta + rng.normal(0.0, env.noise_scale, 3)
    else:
        noisy_delta = true_delta
    new_state = dataclasses.replace(
        state, x=nx, y=ny, heading=heading,
        pose_est=state.pose_est + noisy_delta)
    return new_state, env.observe(new_state, collided=bool(collided))


@pytest.fixture(scope="session")
def replace_step():
    """``replace_step(env, state, action, rng)``: the reference transition
    ``GridEnv.step`` must match, worked out afresh at every call."""
    return _replace_step

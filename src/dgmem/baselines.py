"""Exploration baselines: random, straight-until-collision, and intrinsic
curiosity agents (forward-dynamics prediction and random network
distillation) trained with the same PPO machinery as the main agent. The
random explorer draws an episode's actions at once; RND memoises its target.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .encoder import PatchEncoder
from .gridworld import AgentState, GridEnv
from .learner import Rollout, ppo_update
from .metrics import CoverageTracker
from .nn import MLP, ActorCritic, Adam


class StraightPolicy:
    """Keep the last direction; pick a different random one on collision."""

    def __init__(self, n_actions: int, rng: np.random.Generator):
        self.n_actions = n_actions
        self.action = int(rng.integers(n_actions))

    def act(self, last_collision: bool, rng: np.random.Generator) -> int:
        if last_collision:
            others = [a for a in range(self.n_actions) if a != self.action]
            self.action = others[int(rng.integers(len(others)))]
        return self.action


class ForwardDynamicsModel:
    """Learned forward model; intrinsic reward is its prediction error."""

    def __init__(self, feature_dim: int, n_actions: int, seed: int = 0,
                 hidden: Tuple[int, int] = (64, 64), lr: float = 1e-3):
        self.lr = lr
        self.net = MLP(feature_dim + n_actions, hidden, feature_dim, seed=seed)
        self.one_hot = np.eye(n_actions)

    def intrinsic_reward(self, feature: np.ndarray, action: int,
                         next_feature: np.ndarray) -> float:
        x = np.concatenate([feature, self.one_hot[action]])[None, :]
        return self.net.sgd_step(self.net.forward(x)[1], next_feature, self.lr)


class RNDModel:
    """Random network distillation: predictor error against a frozen target."""

    def __init__(self, feature_dim: int, seed: int = 0, out_dim: int = 32,
                 hidden: Tuple[int, int] = (64, 64), lr: float = 1e-3):
        self.lr = lr
        self.target = MLP(feature_dim, hidden, out_dim, seed=seed)
        self.predictor = MLP(feature_dim, hidden, out_dim, seed=seed + 1)
        self.targets: Dict[bytes, np.ndarray] = {}  # by feature bytes

    def intrinsic_reward(self, feature: np.ndarray, action: int,
                         next_feature: np.ndarray) -> float:
        x = next_feature[None, :]
        key = next_feature.tobytes()
        target_out = self.targets.get(key)
        if target_out is None:
            target_out = self.targets[key] = self.target.forward(x)[0][0]
        return self.predictor.sgd_step(self.predictor.forward(x)[1],
                                       target_out, self.lr)


def explore_random(env: GridEnv, steps: int, rng: np.random.Generator,
                   spawn: Optional[AgentState] = None,
                   episode_len: int = 0) -> CoverageTracker:
    """Uniform random actions, each episode's drawn in one call (the values
    of one draw per step), before that episode's odometry noise."""
    tracker = CoverageTracker(env.grid)
    state = spawn if spawn is not None else env.spawn(rng)
    home = (state.x, state.y)
    tracker.visit(state.x, state.y)
    cuts = range(episode_len, steps + 1, episode_len) if episode_len else ()
    for start, stop in zip((1, *cuts), (*cuts, steps + 1)):
        if start in cuts:
            state = AgentState(x=home[0], y=home[1])
        for action in rng.integers(env.n_actions, size=stop - start).tolist():
            state, _ = env.step(state, action, rng)
            tracker.visit(state.x, state.y)
    return tracker


def explore_straight(env: GridEnv, steps: int, rng: np.random.Generator,
                     spawn: Optional[AgentState] = None,
                     episode_len: int = 0) -> CoverageTracker:
    tracker = CoverageTracker(env.grid)
    state = spawn if spawn is not None else env.spawn(rng)
    home = (state.x, state.y)
    tracker.visit(state.x, state.y)
    policy = StraightPolicy(env.n_actions, rng)
    collided = False
    for t in range(1, steps + 1):
        if episode_len and t % episode_len == 0:
            state = AgentState(x=home[0], y=home[1])
            collided = False
        state, obs = env.step(state, policy.act(collided, rng), rng)
        collided = obs.collided
        tracker.visit(state.x, state.y)
    return tracker


def explore_intrinsic(env: GridEnv, enc: PatchEncoder, kind: str, steps: int,
                      seed: int = 0, nsteps: int = 256,
                      episode_len: int = 100,
                      spawn: Optional[AgentState] = None) -> CoverageTracker:
    """PPO agent driven purely by an intrinsic reward (DP or RND baseline).

    The policy reuses the actor-critic machinery but sees the view feature
    only: its ``fc1`` keeps the feature rows of the goal-conditioned
    network's initialisation, so it computes what that network computes
    with the goal feature and pose zeroed. Without a ``spawn`` the start
    cell is drawn from the seeded generator. Only the first ``steps - steps
    % nsteps`` steps reach a PPO update, so only they compute a reward and
    train the curiosity model. ``nsteps`` below 1 raises ValueError.
    """
    if nsteps < 1:
        raise ValueError(f"nsteps must be at least 1, not {nsteps}")
    rng = np.random.default_rng(seed)
    net = ActorCritic(2 * enc.feature_dim + 3, env.n_actions, seed=seed)
    net.keep_inputs(enc.feature_dim)
    opt = Adam(net.params)
    if kind == "dp":
        model = ForwardDynamicsModel(enc.feature_dim, env.n_actions, seed=seed)
    elif kind == "rnd":
        model = RNDModel(enc.feature_dim, seed=seed)
    else:
        raise ValueError(f"unknown intrinsic baseline {kind!r}")

    tracker = CoverageTracker(env.grid)
    state = spawn if spawn is not None else env.spawn(rng)
    home = (state.x, state.y)
    tracker.visit(state.x, state.y)
    feat = enc.encode(env.observe(state).patch)

    rollout = Rollout()
    learned = steps - steps % nsteps
    for t in range(1, steps + 1):
        action, logp, value = net.act(feat, rng, memo=rollout.decisions)
        state, obs = env.step(state, action, rng)
        next_feat = enc.encode(obs.patch)
        done = bool(episode_len and t % episode_len == 0)
        if t <= learned:
            r = model.intrinsic_reward(feat, action, next_feat)
            rollout.add(feat, action, logp, value, r, done)
        feat = next_feat
        tracker.visit(state.x, state.y)
        if done:
            state = AgentState(x=home[0], y=home[1])
            feat = enc.encode(env.observe(state).patch)
        if len(rollout) >= nsteps:
            last_value = 0.0 if done else float(net.forward(feat)[1][0])
            bx, ba, blogp, adv, ret = rollout.batch(last_value, 0.99, 0.95)
            ppo_update(net, opt, bx, ba, blogp, adv, ret, lr=1e-4)
    return tracker

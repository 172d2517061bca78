import numpy as np
import pytest

from dgmem import baselines
from dgmem.encoder import PatchEncoder
from dgmem.gridworld import AgentState, GridEnv


def reference_random(env, steps, rng, spawn, episode_len, step):
    """``explore_random`` as a per-step loop: one scalar action draw, then
    the transition ``step``, at every step."""
    hist = {}
    state = spawn
    hist[(state.x, state.y)] = 1
    for t in range(1, steps + 1):
        if episode_len and t % episode_len == 0:
            state = AgentState(x=spawn.x, y=spawn.y)
        state, _ = step(env, state, int(rng.integers(env.n_actions)), rng)
        hist[(state.x, state.y)] = hist.get((state.x, state.y), 0) + 1
    return hist


def reference_straight(env, steps, rng, spawn, episode_len, step):
    """``explore_straight`` as a per-step loop: keep the action, draw
    another one from the rest after a collision."""
    hist = {}
    state = spawn
    hist[(state.x, state.y)] = 1
    action = int(rng.integers(env.n_actions))
    collided = False
    for t in range(1, steps + 1):
        if episode_len and t % episode_len == 0:
            state = AgentState(x=spawn.x, y=spawn.y)
            collided = False
        if collided:
            others = [a for a in range(env.n_actions) if a != action]
            action = others[int(rng.integers(len(others)))]
        state, obs = step(env, state, action, rng)
        collided = obs.collided
        hist[(state.x, state.y)] = hist.get((state.x, state.y), 0) + 1
    return hist


def reference_intrinsic(env, enc, kind, steps, seed, nsteps, episode_len):
    """``explore_intrinsic`` as it was before it skipped the tail and the
    zero pad: the policy sees the feature padded with zeros to the
    goal-conditioned input (259 entries with the default encoder), and
    every step computes its intrinsic reward, trains the curiosity model
    and enters the rollout, and PPO updates every ``nsteps`` steps."""
    rng = np.random.default_rng(seed)
    net = baselines.ActorCritic(2 * enc.feature_dim + 3, env.n_actions,
                                seed=seed)
    opt = baselines.Adam(net.params)
    model = (baselines.ForwardDynamicsModel(enc.feature_dim, env.n_actions,
                                            seed=seed) if kind == "dp"
             else baselines.RNDModel(enc.feature_dim, seed=seed))
    state = env.spawn(rng)
    home = (state.x, state.y)
    hist = {home: 1}
    feat = enc.encode(env.observe(state).patch)
    pad = np.zeros(enc.feature_dim + 3)
    rollout = baselines.Rollout()
    for t in range(1, steps + 1):
        x = np.concatenate([feat, pad])
        action, logp, value = net.act(x, rng, memo=rollout.decisions)
        state, obs = env.step(state, action, rng)
        next_feat = enc.encode(obs.patch)
        r = model.intrinsic_reward(feat, action, next_feat)
        done = bool(episode_len and t % episode_len == 0)
        rollout.add(x, action, logp, value, r, done)
        feat = next_feat
        hist[(state.x, state.y)] = hist.get((state.x, state.y), 0) + 1
        if done:
            state = AgentState(x=home[0], y=home[1])
            feat = enc.encode(env.observe(state).patch)
        if len(rollout) >= nsteps:
            last_value = 0.0 if done else float(
                net.forward(np.concatenate([feat, pad]))[1][0])
            bx, ba, blogp, adv, ret = rollout.batch(last_value, 0.99, 0.95)
            baselines.ppo_update(net, opt, bx, ba, blogp, adv, ret, lr=1e-4)
    return hist


def reference_sgd_reward(params, names, x, target, lr):
    """Squared error of the MLP ``params`` (layers ``names``) on one row
    ``x`` against ``target``, then one plain-SGD step ``p -= lr * g`` per
    parameter, all in fresh-array expressions; returns the error."""
    acts = [x]
    for name in names[:-1]:
        acts.append(np.tanh(acts[-1] @ params[name + ".w"]
                            + params[name + ".b"]))
    out = acts[-1] @ params[names[-1] + ".w"] + params[names[-1] + ".b"]
    err = out[0] - target
    d = 2.0 * err[None, :] / len(err)
    grads = {}
    for i in reversed(range(len(names))):
        w = params[names[i] + ".w"]
        grads[names[i] + ".w"] = np.matmul(acts[i].T, d)
        grads[names[i] + ".b"] = d.sum(axis=0)
        if i > 0:
            d = (d @ w.T) * (1 - acts[i] * acts[i])
    for k, g in grads.items():
        params[k] -= lr * g
    return float(err @ err)


class RecordingEnv(GridEnv):
    """A GridEnv that keeps every action it is asked to take."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.actions = []

    def step(self, state, action, rng):
        self.actions.append(action)
        return super().step(state, action, rng)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vector_draws_equal_scalar_draws(n):
    """``explore_random`` draws an episode's actions in one call; that is
    only the same walk while NumPy's bounded integers give k scalar draws'
    values and leave the generator where they would."""
    for k in (1, 2, 99, 100, 25001):
        scalar, vector = (np.random.default_rng(10 * n + k) for _ in range(2))
        want = [int(scalar.integers(n)) for _ in range(k)]
        assert vector.integers(n, size=k).tolist() == want
        assert vector.bit_generator.state == scalar.bit_generator.state


class TestPolicies:
    @pytest.mark.parametrize("variant", ["cardinal", "orientation"])
    def test_random_explorer_actions_in_range(self, four_rooms, variant):
        env = RecordingEnv(four_rooms, variant=variant)
        baselines.explore_random(env, 500, np.random.default_rng(0),
                                 episode_len=30)
        assert len(env.actions) == 500
        assert all(type(a) is int for a in env.actions)
        assert set(env.actions) == set(range(env.n_actions))

    def test_straight_keeps_direction_until_collision(self, rng):
        policy = baselines.StraightPolicy(4, rng)
        first = policy.act(False, rng)
        assert all(policy.act(False, rng) == first for _ in range(10))
        after = policy.act(True, rng)
        assert after != first


class TestIntrinsicModels:
    def test_forward_dynamics_error_shrinks_on_repetition(self, rng):
        model = baselines.ForwardDynamicsModel(16, 4, seed=0, lr=0.05)
        feat = rng.standard_normal(16)
        nxt = rng.standard_normal(16)
        first = model.intrinsic_reward(feat, 2, nxt)
        for _ in range(50):
            last = model.intrinsic_reward(feat, 2, nxt)
        assert last < first

    def test_rnd_target_is_frozen(self, rng):
        model = baselines.RNDModel(16, seed=0)
        before = {k: v.copy() for k, v in model.target.params.items()}
        for _ in range(20):
            model.intrinsic_reward(rng.standard_normal(16), 0,
                                   rng.standard_normal(16))
        for k in before:
            assert np.array_equal(model.target.params[k], before[k])

    def test_rnd_target_memo_changes_nothing(self, rng):
        """Rewards and predictor updates equal a model that runs the frozen
        target's forward at every call."""
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        feats = rng.standard_normal((6, 16))
        kept, fresh = (baselines.RNDModel(16, seed=0) for _ in range(2))
        fresh.targets = Forgetful()
        for i in rng.integers(len(feats), size=80):
            assert (kept.intrinsic_reward(None, 0, feats[i])
                    == fresh.intrinsic_reward(None, 0, feats[i]))
        assert len(kept.targets) == len(feats) and not fresh.targets
        for k, v in kept.predictor.params.items():
            assert v.tobytes() == fresh.predictor.params[k].tobytes(), k

    @pytest.mark.parametrize("kind", ["rnd", "dp"])
    def test_rewards_and_parameters_match_per_parameter_steps(self, rng,
                                                               kind):
        """Over a 300-sample stream, the flat in-place SGD step gives the
        rewards and parameters, bit for bit, of a model stepping each
        parameter with fresh arrays and one-row bias sums."""
        feats = rng.standard_normal((12, 128))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        if kind == "rnd":
            model = baselines.RNDModel(128, seed=3)
            net = model.predictor
            target = {k: v.copy() for k, v in model.target.params.items()}
        else:
            model = baselines.ForwardDynamicsModel(128, 4, seed=3)
            net = model.net
        ref = {k: v.copy() for k, v in net.params.items()}
        for i, action in zip(rng.integers(len(feats), size=300),
                             rng.integers(4, size=300)):
            feat, nxt = feats[i], feats[(i + 1) % len(feats)]
            got = model.intrinsic_reward(feat, int(action), nxt)
            if kind == "rnd":
                acts = [nxt[None, :]]
                for name in net.names[:-1]:
                    acts.append(np.tanh(acts[-1] @ target[name + ".w"]
                                        + target[name + ".b"]))
                last = net.names[-1]
                want = reference_sgd_reward(
                    ref, net.names, nxt[None, :],
                    (acts[-1] @ target[last + ".w"] + target[last + ".b"])[0],
                    model.lr)
            else:
                x = np.concatenate([feat, np.eye(4)[action]])[None, :]
                want = reference_sgd_reward(ref, net.names, x, nxt, model.lr)
            assert got == want
        for k, v in ref.items():
            assert net.params[k].tobytes() == v.tobytes(), k

    def test_rnd_error_shrinks_on_repetition(self, rng):
        model = baselines.RNDModel(16, seed=0, lr=0.05)
        nxt = rng.standard_normal(16)
        first = model.intrinsic_reward(None, 0, nxt)
        for _ in range(50):
            last = model.intrinsic_reward(None, 0, nxt)
        assert last < first


class TestExploreLoops:
    @pytest.mark.parametrize("variant", ["cardinal", "orientation"])
    @pytest.mark.parametrize("episode_len", [0, 1, 7, 100])
    @pytest.mark.parametrize("explore, reference", [
        (baselines.explore_random, reference_random),
        (baselines.explore_straight, reference_straight)])
    def test_explorers_match_per_step_reference(self, four_rooms, variant,
                                                episode_len, explore,
                                                reference, replace_step):
        env = GridEnv(four_rooms, variant=variant)
        for seed in range(3):
            spawn = env.spawn(np.random.default_rng(seed + 50))
            got = explore(env, 1500, np.random.default_rng(seed),
                          spawn=spawn, episode_len=episode_len)
            want = reference(env, 1500, np.random.default_rng(seed), spawn,
                             episode_len, replace_step)
            assert got.hist == want

    def test_noisy_random_walk_is_same_seed_deterministic(self, four_rooms):
        """Each episode's actions are drawn before its odometry noise: the
        first episode walks the noise-free cells, and later ones depend on
        the noise draws but repeat with the seed."""
        def walk(noise, steps):
            return baselines.explore_random(
                GridEnv(four_rooms, noise_scale=noise), steps,
                np.random.default_rng(4), episode_len=100).hist

        assert walk(0.3, 99) == walk(0.0, 99)
        assert walk(0.3, 2000) == walk(0.3, 2000)

    def test_random_coverage_monotone_in_budget(self, four_rooms):
        env = GridEnv(four_rooms)
        small = baselines.explore_random(env, 500,
                                         np.random.default_rng(0),
                                         episode_len=100)
        big = baselines.explore_random(env, 5000,
                                       np.random.default_rng(0),
                                       episode_len=100)
        assert big.coverage() >= small.coverage()

    def test_straight_explores_some_cells(self, four_rooms):
        env = GridEnv(four_rooms)
        tracker = baselines.explore_straight(env, 2000,
                                             np.random.default_rng(0),
                                             episode_len=100)
        assert 0.0 < tracker.coverage() < 1.0

    def test_intrinsic_agent_runs_and_covers(self, four_rooms):
        env = GridEnv(four_rooms)
        enc = PatchEncoder()
        tracker = baselines.explore_intrinsic(env, enc, "rnd", 600, seed=0,
                                              nsteps=128, episode_len=100)
        assert tracker.coverage() > 0.05

    @pytest.mark.parametrize("kind", ["rnd", "dp"])
    def test_decision_memo_changes_nothing(self, kind, four_rooms,
                                           monkeypatch, forgetful_rollout):
        """A memo that keeps nothing visits the same cells as the real one."""
        hists = []
        for rollout_cls in (baselines.Rollout, forgetful_rollout):
            monkeypatch.setattr(baselines, "Rollout", rollout_cls)
            tracker = baselines.explore_intrinsic(
                GridEnv(four_rooms), PatchEncoder(), kind, 600, seed=0,
                nsteps=128, episode_len=100)
            hists.append(tracker.hist)
        assert hists[0] == hists[1]

    @pytest.mark.parametrize("kind", ["rnd", "dp"])
    @pytest.mark.parametrize("steps", [200, 512, 600])
    @pytest.mark.parametrize("nsteps", [64, 256])
    def test_intrinsic_agent_matches_every_step_reference(self, four_rooms,
                                                          kind, steps, nsteps):
        """Skipping the rewards and model steps that no PPO update reads
        (with ``nsteps`` 256, all of a 200-step run and the last 88 of 600)
        changes no visit."""
        env, enc = GridEnv(four_rooms), PatchEncoder()
        for seed in range(2):
            got = baselines.explore_intrinsic(env, enc, kind, steps,
                                              seed=seed, nsteps=nsteps,
                                              episode_len=100)
            assert got.hist == reference_intrinsic(env, enc, kind, steps,
                                                   seed, nsteps, 100)

    def test_intrinsic_agent_starts_at_given_spawn(self, four_rooms):
        env = GridEnv(four_rooms)
        spawn = AgentState(x=3, y=3)
        tracker = baselines.explore_intrinsic(env, PatchEncoder(), "dp", 1,
                                              seed=0, spawn=spawn)
        assert tracker.hist.get((3, 3), 0) >= 1

    @pytest.mark.parametrize("nsteps", [0, -1])
    def test_nonpositive_nsteps_rejected(self, four_rooms, nsteps):
        with pytest.raises(ValueError, match="nsteps"):
            baselines.explore_intrinsic(GridEnv(four_rooms), PatchEncoder(),
                                        "rnd", 10, nsteps=nsteps)

    def test_unknown_intrinsic_kind_rejected(self, four_rooms):
        env = GridEnv(four_rooms)
        enc = PatchEncoder()
        try:
            baselines.explore_intrinsic(env, enc, "bogus", 10)
        except ValueError:
            return
        raise AssertionError("expected ValueError")

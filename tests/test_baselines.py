import numpy as np
import pytest

from dgmem import baselines
from dgmem.encoder import PatchEncoder
from dgmem.gridworld import AgentState, GridEnv


class TestPolicies:
    def test_random_policy_in_range(self, rng):
        draws = {baselines.random_policy(4, rng) for _ in range(100)}
        assert draws <= {0, 1, 2, 3}

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

    def test_rnd_error_shrinks_on_repetition(self, rng):
        model = baselines.RNDModel(16, seed=0, lr=0.05)
        nxt = rng.standard_normal(16)
        first = model.intrinsic_reward(None, 0, nxt)
        for _ in range(50):
            last = model.intrinsic_reward(None, 0, nxt)
        assert last < first


class TestExploreLoops:
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

    def test_intrinsic_agent_starts_at_given_spawn(self, four_rooms):
        env = GridEnv(four_rooms)
        spawn = AgentState(x=3, y=3)
        tracker = baselines.explore_intrinsic(env, PatchEncoder(), "dp", 1,
                                              seed=0, spawn=spawn)
        assert tracker.hist.get((3, 3), 0) >= 1

    def test_unknown_intrinsic_kind_rejected(self, four_rooms):
        env = GridEnv(four_rooms)
        enc = PatchEncoder()
        try:
            baselines.explore_intrinsic(env, enc, "bogus", 10)
        except ValueError:
            return
        raise AssertionError("expected ValueError")

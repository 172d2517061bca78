import json
import os

import numpy as np
import pytest

from dgmem import cli, config as cfgmod, learner
from dgmem.graph import GraphMemory
from dgmem.learner import (CheckpointError, build_il_batch,
                           compute_advantages, il_update, load_checkpoint,
                           lr_schedule, policy_input, ppo_loss_grads,
                           ppo_update, save_checkpoint, training_loop)
from dgmem.nn import ActorCritic, Adam, log_probs, softmax


def gae_oracle(rewards, values, dones, last_value, gamma, lam):
    """Direct double-sum evaluation of the exponentially weighted advantage."""
    n = len(rewards)
    vals = list(values) + [last_value]
    deltas = [rewards[t] + gamma * vals[t + 1] * (0.0 if dones[t] else 1.0)
              - vals[t] for t in range(n)]
    adv = []
    for t in range(n):
        total, scale = 0.0, 1.0
        for k in range(t, n):
            total += scale * deltas[k]
            if dones[k]:
                break
            scale *= gamma * lam
        adv.append(total)
    return np.array(adv)


class TestAdvantages:
    def test_matches_double_sum_oracle(self, rng):
        for _ in range(20):
            n = 17
            rewards = rng.standard_normal(n)
            values = rng.standard_normal(n)
            dones = rng.random(n) < 0.2
            last = float(rng.standard_normal())
            adv, ret = compute_advantages(rewards, values, dones, last,
                                          gamma=0.99, lam=0.95)
            assert np.allclose(adv, gae_oracle(rewards, values, dones, last,
                                               0.99, 0.95))
            assert np.allclose(ret, adv + values)

    def test_lambda_one_gives_discounted_returns(self, rng):
        n = 10
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        dones = np.zeros(n, bool)
        dones[-1] = True
        adv, ret = compute_advantages(rewards, values, dones, 0.0,
                                      gamma=0.9, lam=1.0)
        expect = np.array([sum(0.9 ** (k - t) * rewards[k]
                               for k in range(t, n)) for t in range(n)])
        assert np.allclose(ret, expect)

    def test_done_blocks_bootstrap(self):
        rewards = np.array([0.0, 5.0])
        values = np.zeros(2)
        adv_a, _ = compute_advantages(rewards, values,
                                      np.array([True, False]), 0.0)
        # reward after the boundary must not leak into step 0
        assert adv_a[0] == 0.0

    def test_normalization_standardizes(self, rng):
        adv, _ = compute_advantages(rng.standard_normal(64),
                                    rng.standard_normal(64),
                                    np.zeros(64, bool), 0.0, normalize=True)
        assert abs(adv.mean()) < 1e-9
        assert abs(adv.std() - 1.0) < 1e-6

    def test_rollout_batch_matches_parallel_lists(self, rng):
        rollout = learner.Rollout()
        steps = [(rng.standard_normal(5), int(rng.integers(4)),
                  float(rng.standard_normal()), float(rng.standard_normal()),
                  float(rng.standard_normal()), bool(rng.random() < 0.2))
                 for _ in range(40)]
        for step in steps:
            rollout.add(*step)
        assert len(rollout) == 40
        x, a, logp, adv, ret = rollout.batch(0.7, 0.9, 0.8)
        xs, acts, logps, vals, rews, dones = map(list, zip(*steps))
        want_adv, want_ret = compute_advantages(
            np.array(rews), np.array(vals), np.array(dones), 0.7, 0.9, 0.8,
            normalize=True)
        assert np.array_equal(x, np.stack(xs)) and a.dtype.kind == "i"
        assert a.tolist() == acts and logp.tolist() == logps
        assert np.array_equal(adv, want_adv) and np.array_equal(ret, want_ret)
        assert len(rollout) == 0


class TestLrSchedule:
    def test_linear_endpoints_and_midpoint(self):
        assert lr_schedule(0, 100, 1e-4, 1e-5) == pytest.approx(1e-4)
        assert lr_schedule(100, 100, 1e-4, 1e-5) == pytest.approx(1e-5)
        assert lr_schedule(50, 100, 1e-4, 1e-5) == pytest.approx(5.5e-5)

    def test_clamped_outside_range(self):
        assert lr_schedule(200, 100, 1e-4, 1e-5) == pytest.approx(1e-5)


class TestPolicyInput:
    def test_layout_and_pose_scaling(self):
        obs = np.arange(4.0)
        goal = np.arange(4.0, 8.0)
        x = policy_input(obs, goal, np.array([10.0, -20.0, 0.0]))
        assert x.shape == (11,)
        assert np.allclose(x[:4], obs)
        assert np.allclose(x[4:8], goal)
        assert np.allclose(x[8:], [1.0, -2.0, 0.0])


INPUTS = os.path.join(os.path.dirname(__file__), "..", "benchmark", "inputs")


class TestPolicyBlocks:
    """The block formula of the navigator and of training decisions gives
    the probabilities and value of the whole network within rounding:
    fc1's product summed by policy_input block."""

    @staticmethod
    def assert_blocks_match_forward(net, views, targets, rels):
        blocks = learner.PolicyBlocks(net)
        for view in views:
            for target in targets:
                for rel in rels:
                    logits, values, _ = net.forward(policy_input(view, target,
                                                                 rel))
                    parts = (view @ blocks.view, target @ blocks.target, rel)
                    np.testing.assert_allclose(blocks.probs(*parts),
                                               softmax(logits)[0],
                                               rtol=1e-13, atol=0)
                    np.testing.assert_allclose(blocks.heads(*parts)[1],
                                               values[0], rtol=1e-13, atol=0)

    def test_committed_checkpoint(self):
        net = load_checkpoint(os.path.join(INPUTS, "checkpoint.ckpt"))
        with open(os.path.join(INPUTS, "graph.dgm")) as fh:
            graph = GraphMemory.restore(fh.read())
        cfg = cfgmod.make_config()
        env, enc = cli.build_env(cfg), cli.build_encoder(cfg)
        views = [enc.encode(env.grid.patch(x, y))
                 for x, y in env.grid.free_cells()[::10]]
        targets = [node.feature for node in graph.nodes.values()][::5]
        rels = [node.pose - graph.nodes[0].pose
                for node in graph.nodes.values()][::7]
        self.assert_blocks_match_forward(net, views, targets, rels)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 40))
        net = ActorCritic(2 * dim + 3, int(rng.integers(2, 6)),
                          hidden=tuple(int(h) for h in
                                       rng.integers(4, 64, size=2)),
                          seed=seed)
        for key in net.params:  # trained-size weights and biases
            net.params[key] = rng.normal(0.0, 0.5, net.params[key].shape)
        unit = [v / np.linalg.norm(v) for v in rng.normal(size=(6, dim))]
        rels = rng.uniform(-40.0, 40.0, size=(5, 3))
        self.assert_blocks_match_forward(net, unit[:3], unit[3:], rels)


class TestRolloutBlockTables:
    def test_block_heads_keep_products_until_batch(self, rng):
        """``Rollout.block_heads`` keeps each view's and target's product,
        answers as fresh products do, and ``batch`` empties its tables."""
        net = ActorCritic(2 * 6 + 3, 4, hidden=(16, 8), seed=1)
        blocks = learner.PolicyBlocks(net)
        rollout = learner.Rollout()
        views, targets = rng.normal(size=(3, 6)), rng.normal(size=(2, 6))
        for _ in range(2):
            for view in views:
                for key, target in enumerate(targets):
                    rel = rng.uniform(-20.0, 20.0, 3)
                    got = rollout.block_heads(blocks, view, key, target, rel)
                    want = blocks.heads(view @ blocks.view,
                                        target @ blocks.target, rel)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)
                    rollout.add(policy_input(view, target, rel), 0, 0.0,
                                0.0, 0.0, False)
        assert len(rollout.views) == 3 and len(rollout.targets) == 2
        rollout.decisions[b"x"] = None
        rollout.batch(0.0, 0.99, 0.95)
        assert not (rollout.decisions or rollout.views or rollout.targets)


class TestPPO:
    def test_gradients_match_finite_differences(self, rng):
        net = ActorCritic(6, 4, hidden=(8, 8), seed=0)
        n = 12
        x = rng.standard_normal((n, 6))
        actions = rng.integers(0, 4, n)
        logits, _, _ = net.forward(x)
        old_logp = log_probs(logits)[np.arange(n), actions]
        old_logp += rng.normal(0, 0.2, n)  # force some ratios off 1
        adv = rng.standard_normal(n)
        returns = rng.standard_normal(n)

        loss, grads, _ = ppo_loss_grads(net, x, actions, old_logp, adv,
                                        returns, clip=0.1, vf_coef=0.5,
                                        ent_coef=0.01)

        def loss_fn():
            val, _, _ = ppo_loss_grads(net, x, actions, old_logp, adv,
                                       returns, clip=0.1, vf_coef=0.5,
                                       ent_coef=0.01)
            return val

        eps, rel_tol = 1e-6, 1e-3  # clip kinks make the check slightly looser
        check_rng = np.random.default_rng(1)
        for name, g in grads.items():
            flat = net.params[name].reshape(-1)
            gflat = g.reshape(-1)
            for idx in check_rng.choice(flat.size, size=min(4, flat.size),
                                        replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_fn()
                flat[idx] = orig - eps
                dn = loss_fn()
                flat[idx] = orig
                num = (up - dn) / (2 * eps)
                denom = max(abs(num), abs(gflat[idx]), 1e-6)
                assert abs(num - gflat[idx]) / denom < rel_tol

    def test_solves_contextual_bandit(self, rng):
        """PPO must concentrate the policy on the rewarded action."""
        net = ActorCritic(4, 3, hidden=(16, 8), seed=0)
        opt = Adam(net.params)
        x_ctx = np.eye(4)[:3]  # 3 contexts; rewarded action = context index
        for _ in range(60):
            xs, acts, logps, rews, vals = [], [], [], [], []
            for _ in range(64):
                ctx = int(rng.integers(3))
                a, logp, v = net.act(x_ctx[ctx], rng)
                xs.append(x_ctx[ctx])
                acts.append(a)
                logps.append(logp)
                vals.append(v)
                rews.append(1.0 if a == ctx else 0.0)
            adv, ret = compute_advantages(
                np.array(rews), np.array(vals), np.ones(64, bool), 0.0,
                normalize=True)
            ppo_update(net, opt, np.stack(xs), np.array(acts),
                       np.array(logps), adv, ret, lr=3e-3)
        for ctx in range(3):
            probs = softmax(net.forward(x_ctx[ctx])[0])
            assert probs[0, ctx] > 0.8

    def test_nan_guard_restores_params(self, rng):
        net = ActorCritic(4, 3, hidden=(8, 8), seed=0)
        opt = Adam(net.params)
        before = net.copy_params()
        x = rng.standard_normal((8, 4))
        stats = ppo_update(net, opt, x, rng.integers(0, 3, 8),
                           np.zeros(8), np.full(8, np.nan), np.zeros(8),
                           lr=1e-3)
        assert stats.get("nan_abort")
        for k in before:
            assert np.array_equal(net.params[k], before[k])

    def test_update_reports_diagnostics(self, rng):
        net = ActorCritic(4, 3, hidden=(8, 8), seed=0)
        opt = Adam(net.params)
        x = rng.standard_normal((16, 4))
        actions = rng.integers(0, 3, 16)
        logits, _, _ = net.forward(x)
        old_logp = log_probs(logits)[np.arange(16), actions]
        stats = ppo_update(net, opt, x, actions, old_logp,
                           rng.standard_normal(16), rng.standard_normal(16),
                           lr=1e-3)
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl",
                    "clip_frac"):
            assert np.isfinite(stats[key])


class TestImitation:
    def setup_batch(self, rng, n=32):
        net = ActorCritic(6, 4, hidden=(16, 8), seed=2)
        x = rng.standard_normal((n, 6))
        actions = rng.integers(0, 4, n)
        return net, x, actions

    def test_cross_entropy_decreases(self, rng):
        net, x, actions = self.setup_batch(rng)
        first = il_update(net, x, actions, lr=0.05, beta=0.1, steps=1)
        for _ in range(30):
            last = il_update(net, x, actions, lr=0.05, beta=0.1, steps=1)
        assert last["ce"] < first["ce"]

    def test_huge_beta_freezes_policy(self, rng):
        net, x, actions = self.setup_batch(rng)
        before = net.copy_params()
        il_update(net, x, actions, lr=0.05, beta=1e9, steps=10)
        for k in before:
            assert np.allclose(net.params[k], before[k], atol=1e-6)

    def test_beta_zero_is_pure_cross_entropy(self, rng):
        net_a, x, actions = self.setup_batch(rng)
        net_b = ActorCritic(6, 4, hidden=(16, 8), seed=2)
        il_update(net_a, x, actions, lr=0.05, beta=0.0, steps=5)
        # manual CE-only SGD
        for _ in range(5):
            logits, _, cache = net_b.forward(x)
            probs = softmax(logits)
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(actions)), actions] = 1.0
            grads = net_b.backward(cache, (probs - onehot) / len(actions),
                                   np.zeros(len(x)))
            for k, g in grads.items():
                net_b.params[k] -= 0.05 * g
        for k in net_a.params:
            assert np.allclose(net_a.params[k], net_b.params[k], atol=1e-10)

    def test_kl_stays_bounded_by_beta(self, rng):
        net, x, actions = self.setup_batch(rng)
        weak = il_update(net, x, actions, lr=0.05, beta=10.0, steps=20)["kl"]
        net2, x2, actions2 = self.setup_batch(rng)
        strong = il_update(net2, x2, actions2, lr=0.05, beta=0.0,
                           steps=20)["kl"]
        assert weak < strong

    @pytest.mark.parametrize("n", [32, 40])
    def test_critic_is_untouched(self, rng, n):
        """Imitation has no value loss: the critic keeps its bytes while
        every other parameter moves, on both orders of the fc1 fold (32
        distinct inputs against input_dim 6 use ``x @ (x.T @ dz1)``)."""
        net = ActorCritic(6 if n == 32 else 259, 4, hidden=(16, 8), seed=2)
        x = rng.standard_normal((n, net.input_dim))
        before = net.copy_params()
        il_update(net, x, rng.integers(0, 4, n), lr=0.05, beta=0.1, steps=5)
        for k in before:
            moved = net.params[k].tobytes() != before[k].tobytes()
            assert moved == (not k.startswith("critic.")), k

    def test_empty_batch_is_noop(self):
        net = ActorCritic(6, 4, hidden=(8, 8), seed=0)
        before = net.copy_params()
        stats = il_update(net, np.zeros((0, 6)), np.zeros(0, int), lr=0.1)
        assert stats["n"] == stats["distinct"] == 0
        for k in before:
            assert np.array_equal(net.params[k], before[k])


class ReferenceNet(ActorCritic):
    """``ActorCritic`` with the forward and backward written out in fresh
    arrays, as plain expressions over every row."""

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        p = self.params
        h1 = np.tanh(x @ p["fc1.w"] + p["fc1.b"])
        h2 = np.tanh(h1 @ p["fc2.w"] + p["fc2.b"])
        logits = h2 @ p["actor.w"] + p["actor.b"]
        values = (h2 @ p["critic.w"] + p["critic.b"])[:, 0]
        return logits, values, {"x": x, "acts": [x, h1, h2]}

    def backward(self, cache, dlogits, dvalues):
        x, h1, h2 = cache["acts"]
        p = self.params
        dvalues = np.asarray(dvalues, float).reshape(-1, 1)
        dz2 = ((dlogits @ p["actor.w"].T + dvalues @ p["critic.w"].T)
               * (1.0 - h2 * h2))
        dz1 = (dz2 @ p["fc2.w"].T) * (1.0 - h1 * h1)
        return {"actor.w": h2.T @ dlogits, "actor.b": dlogits.sum(axis=0),
                "critic.w": h2.T @ dvalues, "critic.b": dvalues.sum(axis=0),
                "fc2.w": h1.T @ dz2, "fc2.b": dz2.sum(axis=0),
                "fc1.w": x.T @ dz1, "fc1.b": dz1.sum(axis=0)}


def reference_ppo_loss_grads(net, x, actions, old_logp, adv, returns, clip,
                             vf_coef, ent_coef):
    """``ppo_loss_grads`` before distinct rows: forward and backward over
    every row of the batch."""
    n = len(actions)
    logits, values, cache = net.forward(x)
    lp_all = log_probs(logits)
    probs = softmax(logits)
    idx = np.arange(n)
    logp = lp_all[idx, actions]
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    pol_loss = -np.minimum(unclipped, clipped).mean()
    v_err = values - returns
    v_loss = vf_coef * 0.5 * (v_err * v_err).mean()
    entropy = -(probs * lp_all).sum(axis=1)
    loss = pol_loss + v_loss - ent_coef * entropy.mean()
    active = unclipped <= clipped
    dlogp = np.where(active, -ratio * adv, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dlogits = dlogp[:, None] * (onehot - probs)
    dlogits += (ent_coef / n) * probs * (lp_all + entropy[:, None])
    grads = net.backward(cache, dlogits, vf_coef * v_err / n)
    stats = {
        "policy_loss": float(pol_loss),
        "value_loss": float(v_loss),
        "entropy": float(entropy.mean()),
        "approx_kl": float((old_logp - logp).mean()),
        "clip_frac": float((np.abs(ratio - 1.0) > clip).mean()),
    }
    return float(loss), grads, stats


def reference_ppo_update(net, opt, x, actions, old_logp, adv, returns, lr,
                         clip=0.1, epochs=4, minibatches=1, vf_coef=0.5,
                         ent_coef=0.01):
    """``ppo_update`` before distinct rows: each epoch slices and forwards
    every row of every minibatch."""
    backup = net.copy_params()
    n = len(actions)
    splits = np.array_split(np.arange(n), minibatches)
    stats = {}
    for _ in range(epochs):
        for sl in splits:
            loss, grads, stats = reference_ppo_loss_grads(
                net, x[sl], actions[sl], old_logp[sl], adv[sl], returns[sl],
                clip, vf_coef, ent_coef)
            if not np.isfinite(loss):
                net.set_params(backup)
                stats["nan_abort"] = True
                return stats
            opt.step(net.params, grads, lr)
    if not net.params_finite():
        net.set_params(backup)
        stats["nan_abort"] = True
    return stats


def every_row_il_loss(net, x, actions, old_probs, old_lp, beta):
    """(ce, kl, loss) of imitation over every row: the mean cross-entropy
    of the demonstrated actions, the mean KL from the old policy, and the
    loss ``(ce + beta * kl) / (1 + beta)`` whose gradient a step follows."""
    lp = log_probs(net.forward(x)[0])
    ce = -lp[np.arange(len(actions)), actions].mean()
    kl = (old_probs * (old_lp - lp)).sum(axis=1).mean()
    return ce, kl, (ce + beta * kl) / (1.0 + beta)


def reference_il_update(net, x, actions, lr, beta=0.1, steps=8):
    """``il_update`` before distinct rows and the in-place SGD step."""
    if len(actions) == 0:
        return {"ce": 0.0, "kl": 0.0, "n": 0}
    n = len(actions)
    idx = np.arange(n)
    onehot = np.zeros((n, net.n_actions))
    onehot[idx, np.asarray(actions, int)] = 1.0
    old_probs = None
    ce = kl = 0.0
    for k in range(steps):
        logits, _, cache = net.forward(x)
        probs = softmax(logits)
        lp = log_probs(logits)
        if old_probs is None:
            old_probs = probs.copy()
            old_lp = lp.copy()
        ce = float(-(onehot * lp).sum(axis=1).mean())
        kl = float((old_probs * (old_lp - lp)).sum(axis=1).mean())
        dlogits = ((probs - onehot) + beta * (probs - old_probs)) / (
            n * (1.0 + beta))
        grads = net.backward(cache, dlogits, np.zeros(len(x)))
        for key, g in grads.items():
            net.params[key] -= lr * g
    return {"ce": ce, "kl": kl, "n": n}


def assert_close(got, want, rel=1e-12):
    """Equal up to a relative ``rel`` in norm. Elementwise, Adam turns the
    rounding of a gradient entry near zero into a step of up to lr, so a
    few parameter entries of a batch differ by about 1e-13 absolute."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def assert_close_params(net, ref):
    for key in ref.params:
        assert_close(net.params[key], ref.params[key])


def central_differences(params, loss_fn, grads, rng, eps=1e-6, probes=4):
    """(analytic, numeric) pairs on ``probes`` sampled entries of each
    parameter: the gradient in ``grads`` and the central difference of
    ``loss_fn()``."""
    out = []
    for name, g in grads.items():
        flat, gflat = params[name].reshape(-1), g.reshape(-1)
        for idx in rng.choice(flat.size, size=min(probes, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn()
            flat[idx] = orig - eps
            dn = loss_fn()
            flat[idx] = orig
            out.append((gflat[idx], (up - dn) / (2 * eps)))
    return out


class TestDistinctRowGradients:
    """The losses run the network on distinct rows only; their gradients
    are checked against central differences of the loss written over all
    n rows, on batches heavy with duplicates."""

    N = 60

    @pytest.mark.parametrize("k", [1, 5, 40, N])
    def test_ppo_loss_grads(self, rng, duplicate_heavy, k):
        net = ActorCritic(6, 4, hidden=(16, 8), seed=3)
        x = duplicate_heavy(rng, k, self.N, 6)
        actions = rng.integers(0, 4, self.N)
        logits, _, _ = net.forward(x)
        old_logp = log_probs(logits)[np.arange(self.N), actions]
        old_logp += rng.normal(0, 0.2, self.N)  # force some ratios off 1
        adv, returns = rng.standard_normal(self.N), rng.standard_normal(self.N)
        args = (x, actions, old_logp, adv, returns, 0.1, 0.5, 0.01)
        loss, grads, stats = ppo_loss_grads(net, *args)
        want_loss, _, want_stats = reference_ppo_loss_grads(net, *args)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert stats == pytest.approx(want_stats, rel=1e-12)
        for analytic, numeric in central_differences(
                net.params, lambda: reference_ppo_loss_grads(net, *args)[0],
                grads, rng):
            # clip kinks make the check slightly looser
            assert abs(analytic - numeric) <= 1e-3 * max(
                abs(analytic), abs(numeric), 1e-6)

    @pytest.mark.parametrize("k", [1, 5, 40, N])
    def test_il_gradient(self, rng, duplicate_heavy, k):
        """The second step's gradient, where the KL term is live, is the
        gradient of the every-row loss at that step's parameters, with the
        old policy of the first step's parameters. Plain SGD makes it
        ``-(params(steps=2) - params(steps=1)) / lr``, every parameter
        included; the critic's is zero."""
        x = duplicate_heavy(rng, k, self.N, 6)
        actions = rng.integers(0, 4, self.N)
        beta, lr = 0.5, 0.5
        net = ActorCritic(6, 4, hidden=(16, 8), seed=3)
        old_logits = net.forward(x)[0]
        old_probs, old_lp = softmax(old_logits), log_probs(old_logits)
        il_update(net, x, actions, lr=lr, beta=beta, steps=1)
        two = ActorCritic(6, 4, hidden=(16, 8), seed=3)
        stats = il_update(two, x, actions, lr=lr, beta=beta, steps=2)
        assert stats["distinct"] == k and stats["n"] == self.N
        grads = {key: (net.params[key] - two.params[key]) / lr
                 for key in net.params}
        ce, kl, _ = every_row_il_loss(net, x, actions, old_probs, old_lp,
                                      beta)
        assert kl > 0
        assert stats["ce"] == pytest.approx(ce, rel=1e-12)
        assert stats["kl"] == pytest.approx(kl, rel=1e-12)
        for analytic, numeric in central_differences(
                net.params, lambda: every_row_il_loss(
                    net, x, actions, old_probs, old_lp, beta)[2],
                grads, rng):
            assert abs(analytic - numeric) <= 1e-4 * max(
                abs(analytic), abs(numeric), 1e-8)


class TestUpdatesMatchReference:
    """At the default sizes, on batches heavy with duplicates, the updates
    match the every-row reference functions above up to summation order:
    parameters, Adam moments and reported losses within a relative 1e-12."""

    @pytest.mark.parametrize("minibatches", [1, 3])
    @pytest.mark.parametrize("k", [5, 40, 256])
    def test_ppo_update(self, rng, reference_adam, duplicate_heavy,
                        minibatches, k):
        net, ref = ActorCritic(259, 4, seed=4), ReferenceNet(259, 4, seed=4)
        opt, ref_opt = Adam(net.params), reference_adam(ref.params)
        for _ in range(2):  # the second update starts from Adam moments
            x = duplicate_heavy(rng, k, 256)
            actions = rng.integers(0, 4, 256)
            logits, _, _ = net.forward(x)
            old_logp = log_probs(logits)[np.arange(256), actions]
            adv, returns = rng.standard_normal(256), rng.standard_normal(256)
            args = (x, actions, old_logp, adv, returns, 3e-3)
            got = ppo_update(net, opt, *args, minibatches=minibatches)
            want = reference_ppo_update(ref, ref_opt, *args,
                                        minibatches=minibatches)
            splits = np.array_split(np.arange(256), minibatches)
            assert got.pop("distinct") == sum(
                len(np.unique(x[sl], axis=0)) for sl in splits)
            assert got.keys() == want.keys()
            for key in want:
                assert_close(got[key], want[key])
            assert_close_params(net, ref)
            for key in ref.params:
                assert_close(opt.m[key], ref_opt.m[key])
                assert_close(opt.v[key], ref_opt.v[key])

    @pytest.mark.parametrize("k", [5, 40, 300, 600])
    def test_il_update(self, rng, duplicate_heavy, k):
        """Fewer than 518 distinct inputs (twice input_dim 259) move
        ``fc1``'s pre-activation by their Gram matrix, 600 by ``x @ (x.T @
        dz1)``."""
        n = max(k, 300)
        net, ref = ActorCritic(259, 4, seed=5), ReferenceNet(259, 4, seed=5)
        for _ in range(2):
            x = duplicate_heavy(rng, k, n)
            actions = rng.integers(0, 4, n)
            got = il_update(net, x, actions, lr=0.03, beta=0.1, steps=16)
            want = reference_il_update(ref, x, actions, lr=0.03, beta=0.1,
                                       steps=16)
            assert got.pop("distinct") == k
            assert got.pop("n") == want.pop("n") == n
            assert got.keys() == want.keys() == {"ce", "kl"}
            for key in want:
                assert_close(got[key], want[key])
            assert_close_params(net, ref)

    def test_il_update_reports_as_every_step_bookkeeping(self, rng,
                                                         duplicate_heavy):
        """Forming the log-probabilities at the first and last step only
        gives the parameters, ``ce`` and ``kl`` of forming them at every
        step, byte for byte."""
        for steps in (1, 2, 8):
            x = duplicate_heavy(rng, 30, 200)
            actions = rng.integers(0, 4, len(x))
            net, ref = ActorCritic(259, 4, seed=2), ActorCritic(259, 4, seed=2)
            got = il_update(net, x, actions, lr=0.03, beta=0.1, steps=steps)
            rows, inverse = learner.distinct_rows(x)
            counts = np.zeros((len(rows), 4))
            np.add.at(counts, (inverse, actions), 1.0)
            weight = counts.sum(axis=1, keepdims=True)
            n, first, last = len(x), [], {}

            def head_grad(logits):
                probs, lp = softmax(logits), log_probs(logits)
                first.append((probs, lp))
                old_probs, old_lp = first[0]
                last["ce"] = float(-(counts * lp).sum() / n)
                last["kl"] = float((weight * old_probs * (old_lp - lp)).sum()
                                   / n)
                return (weight * probs - counts
                        + 0.1 * weight * (probs - old_probs)) / (n * 1.1)

            ref.sgd_on_fixed_inputs(x[rows], steps, 0.03, head_grad)
            assert (got["ce"], got["kl"]) == (last["ce"], last["kl"])
            for key in ref.params:
                assert np.array_equal(net.params[key], ref.params[key])


class TestILBatch:
    def test_batch_built_from_edge_samples(self, rng):
        g = GraphMemory()
        f0, f1 = np.eye(8)[0], np.eye(8)[1]
        g.try_add_node(f0, np.zeros(3), 5.0)
        g.try_add_node(f1, np.array([4.0, 0, 0]), 5.0)
        g.localize(f0, np.zeros(3))
        g.break_trajectory()
        g.record_transition(3, np.ones(8) / np.sqrt(8), np.array([2.0, 0, 0]))
        g.localize(f1, np.array([4.0, 0, 0]))
        g.record_transition(3, f1, np.array([4.0, 0, 0]))
        x, a = build_il_batch(g, 16, rng)
        assert len(a) == len(g.edges[(0, 1)].actions)
        assert (a == 3).all()
        # inputs are conditioned on the edge's terminal node
        assert np.allclose(x[0][8:16], f1)

    def test_batch_equals_per_row_policy_input(self):
        """One concatenation over stacked blocks gives the rows that
        ``policy_input`` gives sample by sample, byte for byte."""
        cfg = cfgmod.make_config({"learner.total_steps": 600,
                                  "learner.nsteps": 128})
        graph = cli.build_graph(cfg)
        training_loop(cli.build_env(cfg), graph, cli.build_encoder(cfg), cfg)
        x, a = build_il_batch(graph, 8, np.random.default_rng(3))
        keys = sorted(k for k, e in graph.edges.items() if e.samples)
        chosen = np.random.default_rng(3).choice(len(keys), size=8,
                                                 replace=False)
        want_x, want_a = [], []
        for ki in sorted(int(c) for c in chosen):
            edge = graph.edges[keys[ki]]
            goal = graph.nodes[edge.terminal()]
            for (feat, pose), action in zip(edge.samples, edge.actions):
                want_x.append(policy_input(feat, goal.feature,
                                           goal.pose - pose))
                want_a.append(action)
        assert len(keys) > 8 and x.tobytes() == np.stack(want_x).tobytes()
        assert a.tolist() == want_a

    def test_empty_graph_gives_empty_batch(self, rng):
        x, a = build_il_batch(GraphMemory(), 16, rng)
        assert len(a) == 0


class TestCheckpoints:
    def test_round_trip_identity(self, tmp_path):
        net = ActorCritic(10, 4, hidden=(12, 6), seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), net)
        again = load_checkpoint(str(path))
        assert again.input_dim == 10 and again.n_actions == 4
        for k in net.params:
            assert np.array_equal(again.params[k], net.params[k])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"wrong-header\n{}\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_weights_rejected(self, tmp_path):
        net = ActorCritic(10, 4, hidden=(12, 6), seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), net)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @staticmethod
    def saved_parts(tmp_path):
        """(path, manifest, weight bytes) of a freshly saved checkpoint."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), ActorCritic(10, 4, hidden=(12, 6), seed=7))
        header, manifest, body = path.read_bytes().split(b"\n", 2)
        return path, json.loads(manifest), body

    @staticmethod
    def write(path, manifest, body):
        path.write_bytes(b"dgmem-ckpt-v1\n" + json.dumps(manifest).encode()
                         + b"\n" + body)

    def test_missing_layer_rejected(self, tmp_path):
        path, manifest, body = self.saved_parts(tmp_path)
        assert manifest["layers"][-1] == {"name": "critic.b", "shape": [1]}
        del manifest["layers"][-1]
        self.write(path, manifest, body[:-8])
        with pytest.raises(CheckpointError, match="layers"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, manifest, body = self.saved_parts(tmp_path)
        self.write(path, manifest, body + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(path))

    def test_missing_manifest_key_rejected(self, tmp_path):
        path, manifest, body = self.saved_parts(tmp_path)
        del manifest["hidden"]
        self.write(path, manifest, body)
        with pytest.raises(CheckpointError, match="hidden"):
            load_checkpoint(str(path))


class TestTrainingLoop:
    def smoke_cfg(self, **kw):
        over = {"learner.total_steps": 1500, "learner.nsteps": 128}
        over.update(kw)
        return cfgmod.make_config(over)

    def test_smoke_run_builds_graph_and_updates(self):
        cfg = self.smoke_cfg()
        env = cli.build_env(cfg)
        enc = cli.build_encoder(cfg)
        graph = cli.build_graph(cfg)
        result = training_loop(env, graph, enc, cfg)
        assert result.steps == 1500
        assert len(graph) > 0
        assert result.update_stats  # at least one PPO update happened
        assert result.net.params_finite()
        assert graph.origin is not None

    def test_bit_reproducible_given_seed(self):
        nets, snaps = [], []
        for _ in range(2):
            cfg = self.smoke_cfg()
            env = cli.build_env(cfg)
            enc = cli.build_encoder(cfg)
            graph = cli.build_graph(cfg)
            result = training_loop(env, graph, enc, cfg)
            nets.append(result.net)
            snaps.append(graph.snapshot())
        assert snaps[0] == snaps[1]
        for k in nets[0].params:
            assert np.array_equal(nets[0].params[k], nets[1].params[k])

    def test_different_seed_diverges(self):
        results = []
        for seed in (0, 1):
            cfg = self.smoke_cfg(seed=seed)
            env = cli.build_env(cfg)
            results.append(training_loop(env, cli.build_graph(cfg),
                                         cli.build_encoder(cfg), cfg))
        assert not np.array_equal(results[0].net.params["fc1.w"],
                                  results[1].net.params["fc1.w"])

    @pytest.mark.parametrize("env_map", ["four_rooms", "maze"])
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_decision_memo_changes_nothing(self, env_map, noise, monkeypatch,
                                           forgetful_rollout):
        """A memo that keeps nothing gives the same run as the real one.
        Decisions are computed by ``PolicyBlocks.heads``, counted here."""
        heads = learner.PolicyBlocks.heads
        runs = []
        for rollout_cls in (learner.Rollout, forgetful_rollout):
            monkeypatch.setattr(learner, "Rollout", rollout_cls)
            forwards = []
            monkeypatch.setattr(
                learner.PolicyBlocks, "heads",
                lambda blocks, *parts: forwards.append(1)
                or heads(blocks, *parts))
            cfg = self.smoke_cfg(**{"learner.total_steps": 600,
                                    "env.map": env_map, "env.noise": noise})
            graph = cli.build_graph(cfg)
            result = training_loop(cli.build_env(cfg), graph,
                                   cli.build_encoder(cfg), cfg)
            runs.append((result, graph.snapshot(), len(forwards)))
        (memo, memo_snap, memo_fw), (fresh, fresh_snap, fresh_fw) = runs
        assert memo_snap == fresh_snap
        assert memo.visit_hist == fresh.visit_hist
        for k in memo.net.params:
            assert np.array_equal(memo.net.params[k], fresh.net.params[k])
            assert np.array_equal(memo.best_params[k], fresh.best_params[k])
        assert len(memo.update_stats) == len(fresh.update_stats) >= 4
        for kept, forgot in zip(memo.update_stats, fresh.update_stats):
            assert 0 < kept.pop("policy_forwards") <= 128
            assert forgot.pop("policy_forwards") == 0
            assert kept == forgot
        # under odometry noise the relative pose, and so the input, rarely
        # repeats; without noise most steps are memo hits
        assert memo_fw <= fresh_fw and (noise or memo_fw < fresh_fw / 2)

    def test_respawn_relocalization_counts_no_visit(self, monkeypatch):
        """The re-localisation after each episodic respawn passes
        ``count=False``; every other localisation counts."""
        calls = []
        localize = GraphMemory.localize
        break_trajectory = GraphMemory.break_trajectory
        monkeypatch.setattr(
            GraphMemory, "localize", lambda graph, feat, pose, **kw:
            calls.append(kw.get("count", True))
            or localize(graph, feat, pose, **kw))
        monkeypatch.setattr(
            GraphMemory, "break_trajectory",
            lambda graph: calls.append("respawn") or break_trajectory(graph))
        cfg = self.smoke_cfg(**{"learner.episodic_respawn": True,
                                "learner.total_steps": 600})
        training_loop(cli.build_env(cfg), cli.build_graph(cfg),
                      cli.build_encoder(cfg), cfg)
        respawns = [i for i, c in enumerate(calls) if c == "respawn"]
        assert respawns and len(calls) > 600
        for i, c in enumerate(calls):
            if c != "respawn":
                assert c is (i + 1 not in respawns)

    def test_update_records_count_the_rollout_collisions(self, monkeypatch):
        """Each update record's ``collisions`` is the bumped steps of its
        rollout, counted here from a wrapped ``env.step``."""
        cfg = self.smoke_cfg(**{"learner.total_steps": 600})
        env = cli.build_env(cfg)
        bumps = []
        step = env.step

        def counting_step(state, action, rng):
            state, obs = step(state, action, rng)
            bumps.append(obs.collided)
            return state, obs

        monkeypatch.setattr(env, "step", counting_step)
        result = training_loop(env, cli.build_graph(cfg),
                               cli.build_encoder(cfg), cfg)
        assert len(bumps) == 600
        assert [s["collisions"] for s in result.update_stats] == [
            sum(bumps[i:i + 128]) for i in range(0, 512, 128)]
        assert sum(bumps[:512]) > 0

    def test_episodic_respawn_returns_to_spawn(self):
        cfg = self.smoke_cfg(**{"learner.episodic_respawn": True})
        env = cli.build_env(cfg)
        graph = cli.build_graph(cfg)
        result = training_loop(env, graph, cli.build_encoder(cfg), cfg)
        assert result.steps == 1500
        assert result.net.params_finite()

"""Goal-conditioned actor-critic training: PPO plus imitation from edge data.

The training loop runs one infinite environment episode segmented into
goal-episodes. Each goal-episode pursues a graph node sampled by the
count-based softmax; rewards are synthesized from the graph (topological
progress, first-visit novelty, arrival flag). Every full rollout buffer
triggers a clipped PPO update followed by one imitation pass over trajectories
stored on sampled graph edges, regularized toward the pre-update policy.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import reward as rw
from .encoder import PatchEncoder, semantic_score
from .graph import GraphMemory
from .gridworld import AgentState, GridEnv
from .nn import ActorCritic, Adam, distinct_rows, log_probs, softmax

CKPT_HEADER = "dgmem-ckpt-v1"
POSE_SCALE = 10.0  # relative poses are divided by this before entering the net
COVERAGE_EVERY = 500  # training steps between coverage curve points


def policy_input(obs_feat: np.ndarray, goal_feat: np.ndarray,
                 rel_pose: np.ndarray) -> np.ndarray:
    return np.concatenate([obs_feat, goal_feat,
                           np.asarray(rel_pose, float) / POSE_SCALE])


class PolicyBlocks:
    """A policy network's ``fc1`` split by the blocks of ``policy_input``.

    ``view``, ``target`` and ``rel`` are the rows of ``fc1.w`` that multiply
    the view feature, the target feature and the relative pose /
    POSE_SCALE. Given the block products ``v @ view`` and ``t @ target``,
    ``heads`` returns the logits and value of ``policy_input(v, t, rel)``
    and ``probs`` its action probabilities. They equal ``net.forward(x)``'s
    in real arithmetic; only the rounding of ``fc1``'s sum differs. The
    blocks are views of the parameters, valid while the network is frozen.
    """

    def __init__(self, net: ActorCritic):
        w = net.params["fc1.w"]
        dim = (len(w) - 3) // 2  # the feature width; the pose has 3 entries
        self.view, self.target, self.rel = w[:dim], w[dim:2 * dim], w[2 * dim:]
        self.bias = net.params["fc1.b"]
        self.net = net

    def z1(self, view_part: np.ndarray, target_part: np.ndarray,
           rel_pose: np.ndarray) -> np.ndarray:
        """``view_part + target_part + (rel_pose / POSE_SCALE) @ rel +
        bias``, summed in that order."""
        rel = np.asarray(rel_pose, float) / POSE_SCALE
        return view_part + target_part + rel @ self.rel + self.bias

    def heads(self, *parts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``net.heads`` at ``z1(*parts)``."""
        return self.net.heads(self.z1(*parts))

    def probs(self, *parts: np.ndarray) -> np.ndarray:
        """softmax of ``net.actor_logits`` at ``z1(*parts)``."""
        return softmax(self.net.actor_logits(self.z1(*parts)))


def lr_schedule(step: int, total: int, lr_start: float, lr_end: float) -> float:
    frac = min(max(step, 0), total) / max(total, 1)
    return lr_start + (lr_end - lr_start) * frac


# -- advantage estimation -----------------------------------------------------

def compute_advantages(rewards: np.ndarray, values: np.ndarray,
                       dones: np.ndarray, last_value: float,
                       gamma: float = 0.99, lam: float = 0.95,
                       normalize: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates with episode-boundary masking."""
    rewards = np.asarray(rewards, float)
    values = np.asarray(values, float)
    dones = np.asarray(dones, bool)
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        nonterm = 0.0 if dones[t] else 1.0
        next_v = values[t + 1] if t + 1 < n else last_value
        delta = rewards[t] + gamma * next_v * nonterm - values[t]
        gae = delta + gamma * lam * nonterm * gae
        adv[t] = gae
    returns = adv + values
    if normalize:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return adv, returns


class Rollout:
    """On-policy transitions gathered between two PPO updates.

    ``decisions`` is the decision memo for ``ActorCritic.act`` while the
    rollout fills: the parameters stay frozen until ``batch`` (PPO's
    fixed old policy), so an input's action distribution and value are
    computed once. ``views`` and ``targets`` keep the ``PolicyBlocks``
    products that a decision miss adds up, by view feature bytes and by
    target node. ``batch`` empties all three, because the caller updates
    the parameters after it.
    """

    def __init__(self):
        self._steps: List[tuple] = []
        self.decisions: dict = {}
        self.views: dict = {}
        self.targets: dict = {}

    def add(self, x: np.ndarray, a: int, logp: float, v: float, r: float,
            done: bool) -> None:
        self._steps.append((x, a, logp, v, r, done))

    def __len__(self) -> int:
        return len(self._steps)

    def block_heads(self, blocks: PolicyBlocks, view: np.ndarray, target_key,
                    target: np.ndarray, rel_pose: np.ndarray) -> tuple:
        """``blocks.heads`` of ``policy_input(view, target, rel_pose)``,
        with the view's and the target's block products kept here."""
        key = view.tobytes()
        view_part = self.views.get(key)
        if view_part is None:
            view_part = self.views[key] = view @ blocks.view
        target_part = self.targets.get(target_key)
        if target_part is None:
            target_part = self.targets[target_key] = target @ blocks.target
        return blocks.heads(view_part, target_part, rel_pose)

    def batch(self, last_value: float, gamma: float,
              lam: float) -> Tuple[np.ndarray, ...]:
        """(x, actions, logp, adv, returns) of the gathered steps, with
        normalized advantages bootstrapped from ``last_value``; empties the
        buffer."""
        x, a, logp, v, r, done = zip(*self._steps)
        self._steps = []
        for table in (self.decisions, self.views, self.targets):
            table.clear()
        adv, returns = compute_advantages(
            np.array(r), np.array(v), np.array(done), last_value, gamma, lam,
            normalize=True)
        return np.stack(x), np.array(a, int), np.array(logp), adv, returns


# -- PPO ----------------------------------------------------------------------

def ppo_loss_grads(net: ActorCritic, x: np.ndarray, actions: np.ndarray,
                   old_logp: np.ndarray, adv: np.ndarray, returns: np.ndarray,
                   clip: float, vf_coef: float, ent_coef: float,
                   distinct: Optional[Tuple[np.ndarray, np.ndarray]] = None
                   ) -> Tuple[float, Dict[str, np.ndarray], dict]:
    """Clipped-surrogate loss value, parameter gradients, and diagnostics.

    The loss is a mean over all n rows, but the network sees each distinct
    input once: ``distinct`` is ``distinct_rows(x)`` (found here when None).
    The forward runs on ``x[rows]`` and its logits and values are gathered
    back to every row; before the backward, each row's head gradients are
    summed onto its distinct input, so the gradients are the every-row ones
    up to summation order.
    """
    n = len(actions)
    rows, inverse = distinct_rows(x) if distinct is None else distinct
    logits, values, cache = net.forward(x[rows])
    logits, values = logits[inverse], values[inverse]
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
    ent_loss = -ent_coef * entropy.mean()
    loss = pol_loss + v_loss + ent_loss

    # d(policy)/d(logits): gradient flows through the unclipped ratio only
    # where the unclipped term is the active minimum.
    active = unclipped <= clipped
    dlogp = np.where(active, -ratio * adv, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[idx, actions] = 1.0
    dlogits = dlogp[:, None] * (onehot - probs)
    dlogits += (ent_coef / n) * probs * (lp_all + entropy[:, None])
    row_dlogits = np.zeros((len(rows), net.n_actions))
    np.add.at(row_dlogits, inverse, dlogits)
    row_dvalues = np.bincount(inverse, weights=vf_coef * v_err / n,
                              minlength=len(rows))
    grads = net.backward(cache, row_dlogits, row_dvalues)
    stats = {
        "policy_loss": float(pol_loss),
        "value_loss": float(v_loss),
        "entropy": float(entropy.mean()),
        "approx_kl": float((old_logp - logp).mean()),
        "clip_frac": float((np.abs(ratio - 1.0) > clip).mean()),
    }
    return float(loss), grads, stats


def ppo_update(net: ActorCritic, opt: Adam, x: np.ndarray, actions: np.ndarray,
               old_logp: np.ndarray, adv: np.ndarray, returns: np.ndarray,
               lr: float, clip: float = 0.1, epochs: int = 4,
               minibatches: int = 1, vf_coef: float = 0.5,
               ent_coef: float = 0.01) -> dict:
    """In-place PPO update; restores previous params on a non-finite loss.

    Each minibatch's distinct inputs are found once and reused by every
    epoch; ``stats["distinct"]`` is their number, summed over minibatches.
    """
    backup = net.copy_params()
    n = len(actions)
    splits = []
    for sl in np.array_split(np.arange(n), minibatches):
        xs = x[sl]
        splits.append((sl, xs, distinct_rows(xs)))
    distinct = sum(len(rows) for _, _, (rows, _) in splits)
    stats: dict = {}
    for _ in range(epochs):
        for sl, xs, rows in splits:
            loss, grads, stats = ppo_loss_grads(
                net, xs, actions[sl], old_logp[sl], adv[sl], returns[sl],
                clip, vf_coef, ent_coef, rows)
            if not np.isfinite(loss):
                net.set_params(backup)
                stats["nan_abort"] = True
                stats["distinct"] = distinct
                return stats
            opt.step(net.params, grads, lr)
    stats["distinct"] = distinct
    if not net.params_finite():
        net.set_params(backup)
        stats["nan_abort"] = True
    return stats


# -- imitation with KL regularization ------------------------------------------

def il_update(net: ActorCritic, x: np.ndarray, actions: np.ndarray,
              lr: float, beta: float = 0.1, steps: int = 8) -> dict:
    """Cross-entropy on demonstrated actions plus a KL pull toward the
    pre-phase policy.

    Gradient steps are plain SGD with the step size divided by (1 + beta) so
    the update magnitude is invariant to the penalty weight; as beta grows the
    update vanishes and the policy stays at its phase-start value. Both
    losses are means over all n rows, but every step runs the network on the
    batch's d distinct inputs only: ``counts`` (d x A) holds each distinct
    input's demonstrated actions and ``weight`` their number, so a row's
    terms enter once per demonstration. The steps run in
    ``ActorCritic.sgd_on_fixed_inputs``, which folds ``fc1`` through the
    inputs' Gram matrix and leaves the critic alone; this function supplies
    the loss gradient at the logits and reports ``ce`` and ``kl`` at the
    last step's parameters. Log-probabilities are formed only where they
    are read: at the first step (the KL's reference) and the last.
    """
    if len(actions) == 0:
        return {"ce": 0.0, "kl": 0.0, "n": 0, "distinct": 0}
    n = len(actions)
    rows, inverse = distinct_rows(x)
    counts = np.zeros((len(rows), net.n_actions))
    np.add.at(counts, (inverse, np.asarray(actions, int)), 1.0)
    weight = counts.sum(axis=1, keepdims=True)
    old_probs = old_lp = None
    ce = kl = 0.0
    taken = 0

    def head_grad(logits: np.ndarray) -> np.ndarray:
        nonlocal old_probs, old_lp, ce, kl, taken
        probs = softmax(logits)
        taken += 1
        if old_probs is None:
            old_probs, old_lp = probs, log_probs(logits)
        if taken == steps:
            lp = log_probs(logits)
            ce = float(-(counts * lp).sum() / n)
            kl = float((weight * old_probs * (old_lp - lp)).sum() / n)
        return (weight * probs - counts
                + beta * weight * (probs - old_probs)) / (n * (1.0 + beta))

    net.sgd_on_fixed_inputs(x[rows], steps, lr, head_grad)
    return {"ce": ce, "kl": kl, "n": n, "distinct": len(rows)}


def build_il_batch(graph: GraphMemory, n_edges: int,
                   rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten demo tuples from up to n_edges sampled stored trajectories."""
    keys = sorted(k for k, e in graph.edges.items() if e.samples)
    if not keys:
        return np.zeros((0, 1)), np.zeros(0, int)
    take = min(n_edges, len(keys))
    chosen = rng.choice(len(keys), size=take, replace=False)
    edges = [graph.edges[keys[ki]] for ki in sorted(int(c) for c in chosen)]
    feats, poses = zip(*(sample for e in edges for sample in e.samples))
    goals = [graph.nodes[e.terminal()] for e in edges for _ in e.samples]
    rel = np.stack([g.pose for g in goals]) - np.stack(poses)
    x = np.concatenate([np.stack(feats), np.stack([g.feature for g in goals]),
                        rel / POSE_SCALE], axis=1)
    return x, np.array([a for e in edges for a in e.actions], int)


# -- checkpoints -----------------------------------------------------------------

def save_checkpoint(path: str, net: ActorCritic) -> None:
    manifest = {
        "input_dim": net.input_dim,
        "n_actions": net.n_actions,
        "hidden": list(net.hidden),
        "layers": [{"name": k, "shape": list(v.shape)}
                   for k, v in net.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write((CKPT_HEADER + "\n").encode())
        fh.write((json.dumps(manifest) + "\n").encode())
        for k, _ in ((d["name"], d["shape"]) for d in manifest["layers"]):
            fh.write(net.params[k].astype("<f8").tobytes())


class CheckpointError(Exception):
    pass


def load_checkpoint(path: str) -> ActorCritic:
    """Rebuild the network written by ``save_checkpoint``.

    The manifest must give positive sizes and list exactly the layers of
    ``ActorCritic(input_dim, n_actions, hidden)``, in order and with their
    shapes, and the file must end with the last layer's weights; anything
    else raises CheckpointError. Sizes are checked against the file before
    any weights are allocated.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace").strip()
        if header != CKPT_HEADER:
            raise CheckpointError(f"bad checkpoint header {header!r}")
        try:
            manifest = json.loads(fh.readline().decode())
            input_dim = int(manifest["input_dim"])
            n_actions = int(manifest["n_actions"])
            hidden = tuple(int(h) for h in manifest["hidden"])
            layers = [(layer["name"], tuple(layer["shape"]))
                      for layer in manifest["layers"]]
            expected = []
            for name, fan_in, fan_out in ActorCritic.layers(
                    input_dim, n_actions, hidden):
                expected += [(f"{name}.w", (fan_in, fan_out)),
                             (f"{name}.b", (fan_out,))]
        except (KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            raise CheckpointError(f"bad checkpoint manifest: {exc!r}") from exc
        if min(input_dim, n_actions, *hidden) < 1:
            raise CheckpointError(f"checkpoint sizes {input_dim}, "
                                  f"{n_actions}, {hidden} are not positive")
        if layers != expected:
            raise CheckpointError(f"checkpoint layers {layers} are not the "
                                  f"layers {expected} of its network")
        counts = [math.prod(shape) for _, shape in expected]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < 8 * sum(counts):
            raise CheckpointError("truncated checkpoint weights")
        if left > 8 * sum(counts):
            raise CheckpointError("trailing bytes after checkpoint weights")
        net = ActorCritic(input_dim, n_actions, hidden)
        for (name, shape), count in zip(expected, counts):
            net.params[name] = np.frombuffer(
                fh.read(8 * count), dtype="<f8").reshape(shape).copy()
    return net


# -- training loop -----------------------------------------------------------------

@dataclass
class TrainResult:
    net: ActorCritic
    best_params: Dict[str, np.ndarray]
    graph: GraphMemory
    steps: int
    coverage_curve: List[Tuple[int, float]] = field(default_factory=list)
    visit_hist: Dict[Tuple[int, int], int] = field(default_factory=dict)
    best_success_rate: float = 0.0
    update_stats: List[dict] = field(default_factory=list)
    # per update, wall seconds of its phases (rollout_s, prune_s, ppo_s,
    # il_s): kept apart so that same-seed runs compare update_stats exactly
    update_seconds: List[dict] = field(default_factory=list)


def training_loop(env: GridEnv, graph: GraphMemory, enc: PatchEncoder,
                  cfg: dict, net: Optional[ActorCritic] = None,
                  state: Optional[AgentState] = None,
                  log_writer=None) -> TrainResult:
    """Run the self-supervised training loop for cfg['learner.total_steps'].

    Deterministic given (cfg, seed): two runs with the same inputs produce
    bit-identical parameters and graphs.
    """
    total = cfg["learner.total_steps"]
    nsteps = cfg["learner.nsteps"]
    horizon = cfg["learner.horizon"]
    gamma_temp = cfg["sampler.temperature"]
    alpha = cfg["reward.alpha"]
    novelty_c = cfg["reward.novelty"]
    success_mag = cfg["reward.success"]
    radius = cfg["reward.radius"]
    episodic = cfg["learner.episodic_respawn"]

    seeds = np.random.SeedSequence(cfg["seed"]).spawn(4)
    env_rng = np.random.default_rng(seeds[0])
    policy_rng = np.random.default_rng(seeds[1])
    goal_rng = np.random.default_rng(seeds[2])
    il_rng = np.random.default_rng(seeds[3])

    input_dim = 2 * enc.feature_dim + 3
    if net is None:
        net = ActorCritic(input_dim, env.n_actions, seed=cfg["seed"])
    opt = Adam(net.params)

    if state is None:
        state = env.spawn(env_rng)
    spawn_cell = (state.x, state.y)
    if graph.origin is None:
        graph.origin = (float(state.x), float(state.y), float(state.heading))
    obs = env.observe(state)
    feat = enc.encode(obs.patch)
    sem = semantic_score(obs.patch)
    if len(graph) == 0:
        graph.try_add_node(feat, obs.pose_est, sem, 0)
    else:
        graph.localize(feat, obs.pose_est)

    result = TrainResult(net=net, best_params=net.copy_params(), graph=graph,
                         steps=0)
    visit = result.visit_hist
    visit[(state.x, state.y)] = visit.get((state.x, state.y), 0) + 1
    n_free = len(env.grid.free_cells())

    goal_id: Optional[int] = None
    goal_feat = np.zeros(enc.feature_dim)
    goal_pose = np.zeros(3)
    visited_nodes: set = set()
    ep_steps = 0
    dist_map: Dict[int, int] = {}
    dist_version = -1
    recent = deque(maxlen=50)
    rollout = Rollout()
    blocks = PolicyBlocks(net)
    rollout_start = time.perf_counter()
    prune_s = 0.0  # graph pruning since the previous update ended
    pruned = 0  # edges it removed
    collisions = 0  # bumped steps of the rollout

    for step in range(1, total + 1):
        if len(graph) == 0:
            # No nodes yet: roam randomly until the first admission.
            action = int(policy_rng.integers(env.n_actions))
            state, obs = env.step(state, action, env_rng)
            feat = enc.encode(obs.patch)
            sem = semantic_score(obs.patch)
            graph.try_add_node(feat, obs.pose_est, sem, step)
            graph.record_transition(action, feat, obs.pose_est)
            _track(visit, state)
            _maybe_curve(result, step, n_free)
            continue

        if goal_id is None or goal_id not in graph.nodes:
            goal_id = graph.sample_goal(gamma_temp, goal_rng)
            goal_node = graph.nodes[goal_id]
            goal_feat = goal_node.feature
            goal_pose = goal_node.pose
            visited_nodes = set()
            if graph.current is not None:
                visited_nodes.add(graph.current)
            ep_steps = 0
            dist_version = -1

        rel = goal_pose - obs.pose_est
        x = policy_input(feat, goal_feat, rel)
        action, logp, value = net.act(
            x, policy_rng, memo=rollout.decisions,
            heads=lambda: rollout.block_heads(blocks, feat, goal_id,
                                              goal_feat, rel))
        state, obs = env.step(state, action, env_rng)
        feat = enc.encode(obs.patch)
        sem = semantic_score(obs.patch)

        prev_node = graph.current
        graph.localize(feat, obs.pose_est)
        graph.try_add_node(feat, obs.pose_est, sem, step)
        graph.record_transition(action, feat, obs.pose_est)
        cur_node = graph.current

        if dist_version != graph.topology_version:
            dist_map = graph.distances_from(goal_id)
            dist_version = graph.topology_version
        r_d = rw.topo_progress_reward(prev_node, cur_node, alpha, dist_map)
        r_n = rw.novelty_reward(cur_node, visited_nodes, novelty_c)
        r_s, done = rw.success_reward(obs.pose_est, goal_pose, radius,
                                      success_mag)
        breakdown = rw.RewardBreakdown(r_d, r_n, r_s)
        ep_steps += 1
        timeout = ep_steps >= horizon
        terminal = done or timeout

        rollout.add(x, action, logp, value, breakdown.total, terminal)
        collisions += obs.collided

        if log_writer is not None:
            log_writer({"step": step, "goal": goal_id, **breakdown.as_dict(),
                        "done": done, "timeout": timeout,
                        "nodes": len(graph), "edges": graph.num_edges})

        if terminal:
            recent.append(1 if done else 0)
            goal_id = None
            if len(recent) == recent.maxlen:
                sr = sum(recent) / len(recent)
                if sr >= result.best_success_rate:
                    result.best_success_rate = sr
                    result.best_params = net.copy_params()
            if episodic:
                state = AgentState(x=spawn_cell[0], y=spawn_cell[1])
                obs = env.observe(state)
                feat = enc.encode(obs.patch)
                graph.localize(feat, obs.pose_est, count=False)
                graph.break_trajectory()

        if len(rollout) >= nsteps:
            ppo_start = time.perf_counter()
            if terminal or goal_id is None:
                last_value = 0.0
            else:
                nx = policy_input(feat, goal_feat, goal_pose - obs.pose_est)
                _, last_values, _ = net.forward(nx)
                last_value = float(last_values[0])
            policy_forwards = len(rollout.decisions)
            bx, ba, blogp, adv, returns = rollout.batch(
                last_value, cfg["learner.discount"], cfg["learner.gae_lambda"])
            lr = lr_schedule(step, total, cfg["learner.lr_start"],
                             cfg["learner.lr_end"])
            stats = ppo_update(
                net, opt, bx, ba, blogp, adv, returns, lr,
                clip=cfg["learner.clip"], epochs=cfg["learner.epochs"],
                minibatches=cfg["learner.minibatches"],
                vf_coef=cfg["learner.vf_coef"],
                ent_coef=cfg["learner.ent_coef"])
            il_start = time.perf_counter()
            il_x, il_a = build_il_batch(graph, cfg["learner.il_edges"], il_rng)
            il_stats = il_update(net, il_x, il_a, cfg["learner.il_lr"],
                                 beta=cfg["learner.beta"],
                                 steps=cfg["learner.il_steps"])
            il_end = time.perf_counter()
            blocks = PolicyBlocks(net)  # a NaN guard may replace the arrays
            result.update_seconds.append({
                "rollout_s": ppo_start - rollout_start - prune_s,
                "prune_s": prune_s, "ppo_s": il_start - ppo_start,
                "il_s": il_end - il_start})
            rollout_start = il_end
            prune_s = 0.0
            stats["il"] = il_stats
            stats["pruned"], pruned = pruned, 0
            stats["collisions"], collisions = collisions, 0
            stats["ppo_distinct"] = stats.pop("distinct")
            stats["policy_forwards"] = policy_forwards
            stats["nodes"], stats["edges"] = len(graph), graph.num_edges
            stats["step"] = step
            result.update_stats.append(stats)

        if step % cfg["graph.prune_every"] == 0:
            prune_start = time.perf_counter()
            pruned += len(graph.prune_edges(cfg["graph.prune_min_count"]))
            prune_s += time.perf_counter() - prune_start
            dist_version = -1

        _track(visit, state)
        _maybe_curve(result, step, n_free)

    result.steps = total
    if result.best_success_rate == 0.0:
        result.best_params = net.copy_params()
    return result


def _track(visit: dict, state: AgentState) -> None:
    cell = (state.x, state.y)
    visit[cell] = visit.get(cell, 0) + 1


def _maybe_curve(result: TrainResult, step: int, n_free: int) -> None:
    if step % COVERAGE_EVERY == 0 or step == 1:
        result.coverage_curve.append((step, len(result.visit_hist) / n_free))

"""The three benchmark workloads: train, navigate and explore.

Each workload builds its inputs once from the seed (the set-up) and then runs
identical rounds. A round times one phase (`timed_s`, `cpu_s`), reports the
environment steps and operations it did, the outputs that must repeat exactly
in every round and in the traced round, and the problems the independent
checks in `checks.py` found. Rounds call the same library functions that
`dgmem train`, `dgmem eval` and `dgmem explore` call.
"""
from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from dgmem import baselines, cli, learner, navigator
from dgmem import config as cfgmod
from dgmem.graph import GraphMemory

import checks
from tracer import Tracer

# Work per round. "full" is what the benchmark measures; "smoke" runs every
# workload and every check in a few seconds, for the benchmark's own tests.
SIZES = {
    "full": {"train_steps": 16000, "train_eval_episodes": 100,
             "nav_episodes": 1000, "explore_steps": 25000,
             "intrinsic_steps": 1000},
    "smoke": {"train_steps": 600, "train_eval_episodes": 10,
              "nav_episodes": 20, "explore_steps": 2000,
              "intrinsic_steps": 300},
}


@dataclass
class Round:
    timed_s: float
    cpu_s: float
    steps: int
    attempted: int
    failed: int
    outputs: dict
    # (steps, wall s, cpu s) of consecutive blocks of the timed phase
    samples: List[Tuple[int, float, float]]
    problems: List[str] = field(default_factory=list)
    # results reported but not compared across rounds
    info: dict = field(default_factory=dict)


def _sha(data) -> str:
    h = hashlib.sha256()
    if isinstance(data, dict):  # parameter dict
        for key in sorted(data):
            h.update(key.encode())
            h.update(np.ascontiguousarray(data[key], "<f8").tobytes())
    elif isinstance(data, str):
        h.update(data.encode())
    else:
        h.update(repr(data).encode())
    return h.hexdigest()


# Timing blocks: training steps, navigation episodes.
STEP_BLOCK = 512
EPISODE_BLOCK = 50


class Clock:
    """Wall and CPU time of a timed phase, with marks that split it into
    blocks: `mark(steps)` closes a block at the given cumulative step count."""

    def __init__(self):
        self.marks = [(0, time.perf_counter(), time.process_time())]

    def mark(self, steps: int) -> None:
        self.marks.append((steps, time.perf_counter(), time.process_time()))

    @property
    def wall(self) -> float:
        return self.marks[-1][1] - self.marks[0][1]

    @property
    def cpu(self) -> float:
        return self.marks[-1][2] - self.marks[0][2]

    def samples(self) -> List[Tuple[int, float, float]]:
        return [(s1 - s0, w1 - w0, c1 - c0) for (s0, w0, c0), (s1, w1, c1)
                in zip(self.marks, self.marks[1:]) if s1 > s0]


@contextmanager
def _timed(total_steps: Optional[int] = None):
    clock = Clock()
    yield clock
    if total_steps is not None:
        clock.mark(total_steps)


@contextmanager
def observe_episodes(origin, clock: Optional[Clock] = None):
    """Record true start, goal and final cells of every navigation episode.

    Wraps ``navigator.execute`` at the binding ``cli.run_eval`` uses. The goal
    cell is the spawn-relative goal pose the harness hands the navigator plus
    the graph origin; the final cell is the episode's true final state. With
    a clock, every EPISODE_BLOCK episodes close a timing block.
    """
    original = navigator.execute
    episodes: List[dict] = []
    steps = [0]

    def execute(env, state, graph, net, enc, start_obs, goal_obs, rng,
                **kwargs):
        result = original(env, state, graph, net, enc, start_obs, goal_obs,
                          rng, **kwargs)
        final = result.final_state if result.final_state is not None else state
        goal = (int(round(origin[0] + goal_obs.pose_est[0])),
                int(round(origin[1] + goal_obs.pose_est[1])))
        episodes.append({"start": (state.x, state.y), "goal": goal,
                         "final": (final.x, final.y), "steps": result.steps,
                         "goal_patch": goal_obs.patch})
        steps[0] += result.steps
        if clock is not None and len(episodes) % EPISODE_BLOCK == 0:
            clock.mark(steps[0])
        return result

    navigator.execute = execute
    try:
        yield episodes
    finally:
        navigator.execute = original


def _check_goal_views(tiles, k: int, episodes) -> List[str]:
    for n, ep in enumerate(episodes):
        if not np.array_equal(checks.patch(tiles, ep["goal"], k),
                              ep["goal_patch"]):
            return [f"episode {n}: goal observation is not the view from "
                    f"goal cell {ep['goal']}"]
    return []


def _eval_checks(env, episodes, report) -> List[str]:
    tiles = env.grid.tiles
    return (_check_goal_views(tiles, env.patch_size, episodes)
            + checks.check_episodes(tiles, episodes, report.episodes,
                                    report.spl, report.sr))


class Train:
    """`learner.training_loop` from scratch on the default FourRooms config,
    then an evaluation of the best checkpoint as `dgmem eval` runs it."""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.cfg = cfgmod.make_config(
            {"seed": seed, "learner.total_steps": size["train_steps"]})
        self.eval_cfg = dict(self.cfg)
        self.eval_cfg["eval.episodes"] = size["train_eval_episodes"]
        self.env = cli.build_env(self.cfg)
        self.eval_env = cli.build_env(self.cfg,
                                      noise=float(self.cfg["eval.noise"]))
        self.enc = cli.build_encoder(self.cfg)

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        total = int(self.cfg["learner.total_steps"])
        graph = cli.build_graph(self.cfg)
        with tracer or nullcontext(), _timed(total) as clock:
            # `dgmem train` also passes a per-step log writer
            result = learner.training_loop(
                self.env, graph, self.enc, self.cfg,
                log_writer=lambda rec: (rec["step"] % STEP_BLOCK == 0
                                        and clock.mark(rec["step"])))
        net = result.net
        tiles = self.env.grid.tiles
        problems: List[str] = []
        problems += checks.check_equal("training steps", total, result.steps)
        problems += checks.check_admission(graph)
        problems += checks.check_graph_queries(graph)
        problems += checks.check_edge_replay(graph, tiles)
        spawn = (int(graph.origin[0]), int(graph.origin[1]))
        problems += checks.check_visits("training", result.visit_hist, total,
                                        checks.flood_fill(tiles, spawn))
        if not all(np.isfinite(v).all() for v in net.params.values()):
            problems.append("non-finite network parameters")
        if not all(np.isfinite(v).all() for v in result.best_params.values()):
            problems.append("non-finite best-checkpoint parameters")
        nan_aborts = sum(1 for s in result.update_stats if s.get("nan_abort"))
        if tracer is not None:
            problems += checks.check_equal(
                "traced GridEnv.step calls", total,
                tracer.calls("gridworld.GridEnv.step"))
            problems += checks.check_equal(
                "traced admissions", len(graph),
                tracer.counters["graph.admitted"])

        # Evaluate the best checkpoint on a graph restored from its snapshot,
        # as `dgmem eval` does with the files `dgmem train` writes.
        snapshot = graph.snapshot()
        best = learner.ActorCritic(net.input_dim, net.n_actions, net.hidden)
        best.set_params(result.best_params)
        with observe_episodes(graph.origin) as episodes:
            report = cli.run_eval(self.eval_env, GraphMemory.restore(snapshot),
                                  best, self.enc, self.eval_cfg,
                                  np.random.default_rng(self.seed))
        problems += _eval_checks(self.eval_env, episodes, report)

        outputs = {
            "snapshot_sha256": _sha(snapshot),
            "params_sha256": _sha(net.params),
            "best_params_sha256": _sha(result.best_params),
            "nodes": len(graph), "edges": graph.num_edges,
            "updates": len(result.update_stats),
            "cells_covered": len(result.visit_hist),
            "spl": report.spl, "sr": report.sr,
        }
        return Round(clock.wall, clock.cpu, total,
                     attempted=len(result.update_stats), failed=nan_aborts,
                     outputs=outputs, samples=clock.samples(),
                     problems=problems,
                     info={"nodes": len(graph), "edges": graph.num_edges})


class Navigate:
    """`cli.run_eval` over seed-drawn start/goal pairs with the committed
    checkpoint and graph; read-only on the graph, no policy updates."""

    def __init__(self, seed: int, size: dict, inputs_dir: str):
        self.seed = seed
        self.cfg = cfgmod.make_config({"seed": seed,
                                       "eval.episodes": size["nav_episodes"]})
        self.net = learner.load_checkpoint(f"{inputs_dir}/checkpoint.ckpt")
        with open(f"{inputs_dir}/graph.dgm") as fh:
            self.graph = GraphMemory.restore(fh.read())
        self.snapshot_sha = _sha(self.graph.snapshot())
        self.env = cli.build_env(self.cfg, noise=float(self.cfg["eval.noise"]))
        self.enc = cli.build_encoder(self.cfg)

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        with tracer or nullcontext(), _timed() as clock, \
                observe_episodes(self.graph.origin, clock) as episodes:
            report = cli.run_eval(self.env, self.graph, self.net, self.enc,
                                  self.cfg, np.random.default_rng(self.seed))
            steps = [ep["steps"] for ep in report.episodes]
            clock.mark(sum(steps))
        problems = _eval_checks(self.env, episodes, report)
        problems += checks.check_equal("graph after evaluation",
                                       self.snapshot_sha,
                                       _sha(self.graph.snapshot()))
        if tracer is not None:
            problems += checks.check_equal(
                "traced GridEnv.step calls", sum(steps),
                tracer.calls("gridworld.GridEnv.step"))
        outputs = {"spl": report.spl, "sr": report.sr,
                   "steps_sha256": _sha(steps),
                   "reasons_sha256": _sha([ep["reason"]
                                           for ep in report.episodes])}
        return Round(clock.wall, clock.cpu, sum(steps),
                     attempted=len(steps), failed=0, outputs=outputs,
                     samples=clock.samples(), problems=problems,
                     info={"nodes": len(self.graph),
                           "edges": self.graph.num_edges,
                           "episodes": len(steps)})


class Explore:
    """The baseline explorers exactly as `cmd_explore` calls them: random and
    straight at a large budget, the rnd and dp intrinsic agents at a small
    one, each from a fresh generator seeded with the workload seed."""

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.cfg = cfgmod.make_config({"seed": seed})
        self.env = cli.build_env(self.cfg)
        self.enc = cli.build_encoder(self.cfg)
        self.horizon = int(self.cfg["learner.horizon"])
        self.spawn = self.env.spawn(
            np.random.default_rng(int(self.cfg["env.map_seed"]) + 1000))
        self.budgets = {"random": size["explore_steps"],
                        "straight": size["explore_steps"],
                        "rnd": size["intrinsic_steps"],
                        "dp": size["intrinsic_steps"]}
        self.reachable = checks.flood_fill(self.env.grid.tiles,
                                           (self.spawn.x, self.spawn.y))

    def run_round(self, tracer: Optional[Tracer] = None) -> Round:
        b = self.budgets
        with tracer or nullcontext(), _timed(sum(b.values())) as clock:
            trackers = {
                "random": baselines.explore_random(
                    self.env, b["random"], np.random.default_rng(self.seed),
                    spawn=self.spawn, episode_len=self.horizon),
                "straight": baselines.explore_straight(
                    self.env, b["straight"], np.random.default_rng(self.seed),
                    spawn=self.spawn, episode_len=self.horizon),
            }
            for kind in ("rnd", "dp"):
                trackers[kind] = baselines.explore_intrinsic(
                    self.env, self.enc, kind, b[kind], seed=self.seed,
                    episode_len=self.horizon)
        problems: List[str] = []
        for agent, tracker in trackers.items():
            problems += checks.check_visits(agent, tracker.hist, b[agent],
                                            self.reachable)
        cells = {agent: len(t.hist) for agent, t in trackers.items()}
        outputs = {"cells": cells,
                   "cells_covered": sum(cells.values()),
                   "hist_sha256": {agent: _sha(sorted(t.hist.items()))
                                   for agent, t in trackers.items()}}
        return Round(clock.wall, clock.cpu, sum(b.values()),
                     attempted=len(trackers), failed=0, outputs=outputs,
                     samples=clock.samples(), problems=problems,
                     info={"nodes": 0, "edges": 0})


def make(name: str, seed: int, smoke: bool, inputs_dir: str):
    size = SIZES["smoke" if smoke else "full"]
    if name == "train":
        return Train(seed, size)
    if name == "navigate":
        return Navigate(seed, size, inputs_dir)
    if name == "explore":
        return Explore(seed, size)
    raise ValueError(f"unknown workload {name!r}")

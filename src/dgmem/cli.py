"""Operator entry point: train, evaluate, explore, render."""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional, Tuple

import numpy as np

from . import baselines, config as cfgmod, learner, metrics, navigator, render
from .encoder import PatchEncoder
from .graph import GraphMemory, SnapshotError
from .gridworld import (AgentState, GridEnv, GridMap, MapError,
                        make_four_rooms, make_maze, map_from_text)

log = logging.getLogger("dgmem")


def _setup_logging() -> None:
    level = os.environ.get("DGMEM_LOG_LEVEL", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def build_map(cfg: dict) -> GridMap:
    if cfg["env.map_file"]:
        path = cfg["env.map_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return map_from_text(fh.read())
        except (OSError, MapError) as exc:
            raise cfgmod.ConfigError(
                f"env.map_file {path!r}: {exc}") from exc
    if cfg["env.map"] == "four_rooms":
        return make_four_rooms(cfg["env.map_seed"])
    if cfg["env.map"] == "maze":
        return make_maze(21, 17, cfg["env.map_seed"])
    raise cfgmod.ConfigError(f"unknown map {cfg['env.map']!r}")


def build_env(cfg: dict, noise: Optional[float] = None) -> GridEnv:
    grid = build_map(cfg)
    return GridEnv(grid,
                   noise_scale=cfg["env.noise"] if noise is None else noise,
                   variant=cfg["env.variant"],
                   patch_size=cfg["env.patch_size"])


def build_graph(cfg: dict) -> GraphMemory:
    return GraphMemory(d_c=cfg["graph.d_c"], d_s=cfg["graph.d_s"],
                       d_e=cfg["graph.d_e"], alpha_sim=cfg["graph.alpha_sim"],
                       d_locate=cfg["graph.d_locate"],
                       traj_cap=cfg["graph.traj_cap"])


def build_encoder(cfg: dict) -> PatchEncoder:
    return PatchEncoder(feature_dim=cfg["encoder.dim"],
                        patch_size=cfg["env.patch_size"],
                        seed=cfg["encoder.seed"])


class ArtifactError(Exception):
    """A checkpoint or graph snapshot file that cannot be read."""


def load_artifacts(checkpoint: Optional[str], graph: Optional[str]
                   ) -> Tuple[Optional[learner.ActorCritic],
                              Optional[GraphMemory]]:
    """(network, graph) from a checkpoint file and a graph snapshot file,
    None for a path not given. A file that is missing, unreadable or
    malformed raises ArtifactError naming it."""
    path = checkpoint
    try:
        net = None if path is None else learner.load_checkpoint(path)
        path = graph
        if path is None:
            return net, None
        with open(path, encoding="utf-8") as fh:
            return net, GraphMemory.restore(fh.read())
    except (OSError, UnicodeDecodeError, learner.CheckpointError,
            SnapshotError) as exc:
        raise ArtifactError(f"{path}: {exc}") from exc


def _load_config(args) -> dict:
    """The config file (or the defaults) with the command-line overrides,
    checked as a whole."""
    cfg = cfgmod.load_file(args.config) if args.config else cfgmod.make_config()
    for flag, key in (("seed", "seed"), ("steps", "learner.total_steps"),
                      ("noise", "env.noise"), ("episodes", "eval.episodes")):
        if getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    return cfgmod.make_config(cfg)


def resume_state(env: GridEnv, graph: GraphMemory,
                 path: str) -> Optional[AgentState]:
    """Start of a resumed run: the restored graph's origin cell and heading
    with a zero pose estimate, so new poses share the stored nodes' frame;
    None for a graph without an origin. An origin that is not a free cell
    and heading of ``env`` raises ArtifactError naming ``path``."""
    if graph.origin is None:
        return None
    x, y, heading = graph.origin
    if not (x.is_integer() and y.is_integer() and heading in range(4)
            and env.grid.is_free(int(x), int(y))):
        raise ArtifactError(f"{path}: origin {graph.origin} is not a free "
                            f"cell and heading of the map")
    return AgentState(x=int(x), y=int(y), heading=int(heading))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    env = build_env(cfg)
    net, graph, state = None, build_graph(cfg), None
    if args.resume:
        graph_path = os.path.join(args.out, "graph.dgm")
        net, graph = load_artifacts(
            os.path.join(args.out, "checkpoint_final.ckpt"), graph_path)
        state = resume_state(env, graph, graph_path)
        log.info("resumed from %s", args.out)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.yaml"), "w") as fh:
        fh.write(cfgmod.dumps(cfg))

    enc = build_encoder(cfg)

    log_path = os.path.join(args.out, "train_log.jsonl")
    with open(log_path, "a" if args.resume else "w") as log_fh:
        every = max(1, cfg["learner.total_steps"] // 2000) * 10

        def writer(rec):
            if rec["step"] % every == 0 or rec["done"]:
                log_fh.write(json.dumps(rec) + "\n")

        result = learner.training_loop(env, graph, enc, cfg, net=net,
                                       state=state, log_writer=writer)
        for stats, seconds in zip(result.update_stats,
                                  result.update_seconds):
            log_fh.write(json.dumps({"kind": "update", **stats, **seconds})
                         + "\n")

    learner.save_checkpoint(os.path.join(args.out, "checkpoint_final.ckpt"),
                            result.net)
    best = learner.ActorCritic(result.net.input_dim, result.net.n_actions,
                               result.net.hidden)
    best.set_params(result.best_params)
    learner.save_checkpoint(os.path.join(args.out, "checkpoint.ckpt"), best)
    with open(os.path.join(args.out, "graph.dgm"), "w") as fh:
        fh.write(result.graph.snapshot())
    with open(os.path.join(args.out, "coverage.csv"), "w") as fh:
        fh.write("step,coverage\n")
        for step, cov in result.coverage_curve:
            fh.write(f"{step},{cov:.6f}\n")
    log.info("trained %d steps: %d nodes, %d edges, best rolling SR %.3f",
             result.steps, len(result.graph), result.graph.num_edges,
             result.best_success_rate)
    return 0


def run_eval(env: GridEnv, graph: GraphMemory, net, enc: PatchEncoder,
             cfg: dict, rng: np.random.Generator) -> metrics.EvalReport:
    """Navigation evaluation over uniform start/goal pairs.

    Episode pose frames are anchored to the training spawn recorded in the
    graph snapshot; this uses ground truth for setup and scoring only. The
    network and graph stay fixed throughout, so all episodes share one
    ``navigator.Memo``, and each distinct goal cell gets one oracle BFS.
    """
    episodes = cfg["eval.episodes"]
    if episodes <= 0:
        raise ValueError("eval requires episodes > 0")
    origin = graph.origin or (0.0, 0.0, 0.0)
    cells = env.grid.free_cells()
    records = []
    memo = navigator.Memo()
    to_goal: dict = {}  # goal cell -> metrics.grid_distances from it
    for _ in range(episodes):
        start = cells[int(rng.integers(len(cells)))]
        goal = cells[int(rng.integers(len(cells)))]
        state = AgentState(x=start[0], y=start[1],
                           pose_est=np.array([start[0] - origin[0],
                                              start[1] - origin[1], 0.0]))
        start_obs = env.observe(state)
        goal_obs = env.observation_at(
            goal[0], goal[1], pose_est=np.array([goal[0] - origin[0],
                                                 goal[1] - origin[1], 0.0]))
        result = navigator.execute(
            env, state, graph, net, enc, start_obs, goal_obs, rng,
            max_steps=cfg["eval.max_steps"],
            subgoal_budget=cfg["eval.subgoal_budget"],
            max_replans=cfg["eval.max_replans"],
            success_radius=cfg["reward.radius"], memo=memo)
        final_cell = (result.final_state.x, result.final_state.y)
        dist = to_goal.get(goal)
        if dist is None:
            dist = to_goal[goal] = metrics.grid_distances(env.grid, goal)
        shortest = int(dist[start]) if dist[start] >= 0 else None
        dts = float(dist[final_cell]) if dist[final_cell] >= 0 else None
        success = dts is not None and dts < cfg["reward.radius"]
        records.append({"success": bool(success), "steps": result.steps,
                        "shortest": shortest, "dts": dts,
                        "reason": result.reason, "replans": result.replans,
                        "collisions": result.collisions})
    report = metrics.build_report(records)
    report.memo_entries = memo.sizes()
    return report


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    net, graph = load_artifacts(args.checkpoint, args.graph)
    env = build_env(cfg, noise=cfg["eval.noise"])
    enc = build_encoder(cfg)
    rng = np.random.default_rng(cfg["seed"])
    try:
        report = run_eval(env, graph, net, enc, cfg, rng)
    except ValueError as exc:
        print(f"eval error: {exc}", file=sys.stderr)
        return 2
    summary = {"sr": report.sr, "spl": report.spl, "mean_dts": report.mean_dts,
               "episodes": len(report.episodes), "reasons": report.reasons,
               "mean_replans": report.mean_replans,
               "memo_entries": report.memo_entries}
    print(json.dumps(summary))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval_report.json"), "w") as fh:
            json.dump({**summary, "records": report.episodes}, fh, indent=2)
        with open(os.path.join(args.out, "eval_episodes.csv"), "w") as fh:
            fh.write(report.to_csv())
    return 0


def cmd_explore(args) -> int:
    cfg = _load_config(args)
    env = build_env(cfg)
    steps = cfg["learner.total_steps"]
    rng = np.random.default_rng(cfg["seed"])
    horizon = cfg["learner.horizon"]
    spawn = env.spawn(np.random.default_rng(cfg["env.map_seed"] + 1000))
    if args.agent == "random":
        tracker = baselines.explore_random(env, steps, rng, spawn=spawn,
                                           episode_len=horizon)
    elif args.agent == "straight":
        tracker = baselines.explore_straight(env, steps, rng, spawn=spawn,
                                             episode_len=horizon)
    elif args.agent in ("dp", "rnd"):
        enc = build_encoder(cfg)
        tracker = baselines.explore_intrinsic(env, enc, args.agent, steps,
                                              seed=cfg["seed"],
                                              episode_len=horizon,
                                              spawn=spawn)
    else:  # "dgmem", the last of the parser's choices
        cfg["learner.episodic_respawn"] = True
        enc = build_encoder(cfg)
        graph = build_graph(cfg)
        result = learner.training_loop(env, graph, enc, cfg,
                                       state=spawn)
        tracker = metrics.CoverageTracker(env.grid)
        tracker.hist = dict(result.visit_hist)
    summary = {"agent": args.agent, "steps": steps,
               "coverage": tracker.coverage(),
               "uniformity": tracker.uniformity()}
    print(json.dumps(summary))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"coverage_{args.agent}.json"),
                  "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


def cmd_render(args) -> int:
    cfg = _load_config(args)
    grid = build_map(cfg)
    _, graph = load_artifacts(None, args.graph)
    if graph is not None and graph.origin is not None:
        ox, oy = graph.origin[0], graph.origin[1]
        if not grid.in_bounds(int(round(ox)), int(round(oy))):
            print("graph snapshot does not match the map", file=sys.stderr)
            return 2
    svg = render.render_svg(grid, graph)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="dgmem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run self-supervised training")
    p_train.add_argument("--config")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--noise", type=float)
    p_train.add_argument("--resume", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate navigation")
    p_eval.add_argument("--config")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--graph", required=True)
    p_eval.add_argument("--episodes", type=int)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_exp = sub.add_parser("explore", help="coverage benchmark for one agent")
    p_exp.add_argument("--config")
    p_exp.add_argument("--agent", required=True,
                       choices=["dgmem", "random", "straight", "dp", "rnd"])
    p_exp.add_argument("--steps", type=int)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_explore)

    p_render = sub.add_parser("render", help="render map + graph to SVG")
    p_render.add_argument("--config")
    p_render.add_argument("--graph")
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Flat dotted-key configuration with defaults for every tunable.

Config files are plain text, one ``key: value`` mapping (YAML subset).
Unknown keys are rejected; serialization is deterministic so parse ->
serialize -> parse is the identity.
"""
from __future__ import annotations

import math
from typing import Any, Dict

import yaml

DEFAULTS: Dict[str, Any] = {
    # environment
    "env.map": "four_rooms",
    "env.map_seed": 0,
    "env.map_file": "",
    "env.noise": 0.0,
    "env.patch_size": 5,
    "env.variant": "cardinal",
    # frozen encoder
    "encoder.dim": 128,
    "encoder.seed": 0,
    # graph memory thresholds and housekeeping
    "graph.d_c": 1.5,
    "graph.d_s": -0.85,
    "graph.d_e": 1.0,
    "graph.alpha_sim": 1.0,
    "graph.d_locate": None,  # defaults to half the admission threshold
    "graph.prune_every": 10000,
    "graph.prune_min_count": 2,
    "graph.traj_cap": 64,
    # reward synthesis
    "reward.alpha": 0.2,
    "reward.novelty": 0.05,
    "reward.success": 1.0,
    "reward.radius": 1.0,
    # policy optimization
    "learner.clip": 0.1,
    "learner.nsteps": 256,
    "learner.minibatches": 1,
    "learner.epochs": 4,
    "learner.lr_start": 1e-4,
    "learner.lr_end": 1e-5,
    "learner.discount": 0.99,
    "learner.gae_lambda": 0.95,
    "learner.vf_coef": 0.5,
    "learner.ent_coef": 0.01,
    "learner.beta": 0.1,
    "learner.horizon": 100,
    "learner.il_edges": 48,
    "learner.il_steps": 16,
    "learner.il_lr": 0.03,
    "learner.total_steps": 250000,
    "learner.episodic_respawn": False,
    # goal sampler
    "sampler.temperature": 1.0,
    # evaluation
    "eval.episodes": 100,
    "eval.max_steps": 200,
    "eval.subgoal_budget": 30,
    "eval.max_replans": 3,
    "eval.noise": 0.0,
    # seeds
    "seed": 0,
}


# keys that take a float; YAML reads a number like ``1e-4`` as a string
FLOAT_KEYS = ({key for key, value in DEFAULTS.items()
               if isinstance(value, float)} | {"graph.d_locate"})


class ConfigError(ValueError):
    pass


def make_config(overrides: Dict[str, Any] | None = None) -> Dict[str, Any]:
    cfg = dict(DEFAULTS)
    if overrides:
        for key, value in overrides.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = value
    _check(cfg)
    return cfg


def _finite(value: Any) -> bool:
    """Whether ``value`` is a finite int or float (a bool is not)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check(cfg: Dict[str, Any]) -> None:
    for key, value in cfg.items():
        if key in FLOAT_KEYS and isinstance(value, str):
            try:
                cfg[key] = value = float(value)
            except ValueError:
                pass  # rejected below
        if isinstance(value, float) and value != value:
            raise ConfigError(f"non-finite value for {key}")
    for key in ("learner.nsteps", "learner.horizon", "learner.epochs",
                "learner.minibatches", "learner.il_steps", "learner.il_edges",
                "graph.prune_every", "graph.traj_cap", "encoder.dim",
                "learner.total_steps", "eval.episodes"):
        value = cfg[key]
        if not _integer(value) or value < 1:
            raise ConfigError(f"{key} must be a positive integer, "
                              f"got {value!r}")
    for key in ("seed", "encoder.seed", "env.map_seed", "eval.max_steps",
                "eval.subgoal_budget", "eval.max_replans"):
        value = cfg[key]
        if not _integer(value) or value < 0:
            raise ConfigError(f"{key} must be a non-negative integer, "
                              f"got {value!r}")
    size = cfg["env.patch_size"]
    if not _integer(size) or size < 1 or size % 2 == 0:
        raise ConfigError("env.patch_size must be a positive odd integer, "
                          f"got {size!r}")
    if cfg["env.variant"] not in ("cardinal", "orientation"):
        raise ConfigError("env.variant must be 'cardinal' or 'orientation', "
                          f"got {cfg['env.variant']!r}")
    if cfg["learner.minibatches"] > cfg["learner.nsteps"]:
        # a PPO update splits its nsteps rows into minibatches; none may be
        # empty
        raise ConfigError("learner.minibatches must not exceed "
                          f"learner.nsteps ({cfg['learner.nsteps']}), got "
                          f"{cfg['learner.minibatches']}")
    for key in ("reward.radius", "learner.il_lr", "sampler.temperature"):
        value = cfg[key]
        if not _finite(value) or value <= 0:
            raise ConfigError(f"{key} must be a positive finite number, "
                              f"got {value!r}")
    for key in ("learner.discount", "learner.gae_lambda"):
        if not (_finite(cfg[key]) and 0 <= cfg[key] <= 1):
            raise ConfigError(
                f"{key} must be a number in [0, 1], got {cfg[key]!r}")
    beta = cfg["learner.beta"]  # the imitation loss divides by 1 + beta
    if not _finite(beta) or beta < 0:
        raise ConfigError("learner.beta must be a finite number >= 0, "
                          f"got {beta!r}")
    for key in ("env.noise", "eval.noise"):
        value = cfg[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or value < 0):
            raise ConfigError(f"{key} must be a non-negative number, "
                              f"got {value!r}")
    d_locate = cfg["graph.d_locate"]  # None: half the admission threshold
    if d_locate is not None and not _finite(d_locate):
        raise ConfigError("graph.d_locate must be a finite number or null, "
                          f"got {d_locate!r}")
    for key in sorted(FLOAT_KEYS - {"graph.d_locate"}):
        if not _finite(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, "
                              f"got {cfg[key]!r}")


def loads(text: str) -> Dict[str, Any]:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a flat key: value mapping")
    return make_config(doc)


def dumps(cfg: Dict[str, Any]) -> str:
    return yaml.safe_dump(dict(cfg), sort_keys=True, default_flow_style=False)


def load_file(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())

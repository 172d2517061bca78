"""Flat dotted-key configuration: one schema names every key once.

Config files are plain text, one ``key: value`` mapping (YAML subset).
Unknown keys are rejected; serialization is deterministic so parse ->
serialize -> parse is the identity.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Dict, NamedTuple, Tuple

import yaml


class Rule(NamedTuple):
    """The phrase that finishes "<key> must be ..." for a value that is not
    of its key's type or fails ``test``."""
    phrase: str
    test: Callable[[Any], bool] = lambda value: True


TEXT = Rule("a string")
FLAG = Rule("true or false")
INTEGER = Rule("an integer")
FINITE = Rule("a finite number")
POSITIVE_INT = Rule("a positive integer", lambda value: value >= 1)
NON_NEGATIVE_INT = Rule("a non-negative integer", lambda value: value >= 0)
NON_NEGATIVE = Rule("a non-negative number", lambda value: value >= 0)
POSITIVE = Rule("a positive finite number", lambda value: value > 0)
UNIT = Rule("a number in [0, 1]", lambda value: 0 <= value <= 1)

# key -> (default, rule). A value takes its default's type: an int is never
# a bool, a float may be written as text such as ``1e-4`` (YAML reads it as
# a string) and is finite, and a None default stands for a float or null.
SCHEMA: Dict[str, Tuple[Any, Rule]] = {
    # environment
    "env.map": ("four_rooms", TEXT),
    "env.map_seed": (0, NON_NEGATIVE_INT),
    "env.map_file": ("", TEXT),
    "env.noise": (0.0, NON_NEGATIVE),
    "env.patch_size": (5, Rule("a positive odd integer",
                               lambda value: value >= 1 and value % 2 == 1)),
    "env.variant": ("cardinal",
                    Rule("'cardinal' or 'orientation'",
                         lambda value: value in ("cardinal", "orientation"))),
    # frozen encoder
    "encoder.dim": (128, POSITIVE_INT),
    "encoder.seed": (0, NON_NEGATIVE_INT),
    # graph memory thresholds and housekeeping
    "graph.d_c": (1.5, FINITE),
    "graph.d_s": (-0.85, FINITE),
    "graph.d_e": (1.0, FINITE),
    "graph.alpha_sim": (1.0, FINITE),
    # null: half the admission threshold
    "graph.d_locate": (None, Rule("a finite number or null")),
    "graph.prune_every": (10000, POSITIVE_INT),
    "graph.prune_min_count": (2, INTEGER),
    "graph.traj_cap": (64, POSITIVE_INT),
    # reward synthesis
    "reward.alpha": (0.2, FINITE),
    "reward.novelty": (0.05, FINITE),
    "reward.success": (1.0, FINITE),
    "reward.radius": (1.0, POSITIVE),
    # policy optimization
    "learner.clip": (0.1, FINITE),
    "learner.nsteps": (256, POSITIVE_INT),
    "learner.minibatches": (1, POSITIVE_INT),
    "learner.epochs": (4, POSITIVE_INT),
    "learner.lr_start": (1e-4, FINITE),
    "learner.lr_end": (1e-5, FINITE),
    "learner.discount": (0.99, UNIT),
    "learner.gae_lambda": (0.95, UNIT),
    "learner.vf_coef": (0.5, FINITE),
    "learner.ent_coef": (0.01, FINITE),
    # the imitation loss divides by 1 + beta
    "learner.beta": (0.1, Rule("a finite number >= 0", NON_NEGATIVE.test)),
    "learner.horizon": (100, POSITIVE_INT),
    "learner.il_edges": (48, POSITIVE_INT),
    "learner.il_steps": (16, POSITIVE_INT),
    "learner.il_lr": (0.03, POSITIVE),
    "learner.total_steps": (250000, POSITIVE_INT),
    "learner.episodic_respawn": (False, FLAG),
    # goal sampler
    "sampler.temperature": (1.0, POSITIVE),
    # evaluation
    "eval.episodes": (100, POSITIVE_INT),
    "eval.max_steps": (200, NON_NEGATIVE_INT),
    "eval.subgoal_budget": (30, NON_NEGATIVE_INT),
    "eval.max_replans": (3, NON_NEGATIVE_INT),
    "eval.noise": (0.0, NON_NEGATIVE),
    # seeds
    "seed": (0, NON_NEGATIVE_INT),
}


class ConfigError(ValueError):
    pass


def make_config(overrides: Dict[str, Any] | None = None) -> Dict[str, Any]:
    """Every key of SCHEMA, from ``overrides`` or its default, as its
    default's type; a value that is not one or fails its rule raises
    ConfigError naming the key and the value as given."""
    overrides = overrides or {}
    for key in overrides:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
    cfg = {}
    for key, (default, rule) in SCHEMA.items():
        value = overrides.get(key, default)
        try:
            cfg[key] = _typed(default, value)
            valid = rule.test(cfg[key])
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ConfigError(f"{key} must be {rule.phrase}, got {value!r}")
    if cfg["learner.minibatches"] > cfg["learner.nsteps"]:
        # a PPO update splits its nsteps rows into minibatches; none may be
        # empty
        raise ConfigError("learner.minibatches must not exceed "
                          f"learner.nsteps ({cfg['learner.nsteps']}), got "
                          f"{cfg['learner.minibatches']}")
    return cfg


def _typed(default: Any, value: Any) -> Any:
    """``value`` as the type of ``default``; raises TypeError, ValueError or
    OverflowError for a value that is not one."""
    if value is None and default is None:
        return None
    kind = float if default is None else type(default)
    if isinstance(value, bool) != (kind is bool):
        raise TypeError(value)
    if kind is float and isinstance(value, (int, float, str)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(value)
    if not isinstance(value, kind):
        raise TypeError(value)
    return value


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

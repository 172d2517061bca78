"""Config properties: a key given a value of the wrong type or outside its
rule is rejected, naming the key; a config drawn from valid values at the
rules' bounds runs ``train`` -> ``eval`` -> ``render``.
"""
import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgmem import cli, config as cfgmod

anything = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6) | st.lists(st.integers(), max_size=2))


def finite_number(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def wrong_type(default):
    """Values that are not of ``default``'s type: a bool is no number, and a
    float key takes a finite number or its text (null too for a None
    default)."""
    if default is None or type(default) is float:
        return (anything.filter(lambda v: isinstance(v, bool)
                                or not finite_number(v))
                .filter(lambda v: v is not None or default is not None)
                | st.integers(min_value=2 ** 1024))  # beyond a float
    kind = type(default)
    return anything.filter(lambda v: type(v) is not kind)


# values of the right type outside each rule, by the rule's phrase
negative = st.integers(max_value=-1) | st.floats(max_value=-5e-324)
OUTSIDE = {
    "a positive integer": st.integers(max_value=0),
    "a non-negative integer": st.integers(max_value=-1),
    "a positive odd integer": st.integers(max_value=10 ** 6).filter(
        lambda v: v < 1 or v % 2 == 0),
    "'cardinal' or 'orientation'": st.text(max_size=12).filter(
        lambda v: v not in ("cardinal", "orientation")),
    "a positive finite number": (st.integers(max_value=0)
                                 | st.floats(max_value=0.0)),
    "a number in [0, 1]": (negative | st.integers(min_value=2)
                           | st.floats(min_value=1 + 2 ** -52)),
    "a non-negative number": negative,
    "a finite number >= 0": negative,
}


def bad_values(key):
    """(name, values) pairs of the values ``key`` rejects: each of the wrong
    type, outside its rule, and more minibatches than the default nsteps."""
    default, rule = cfgmod.SCHEMA[key]
    yield "type", wrong_type(default)
    if rule.phrase in OUTSIDE:
        yield "rule", OUTSIDE[rule.phrase]
    if key == "learner.minibatches":
        yield "nsteps", st.integers(min_value=257)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@pytest.mark.parametrize("key, values", [
    pytest.param(key, values, id=f"{key}-{name}")
    for key in sorted(cfgmod.SCHEMA) for name, values in bad_values(key)])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_value_is_rejected_naming_the_key(workdir, capsys, key, values,
                                              data):
    value = data.draw(values)
    with pytest.raises(cfgmod.ConfigError) as info:
        cfgmod.make_config({key: value})
    message = str(info.value)
    assert message.startswith(f"{key} must ") and message.endswith(
        f"got {value!r}")
    path = workdir / "bad.yaml"
    path.write_text(yaml.safe_dump({key: value}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["render", "--config", str(path),
                     "--out", str(workdir / "map.svg")]) == 2
    assert f"config error: {key} must " in capsys.readouterr().err


TEXT_MAP = "#########\n#...#...#\n#.......#\n#...#...#\n#########\n"

valid_configs = st.fixed_dictionaries({
    "env.variant": st.sampled_from(["cardinal", "orientation"]),
    "env.map": st.sampled_from(["four_rooms", "maze"]),
    "env.map_file": st.sampled_from(["", "MAP"]),
    "env.patch_size": st.sampled_from([1, 3, 5]),
    "env.noise": st.sampled_from([0.0, 0.3]),
    "learner.nsteps": st.sampled_from([256, 32]),
    "learner.minibatches": st.sampled_from([1, "NSTEPS"]),
    "learner.discount": st.sampled_from([0.0, 1.0, 0.99]),
    "learner.gae_lambda": st.sampled_from([0.0, 1.0, 0.95]),
    "learner.episodic_respawn": st.booleans(),
    "graph.traj_cap": st.sampled_from([1, 64]),
    "graph.prune_every": st.sampled_from([50, 10000]),
    "graph.prune_min_count": st.sampled_from([-1, 0, 2]),
    "graph.d_locate": st.sampled_from([None, 0.5]),
    "eval.max_steps": st.sampled_from([0, 200]),
    "eval.subgoal_budget": st.sampled_from([0, 30]),
    "eval.max_replans": st.sampled_from([0, 3]),
    "eval.noise": st.sampled_from([0.0, 0.3]),
})


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_configs)
def test_valid_config_trains_evaluates_and_renders(tmp_path_factory, over):
    tmp = tmp_path_factory.mktemp("valid")
    if over["env.map_file"]:
        (tmp / "map.txt").write_text(TEXT_MAP)
        over["env.map_file"] = str(tmp / "map.txt")
    if over["learner.minibatches"] == "NSTEPS":
        over["learner.minibatches"] = over["learner.nsteps"]
    config = tmp / "config.yaml"
    config.write_text(yaml.safe_dump(over))
    run = tmp / "run"
    assert cli.main(["train", "--config", str(config), "--out", str(run),
                     "--steps", "300", "--seed", "1"]) == 0
    assert cli.main(["eval", "--config", str(config),
                     "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--graph", str(run / "graph.dgm"),
                     "--episodes", "3", "--seed", "2"]) == 0
    assert cli.main(["render", "--config", str(config),
                     "--graph", str(run / "graph.dgm"),
                     "--out", str(tmp / "graph.svg")]) == 0
    written = cfgmod.load_file(str(run / "config.yaml"))
    assert written == cfgmod.make_config(
        dict(over, **{"learner.total_steps": 300, "seed": 1}))

"""Each output check passes on genuine outputs and fires on corrupted ones."""
import copy
import os

import numpy as np
import pytest

import checks
from dgmem import cli, learner
from dgmem import config as cfgmod
from tracer import Tracer
import workloads

INPUTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "inputs")


@pytest.fixture(scope="module")
def trained():
    cfg = cfgmod.make_config({"seed": 0, "learner.total_steps": 1500})
    env = cli.build_env(cfg)
    graph = cli.build_graph(cfg)
    result = learner.training_loop(env, graph, cli.build_encoder(cfg), cfg)
    return env, graph, result


@pytest.fixture()
def graph(trained):
    return copy.deepcopy(trained[1])


def _tiles(trained):
    return trained[0].grid.tiles


def test_genuine_training_outputs_pass(trained):
    env, graph, result = trained
    tiles = env.grid.tiles
    spawn = (int(graph.origin[0]), int(graph.origin[1]))
    assert checks.check_admission(graph) == []
    assert checks.check_graph_queries(graph) == []
    assert checks.check_edge_replay(graph, tiles) == []
    assert checks.check_visits("t", result.visit_hist, 1500,
                               checks.flood_fill(tiles, spawn)) == []


def test_dropped_edge_is_caught(graph):
    key = sorted(graph.edges)[len(graph.edges) // 2]
    del graph.edges[key]  # the planner's adjacency still holds it
    assert checks.check_graph_queries(graph)


def test_hop_count_planner_is_caught(graph):
    graph.weighted_path = graph.shortest_path  # ignores trajectory lengths
    problems = checks.check_graph_queries(graph)
    assert any("Dijkstra" in p for p in problems)


def test_off_by_one_distances_are_caught(graph):
    real = graph.distances_from
    graph.distances_from = lambda src: {n: d + (n == max(real(src)))
                                        for n, d in real(src).items()}
    assert checks.check_graph_queries(graph)


def test_too_close_nodes_are_caught(graph):
    a, b = sorted(graph.nodes)[:2]
    graph.nodes[b].pose = graph.nodes[a].pose.copy()
    graph.nodes[b].feature = graph.nodes[a].feature.copy()
    assert checks.check_admission(graph)


def test_reversed_edge_replay_is_caught(trained, graph):
    def span(key):
        pi, pj = graph.nodes[key[0]].pose, graph.nodes[key[1]].pose
        return abs(pi[0] - pj[0]) + abs(pi[1] - pj[1])

    key = max(sorted(graph.edges), key=span)
    assert span(key) >= 3
    edge = graph.edges[key]
    edge.direction = "ji" if edge.direction == "ij" else "ij"
    assert checks.check_edge_replay(graph, _tiles(trained))


def test_visit_histogram_corruptions_are_caught(trained):
    env, graph, result = trained
    tiles = env.grid.tiles
    reach = checks.flood_fill(tiles, (int(graph.origin[0]),
                                      int(graph.origin[1])))
    assert checks.check_visits("t", result.visit_hist, 1501, reach)
    hist = dict(result.visit_hist)
    hist[(0, 0)] = 1  # a wall cell
    hist[next(iter(hist))] -= 1
    assert checks.check_visits("t", hist, 1500, reach)


@pytest.fixture(scope="module")
def evaluated():
    nav = workloads.make("navigate", 5, True, INPUTS)
    with workloads.observe_episodes(nav.graph.origin) as episodes:
        report = cli.run_eval(nav.env, nav.graph, nav.net, nav.enc, nav.cfg,
                              np.random.default_rng(5))
    return nav, episodes, report


def _episode_problems(nav, episodes, report, spl=None):
    return checks.check_episodes(nav.env.grid.tiles, episodes,
                                 report.episodes,
                                 report.spl if spl is None else spl,
                                 report.sr)


def test_genuine_episodes_pass(evaluated):
    nav, episodes, report = evaluated
    assert _episode_problems(nav, episodes, report) == []


def test_wrong_final_cell_is_caught(evaluated):
    nav, episodes, report = evaluated
    bad = copy.deepcopy(episodes)
    n = next(i for i, r in enumerate(report.episodes) if r["success"])
    x, y = bad[n]["goal"]
    bad[n]["final"] = next(c for c in ((x + 1, y), (x - 1, y), (x, y + 1),
                                       (x, y - 1))
                           if checks.free(nav.env.grid.tiles, c))
    assert _episode_problems(nav, bad, report)


def test_off_by_one_step_count_is_caught(evaluated):
    nav, episodes, report = evaluated
    bad = copy.deepcopy(episodes)
    bad[0]["steps"] += 1
    assert _episode_problems(nav, bad, report)


def test_impossibly_short_episode_is_caught(evaluated):
    nav, episodes, report = evaluated
    bad_eps, bad_report = copy.deepcopy(episodes), copy.deepcopy(report)
    n = next(i for i, r in enumerate(report.episodes)
             if r["success"] and r["shortest"] > 1)
    bad_eps[n]["steps"] = bad_report.episodes[n]["steps"] = 1
    assert any("fewer than the BFS length" in p
               for p in _episode_problems(nav, bad_eps, bad_report))


def test_wrong_spl_is_caught(evaluated):
    nav, episodes, report = evaluated
    assert _episode_problems(nav, episodes, report, spl=report.spl + 1e-6)


def test_tracer_restores_every_binding():
    from dgmem import baselines, gridworld, navigator
    before = (learner.ppo_update, baselines.ppo_update,
              gridworld.GridEnv.step, navigator.execute)
    with Tracer() as tracer:
        assert baselines.ppo_update is learner.ppo_update
        assert learner.ppo_update is not before[0]
    after = (learner.ppo_update, baselines.ppo_update,
             gridworld.GridEnv.step, navigator.execute)
    assert after == before
    assert tracer.calls("learner.ppo_update") == 0


def test_self_time_excludes_traced_children():
    cfg = cfgmod.make_config({"seed": 0})
    env = cli.build_env(cfg)
    state = env.spawn(np.random.default_rng(0))
    with Tracer() as tracer:
        for _ in range(200):
            state, _ = env.step(state, 0, np.random.default_rng(0))
    step = tracer.table()["gridworld.GridEnv.step"]
    patch = tracer.table()["gridworld.GridMap.patch"]
    assert step["calls"] == patch["calls"] == 200
    assert step["self_s"] == pytest.approx(step["total_s"] - patch["total_s"])
    assert tracer.callers[("gridworld.GridEnv.step",
                           "gridworld.GridMap.patch")] == 200


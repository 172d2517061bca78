import numpy as np
import pytest

from dgmem.graph import GraphMemory
from dgmem.reward import (RewardBreakdown, novelty_reward, success_reward,
                          topo_progress_reward)


def unit(dim, idx):
    v = np.zeros(dim)
    v[idx % dim] = 1.0
    return v


def line_graph(n=5):
    g = GraphMemory()
    for i in range(n):
        g.try_add_node(unit(16, i), np.array([4.0 * i, 0, 0]), 5.0)
    for a in range(n - 1):
        g.localize(unit(16, a), np.array([4.0 * a, 0, 0]))
        g.break_trajectory()
        g.localize(unit(16, a + 1), np.array([4.0 * (a + 1), 0, 0]))
        g.record_transition(3, unit(16, a + 1), np.array([4.0 * (a + 1), 0, 0]))
    return g


class TestBreakdown:
    def test_total_is_exact_sum(self):
        b = RewardBreakdown(0.2, 0.05, 1.0)
        assert b.total == 0.2 + 0.05 + 1.0

    def test_total_exact_on_random_components(self, rng):
        for _ in range(200):
            r = rng.standard_normal(3)
            b = RewardBreakdown(*r)
            assert b.total == r[0] + r[1] + r[2]

    def test_as_dict_carries_all_terms(self):
        d = RewardBreakdown(1.0, 2.0, 3.0).as_dict()
        assert d == {"r_d": 1.0, "r_n": 2.0, "r_s": 3.0, "total": 6.0}


class TestProgress:
    def test_one_hop_closer_pays_alpha(self):
        dist = line_graph().distances_from(4)
        assert topo_progress_reward(0, 1, 0.2, dist) == pytest.approx(0.2)

    def test_one_hop_farther_costs_alpha(self):
        dist = line_graph().distances_from(4)
        assert topo_progress_reward(1, 0, 0.2, dist) == pytest.approx(-0.2)

    def test_staying_put_pays_zero(self):
        dist = line_graph().distances_from(4)
        assert topo_progress_reward(2, 2, 0.2, dist) == 0.0

    def test_unreachable_pays_zero(self):
        g = line_graph()
        g.try_add_node(unit(16, 9), np.array([100.0, 0, 0]), 5.0)  # isolated
        assert topo_progress_reward(0, 1, 0.2, g.distances_from(5)) == 0.0

    def test_dist_map_matches_direct_computation(self):
        g = line_graph()
        dist = g.distances_from(4)
        for prev in range(5):
            for cur in range(5):
                hops = [len(g.shortest_path(n, 4)) - 1 for n in (prev, cur)]
                assert (topo_progress_reward(prev, cur, 0.2, dist)
                        == 0.2 * (hops[0] - hops[1]))

    def test_telescoping_along_any_walk(self, rng):
        """Sum of progress rewards over a walk depends only on endpoints."""
        g = line_graph(6)
        goal = 5
        for _ in range(20):
            walk = [int(rng.integers(6))]
            for _ in range(15):
                walk.append(int(rng.integers(6)))
            dist = g.distances_from(goal)
            total = sum(topo_progress_reward(a, b, 0.2, dist)
                        for a, b in zip(walk, walk[1:]))
            d0 = len(g.shortest_path(walk[0], goal)) - 1
            d1 = len(g.shortest_path(walk[-1], goal)) - 1
            assert total == pytest.approx(0.2 * (d0 - d1))


class TestNovelty:
    def test_first_visit_pays_then_zero(self):
        seen = set()
        assert novelty_reward(3, seen, 0.05) == 0.05
        assert novelty_reward(3, seen, 0.05) == 0.0

    def test_episode_sum_counts_distinct_nodes(self, rng):
        seen = set()
        visits = [int(rng.integers(10)) for _ in range(100)]
        total = sum(novelty_reward(v, seen, 0.05) for v in visits)
        assert total == pytest.approx(0.05 * len(set(visits)))


class TestSuccess:
    def test_inside_radius(self):
        r, done = success_reward(np.array([1.0, 1.0, 0]),
                                 np.array([1.5, 1.0, 0]), 1.0, 1.0)
        assert r == 1.0 and done

    def test_boundary_is_exclusive(self):
        r, done = success_reward(np.array([0.0, 0.0, 0]),
                                 np.array([1.0, 0.0, 0]), 1.0, 1.0)
        assert r == 0.0 and not done

    def test_yaw_ignored(self):
        r, done = success_reward(np.array([0.0, 0.0, 3.0]),
                                 np.array([0.0, 0.0, 0.0]), 1.0, 1.0)
        assert done

    def test_magnitude_passthrough(self):
        r, _ = success_reward(np.zeros(3), np.zeros(3), 1.0, 2.5)
        assert r == 2.5

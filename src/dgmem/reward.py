"""Self-supervised reward synthesis from graph memory state.

Three terms: topological progress toward the goal node, first-visit novelty
within the current goal-episode, and a binary success flag on arrival within
the success radius. The total is always the exact sum of the three.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np


@dataclass
class RewardBreakdown:
    r_d: float
    r_n: float
    r_s: float

    @property
    def total(self) -> float:
        return self.r_d + self.r_n + self.r_s

    def as_dict(self) -> dict:
        return {"r_d": self.r_d, "r_n": self.r_n, "r_s": self.r_s,
                "total": self.total}


def topo_progress_reward(prev_node: int, cur_node: int, alpha: float,
                         dist_map: Dict[int, int]) -> float:
    """alpha * (hops(prev, goal) - hops(cur, goal)); 0 when either is unreachable.

    ``dist_map`` holds the BFS hop counts from the goal node
    (``GraphMemory.distances_from``); a node missing from it is unreachable.
    """
    d_prev = dist_map.get(prev_node)
    d_cur = dist_map.get(cur_node)
    if d_prev is None or d_cur is None:
        return 0.0
    return alpha * (d_prev - d_cur)


def novelty_reward(cur_node: int, episode_visited: Set[int],
                   c: float) -> float:
    """First-visit bonus within one goal-episode; inserts into the set."""
    if cur_node in episode_visited:
        return 0.0
    episode_visited.add(cur_node)
    return c


def success_reward(obs_pose: np.ndarray, goal_pose: np.ndarray,
                   radius: float = 1.0,
                   magnitude: float = 1.0) -> Tuple[float, bool]:
    """(r_s, done): done iff the x-y pose distance to the goal is inside radius."""
    d = float(np.linalg.norm(np.asarray(obs_pose, float)[:2]
                             - np.asarray(goal_pose, float)[:2]))
    if d < radius:
        return magnitude, True
    return 0.0, False

"""Evaluation metrics: coverage, SR, SPL, distance-to-goal, visit uniformity.

The grid BFS used here is the ground-truth oracle for shortest paths and
geodesic distances. It reads the true map and is for evaluation only; the
agent-facing modules never import it.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .gridworld import GridMap


class CoverageTracker:
    """Per-cell visited flags and visit counts over the reachable free space."""

    def __init__(self, grid: GridMap):
        self.grid = grid
        self.reachable = len(grid.free_cells())
        self.hist: Dict[Tuple[int, int], int] = {}

    def visit(self, x: int, y: int) -> None:
        self.hist[(x, y)] = self.hist.get((x, y), 0) + 1

    def coverage(self) -> float:
        return len(self.hist) / self.reachable

    def uniformity(self) -> float:
        return uniformity(list(self.hist.values()), self.reachable)


def uniformity(counts, reachable: int) -> float:
    """Entropy of the normalized visit histogram, scaled to [0, 1]."""
    counts = np.asarray(list(counts), float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    p = counts / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum() / math.log(reachable))


def grid_shortest_length(grid: GridMap, start: Tuple[int, int],
                         goal: Tuple[int, int]) -> Optional[int]:
    """Geodesic cell distance by BFS on the true map (evaluation oracle)."""
    if not grid.is_free(*start) or not grid.is_free(*goal):
        raise ValueError("start and goal must be free cells")
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nxt = (x + dx, y + dy)
            if nxt in dist or not grid.is_free(*nxt):
                continue
            dist[nxt] = dist[(x, y)] + 1
            if nxt == goal:
                return dist[nxt]
            queue.append(nxt)
    return None


def grid_distances(grid: GridMap, source: Tuple[int, int]) -> np.ndarray:
    """Geodesic cell distance from ``source`` to every cell, indexed like
    ``grid.tiles``, by one full BFS on the true map (evaluation oracle).

    -1 marks walls and cells ``source`` cannot reach. Moves are symmetric,
    so entry ``c`` is also the distance from ``c`` to ``source``. The search
    walks the map's ``free_neighbours`` list one distance layer at a time.
    """
    if not grid.is_free(*source):
        raise ValueError("source must be a free cell")
    neighbours = grid.free_neighbours()
    dist = [-1] * len(neighbours)
    layer = [source[0] * grid.height + source[1]]
    dist[layer[0]] = d = 0
    while layer:
        d += 1
        frontier = []
        for cell in layer:
            for n in neighbours[cell]:
                if dist[n] < 0:
                    dist[n] = d
                    frontier.append(n)
        layer = frontier
    # the smallest signed dtype holding every distance (< the cell count)
    return np.array(dist, np.min_scalar_type(-grid.tiles.size)).reshape(
        grid.tiles.shape)


def spl_term(success: bool, path: float, shortest: float) -> float:
    """One episode's success * shortest / max(path, shortest).

    Start == goal episodes carry shortest_length 0 and count as ratio 1 when
    successful.
    """
    if not success:
        return 0.0
    if shortest <= 0:
        return 1.0
    return shortest / max(path, shortest)


def _mean_spl(terms: List[float]) -> float:
    if not terms:
        raise ValueError("spl of an empty episode list is undefined")
    total = 0.0
    for term in terms:  # left to right, so the sum is reproducible
        total += term
    return total / len(terms)


def spl(episodes: List[Tuple[bool, float, float]]) -> float:
    """Mean SPL term over (success, path_length, shortest_length) episodes."""
    return _mean_spl([spl_term(*ep) for ep in episodes])


@dataclass
class EvalReport:
    sr: float
    spl: float
    mean_dts: float
    episodes: List[dict] = field(default_factory=list)
    # entries per navigator.Memo table at the end of the evaluation
    memo_entries: Dict[str, int] = field(default_factory=dict)

    @property
    def reasons(self) -> Dict[str, int]:
        """Episode count per outcome reason, in name order."""
        return dict(sorted(Counter(ep["reason"]
                                   for ep in self.episodes).items()))

    @property
    def mean_replans(self) -> float:
        return sum(ep["replans"] for ep in self.episodes) / len(self.episodes)

    def to_csv(self) -> str:
        lines = ["episode,success,steps,shortest,spl,dts,collisions"]
        for i, ep in enumerate(self.episodes):
            lines.append(
                f"{i},{int(ep['success'])},{ep['steps']},{ep['shortest']},"
                f"{ep['spl']:.6f},{ep['dts']},{ep['collisions']}")
        return "\n".join(lines) + "\n"


def build_report(episodes: List[dict]) -> EvalReport:
    if not episodes:
        raise ValueError("no episodes to report")
    sr = sum(ep["success"] for ep in episodes) / len(episodes)
    for ep in episodes:
        ep["spl"] = spl_term(ep["success"], ep["steps"], ep["shortest"])
    dts = [ep["dts"] for ep in episodes if ep["dts"] is not None]
    mean_dts = float(np.mean(dts)) if dts else float("nan")
    return EvalReport(sr, _mean_spl([ep["spl"] for ep in episodes]),
                      mean_dts, episodes)

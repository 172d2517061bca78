"""Output checks that recompute what the program reports, independently.

Every check returns a list of problems (empty when the output is right). The
reference computations here (grid BFS, flood fill, graph BFS, Dijkstra, edge
replay, SPL) are written from the definitions and call no dgmem function, so
a fault in the program cannot hide behind the same fault in its own oracle.
Only plain data (tiles, poses, edge lists, records) comes from the program.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Cell = Tuple[int, int]

WALL = 1  # tile code of a wall in dgmem.gridworld
# Cardinal action displacements (action -> (dx, dy)) as documented for the
# gridworld: up, down, left, right on a tiles[x, y] grid with y growing down.
CARDINAL_MOVES = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}
_NEIGHBOURS = ((0, 1), (0, -1), (1, 0), (-1, 0))
TOL = 1e-9


def free(tiles: np.ndarray, cell: Cell) -> bool:
    x, y = cell
    return (0 <= x < tiles.shape[0] and 0 <= y < tiles.shape[1]
            and tiles[x, y] != WALL)


def flood_fill(tiles: np.ndarray, start: Cell) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in _NEIGHBOURS:
            nxt = (x + dx, y + dy)
            if nxt not in seen and free(tiles, nxt):
                seen.add(nxt)
                queue.append(nxt)
    return seen


def grid_distances(tiles: np.ndarray, start: Cell) -> Dict[Cell, int]:
    """Cardinal-move BFS distances from start to every reachable free cell."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for dx, dy in _NEIGHBOURS:
            nxt = (x + dx, y + dy)
            if nxt not in dist and free(tiles, nxt):
                dist[nxt] = dist[(x, y)] + 1
                queue.append(nxt)
    return dist


def patch(tiles: np.ndarray, cell: Cell, k: int) -> np.ndarray:
    """k x k tile window centred on cell; outside the map reads as wall."""
    r = k // 2
    padded = np.pad(tiles, r, constant_values=WALL)
    x, y = cell
    return padded[x:x + k, y:y + k]


# -- visit histograms -------------------------------------------------------

def check_visits(label: str, hist: Dict[Cell, int], steps: int,
                 reachable: set) -> List[str]:
    """A visit histogram counts the start cell plus one cell per step, and
    every visited cell is reachable free space."""
    problems = []
    total = sum(hist.values())
    if total != steps + 1:
        problems.append(f"{label}: visit histogram totals {total}, "
                        f"expected steps + 1 = {steps + 1}")
    outside = sorted(c for c in hist if c not in reachable)
    if outside:
        problems.append(f"{label}: {len(outside)} visited cells outside the "
                        f"flood fill from the spawn, e.g. {outside[0]}")
    if any(n <= 0 for n in hist.values()):
        problems.append(f"{label}: non-positive visit count")
    return problems


# -- graph memory -----------------------------------------------------------

def node_cells(origin: Sequence[float], poses: Dict[int, np.ndarray]
               ) -> Dict[int, Cell]:
    """True cells of nodes from noise-free pose estimates (spawn-relative)."""
    return {i: (int(round(origin[0] + p[0])), int(round(origin[1] + p[1])))
            for i, p in poses.items()}


def graph_bfs(n_ids: Iterable[int], edges: Iterable[Tuple[int, int]],
              src: int) -> Dict[int, int]:
    adj: Dict[int, List[int]] = {i: [] for i in n_ids}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        n = queue.popleft()
        for m in adj[n]:
            if m not in dist:
                dist[m] = dist[n] + 1
                queue.append(m)
    return dist


def dijkstra(n_ids: Iterable[int], weights: Dict[Tuple[int, int], int],
             src: int) -> Dict[int, int]:
    adj: Dict[int, List[Tuple[int, int]]] = {i: [] for i in n_ids}
    for (i, j), w in weights.items():
        adj[i].append((j, w))
        adj[j].append((i, w))
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist[n]:
            continue
        for m, w in adj[n]:
            if m not in dist or d + w < dist[m]:
                dist[m] = d + w
                heapq.heappush(heap, (d + w, m))
    return dist


def check_admission(graph) -> List[str]:
    """Every stored node cleared the admission rule against every other node:
    pose distance + alpha * (-cosine) >= d_p, and semantic score >= d_c."""
    problems = []
    ids = sorted(graph.nodes)
    feats = np.array([graph.nodes[i].feature for i in ids])
    poses = np.array([graph.nodes[i].pose for i in ids])
    for a, i in enumerate(ids):
        if graph.nodes[i].semantic < graph.d_c:
            problems.append(f"node {i}: semantic score below d_c")
        for b in range(a + 1, len(ids)):
            d_pose = math.sqrt(float(((poses[a] - poses[b]) ** 2).sum()))
            d_vis = -float(feats[a] @ feats[b])
            combined = d_pose + graph.alpha_sim * d_vis
            if combined < graph.d_p - TOL:
                problems.append(f"nodes {i},{ids[b]}: combined distance "
                                f"{combined:.4f} < d_p {graph.d_p:.4f}")
    return problems


def check_graph_queries(graph) -> List[str]:
    """distances_from agrees with a BFS over the edge list, and weighted_path
    returns routes over existing edges whose stored-trajectory cost equals a
    Dijkstra over the same lengths, for every ordered node pair."""
    problems = []
    ids = sorted(graph.nodes)
    edge_keys = sorted(graph.edges)
    weights = {k: len(graph.edges[k].actions) for k in edge_keys}
    for src in ids:
        want = graph_bfs(ids, edge_keys, src)
        try:
            got = graph.distances_from(src)
        except Exception as exc:  # a corrupt graph may raise; report it
            problems.append(f"distances_from({src}) raised {exc!r}")
            continue
        if got != want:
            bad = sorted(set(got.items()) ^ set(want.items()))[:3]
            problems.append(f"distances_from({src}) differs from BFS over "
                            f"the edge list: {bad}")
        cost = dijkstra(ids, weights, src)
        for dst in ids:
            try:
                route = graph.weighted_path(src, dst)
            except Exception as exc:
                problems.append(f"weighted_path({src},{dst}) raised {exc!r}")
                continue
            if dst not in cost:
                if route:
                    problems.append(f"weighted_path({src},{dst}) found a "
                                    f"route to an unreachable node")
                continue
            if not route or route[0] != src or route[-1] != dst:
                problems.append(f"weighted_path({src},{dst}) = {route[:4]}...")
                continue
            legs = [tuple(sorted(p)) for p in zip(route, route[1:])]
            missing = [leg for leg in legs if leg not in weights]
            if missing:
                problems.append(f"weighted_path({src},{dst}) walks missing "
                                f"edge {missing[0]}")
                continue
            total = sum(weights[leg] for leg in legs)
            if total != cost[dst]:
                problems.append(f"weighted_path({src},{dst}) costs {total}, "
                                f"Dijkstra gives {cost[dst]}")
        if len(problems) > 20:
            break
    return problems


def check_edge_replay(graph, tiles: np.ndarray) -> List[str]:
    """With noise 0, replaying an edge's stored actions on the tile map from
    its start node's cell ends within the localisation radius of the other
    endpoint. That radius is d_locate + alpha_sim: the largest pose distance
    the localisation rule can accept, since -cosine >= -1."""
    problems = []
    cells = node_cells(graph.origin,
                       {i: n.pose for i, n in graph.nodes.items()})
    for i, cell in sorted(cells.items()):
        if not free(tiles, cell):
            problems.append(f"node {i} sits on non-free cell {cell}")
    radius = graph.d_locate + graph.alpha_sim
    for (i, j), edge in sorted(graph.edges.items()):
        if edge.direction not in ("ij", "ji"):
            problems.append(f"edge {i},{j}: bad direction {edge.direction!r}")
            continue
        src, dst = (i, j) if edge.direction == "ij" else (j, i)
        x, y = cells[src]
        for action in edge.actions:
            dx, dy = CARDINAL_MOVES[action]
            if free(tiles, (x + dx, y + dy)):
                x, y = x + dx, y + dy
        tx, ty = cells[dst]
        gap = math.hypot(x - tx, y - ty)
        if gap > radius + TOL:
            problems.append(f"edge {i},{j}: replay from node {src} ends at "
                            f"{(x, y)}, {gap:.2f} cells from node {dst} "
                            f"at {(tx, ty)}")
    return problems


# -- navigation episodes ----------------------------------------------------

def spl(episodes: Sequence[Tuple[bool, int, int]]) -> float:
    """Success weighted by path length: mean of success * L / max(P, L), with
    L = 0 (start == goal) scoring 1 on success."""
    total = 0.0
    for success, path, shortest in episodes:
        if success:
            total += 1.0 if shortest <= 0 else shortest / max(path, shortest)
    return total / len(episodes)


def check_episodes(tiles: np.ndarray, episodes: Sequence[dict],
                   records: Sequence[dict], reported_spl: float,
                   reported_sr: float) -> List[str]:
    """Navigation outcomes against the true map.

    ``episodes`` carry the true start, goal and final cells observed at the
    navigator boundary; ``records`` are the program's per-episode report.
    An episode counts as arrived iff its final cell is the goal; arrived
    episodes take at least the BFS start->goal length; the reported shortest
    lengths, success flags, SR and SPL match the ones recomputed here.
    """
    problems = []
    if len(episodes) != len(records):
        return [f"{len(episodes)} episodes observed, {len(records)} reported"]
    dist_cache: Dict[Cell, Dict[Cell, int]] = {}
    scored = []
    for n, (ep, rec) in enumerate(zip(episodes, records)):
        start, goal, final = ep["start"], ep["goal"], ep["final"]
        if start not in dist_cache:
            dist_cache[start] = grid_distances(tiles, start)
        shortest = dist_cache[start].get(goal)
        if shortest is None:
            problems.append(f"episode {n}: goal {goal} unreachable")
            continue
        arrived = final == goal
        if rec["shortest"] != shortest:
            problems.append(f"episode {n}: reported shortest "
                            f"{rec['shortest']}, BFS gives {shortest}")
        if bool(rec["success"]) != arrived:
            problems.append(f"episode {n}: reported success {rec['success']}"
                            f" but final cell {final}, goal {goal}")
        if rec["steps"] != ep["steps"]:
            problems.append(f"episode {n}: reported {rec['steps']} steps, "
                            f"navigator took {ep['steps']}")
        if arrived and ep["steps"] < shortest:
            problems.append(f"episode {n}: arrived in {ep['steps']} steps, "
                            f"fewer than the BFS length {shortest}")
        scored.append((arrived, ep["steps"], shortest))
        if len(problems) > 20:
            break
    if problems:
        return problems
    want_spl = spl(scored)
    if abs(want_spl - reported_spl) > TOL:
        problems.append(f"reported SPL {reported_spl!r}, recomputed "
                        f"{want_spl!r}")
    want_sr = sum(a for a, _, _ in scored) / len(scored)
    if abs(want_sr - reported_sr) > TOL:
        problems.append(f"reported SR {reported_sr!r}, recomputed {want_sr!r}")
    return problems


def check_equal(label: str, want, got) -> List[str]:
    return [] if want == got else [f"{label}: {got!r} != {want!r}"]

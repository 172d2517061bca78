"""Dynamic topological graph memory.

Nodes are admitted observations (feature, pose, visit count, semantic score);
edges carry visit counts and the shortest action trajectory seen between two
nodes. The graph is kept sparse by construction: a new node must clear both
the semantic threshold and a combined pose/visual distance to every existing
node. Localization, goal sampling, pruning and BFS planning all operate on
this structure.

Nodes are never deleted, so node ids are dense: node ``i`` is row ``i`` of the
pose and feature arrays that every similarity query scores in one pass.
Localization and admission read only the nearest-node summary of a query;
it is kept per (feature, pose) until the next admission changes the nodes.

Single-writer contract: one training loop mutates the graph; read-only
queries may run against a snapshot taken between writes.
"""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

SNAPSHOT_HEADER = "dgmem-graph-v1"
# Bound of the nearest-node table (about 1 MB): a noise-free training round
# meets a few hundred (feature, pose) pairs between admissions.
NEAREST_ENTRIES = 1 << 10


class GraphError(Exception):
    pass


class NoNodesError(GraphError):
    """Raised by queries that need at least one node."""


class UnknownNodeError(GraphError):
    pass


class SnapshotError(GraphError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class Node:
    id: int
    feature: np.ndarray
    pose: np.ndarray
    count: int
    semantic: float
    capture_step: int


@dataclass
class Edge:
    i: int  # canonical order i < j
    j: int
    count: int
    actions: List[int]
    direction: str  # "ij" if actions run i -> j, "ji" otherwise
    # Per-step (feature, pose) before each action, kept in memory for
    # imitation batches; not serialized.
    samples: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def terminal(self) -> int:
        return self.j if self.direction == "ij" else self.i


class GraphMemory:
    def __init__(self, d_c: float = 1.5, d_s: float = -0.85, d_e: float = 1.0,
                 alpha_sim: float = 1.0, d_locate: Optional[float] = None,
                 traj_cap: int = 64):
        self.d_c = float(d_c)
        self.d_s = float(d_s)
        self.d_e = float(d_e)
        self.alpha_sim = float(alpha_sim)
        self.d_p = self.d_e + self.alpha_sim * self.d_s
        self.d_locate = float(d_locate) if d_locate is not None else 0.5 * self.d_p
        self.traj_cap = int(traj_cap)

        self.nodes: Dict[int, Node] = {}
        self.edges: Dict[Tuple[int, int], Edge] = {}
        self.current: Optional[int] = None
        # True spawn pose of the training episode; evaluation harness only.
        self.origin: Optional[Tuple[float, float, float]] = None

        self._features = np.zeros((0, 0))  # row i is node i
        self._poses = np.zeros((0, 3))
        self._adj: Dict[int, List[int]] = {}
        self._pending: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self._pending_overflow = False
        self._prev_obs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._last_node: Optional[int] = None
        self._nearest: Dict[Tuple[bytes, bytes], tuple] = {}
        # Bumped whenever topology (nodes / edge set) changes; lets callers
        # cache BFS distance maps.
        self.topology_version = 0

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def poses(self) -> np.ndarray:
        """Read-only node poses; row i is node i."""
        view = self._poses.view()
        view.flags.writeable = False
        return view

    def scores(self, feature: np.ndarray, pose: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pose distance, negative cosine and combined score to every node.

        Entry i belongs to node i. The combined score
        ``d_pose + alpha_sim * d_vis`` is the one rule that localizes an
        observation on the graph.
        """
        if not self.nodes:
            raise NoNodesError("graph has no nodes")
        diff = self._poses - np.asarray(pose, float)
        d_pose = np.sqrt((diff * diff).sum(axis=1))
        d_vis = -(self._features @ np.asarray(feature, float))
        return d_pose, d_vis, d_pose + self.alpha_sim * d_vis

    def similarity(self, feature: np.ndarray,
                   pose: np.ndarray) -> Tuple[float, float, int]:
        """(min pose distance, min negative cosine, combined-score argmin id)."""
        return self._near(feature, pose)[:3]

    def _near(self, feature: np.ndarray,
              pose: np.ndarray) -> Tuple[float, float, int, float]:
        """``similarity`` and the argmin's combined score, kept by the
        (feature, pose) bytes until the next admission."""
        feature, pose = np.asarray(feature, float), np.asarray(pose, float)
        key = (feature.tobytes(), pose.tobytes())
        near = self._nearest.get(key)
        if near is None:
            d_pose, d_vis, combined = self.scores(feature, pose)
            node_id = int(np.argmin(combined))
            near = (float(d_pose.min()), float(d_vis.min()), node_id,
                    float(combined[node_id]))
            if len(self._nearest) < NEAREST_ENTRIES:
                self._nearest[key] = near
        return near

    # -- node / edge iteration ----------------------------------------------

    def try_add_node(self, feature: np.ndarray, pose: np.ndarray,
                     semantic: float, step: int = 0) -> Optional[int]:
        """Admit an observation as a node if it is semantic and novel enough.

        The admitted node becomes the current localization with visit count 1.
        """
        if semantic < self.d_c:
            return None
        if self.nodes:
            ce, cs, _ = self.similarity(feature, pose)
            if ce + self.alpha_sim * cs < self.d_p:
                return None
        self._nearest.clear()
        node_id = len(self.nodes)
        feature = np.asarray(feature, float).copy()
        pose = np.asarray(pose, float).copy()
        self.nodes[node_id] = Node(node_id, feature, pose, 1, float(semantic),
                                   int(step))
        if self._features.size == 0:
            self._features = feature[None, :]
        else:
            self._features = np.vstack([self._features, feature[None, :]])
        self._poses = np.vstack([self._poses, pose[None, :]])
        self._adj[node_id] = []
        self.current = node_id
        self.topology_version += 1
        return node_id

    def localize(self, feature: np.ndarray, pose: np.ndarray,
                 count: bool = True) -> int:
        """Update the current node if some node is close enough, and return it.

        The visit count increments only on localization changes, never with
        ``count=False``, so dwelling at a node does not inflate its count.
        """
        _, _, node_id, score = self._near(feature, pose)
        if score < self.d_locate:
            if count and node_id != self.current:
                self.nodes[node_id].count += 1
            self.current = node_id
        return self.current

    def record_transition(self, action: int, feature: np.ndarray,
                          pose: np.ndarray) -> Optional[Tuple[int, int]]:
        """Append one step and, on a localization change, update the edge.

        Call once per environment step, after localize/try_add_node. Returns
        the (u, w) transition when an edge was created or refreshed.
        """
        if self._prev_obs is None:
            self._prev_obs = (np.asarray(feature, float).copy(),
                              np.asarray(pose, float).copy())
        if len(self._pending) <= self.traj_cap:
            self._pending.append(
                (int(action), self._prev_obs[0], self._prev_obs[1]))
        else:
            self._pending_overflow = True
        self._prev_obs = (np.asarray(feature, float).copy(),
                          np.asarray(pose, float).copy())

        u, w = self._last_node, self.current
        self._last_node = self.current
        if u is None or w is None or u == w:
            if u != w:
                self._clear_pending()  # first localization, nothing to attach
            return None
        pending = self._pending
        overflow = self._pending_overflow or len(pending) > self.traj_cap
        self._clear_pending()
        if overflow:
            # Too long to count as a direct transition between the two nodes.
            return None
        actions = [a for a, _, _ in pending]
        samples = [(f, p) for _, f, p in pending]
        i, j = (u, w) if u < w else (w, u)
        direction = "ij" if u == i else "ji"
        edge = self.edges.get((i, j))
        if edge is None:
            self.edges[(i, j)] = Edge(i, j, 1, actions, direction, samples)
            self._adj[i].append(j)
            self._adj[j].append(i)
            self._adj[i].sort()
            self._adj[j].sort()
            self.topology_version += 1
        else:
            edge.count += 1
            if len(actions) < len(edge.actions):
                edge.actions = actions
                edge.direction = direction
                edge.samples = samples
        return (u, w)

    def _clear_pending(self) -> None:
        self._pending = []
        self._pending_overflow = False

    def break_trajectory(self) -> None:
        """Drop the pending buffer, e.g. across an episode respawn."""
        self._clear_pending()
        self._prev_obs = None
        self._last_node = self.current

    def prune_edges(self, min_count: int) -> List[Edge]:
        """Drop low-count edges, except where removal would disconnect nodes."""
        removed = []
        candidates = sorted(
            (e for e in self.edges.values() if e.count < min_count),
            key=lambda e: (e.count, e.i, e.j))
        for edge in candidates:
            self._adj[edge.i].remove(edge.j)
            self._adj[edge.j].remove(edge.i)
            if self._reachable(edge.i, edge.j):
                del self.edges[(edge.i, edge.j)]
                removed.append(edge)
                self.topology_version += 1
            else:
                self._adj[edge.i].append(edge.j)
                self._adj[edge.j].append(edge.i)
                self._adj[edge.i].sort()
                self._adj[edge.j].sort()
        return removed

    def _reachable(self, u: int, v: int) -> bool:
        if u == v:
            return True
        seen = {u}
        stack = [u]
        while stack:
            n = stack.pop()
            for m in self._adj[n]:
                if m == v:
                    return True
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False

    # -- goal sampling --------------------------------------------------------

    def goal_probs(self, gamma: float) -> Tuple[List[int], np.ndarray]:
        """Softmax over negative visit counts (max-shifted for stability)."""
        if not self.nodes:
            raise NoNodesError("graph has no nodes")
        ids = sorted(self.nodes)
        logits = np.array([-gamma * self.nodes[i].count for i in ids])
        logits -= logits.max()
        p = np.exp(logits)
        return ids, p / p.sum()

    def sample_goal(self, gamma: float, rng: np.random.Generator) -> int:
        if gamma <= 0:
            raise ValueError("temperature must be positive")
        ids, p = self.goal_probs(gamma)
        return ids[int(rng.choice(len(ids), p=p))]

    # -- planning -------------------------------------------------------------

    def _check_id(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise UnknownNodeError(f"unknown node {node_id}")

    def shortest_path(self, src: int, dst: int) -> List[int]:
        """Minimum-hop path by BFS, expanding lowest-id neighbors first.

        Empty list signals that dst is unreachable from src.
        """
        self._check_id(src)
        self._check_id(dst)
        if src == dst:
            return [src]
        parent = {src: src}
        queue = deque([src])
        while queue:
            n = queue.popleft()
            for m in self._adj[n]:
                if m in parent:
                    continue
                parent[m] = n
                if m == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                queue.append(m)
        return []

    def weighted_tree(self, src: int,
                      stop: Optional[int] = None) -> Dict[int, int]:
        """Minimum total stored-trajectory-length tree from src (Dijkstra).

        Maps every node reachable from src to its parent on its cheapest
        path, and src to itself. Hop count alone favours metrically long
        edges; weighting each edge by the length of its recorded action
        trajectory yields routes whose individual legs stay short enough to
        execute reliably. Ties break toward fewer hops, then lowest node ids.
        (cost, hops) grows along every edge, so a node's parent is final once
        it is settled: the walk up the tree to any node equals a search that
        stops at that node. With ``stop`` the search ends once that node is
        settled; only the walk up from it is then final. A full tree costs
        about twice an early stop at an average node.
        """
        self._check_id(src)
        best = {src: (0, 0)}  # node -> (cost, hops)
        parent = {src: src}
        heap = [(0, 0, src)]
        while heap:
            cost, hops, n = heapq.heappop(heap)
            if (cost, hops) > best[n]:
                continue
            if n == stop:
                break
            for m in self._adj[n]:
                key = (n, m) if n < m else (m, n)
                cand = (cost + len(self.edges[key].actions), hops + 1)
                if m not in best or cand < best[m]:
                    best[m] = cand
                    parent[m] = n
                    heapq.heappush(heap, (cand[0], cand[1], m))
        return parent

    def weighted_path(self, src: int, dst: int) -> List[int]:
        """Minimum total stored-trajectory-length path: the walk from dst up
        ``weighted_tree(src, stop=dst)``. Empty list when dst is unreachable
        from src.
        """
        self._check_id(src)
        self._check_id(dst)
        return tree_path(self.weighted_tree(src, stop=dst), dst)

    def distances_from(self, src: int) -> Dict[int, int]:
        """BFS hop counts from src to every reachable node."""
        self._check_id(src)
        dist = {src: 0}
        queue = deque([src])
        while queue:
            n = queue.popleft()
            for m in self._adj[n]:
                if m not in dist:
                    dist[m] = dist[n] + 1
                    queue.append(m)
        return dist

    # -- serialization ---------------------------------------------------------

    def snapshot(self) -> str:
        doc = {
            "thresholds": {
                "d_c": self.d_c, "d_s": self.d_s, "d_e": self.d_e,
                "alpha_sim": self.alpha_sim, "d_locate": self.d_locate,
                "traj_cap": self.traj_cap,
            },
            "origin": list(self.origin) if self.origin is not None else None,
            "current": self.current,
            "nodes": [
                {
                    "id": n.id,
                    "pose": [float(v) for v in n.pose],
                    "count": n.count,
                    "semantic": n.semantic,
                    "step": n.capture_step,
                    "feature": [float(v) for v in n.feature],
                }
                for n in (self.nodes[i] for i in sorted(self.nodes))
            ],
            "edges": [
                {
                    "i": e.i, "j": e.j, "count": e.count,
                    "actions": list(e.actions), "direction": e.direction,
                }
                for e in (self.edges[k] for k in sorted(self.edges))
            ],
        }
        return SNAPSHOT_HEADER + "\n" + json.dumps(doc) + "\n"

    @classmethod
    def restore(cls, text: str) -> "GraphMemory":
        """Rebuild a graph from snapshot text; never mutates on failure.

        Node ids must be exactly 0..n-1 in order, poses and the origin 3
        finite numbers, features finite vectors of one length, edges
        distinct (i, j) node pairs with i < j and direction "ij" or "ji",
        and ``current`` None or a node id; anything else raises
        SnapshotError.
        """
        header, sep, body = text.partition("\n")
        if header.strip() != SNAPSHOT_HEADER or not sep:
            raise SnapshotError(f"bad snapshot header {header[:32]!r}", 0)
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"malformed snapshot: {exc.msg}",
                                len(header) + 1 + exc.pos) from exc
        except RecursionError as exc:
            raise SnapshotError("snapshot nests too deeply",
                                len(header) + 1) from exc
        try:
            th = doc["thresholds"]
            graph = cls(d_c=th["d_c"], d_s=th["d_s"], d_e=th["d_e"],
                        alpha_sim=th["alpha_sim"], d_locate=th["d_locate"],
                        traj_cap=th["traj_cap"])
            if doc.get("origin") is not None:
                graph.origin = tuple(float(v) for v in doc["origin"])
                if (len(graph.origin) != 3
                        or not np.isfinite(graph.origin).all()):
                    raise SnapshotError(f"origin {doc['origin']!r} is not 3 "
                                        f"finite numbers")
            for rec in doc["nodes"]:
                node = Node(int(rec["id"]), np.array(rec["feature"], float),
                            np.array(rec["pose"], float), int(rec["count"]),
                            float(rec["semantic"]), int(rec.get("step", 0)))
                if node.id != len(graph.nodes):
                    raise SnapshotError(f"node id {node.id} where "
                                        f"{len(graph.nodes)} was expected")
                if node.pose.shape != (3,) or not np.isfinite(node.pose).all():
                    raise SnapshotError(f"node {node.id} pose {rec['pose']!r}"
                                        f" is not 3 finite numbers")
                first = graph.nodes.get(0, node)
                if (node.feature.ndim != 1 or node.feature.size == 0
                        or node.feature.shape != first.feature.shape
                        or not np.isfinite(node.feature).all()):
                    raise SnapshotError(f"node {node.id} feature is not a "
                                        f"finite vector of the nodes' length")
                graph.nodes[node.id] = node
                graph._adj[node.id] = []
            if graph.nodes:
                nodes = graph.nodes.values()
                graph._features = np.stack([n.feature for n in nodes])
                graph._poses = np.stack([n.pose for n in nodes])
            for rec in doc["edges"]:
                i, j = int(rec["i"]), int(rec["j"])
                if i not in graph.nodes or j not in graph.nodes:
                    raise SnapshotError(f"edge ({i},{j}) references missing node")
                if i >= j or (i, j) in graph.edges:
                    raise SnapshotError(f"edge ({i},{j}) is not a new pair "
                                        f"of nodes in canonical order")
                if rec["direction"] not in ("ij", "ji"):
                    raise SnapshotError(f"edge ({i},{j}) has direction "
                                        f"{rec['direction']!r}")
                graph.edges[(i, j)] = Edge(i, j, int(rec["count"]),
                                           [int(a) for a in rec["actions"]],
                                           rec["direction"])
                graph._adj[i].append(j)
                graph._adj[j].append(i)
            for adj in graph._adj.values():
                adj.sort()
            current = doc.get("current")
            if current is not None and current not in graph.nodes:
                raise SnapshotError(f"current node {current!r} is not a node")
            graph.current = graph._last_node = (
                None if current is None else int(current))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        return graph


def tree_path(parent: Dict[int, int], dst: int) -> List[int]:
    """Path from the root of a ``weighted_tree`` parent map to dst, or the
    empty list when dst is not in the tree."""
    if dst not in parent:
        return []
    path = [dst]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]

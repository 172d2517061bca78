import heapq
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmem import graph as graph_mod
from dgmem.encoder import semantic_score
from dgmem.graph import (GraphMemory, NoNodesError, SnapshotError,
                         UnknownNodeError, tree_path)
from dgmem.gridworld import AgentState


def unit(dim, idx):
    v = np.zeros(dim)
    v[idx % dim] = 1.0
    return v


def make_graph(**kw):
    return GraphMemory(**kw)


def seeded_graph(n=4, dim=16):
    """Well-separated nodes 0..n-1 at poses (4i, 0, 0)."""
    g = make_graph()
    for i in range(n):
        nid = g.try_add_node(unit(dim, i), np.array([4.0 * i, 0.0, 0.0]), 5.0)
        assert nid == i
    return g


class TestAdmission:
    def test_semantic_gate(self):
        g = make_graph(d_c=1.5)
        assert g.try_add_node(unit(8, 0), np.zeros(3), 1.0) is None
        assert g.try_add_node(unit(8, 0), np.zeros(3), 1.5) == 0

    def test_duplicate_rejected(self):
        g = make_graph()
        g.try_add_node(unit(8, 0), np.zeros(3), 5.0)
        assert g.try_add_node(unit(8, 0), np.zeros(3), 5.0) is None

    def test_distant_accepted(self):
        g = make_graph()
        g.try_add_node(unit(8, 0), np.zeros(3), 5.0)
        assert g.try_add_node(unit(8, 1), np.array([5.0, 0, 0]), 5.0) == 1

    def test_admission_uses_separate_minima(self):
        # node A: same pose, orthogonal feature. node B: far pose, same
        # feature. The pose minimum comes from A and the visual minimum from
        # B, so the combined separate-minima score can reject a candidate
        # that every single node would individually admit.
        g = make_graph()
        f = unit(8, 0)
        g.try_add_node(f, np.zeros(3), 5.0)                    # A
        g.try_add_node(unit(8, 1), np.array([9.0, 0, 0]), 5.0)  # B
        cand_f, cand_p = unit(8, 1), np.array([0.5, 0, 0])
        ce, cs, _ = g.similarity(cand_f, cand_p)
        assert ce == pytest.approx(0.5)   # pose min from A
        assert cs == pytest.approx(-1.0)  # visual min from B
        assert ce + g.alpha_sim * cs < g.d_p
        assert g.try_add_node(cand_f, cand_p, 5.0) is None

    def test_admitted_node_becomes_current_with_count_one(self):
        g = seeded_graph(3)
        assert g.current == 2
        assert g.nodes[2].count == 1

    def test_admission_matches_rule_oracle_on_random_stream(self, rng):
        g = make_graph()
        accepted = 0
        for _ in range(300):
            f = rng.standard_normal(16)
            f /= np.linalg.norm(f)
            p = np.append(rng.uniform(0, 20, 2), 0.0)
            sem = float(rng.uniform(0, 4))
            if g.nodes:
                ce, cs, _ = g.similarity(f, p)
                expect = sem >= g.d_c and ce + g.alpha_sim * cs >= g.d_p
            else:
                expect = sem >= g.d_c
            got = g.try_add_node(f, p, sem)
            assert (got is not None) == expect
            accepted += got is not None
        assert accepted > 0


class TestNearestNodeMemo:
    def test_memoised_query_is_recomputed_after_admission(self, monkeypatch):
        """A repeated (feature, pose) is scored once per node set: the next
        admission drops the kept answers."""
        g = make_graph()
        g.try_add_node(unit(8, 0), np.zeros(3), 5.0)
        calls = []
        scores = GraphMemory.scores
        monkeypatch.setattr(GraphMemory, "scores", lambda graph, f, p:
                            calls.append(1) or scores(graph, f, p))
        f, p = unit(8, 1), np.array([5.0, 0.0, 0.0])
        assert g.similarity(f, p) == (5.0, 0.0, 0)
        assert g.localize(f, p) == 0 and len(calls) == 1
        assert g.try_add_node(f, p, 5.0) == 1
        assert g.similarity(f, p) == (0.0, -1.0, 1) and len(calls) == 2
        assert g.localize(unit(8, 0), np.zeros(3)) == 0 and len(calls) == 3

    def test_table_is_bounded(self, rng, monkeypatch):
        """Past its bound the table takes no entries; answers stay those of
        a fresh query."""
        monkeypatch.setattr(graph_mod, "NEAREST_ENTRIES", 4)
        g = seeded_graph(3, dim=8)
        for _ in range(2):
            for pose in rng.uniform(0, 10, (10, 3)):
                d_pose, d_vis, combined = g.scores(unit(8, 1), pose)
                assert g.similarity(unit(8, 1), pose) == (
                    d_pose.min(), d_vis.min(), np.argmin(combined))
        assert len(g._nearest) == 4


class TestLocalization:
    def test_requires_nodes(self):
        with pytest.raises(NoNodesError):
            make_graph().localize(unit(8, 0), np.zeros(3))

    def test_snaps_to_exact_node(self):
        g = seeded_graph()
        assert g.localize(unit(16, 1), np.array([4.0, 0, 0])) == 1

    def test_far_observation_keeps_current(self):
        g = seeded_graph()
        g.localize(unit(16, 0), np.zeros(3))
        rand = np.ones(16) / 4.0
        assert g.localize(rand, np.array([2.0, 2.0, 0.0])) == 0

    def test_count_increments_only_on_change(self):
        g = seeded_graph()
        g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        base = g.nodes[1].count
        for _ in range(5):  # dwell: no increments
            g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        assert g.nodes[1].count == base
        g.localize(unit(16, 0), np.zeros(3))
        g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        assert g.nodes[1].count == base + 1

    def test_uncounted_localization_moves_without_counting(self):
        g = seeded_graph()
        counts = [node.count for node in g.nodes.values()]
        assert g.localize(unit(16, 1), np.array([4.0, 0, 0]),
                          count=False) == 1
        assert g.current == 1
        assert [node.count for node in g.nodes.values()] == counts
        g.localize(unit(16, 2), np.array([8.0, 0, 0]))
        counts[2] += 1
        assert [node.count for node in g.nodes.values()] == counts

    def test_matches_exhaustive_scan_oracle(self, env, encoder, rng):
        # replay a random walk; localization must match a brute-force scan
        # applying the same rule over all nodes
        g = make_graph()
        state = AgentState(x=5, y=4)
        obs = env.observe(state)
        oracle_current = None
        for _ in range(400):
            feat = encoder.encode(obs.patch)
            g.try_add_node(feat, obs.pose_est, semantic_score(obs.patch))
            if g.nodes:
                best, best_id = None, None
                for nid in sorted(g.nodes):
                    n = g.nodes[nid]
                    score = (np.linalg.norm(n.pose - obs.pose_est)
                             + g.alpha_sim * -(n.feature @ feat))
                    if best is None or score < best:
                        best, best_id = score, nid
                if oracle_current is None or best < g.d_locate:
                    if best < g.d_locate or oracle_current is None:
                        oracle_current = (best_id if best < g.d_locate
                                          else oracle_current)
                if g.current is not None:
                    got = g.localize(feat, obs.pose_est)
                    if best < g.d_locate:
                        assert got == best_id
            state, obs = env.step(state, int(rng.integers(4)), rng)


class TestEdges:
    def walk(self, g, seq):
        """Feed (action, node_id or None) steps; node_id drives localize."""
        for action, node in seq:
            if node is not None:
                g.localize(unit(16, node), np.array([4.0 * node, 0.0, 0.0]))
            g.record_transition(action, unit(16, node or 0),
                                np.array([4.0 * (node or 0), 0.0, 0.0]))

    def test_edge_created_on_localization_change(self):
        g = seeded_graph()
        g.localize(unit(16, 0), np.zeros(3))
        g.record_transition(3, unit(16, 0), np.zeros(3))
        g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        g.record_transition(3, unit(16, 1), np.array([4.0, 0, 0]))
        assert (0, 1) in g.edges
        assert g.edges[(0, 1)].count == 1

    def test_count_increments_and_shorter_trajectory_wins(self):
        g = seeded_graph()

        def traverse(n_steps):
            g.localize(unit(16, 0), np.zeros(3))
            g.break_trajectory()
            for _ in range(n_steps - 1):
                g.record_transition(2, np.ones(16) / 4, np.array([2.0, 0, 0]))
            g.localize(unit(16, 1), np.array([4.0, 0, 0]))
            g.record_transition(3, unit(16, 1), np.array([4.0, 0, 0]))

        traverse(4)
        assert len(g.edges[(0, 1)].actions) == 4
        traverse(2)
        edge = g.edges[(0, 1)]
        assert edge.count == 2
        assert len(edge.actions) == 2  # strictly shorter replaced it
        traverse(3)
        assert len(g.edges[(0, 1)].actions) == 2  # longer did not

    def test_no_change_no_edge(self):
        g = seeded_graph()
        g.localize(unit(16, 0), np.zeros(3))
        g.break_trajectory()
        for _ in range(5):
            g.record_transition(1, unit(16, 0), np.zeros(3))
        assert g.num_edges == 0

    def test_overlong_trajectory_discarded(self):
        g = make_graph(traj_cap=3)
        g.try_add_node(unit(16, 0), np.zeros(3), 5.0)
        g.try_add_node(unit(16, 1), np.array([4.0, 0, 0]), 5.0)
        g.localize(unit(16, 0), np.zeros(3))
        g.break_trajectory()
        for _ in range(6):
            g.record_transition(2, np.ones(16) / 4, np.array([2.0, 0, 0]))
        g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        g.record_transition(3, unit(16, 1), np.array([4.0, 0, 0]))
        assert g.num_edges == 0

    def test_direction_tag_and_terminal(self):
        g = seeded_graph()
        g.localize(unit(16, 1), np.array([4.0, 0, 0]))
        g.break_trajectory()
        g.localize(unit(16, 0), np.zeros(3))
        g.record_transition(2, unit(16, 0), np.zeros(3))
        edge = g.edges[(0, 1)]
        assert edge.direction == "ji"
        assert edge.terminal() == 0


class TestPruning:
    def line_graph(self, n=4):
        g = seeded_graph(n)
        for a in range(n - 1):
            g.localize(unit(16, a), np.array([4.0 * a, 0, 0]))
            g.break_trajectory()
            g.localize(unit(16, a + 1), np.array([4.0 * (a + 1), 0, 0]))
            g.record_transition(3, unit(16, a + 1),
                                np.array([4.0 * (a + 1), 0, 0]))
        return g

    def test_bridge_edges_survive(self):
        g = self.line_graph()
        removed = g.prune_edges(min_count=10)
        assert removed == []
        assert g.num_edges == 3

    def test_redundant_low_count_edges_removed(self):
        g = self.line_graph(3)
        # add a redundant shortcut 0-2 with low count
        g.localize(unit(16, 0), np.zeros(3))
        g.break_trajectory()
        g.localize(unit(16, 2), np.array([8.0, 0, 0]))
        g.record_transition(3, unit(16, 2), np.array([8.0, 0, 0]))
        # bump the path edges above the threshold
        g.edges[(0, 1)].count = 5
        g.edges[(1, 2)].count = 5
        removed = g.prune_edges(min_count=3)
        assert [(e.i, e.j) for e in removed] == [(0, 2)]
        assert g.shortest_path(0, 2) == [0, 1, 2]


class TestGoalSampling:
    def test_probs_match_closed_form(self):
        g = seeded_graph(3)
        g.nodes[0].count, g.nodes[1].count, g.nodes[2].count = 1, 2, 4
        gamma = 0.7
        ids, p = g.goal_probs(gamma)
        expect = np.exp([-gamma * 1, -gamma * 2, -gamma * 4])
        expect /= expect.sum()
        assert ids == [0, 1, 2]
        assert np.allclose(p, expect)

    def test_less_visited_more_likely(self):
        g = seeded_graph(2)
        g.nodes[0].count = 10
        _, p = g.goal_probs(1.0)
        assert p[1] > p[0]

    def test_invalid_temperature(self, rng):
        g = seeded_graph(2)
        with pytest.raises(ValueError):
            g.sample_goal(0.0, rng)

    def test_empirical_frequencies_converge(self, rng):
        g = seeded_graph(3)
        g.nodes[1].count = 3
        ids, p = g.goal_probs(1.0)
        draws = np.array([g.sample_goal(1.0, rng) for _ in range(20000)])
        freq = np.array([(draws == i).mean() for i in ids])
        assert np.abs(freq - p).max() < 0.02


class TestPlanning:
    def test_path_endpoints_and_adjacency(self):
        g = TestPruning().line_graph(5)
        path = g.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert all((min(a, b), max(a, b)) in g.edges
                   for a, b in zip(path, path[1:]))

    def test_unreachable_gives_empty_path(self):
        g = seeded_graph(2)
        assert g.shortest_path(0, 1) == []

    def test_self_distance_zero(self):
        g = seeded_graph(1)
        assert g.shortest_path(0, 0) == [0]
        assert g.distances_from(0) == {0: 0}

    def test_unknown_node_rejected(self):
        g = seeded_graph(2)
        with pytest.raises(UnknownNodeError):
            g.shortest_path(0, 99)

    def test_distances_from_matches_pairwise(self):
        g = TestPruning().line_graph(5)
        dist = g.distances_from(0)
        for nid in g.nodes:
            path = g.shortest_path(0, nid)
            assert dist.get(nid) == (len(path) - 1 if path else None)


def graph_with_edges(n, lengths):
    """seeded_graph(n) plus an edge of trajectory length w per (i, j): w."""
    header, body = seeded_graph(n).snapshot().split("\n", 1)
    doc = json.loads(body)
    doc["edges"] = [{"i": i, "j": j, "count": 1, "actions": [0] * w,
                     "direction": "ij"} for (i, j), w in sorted(lengths.items())]
    return GraphMemory.restore(header + "\n" + json.dumps(doc) + "\n")


def dijkstra_cost_hops(n, lengths, src):
    """Least (trajectory length, hops) from src to every reachable node, by
    scanning for the closest unsettled node."""
    best = {src: (0, 0)}
    settled = set()
    while len(settled) < len(best):
        cost, node = min((c, v) for v, c in best.items() if v not in settled)
        settled.add(node)
        for (i, j), w in lengths.items():
            if node in (i, j):
                other = j if node == i else i
                cand = (cost[0] + w, cost[1] + 1)
                if other not in best or cand < best[other]:
                    best[other] = cand
    return best


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ws = draw(st.lists(st.one_of(st.none(), st.integers(1, 6)),
                       min_size=len(pairs), max_size=len(pairs)))
    lengths = {p: w for p, w in zip(pairs, ws) if w is not None}
    return (n, lengths, draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)))


class TestWeightedPathOracle:
    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_matches_dijkstra_over_cost_and_hops(self, case):
        n, lengths, src, dst = case
        path = graph_with_edges(n, lengths).weighted_path(src, dst)
        oracle = dijkstra_cost_hops(n, lengths, src)
        if dst not in oracle:
            assert path == []
            return
        assert path[0] == src and path[-1] == dst
        legs = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
        assert all(leg in lengths for leg in legs)
        assert (sum(lengths[leg] for leg in legs), len(legs)) == oracle[dst]


def early_exit_path(graph, src, dst):
    """Reference: the Dijkstra that stops when it pops dst, as
    ``weighted_path`` ran before it walked ``weighted_tree``."""
    if src == dst:
        return [src]
    best = {src: (0, 0)}
    parent = {src: src}
    heap = [(0, 0, src)]
    while heap:
        cost, hops, n = heapq.heappop(heap)
        if n == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        if (cost, hops) > best.get(n, (cost, hops)):
            continue
        for m in graph._adj[n]:
            key = (n, m) if n < m else (m, n)
            cand = (cost + len(graph.edges[key].actions), hops + 1)
            if m not in best or cand < best[m]:
                best[m] = cand
                parent[m] = n
                heapq.heappush(heap, (cand[0], cand[1], m))
    return []


@st.composite
def tied_graphs(draw):
    """Up to 10 nodes, each pair joined with probability about 1/3 by an
    edge of length 1 or 2 (many equal-cost routes), often in several
    disconnected parts."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ws = draw(st.lists(st.sampled_from([None, None, None, None, 1, 2]),
                       min_size=len(pairs), max_size=len(pairs)))
    return n, {p: w for p, w in zip(pairs, ws) if w is not None}


COMMITTED_GRAPH = os.path.join(os.path.dirname(__file__), "..", "benchmark",
                               "inputs", "graph.dgm")


class TestWeightedTree:
    @settings(max_examples=200, deadline=None)
    @given(tied_graphs())
    def test_walk_equals_early_exit_search(self, case):
        n, lengths = case
        graph = graph_with_edges(n, lengths)
        for src in range(n):
            tree = graph.weighted_tree(src)
            for dst in range(n):
                want = early_exit_path(graph, src, dst)
                assert tree_path(tree, dst) == want
                assert graph.weighted_path(src, dst) == want

    def test_committed_graph_all_pairs(self):
        with open(COMMITTED_GRAPH) as fh:
            text = fh.read()
        graph = GraphMemory.restore(text)
        ids = sorted(graph.nodes)
        for src in ids:
            tree = graph.weighted_tree(src)
            for dst in ids:
                want = early_exit_path(graph, src, dst)
                assert tree_path(tree, dst) == want
                assert graph.weighted_path(src, dst) == want
        assert len(ids) == 71  # 5,041 pairs
        assert graph.snapshot() == text  # read-only

    def test_tree_holds_exactly_the_reachable_nodes(self):
        graph = graph_with_edges(5, {(0, 1): 2, (1, 2): 1, (3, 4): 1})
        assert graph.weighted_tree(0) == {0: 0, 1: 0, 2: 1}
        assert graph.weighted_path(0, 4) == []
        with pytest.raises(UnknownNodeError):
            graph.weighted_tree(9)


class TestSnapshot:
    def test_round_trip_identity(self):
        g = TestPruning().line_graph(4)
        g.origin = (5.0, 4.0, 0.0)
        again = GraphMemory.restore(g.snapshot())
        assert again.snapshot() == g.snapshot()
        assert again.origin == g.origin
        assert again.num_edges == g.num_edges
        for nid in g.nodes:
            assert np.allclose(again.nodes[nid].feature, g.nodes[nid].feature)
            assert np.allclose(again.nodes[nid].pose, g.nodes[nid].pose)

    def test_restored_graph_plans_identically(self):
        g = TestPruning().line_graph(5)
        again = GraphMemory.restore(g.snapshot())
        assert again.shortest_path(0, 4) == g.shortest_path(0, 4)

    def test_bad_header_rejected_with_offset(self):
        with pytest.raises(SnapshotError) as exc:
            GraphMemory.restore("not-a-snapshot\n{}")
        assert exc.value.offset == 0

    def test_malformed_json_rejected(self):
        with pytest.raises(SnapshotError):
            GraphMemory.restore("dgmem-graph-v1\n{broken")

    def test_edge_to_missing_node_rejected(self):
        g = seeded_graph(2)
        text = g.snapshot().replace('"edges": []',
                                    '"edges": [{"i": 0, "j": 9, "count": 1, '
                                    '"actions": [0], "direction": "ij"}]')
        with pytest.raises(SnapshotError):
            GraphMemory.restore(text)

    @staticmethod
    def edited(graph, edit):
        header, body = graph.snapshot().split("\n", 1)
        doc = json.loads(body)
        edit(doc)
        return header + "\n" + json.dumps(doc) + "\n"

    def test_sparse_node_ids_rejected(self):
        def drop_node_1(doc):
            del doc["nodes"][1]
        with pytest.raises(SnapshotError, match="node id 2"):
            GraphMemory.restore(self.edited(seeded_graph(3), drop_node_1))

    def test_out_of_order_node_ids_rejected(self):
        def swap(doc):
            doc["nodes"].reverse()
        with pytest.raises(SnapshotError, match="node id 2"):
            GraphMemory.restore(self.edited(seeded_graph(3), swap))

    def test_bad_edge_direction_rejected(self):
        g = TestPruning().line_graph(3)
        def sideways(doc):
            doc["edges"][0]["direction"] = "sideways"
        with pytest.raises(SnapshotError, match="direction"):
            GraphMemory.restore(self.edited(g, sideways))

    def test_unknown_current_node_rejected(self):
        def dangle(doc):
            doc["current"] = 7
        with pytest.raises(SnapshotError, match="current"):
            GraphMemory.restore(self.edited(seeded_graph(3), dangle))

    def test_non_finite_pose_rejected(self):
        def nan_pose(doc):
            doc["nodes"][1]["pose"][0] = float("nan")
        with pytest.raises(SnapshotError, match="node 1 pose"):
            GraphMemory.restore(self.edited(seeded_graph(3), nan_pose))

    def test_two_entry_poses_rejected(self):
        def planar(doc):
            for node in doc["nodes"]:
                node["pose"] = node["pose"][:2]
        with pytest.raises(SnapshotError, match="node 0 pose"):
            GraphMemory.restore(self.edited(seeded_graph(3), planar))

    def test_non_finite_feature_rejected(self):
        def inf_feature(doc):
            doc["nodes"][2]["feature"][3] = float("inf")
        with pytest.raises(SnapshotError, match="node 2 feature"):
            GraphMemory.restore(self.edited(seeded_graph(3), inf_feature))

    def test_feature_lengths_must_agree(self):
        def short(doc):
            doc["nodes"][1]["feature"] = doc["nodes"][1]["feature"][:8]
        with pytest.raises(SnapshotError, match="node 1 feature"):
            GraphMemory.restore(self.edited(seeded_graph(3), short))

    def test_restored_ids_are_scoring_rows(self):
        g = GraphMemory.restore(seeded_graph(4).snapshot())
        assert g.current == 3
        for nid, node in g.nodes.items():
            assert np.array_equal(g.poses[nid], node.pose)
            assert g.similarity(node.feature, node.pose)[2] == nid
        assert g.try_add_node(unit(16, 9), np.array([40.0, 0, 0]), 5.0) == 4


class TestSparsityInvariant:
    def test_pairwise_separation_after_random_episode(self, env, encoder, rng):
        """After a long random walk every node pair stays separated by the
        admission margin: d_pose + alpha_sim * (-cos) >= d_p."""
        g = make_graph()
        state = AgentState(x=5, y=4)
        obs = env.observe(state)
        for _ in range(3000):
            feat = encoder.encode(obs.patch)
            if g.nodes:
                g.localize(feat, obs.pose_est)
            g.try_add_node(feat, obs.pose_est, semantic_score(obs.patch))
            state, obs = env.step(state, int(rng.integers(4)), rng)
        ids = sorted(g.nodes)
        assert len(ids) >= 2
        for a in ids:
            for b in ids:
                if a >= b:
                    continue
                na, nb = g.nodes[a], g.nodes[b]
                combined = (np.linalg.norm(na.pose - nb.pose)
                            + g.alpha_sim * -(na.feature @ nb.feature))
                assert combined >= g.d_p - 1e-9

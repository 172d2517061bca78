import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmem import cli, config as cfgmod, learner, navigator
from dgmem.encoder import PatchEncoder
from dgmem.graph import GraphMemory, NoNodesError, tree_path
from dgmem.gridworld import (CARDINAL_ACTIONS, ORIENTATION_ACTIONS,
                             AgentState, action_effect)
from dgmem.nn import ActorCritic


def unit(dim, idx):
    v = np.zeros(dim)
    v[idx % dim] = 1.0
    return v


def toy_graph(n=3, dim=128):
    g = GraphMemory()
    for i in range(n):
        g.try_add_node(unit(dim, i), np.array([4.0 * i, 0.0, 0.0]), 5.0)
    for a in range(n - 1):
        g.localize(unit(dim, a), np.array([4.0 * a, 0, 0]))
        g.break_trajectory()
        g.localize(unit(dim, a + 1), np.array([4.0 * (a + 1), 0, 0]))
        g.record_transition(3, unit(dim, a + 1),
                            np.array([4.0 * (a + 1), 0, 0]))
    return g


class TestLocalizeGoal:
    def test_goal_at_node_pose_returns_that_node(self):
        g = toy_graph()
        got = navigator.localize_goal(g, unit(128, 1),
                                      np.array([4.0, 0, 0]))
        assert got == 1

    def test_empty_graph_raises(self):
        with pytest.raises(NoNodesError):
            navigator.localize_goal(GraphMemory(),
                                    unit(128, 0), np.zeros(3))

    def test_nonfinite_pose_falls_back_to_cosine(self):
        g = toy_graph()
        got = navigator.localize_goal(g, unit(128, 2),
                                      np.array([np.nan, 0, 0]))
        assert got == 2

    def test_nearest_node_wins_between_nodes(self):
        g = toy_graph()
        got = navigator.localize_goal(g, unit(128, 1),
                                      np.array([4.6, 0, 0]))
        assert got == 1


class TestExecute:
    def test_start_at_goal_succeeds_immediately(self, env, encoder, rng):
        g = toy_graph()
        net = ActorCritic(2 * 128 + 3, 4, hidden=(8, 8), seed=0)
        state = AgentState(x=3, y=3)
        obs = env.observe(state)
        res = navigator.execute(env, state, g, net, encoder, obs, obs, rng)
        assert res.steps == 0 and res.reason == "already_at_goal"

    def test_empty_graph_fails_cleanly(self, env, encoder, rng):
        net = ActorCritic(2 * 128 + 3, 4, hidden=(8, 8), seed=0)
        state = AgentState(x=3, y=3)
        start = env.observe(state)
        goal = env.observation_at(10, 4, np.array([7.0, 1.0, 0.0]))
        res = navigator.execute(env, state, GraphMemory(), net, encoder,
                                start, goal, rng)
        assert res.reason == "empty_graph"

    def test_disconnected_goal_reports_unreachable(self, env, encoder, rng):
        g = toy_graph(2)
        # disconnect: the only edge links 0-1; add isolated node 2
        g.try_add_node(unit(128, 9), np.array([40.0, 0, 0]), 5.0)
        net = ActorCritic(2 * 128 + 3, 4, hidden=(8, 8), seed=0)
        state = AgentState(x=3, y=3,
                           pose_est=np.array([0.0, 0.0, 0.0]))
        start = env.observe(state)
        goal = env.observation_at(18, 14, np.array([40.0, 0.0, 0.0]))
        res = navigator.execute(env, state, g, net, encoder, start, goal, rng)
        assert res.reason == "unreachable"

    def test_budget_exhaustion_is_bounded(self, env, encoder, rng):
        """An untrained policy terminates by replan exhaustion or max steps,
        never loops forever, and respects the replan cap."""
        g = toy_graph()
        net = ActorCritic(2 * 128 + 3, 4, hidden=(8, 8), seed=0)
        state = AgentState(x=2, y=2,
                           pose_est=np.array([-6.0, 0.0, 0.0]))
        start = env.observe(state)
        goal = env.observation_at(18, 14, np.array([10.0, 12.0, 0.0]))
        res = navigator.execute(env, state, g, net, encoder, start, goal,
                                rng, max_steps=120, subgoal_budget=10,
                                max_replans=2)
        assert res.steps <= 120
        assert res.replans <= 2
        assert res.reason in ("replan_exhausted", "max_steps", "unreachable")


class TestAdvanceCursor:
    def test_skips_past_satisfied_waypoints(self):
        g = toy_graph(3)
        plan = navigator.NavPlan(goal_node=2, route=[0, 1, 2])
        # observation sitting on node 1: cursor should jump past it
        q = navigator._query(g, unit(128, 1), np.array([4.0, 0, 0]))
        moved = navigator._advance_cursor(g, plan, q, 2.0)
        assert moved and plan.cursor == 2

    def test_no_advance_when_far(self):
        g = toy_graph(3)
        plan = navigator.NavPlan(goal_node=2, route=[0, 1, 2], cursor=1)
        q = navigator._query(g, np.ones(128) / np.sqrt(128),
                             np.array([100.0, 0, 0]))
        moved = navigator._advance_cursor(g, plan, q, 2.0)
        assert not moved and plan.cursor == 1


# -- per-node reference versions of the vectorised navigator queries ----------

def ref_combined_to(graph, node_id, feat, pose):
    node = graph.nodes[node_id]
    d_pose = float(np.linalg.norm(node.pose - pose))
    d_vis = -float(node.feature @ feat)
    return d_pose + graph.alpha_sim * d_vis


def ref_at_subgoal(graph, node_id, feat, pose, radius):
    if ref_combined_to(graph, node_id, feat, pose) < graph.d_locate:
        return True
    node = graph.nodes[node_id]
    return float(np.linalg.norm(node.pose[:2] - np.asarray(pose)[:2])) < radius


def ref_advance_cursor(graph, plan, feat, pose, radius):
    best = None
    for idx in range(plan.cursor, len(plan.route)):
        if ref_at_subgoal(graph, plan.route[idx], feat, pose, radius):
            best = idx
    if best is None:
        return False
    plan.cursor = best + 1
    return True


def ref_drift_correction(graph, feat, pose, radius, min_cos):
    match = None
    for node in graph.nodes.values():
        if float(np.linalg.norm(node.pose[:2] - pose[:2])) > radius:
            continue
        if float(node.feature @ feat) < min_cos:
            continue
        if match is not None:
            return None
        match = node
    if match is None:
        return None
    offset = match.pose - pose
    offset[2:] = 0.0
    return offset


def ref_goal_by_cosine(graph, goal_feat):
    ids = sorted(graph.nodes)
    sims = np.array([float(graph.nodes[i].feature @ goal_feat) for i in ids])
    return ids[int(np.argmax(sims))]


DIM = 8


def _features(rng, n, dyadic):
    """Unit features. Dyadic ones have four entries of +-1/2, so every
    cosine is exact and repeated features make exact ties; continuous ones
    are distinct random directions."""
    if dyadic:
        out = np.zeros((n, DIM))
        for row in out:
            row[rng.choice(DIM, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
        return out
    out = rng.standard_normal((n, DIM))
    return out / np.linalg.norm(out, axis=1, keepdims=True)


@st.composite
def scenes(draw):
    """A small graph, one observation near it, a route and its cursor."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dyadic = draw(st.booleans())
    # every observation is admitted: the admission margin is never met
    quarter = st.integers(-16, 16).map(lambda v: v / 4.0)
    graph = GraphMemory(d_e=-10.0, alpha_sim=draw(st.sampled_from([0.5, 1.0])),
                        d_locate=draw(st.one_of(quarter, st.floats(-1.5, 1.0))))
    palette = _features(rng, draw(st.integers(1, n)) if dyadic else n, dyadic)
    for i in range(n):
        pose = np.array([draw(quarter), draw(quarter), draw(st.integers(0, 3))],
                        float)
        graph.try_add_node(palette[i % len(palette)], pose, 5.0)
    if draw(st.booleans()):
        feat = graph.nodes[draw(st.integers(0, n - 1))].feature.copy()
    else:
        feat = _features(rng, 1, dyadic)[0]
    pose = np.array([draw(quarter), draw(quarter), 0.0])
    route = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    cursor = draw(st.integers(0, len(route)))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 8.0]))
    return graph, feat, pose, list(route), cursor, radius


class TestVectorisedMatchesReference:
    @given(scenes(), st.sampled_from([0.999, 0.5, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_drift_correction(self, scene, min_cos):
        graph, feat, pose, _, _, radius = scene
        got = navigator._drift_correction(
            graph, navigator._query(graph, feat, pose), pose, radius=radius,
            min_cos=min_cos)
        want = ref_drift_correction(graph, feat, pose, radius, min_cos)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_advance_cursor(self, scene):
        graph, feat, pose, route, cursor, radius = scene
        got = navigator.NavPlan(route[-1], list(route), cursor=cursor)
        want = navigator.NavPlan(route[-1], list(route), cursor=cursor)
        q = navigator._query(graph, feat, pose)
        assert (navigator._advance_cursor(graph, got, q, radius)
                == ref_advance_cursor(graph, want, feat, pose, radius))
        assert got.cursor == want.cursor

    @given(scenes(), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_advance_cursor_on_one_query_with_two_radii(self, scene, other):
        """The query keeps the flags of the radius it last served; a second
        radius and a return to the first recompute them."""
        graph, feat, pose, route, cursor, radius = scene
        q = navigator._query(graph, feat, pose)
        for r in (radius, other, radius):
            got = navigator.NavPlan(route[-1], list(route), cursor=cursor)
            want = navigator.NavPlan(route[-1], list(route), cursor=cursor)
            assert (navigator._advance_cursor(graph, got, q, r)
                    == ref_advance_cursor(graph, want, feat, pose, r))
            assert got.cursor == want.cursor
        assert q.radius == radius

    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_goal_fallback_by_cosine(self, scene):
        graph, feat, _, _, _, _ = scene
        got = navigator.localize_goal(graph, feat, np.array([np.nan, 0, 0]))
        assert got == ref_goal_by_cosine(graph, feat)


def ref_select_action(probs, pose, variant, visits, blocked,
                      revisit_penalty):
    """``_select_action`` computing its next cells from the pose."""
    actions = CARDINAL_ACTIONS if variant == "cardinal" else ORIENTATION_ACTIONS
    heading = int(round(float(pose[2]))) % 4
    moves = [action_effect(variant, a, heading)[:2] for a in actions]
    if len(probs) > len(moves):
        raise ValueError("too many probabilities")
    cell = (round(float(pose[0]), 1), round(float(pose[1]), 1))
    tried = blocked.get(cell, ())
    best, best_score = 0, None
    for action in range(len(probs)):
        dx, dy = moves[action]
        nxt = (round(cell[0] + dx, 1), round(cell[1] + dy, 1))
        score = probs[action] - revisit_penalty * visits.get(nxt, 0)
        if action in tried:
            score -= 10.0
        if best_score is None or score > best_score:
            best, best_score = action, score
    return best


@st.composite
def action_cases(draw):
    """Probabilities (with ties), an integral or noisy pose, visit counts on
    the cells around it and blocked moves from its cell."""
    variant = draw(st.sampled_from(["cardinal", "orientation"]))
    n = len(CARDINAL_ACTIONS if variant == "cardinal" else ORIENTATION_ACTIONS)
    probs = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                                    st.floats(0.0, 1.0)),
                          min_size=1, max_size=n + 1))
    if draw(st.booleans()):
        pose = np.array([draw(st.integers(-5, 5)) for _ in range(3)], float)
    else:
        pose = np.array([draw(st.floats(-6.0, 6.0)) for _ in range(3)])
    cell = (round(float(pose[0]), 1), round(float(pose[1]), 1))
    near = [(round(cell[0] + dx, 1), round(cell[1] + dy, 1))
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    visits = {c: draw(st.integers(0, 3)) for c in near if draw(st.booleans())}
    blocked = {}
    if draw(st.booleans()):
        blocked[cell] = set(draw(st.lists(st.integers(0, n - 1))))
    penalty = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return probs, pose, variant, visits, blocked, penalty


class TestSelectActionMatchesReference:
    @given(action_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case):
        """Given the predicted next cells of its pose and variant,
        ``_select_action`` picks the reference's action."""
        probs, pose, variant, visits, blocked, penalty = case
        cell = navigator._pose_cell(pose)
        nbrs = fresh_neighbours(cell, variant, pose)
        try:
            want = ref_select_action(probs, pose, variant, visits, blocked,
                                     penalty)
        except ValueError:
            with pytest.raises(ValueError):
                navigator._select_action(probs, nbrs, visits, blocked,
                                         penalty, cell)
            return
        assert navigator._select_action(probs, nbrs, visits, blocked,
                                        penalty, cell) == want


def fresh_neighbours(cell, variant, pose):
    """The cell each action of ``variant`` is predicted to reach from
    ``cell`` at the heading of ``pose``."""
    heading = int(round(float(pose[2]))) % 4
    actions = CARDINAL_ACTIONS if variant == "cardinal" else ORIENTATION_ACTIONS
    return tuple((round(cell[0] + dx, 1), round(cell[1] + dy, 1))
                 for dx, dy, _ in (action_effect(variant, a, heading)
                                   for a in actions))


# -- the evaluation memo ------------------------------------------------------

INPUTS = os.path.join(os.path.dirname(__file__), "..", "benchmark", "inputs")


def train_briefly(overrides):
    """(cfg, graph, net, encoder) after a short training run."""
    cfg = cfgmod.make_config({"seed": 0, "learner.total_steps": 1000,
                              **overrides})
    graph = cli.build_graph(cfg)
    enc = cli.build_encoder(cfg)
    result = learner.training_loop(cli.build_env(cfg), graph, enc, cfg)
    return cfg, graph, result.net, enc


@pytest.fixture(scope="module", params=["four_rooms", "maze"])
def trained(request):
    """(cfg, graph, net, encoder) after a short training run on one map."""
    return train_briefly({"env.map": request.param})


@pytest.fixture(scope="module")
def trained_orientation():
    """``trained`` on FourRooms under the orientation variant."""
    return train_briefly({"env.variant": "orientation"})


@pytest.fixture(scope="module")
def committed():
    """(env, graph, net, encoder) of the committed benchmark inputs."""
    cfg = cfgmod.make_config()
    with open(os.path.join(INPUTS, "graph.dgm")) as fh:
        graph = GraphMemory.restore(fh.read())
    return (cli.build_env(cfg), graph,
            learner.load_checkpoint(os.path.join(INPUTS, "checkpoint.ckpt")),
            cli.build_encoder(cfg))


def run_episodes(env, graph, net, enc, pairs, seed, memo_for, max_steps=60,
                 subgoal_budget=15, start_offset=0.0):
    """Episodes set up as ``cli.run_eval`` sets them up, in order, on one
    rng, but with each start pose estimate ``start_offset`` off along x;
    ``memo_for()`` gives each episode's memo."""
    ox, oy = graph.origin[0], graph.origin[1]
    rng = np.random.default_rng(seed)
    results = []
    for (sx, sy), (gx, gy) in pairs:
        state = AgentState(x=sx, y=sy, pose_est=np.array(
            [sx - ox + start_offset, sy - oy, 0.0]))
        goal_obs = env.observation_at(gx, gy, np.array([gx - ox, gy - oy,
                                                        0.0]))
        results.append(navigator.execute(
            env, state, graph, net, enc, env.observe(state), goal_obs, rng,
            max_steps=max_steps, subgoal_budget=subgoal_budget,
            memo=memo_for()))
    return results


def outcome(res):
    final = res.final_state
    return (res.steps, res.reason, res.replans, final.x, final.y,
            final.heading, final.pose_est.tobytes())


def as_view(view_bytes, patch_like):
    return np.frombuffer(view_bytes, patch_like.dtype).reshape(
        patch_like.shape)


def fresh_probs(view, pose, leg, graph, blocks, enc, patch_like):
    """The action probabilities of a situation's view feature and pose on a
    leg (a route node, or the goal's (view bytes, pose bytes)), by the
    block formula with every block product computed afresh."""
    if isinstance(leg, tuple):
        goal_view, goal_pose = leg
        target = enc.encode(as_view(goal_view, patch_like))
        target_pose = np.frombuffer(goal_pose, float)
    else:
        target, target_pose = graph.nodes[leg].feature, graph.nodes[leg].pose
    return blocks.probs(view @ blocks.view, target @ blocks.target,
                        target_pose - pose)


def target_feature(target, graph, enc, patch_like):
    """The feature of a target: a route node, or on the final leg the goal
    view, given by its bytes."""
    if isinstance(target, bytes):
        return enc.encode(as_view(target, patch_like))
    return graph.nodes[target].feature


SMALL_BOUNDS = {"QUERY_ENTRIES": 64, "ROUTE_ENTRIES": 8, "VIEW_ENTRIES": 16,
                "TARGET_ENTRIES": 8, "GOAL_ENTRIES": 2}
TABLES = {"query": "QUERY_ENTRIES", "route": "ROUTE_ENTRIES",
          "views": "VIEW_ENTRIES", "targets": "TARGET_ENTRIES",
          "goals": "GOAL_ENTRIES"}


def entry_counts(memo):
    """Entries of each table, and the policy, drift, next-cell and arrival
    answers kept on the query entries."""
    counts = {table: len(getattr(memo, table)) for table in TABLES}
    entries = memo.query.values()
    counts["policy"] = sum(len(q.policy) for q in entries)
    counts["drift"] = sum(len(q.drift) for q in entries)
    counts["nbrs"] = sum(q.nbrs is not None for q in entries)
    counts["arrived"] = sum(len(q.arrived) for q in entries)
    return counts


def check_shared_memo(trained, noise, bounds, data):
    """One memo shared by every episode gives the results of a fresh memo
    per episode and of a memo that keeps nothing, and each of its entries
    equals a fresh computation: the graph query with its pose cell,
    subgoal flags, drift answers (whether a node matched, and the offset
    when it moves the pose), predicted next cells, arrival verdicts and the
    policy's block formula with fresh block products on each leg; the
    weighted route to every destination, a view's feature and block
    product, a target's block product and a goal's node. Every table stays
    within its bound. Start pose estimates are on their cell or 3 cells
    off, so that drift fixes also move the pose."""
    cfg, graph, net, enc = trained
    env = cli.build_env(cfg, noise=noise)
    cells = env.grid.free_cells()
    cell = st.sampled_from(cells)
    pairs = data.draw(st.lists(st.tuples(cell, cell), min_size=1,
                               max_size=6))
    seed = data.draw(st.integers(0, 2 ** 16))
    # a start pose estimate 3 cells off makes drift fixes move the pose
    offset = data.draw(st.sampled_from([0.0, 3.0]))
    shared = navigator.Memo()
    with pytest.MonkeyPatch.context() as mp:
        for name, bound in (bounds or {}).items():
            mp.setattr(navigator, name, bound)
        got = run_episodes(env, graph, net, enc, pairs, seed, lambda: shared,
                           start_offset=offset)
        want = run_episodes(env, graph, net, enc, pairs, seed, navigator.Memo,
                            start_offset=offset)
        limits = {table: getattr(navigator, name)
                  for table, name in TABLES.items()}
        for name in TABLES.values():
            mp.setattr(navigator, name, 0)  # nothing kept: all fresh
        uncached = run_episodes(env, graph, net, enc, pairs, seed,
                                navigator.Memo, start_offset=offset)
    assert [outcome(r) for r in got] == [outcome(r) for r in want]
    assert [outcome(r) for r in got] == [outcome(r) for r in uncached]
    for table, limit in limits.items():
        assert len(getattr(shared, table)) <= limit, table
    patch_like = env.observe(env.spawn(np.random.default_rng(0))).patch
    blocks = learner.PolicyBlocks(net)
    for key, (feat, part) in shared.views.items():
        fresh = enc.encode(as_view(key, patch_like))
        assert np.array_equal(feat, fresh)
        assert np.array_equal(part, fresh @ blocks.view)
    for target, part in shared.targets.items():
        assert np.array_equal(part, target_feature(
            target, graph, enc, patch_like) @ blocks.target)
    for (view, pose), node in shared.goals.items():
        assert node == navigator.localize_goal(
            graph, enc.encode(as_view(view, patch_like)),
            np.frombuffer(pose, float))
    for (view_bytes, pose_bytes), q in shared.query.items():
        view = enc.encode(as_view(view_bytes, patch_like))
        pose = np.frombuffer(pose_bytes, float)
        fresh = navigator._query(graph, view, pose)
        assert q.nearest == fresh.nearest
        assert q.cell == navigator._pose_cell(pose)
        for column in ("combined", "d_vis", "planar"):
            assert np.array_equal(getattr(q, column), getattr(fresh, column))
        if q.radius is not None:  # served by _advance_cursor
            assert q.satisfied == [
                bool(c < graph.d_locate or p < q.radius)
                for c, p in zip(fresh.combined, fresh.planar)]
        for radius, (matched, offset) in q.drift.items():
            want = navigator._drift_correction(graph, fresh, pose,
                                               radius=radius)
            assert matched == (want is not None)
            assert (offset is not None) == bool(matched and want.any())
            assert offset is None or np.array_equal(offset, want)
        for (goal_view, goal_pose, radius), verdict in q.arrived.items():
            assert verdict == navigator._at_goal(
                view, pose, enc.encode(as_view(goal_view, patch_like)),
                np.frombuffer(goal_pose, float), radius)
        if q.nbrs is not None:
            assert q.nbrs == fresh_neighbours(navigator._pose_cell(pose),
                                              env.variant, pose)
        for leg, probs in q.policy.items():
            assert np.array_equal(probs, fresh_probs(
                view, pose, leg, graph, blocks, enc, patch_like))
    for src, tree in shared.route.items():
        for dst in graph.nodes:
            assert tree_path(tree, dst) == graph.weighted_path(src, dst)


class TestPolicyMemo:
    # ids: noise, then the query bound (None: the module's bounds)
    @pytest.mark.parametrize("noise, bounds", [
        pytest.param(0.0, None, id="0.0-None"),
        pytest.param(0.0, SMALL_BOUNDS, id="0.0-64"),
        pytest.param(0.2, SMALL_BOUNDS, id="0.2-64")])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_shared_memo_matches_fresh_memos(self, trained, noise, bounds,
                                             data):
        check_shared_memo(trained, noise, bounds, data)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_shared_memo_matches_fresh_memos_orientation(
            self, trained_orientation, noise, data):
        """The heading enters through the situation's pose estimate. The
        briefly trained orientation graph may leave goals unreachable, so
        only the equalities are checked."""
        check_shared_memo(trained_orientation, noise, SMALL_BOUNDS, data)

    def test_aliased_goal_views_keep_their_own_final_leg(self, committed):
        """Goals (1, 4) and (1, 5) of FourRooms map 0 look the same, so the
        final leg's decisions depend on the goal's pose as well as its view:
        a memo shared by the episodes to both goals gives the outcomes of
        fresh memos."""
        env, graph, net, enc = committed
        assert np.array_equal(env.grid.patch(1, 4), env.grid.patch(1, 5))
        for start in ((1, 9), (1, 11)):
            for goals in (((1, 4), (1, 5)), ((1, 5), (1, 4))):
                pairs = [(start, goal) for goal in goals]
                shared = navigator.Memo()
                got = run_episodes(env, graph, net, enc, pairs, 0,
                                   lambda: shared, max_steps=200,
                                   subgoal_budget=30)
                want = run_episodes(env, graph, net, enc, pairs, 0,
                                    navigator.Memo, max_steps=200,
                                    subgoal_budget=30)
                assert ([outcome(r) for r in got]
                        == [outcome(r) for r in want]), (start, goals)
                assert [(r.final_state.x, r.final_state.y)
                        for r in got] == list(goals)

    def test_drifted_start_is_reanchored(self, committed):
        """Start pose estimates 3 cells off along x, beyond the arrival
        test's pose gate: only drift fixes that move the pose estimate,
        kept on the shared memo's entries, let most episodes arrive (52 of
        60 here; none when moving fixes are dropped or when the accumulated
        offset is not added to later poses)."""
        env, graph, net, enc = committed
        cells = env.grid.free_cells()
        draw = np.random.default_rng(5)
        pairs = [tuple(cells[int(i)] for i in draw.integers(len(cells),
                                                            size=2))
                 for _ in range(60)]
        memo = navigator.Memo()
        results = run_episodes(env, graph, net, enc, pairs, 0, lambda: memo,
                               max_steps=200, subgoal_budget=30,
                               start_offset=3.0)
        arrived = sum(r.reason == "arrived"
                      and (r.final_state.x, r.final_state.y) == goal
                      for r, (_, goal) in zip(results, pairs))
        assert arrived >= 45
        assert any(offset is not None for q in memo.query.values()
                   for _, offset in q.drift.values())

    def test_drift_offsets_accumulate_under_noise(self, committed,
                                                  monkeypatch):
        """Under odometry noise each step's pose estimate is its odometry
        plus every drift offset found earlier in its episode, summed from
        zeros: a replay of the recorded odometry and offsets gives the pose
        that each step's drift correction was asked about."""
        env, graph, net, enc = committed
        noisy = cli.build_env(cfgmod.make_config(), noise=0.3)
        odometry, asked = [], []
        step, correction = noisy.step, navigator._drift_correction

        def recording_step(state, action, rng):
            state, obs = step(state, action, rng)
            odometry.append(obs.pose_est.copy())
            return state, obs

        def recording_correction(graph, q, pose, radius=3.0):
            offset = correction(graph, q, pose, radius=radius)
            asked.append((pose.copy(), offset))
            return offset

        monkeypatch.setattr(noisy, "step", recording_step)
        monkeypatch.setattr(navigator, "_drift_correction",
                            recording_correction)
        cells = noisy.grid.free_cells()
        draw = np.random.default_rng(7)
        pairs = [tuple(cells[int(i)] for i in draw.integers(len(cells),
                                                            size=2))
                 for _ in range(20)]
        results = run_episodes(noisy, graph, net, enc, pairs, 0,
                               navigator.Memo, max_steps=200,
                               subgoal_budget=30)
        assert len(asked) == len(odometry) == sum(r.steps for r in results)
        most_fixes, start = 0, 0
        for res in results:
            corr, fixes = np.zeros(3), 0
            for odo, (pose, offset) in zip(odometry[start:start + res.steps],
                                           asked[start:start + res.steps]):
                assert np.array_equal(pose, odo + corr)
                if offset is not None:
                    corr, fixes = corr + offset, fixes + 1
            start += res.steps
            most_fixes = max(most_fixes, fixes)
        assert most_fixes >= 2

    def test_arrival_verdicts_follow_the_rule(self, committed):
        """A kept arrival verdict is ``_at_goal``'s, also where a pose cell
        far from the goal decides it without the feature test: with
        max_steps 0 an episode ends ``already_at_goal`` exactly when the
        rule accepts its start. The starts are the look-alike cells (1, 3),
        (1, 4) and (1, 5) and a far cell, with pose estimates up to 0.6 off
        their cell, around the pose gate's edge."""
        env, graph, net, enc = committed
        ox, oy = graph.origin[0], graph.origin[1]
        rng = np.random.default_rng(0)
        memo = navigator.Memo()
        shifts = (-0.6, -0.49, -0.45, -0.04, 0.0, 0.04, 0.45, 0.49, 0.6)
        accepted = set()
        for gx, gy in ((1, 3), (1, 4), (1, 5)):
            goal_pose = np.array([gx - ox, gy - oy, 0.0])
            goal_obs = env.observation_at(gx, gy, goal_pose)
            goal_feat = enc.encode(goal_obs.patch)
            for sx, sy in ((1, 3), (1, 4), (1, 5), (10, 10)):
                feat = enc.encode(env.grid.patch(sx, sy, env.patch_size))
                for dx in shifts:
                    for dy in shifts:
                        pose = np.array([sx - ox + dx, sy - oy + dy, 0.0])
                        state = AgentState(x=sx, y=sy, pose_est=pose)
                        res = navigator.execute(
                            env, state, graph, net, enc, env.observe(state),
                            goal_obs, rng, max_steps=0, memo=memo)
                        want = navigator._at_goal(feat, pose, goal_feat,
                                                  goal_pose, 1.0)
                        assert (res.reason == "already_at_goal") == want
                        if want:
                            accepted.add(abs(sy + dy - gy))
        # accepted starts reach the gate's edge (distance 2.5)
        assert max(accepted) == pytest.approx(2.49)

    def test_memo_is_reused_across_episodes(self, trained):
        cfg, graph, net, enc = trained
        env = cli.build_env(cfg, noise=0.0)
        cells = env.grid.free_cells()
        pairs = [(cells[0], cells[-1])] * 3
        memo = navigator.Memo()
        first = run_episodes(env, graph, net, enc, pairs[:1], 0, lambda: memo)
        counts = entry_counts(memo)
        again = run_episodes(env, graph, net, enc, pairs, 0, lambda: memo)
        assert all(n > 0 for n in counts.values())
        assert counts == entry_counts(memo)
        assert all(outcome(r) == outcome(first[0]) for r in again)

    def test_collisions_count_the_bumped_steps(self, committed,
                                               monkeypatch):
        """``EpisodeResult.collisions`` and ``run_eval``'s per-episode
        ``collisions`` are the steps whose observation reports a bump,
        counted here from a wrapped ``env.step``."""
        env, graph, net, enc = committed
        bumps = []
        step = env.step

        def counting_step(state, action, rng):
            state, obs = step(state, action, rng)
            bumps.append(obs.collided)
            return state, obs

        execute = navigator.execute
        results = []

        def recording_execute(*args, **kwargs):
            bumps.clear()
            result = execute(*args, **kwargs)
            assert len(bumps) == result.steps
            results.append((result.collisions, sum(bumps)))
            return result

        monkeypatch.setattr(env, "step", counting_step)
        monkeypatch.setattr(navigator, "execute", recording_execute)
        cfg = cfgmod.make_config({"eval.episodes": 40})
        report = cli.run_eval(env, graph, net, enc, cfg,
                              np.random.default_rng(1))
        assert [got for got, _ in results] == [want for _, want in results]
        assert [rec["collisions"] for rec in report.episodes] == [
            got for got, _ in results]
        assert sum(got for got, _ in results) > 0

    @pytest.mark.parametrize("bounds", [None, {"ROUTE_ENTRIES": 3,
                                               "QUERY_ENTRIES": 50}],
                             ids=["module", "small"])
    def test_tables_respect_bounds_under_noise(self, trained, bounds,
                                               monkeypatch):
        """At eval.noise 0.3 every table stays within its bound (the small
        route bound fills), the query table stays empty, the route table
        holds at most one tree per graph node, and ``run_eval`` reports the
        entry counts."""
        cfg, graph, net, enc = trained
        cfg = dict(cfg, **{"eval.noise": 0.3, "eval.episodes": 30,
                           "eval.max_steps": 60})
        for name, bound in (bounds or {}).items():
            monkeypatch.setattr(navigator, name, bound)
        report = cli.run_eval(cli.build_env(cfg, noise=0.3), graph, net, enc,
                              cfg, np.random.default_rng(0))
        sizes = report.memo_entries
        assert set(sizes) == set(TABLES)
        for table, name in TABLES.items():
            assert sizes[table] <= getattr(navigator, name), table
        assert 0 < sizes["route"] <= len(graph)
        assert sizes["query"] == 0
        if bounds:
            assert sizes["route"] == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_eval_skips_query_table_and_changes_nothing(
            self, committed, seed, monkeypatch):
        """Under odometry noise ``execute`` queries the graph afresh instead
        of keeping query entries. ``run_eval``'s records at eval.noise 0.3
        equal those of an env that steps with the same noise but reports
        none, so that its situations go through the query table; there
        drift corrections that move the pose estimate are kept on query
        entries, which noise-free evaluations on these inputs never reach."""
        env, graph, net, enc = committed
        cfg = cfgmod.make_config({"eval.noise": 0.3, "eval.episodes": 40})
        noisy = cli.build_env(cfg, noise=0.3)

        class Unreported(type(noisy)):
            def step(self, state, action, rng):
                return noisy.step(state, action, rng)

        quiet = Unreported(noisy.grid, noise_scale=0.0,
                           variant=noisy.variant, patch_size=noisy.patch_size)
        memos = []

        class RecordedMemo(navigator.Memo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(navigator, "Memo", RecordedMemo)
        reports = [cli.run_eval(e, graph, net, enc, cfg,
                                np.random.default_rng(seed))
                   for e in (noisy, quiet)]
        assert reports[0].episodes == reports[1].episodes
        assert reports[0].memo_entries["query"] == 0
        assert reports[1].memo_entries["query"] > 0
        assert any(offset is not None for q in memos[1].query.values()
                   for _, offset in q.drift.values())

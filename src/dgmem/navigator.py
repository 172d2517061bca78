"""Test-time hierarchical navigation over the graph memory.

Start and goal observations are localized onto the graph with its combined
pose/visual similarity query, a route is planned over stored trajectory
lengths, and the learned local policy executes it subgoal by subgoal,
finishing with a final leg toward the goal observation itself. Instead of
sampling, each step takes the action maximizing the policy probability minus
penalties for revisiting cells and for actions that previously collided from
the current cell (both computed from the agent's own pose estimate and the
environment's action displacement rule); the
penalties only break policy livelocks and carry no goal-directed signal of
their own. A stalled subgoal triggers replanning from the current node, at
most a fixed number of times.

Odometry drift is corrected online: whenever the current observation is an
unambiguous visual match to a stored node near the pose estimate, the pose
estimate is re-anchored to that node's recorded pose. The correction uses
only the agent's own memory, never ground truth.

Every per-node test here (subgoal arrival, drift matching, goal placement)
is one array expression over ``GraphMemory.scores``, so the scoring rule
itself lives only in the graph. Each step uses one graph query for its
(feature, pose estimate), and a second only when drift correction moved the
pose estimate.

During an evaluation the network is frozen, the graph is read-only and the
encoder is deterministic, so every decision is a function of what the agent
sees and believes. A step's situation is its (view, pose estimate): the
graph query of that pair decides the subgoal flags of an arrival radius
and the drift correction of a matching radius (a match, and whether its
offset moves the pose estimate); with the leg (a route node, or on the
final leg the goal's view and pose) the policy's action probabilities;
with the goal and success radius the arrival verdict; and the pose cell,
with the cell each action is predicted to reach. ``execute`` keeps these
answers on one ``Memo.query`` entry per situation, beside the memo's tables
of views, targets, routes (one Dijkstra tree per source node, walked up to
any destination) and goal nodes, and computes an answer only on a miss, so
a step in a seen situation is ``env.step`` and table reads. A drift match
whose offset is all zeros only restarts the count of steps since a fix.

A policy miss does not run the whole network on the concatenated input:
``learner.PolicyBlocks`` splits ``fc1`` by the input's blocks, so the memo
keeps each view's feature with its view-block product and each target's
target-block product, and a miss adds them to the pose block's small
product before the rest of the trunk. The probabilities equal the whole
network's within rounding (about 1e-14 relative).

A memo is valid for one (network, graph, encoder, env variant): one
evaluation run over fixed artifacts may share it across its episodes;
anything that trains or writes the graph may not, since every table, the
block products included, holds answers of what it was filled with. Each
table stops taking entries at its bound. Under odometry noise the pose
rarely repeats, so ``execute`` keeps no query entries at all: it queries
the graph afresh at every step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .encoder import PatchEncoder
from .graph import GraphMemory, tree_path
from .gridworld import (CARDINAL_ACTIONS, ORIENTATION_ACTIONS, AgentState,
                        GridEnv, Observation, action_effect)
from .learner import PolicyBlocks
from .nn import ActorCritic

# Bounds of the Memo tables. On the benchmark graph (71 nodes) a query
# entry takes about 3.2 KB for its graph query, pose cell, subgoal flags
# and next cells, plus about 0.25 KB per policy answer (one per leg decided
# there), 0.13 KB per drift answer (one per radius, at most 21) and 0.06 KB
# per arrival verdict (one per goal met there); a route tree takes about
# 2.2 KB, a view entry about 5.3 KB (its feature and a 512-wide block
# product), a target entry about 4.2 KB and a goal entry about 0.2 KB. A
# noise-free 1000-episode FourRooms evaluation (navigate seed 0) needs 256
# query entries (holding 2.2k policy answers, 1.5k drift answers and 9.5k
# arrival verdicts, 8.3 KB each on average), 71 route trees (one per source
# node; at most one per graph node at any noise), 251 views, 314 targets
# (nodes and goal views) and 250 goals, about 4.9 MB in all. Views, targets
# and goals do not depend on the pose estimate, so odometry noise leaves
# them at these counts; at eval.noise 0.3 a query table would fill (about
# 2 MB) and answer 0.1% of lookups, against 99% noise-free, so noisy runs
# keep none. A route tree is a full Dijkstra, about twice a search that
# stops at its destination, so it pays off from the second route out of
# its source; on a graph with more source nodes than ROUTE_ENTRIES, each
# route miss after the table fills builds a tree that is not kept.
QUERY_ENTRIES = 1 << 9
ROUTE_ENTRIES = 1 << 8
VIEW_ENTRIES = 1 << 11
TARGET_ENTRIES = 1 << 10
GOAL_ENTRIES = 1 << 10


@dataclass
class NavPlan:
    goal_node: int
    route: List[int]
    cursor: int = 0
    replans: int = 0


@dataclass
class EpisodeResult:
    steps: int
    reason: str
    replans: int
    final_state: AgentState = field(repr=False)
    collisions: int = 0  # steps that bumped into a wall


def localize_goal(graph: GraphMemory, goal_feat: np.ndarray,
                  goal_pose: np.ndarray) -> int:
    """Graph node closest to the goal observation.

    Uses the graph's combined pose/feature score (the same scoring as
    self-localization, without the admission threshold). A critic-value
    argmax is unusable here: returns under the hop-progress reward grow
    with start-to-goal distance, so the value ranking favours *distant*
    nodes. Falls back to maximum feature cosine when the goal pose is
    non-finite.
    """
    goal_pose = np.asarray(goal_pose, float)
    _, d_vis, combined = graph.scores(goal_feat, goal_pose)
    return int(np.argmin(combined if np.isfinite(goal_pose).all() else d_vis))


@dataclass
class _Query:
    """One graph query for a (feature, pose estimate), entry i of each array
    being node i, and the decisions taken in that situation."""
    combined: np.ndarray  # the graph's localization score
    d_vis: np.ndarray  # negative feature cosine
    planar: np.ndarray  # (x, y) distance to the pose estimate
    nearest: int  # the node the graph localizes the observation on
    cell: Tuple[float, float]  # the pose cell, key of visits and collisions
    # per-node "satisfied" flags at the arrival radius ``radius`` the query
    # last served, see _advance_cursor
    radius: Optional[float] = None
    satisfied: List[bool] = field(default_factory=list)
    # by drift radius: whether _drift_correction matched a node, and its
    # offset when that moves the pose estimate (else None)
    drift: Dict[float, tuple] = field(default_factory=dict)
    # the cell each action is predicted to reach from the pose estimate
    nbrs: Optional[tuple] = None
    # arrival verdicts by (goal view bytes, goal pose bytes, success radius)
    arrived: dict = field(default_factory=dict)
    # action probabilities by leg: the target route node, or on the final
    # leg the goal's (view bytes, pose bytes)
    policy: dict = field(default_factory=dict)


def _query(graph: GraphMemory, feat: np.ndarray, pose: np.ndarray) -> _Query:
    _, d_vis, combined = graph.scores(feat, pose)
    diff = graph.poses[:, :2] - pose[:2]
    planar = np.sqrt((diff * diff).sum(axis=1))
    for column in (combined, d_vis, planar):
        column.flags.writeable = False
    return _Query(combined, d_vis, planar, int(np.argmin(combined)),
                  _pose_cell(pose))


class Memo:
    """Bounded tables of evaluation answers for one (network, graph,
    encoder, env variant); see the module docstring.

    ``query`` maps a situation's (view bytes, pose bytes) to its ``_Query``,
    which keeps its pose cell and the subgoal flags, drift answers, next
    cells, arrival verdicts and action probabilities decided there.
    ``route`` maps a source node to its ``GraphMemory.weighted_tree``, whose
    walk to any destination is the ``weighted_path`` route. ``views`` maps
    view bytes to (feature, view-block product), ``targets`` maps a route
    node or the goal view's bytes to its target-block product (see
    ``learner.PolicyBlocks``), and ``goals`` maps (goal view bytes, goal
    pose bytes) to the ``localize_goal`` node. Each table takes no entries
    beyond its bound.
    """

    def __init__(self):
        self.query: dict = {}
        self.route: dict = {}
        self.views: dict = {}
        self.targets: dict = {}
        self.goals: dict = {}

    def sizes(self) -> Dict[str, int]:
        """Entry count of each table, by table name."""
        return {name: len(table) for name, table in vars(self).items()}


def _keep(table: dict, bound: int, key, value) -> None:
    if len(table) < bound:
        table[key] = value


def _advance_cursor(graph: GraphMemory, plan: "NavPlan", q: _Query,
                    radius: float) -> bool:
    """Move the cursor past every later route node already satisfied.

    A route node is satisfied when the localization rule fires on it or the
    pose estimate is inside the arrival radius (tolerant to odometry drift).
    Scanning the whole remaining route (not just the next subgoal) lets the
    executor skip waypoints it drifted past, so it never backtracks to touch
    a node the policy has already overshot. ``q`` is the query for the
    current feature and pose estimate; it keeps the per-node flags of the
    radius it last served (recomputed when the radius differs), and the
    scan reads the rest of the route backwards over them.
    """
    if q.radius != radius:
        q.satisfied = ((q.combined < graph.d_locate)
                       | (q.planar < radius)).tolist()
        q.radius = radius
    flags = q.satisfied
    route = plan.route
    for idx in range(len(route) - 1, plan.cursor - 1, -1):
        if flags[route[idx]]:
            plan.cursor = idx + 1
            return True
    return False


# (dx, dy) of each action, by variant and heading: action_effect's rule
_MOVES = {(variant, heading): tuple(action_effect(variant, a, heading)[:2]
                                    for a in actions)
          for variant, actions in (("cardinal", CARDINAL_ACTIONS),
                                   ("orientation", ORIENTATION_ACTIONS))
          for heading in range(4)}


def _select_action(probs: Sequence[float], nbrs: Sequence[tuple],
                   visits: dict, blocked: dict, revisit_penalty: float,
                   cell: Tuple[float, float]) -> int:
    """Score each action and return the first argmax.

    score(a) = policy probability ``probs[a]`` - revisit_penalty * prior
    visits of the predicted next cell ``nbrs[a]`` - a large penalty if the
    action collided from ``cell``, the current pose cell, before. The
    prediction uses only the agent's own pose estimate and the known action
    displacements of the env variant (at the estimated heading); the
    penalties carry no information about the goal direction, so all
    goal-seeking comes from the policy.
    """
    if len(probs) > len(nbrs):
        raise ValueError(f"{len(probs)} action probabilities for the "
                         f"{len(nbrs)} actions of the env variant")
    tried = blocked.get(cell, ())
    best, best_score = 0, None
    for action in range(len(probs)):
        score = probs[action] - revisit_penalty * visits.get(nbrs[action], 0)
        if action in tried:
            score -= 10.0
        if best_score is None or score > best_score:
            best, best_score = action, score
    return best


def _pose_cell(pose: np.ndarray) -> Tuple[float, float]:
    return (round(float(pose[0]), 1), round(float(pose[1]), 1))


def _drift_correction(graph: GraphMemory, q: _Query,
                      pose: np.ndarray, radius: float = 3.0,
                      min_cos: float = 0.999) -> Optional[np.ndarray]:
    """Pose correction from an unambiguous visual match to a memory node.

    Observations are deterministic in position, so a feature cosine of ~1
    against a stored node means the agent is standing on that node's cell;
    nodes sit at landmark-rich cells, which keeps such matches distinctive.
    Restricting candidates to the pose prior and requiring the match to be
    unique guards against visually aliased cells. ``q`` is the query for
    the current feature and ``pose``. Returns the offset that re-anchors the
    drifted pose estimate onto the node, or None.
    """
    match = np.flatnonzero((q.planar <= radius) & (-q.d_vis >= min_cos))
    if len(match) != 1:
        return None  # no match, or two nearby nodes look identical
    offset = graph.poses[match[0]] - pose
    offset[2:] = 0.0
    offset.flags.writeable = False
    return offset


def _at_goal(feat: np.ndarray, pose: np.ndarray, goal_feat: np.ndarray,
             goal_pose: np.ndarray, success_radius: float) -> bool:
    """Arrival requires visual confirmation: the current observation must
    match the goal observation, with the pose estimate merely gating out
    far-away visually aliased cells. A pose-only test would declare success
    one cell off whenever odometry drift exceeds half a cell."""
    return (float(goal_feat @ feat) >= 0.999 and float(np.linalg.norm(
        pose[:2] - goal_pose[:2])) < success_radius + 1.5)


def execute(env: GridEnv, state: AgentState, graph: GraphMemory,
            net: ActorCritic, enc: PatchEncoder, start_obs: Observation,
            goal_obs: Observation, rng: np.random.Generator,
            max_steps: int = 200, subgoal_budget: int = 30,
            max_replans: int = 3,
            success_radius: float = 1.0,
            subgoal_radius: float = 2.0,
            revisit_penalty: float = 0.1,
            memo: Optional[Memo] = None) -> EpisodeResult:
    """Run one hierarchical navigation episode; returns the outcome record.

    Pose estimates of start and goal observations must share the graph's
    coordinate frame. ``memo`` holds the answers of earlier decisions (see
    the module docstring for when it may be shared); by default each
    episode starts a fresh one.
    """
    if memo is None:
        memo = Memo()
    blocks = PolicyBlocks(net)

    def _view(patch: np.ndarray) -> Tuple[bytes, np.ndarray, np.ndarray]:
        """A view's key, its feature and its policy block product."""
        key = patch.tobytes()
        entry = memo.views.get(key)
        if entry is None:
            feat = enc.encode(patch)
            entry = (feat, feat @ blocks.view)
            _keep(memo.views, VIEW_ENTRIES, key, entry)
        return (key,) + entry

    # final-leg target: the goal view, keyed by its bytes; the final leg is
    # keyed by the goal's view and pose, its arrival verdicts also by radius
    goal_key, goal_feat, _ = _view(goal_obs.patch)
    goal_pose = np.asarray(goal_obs.pose_est, float)
    goal = (goal_key, goal_pose.tobytes())
    arrival = goal + (success_radius,)
    # pose cells (poses to 0.05) this far off on an axis fail the pose gate
    gx, gy, gate = *goal_pose[:2].tolist(), success_radius + 1.6

    noisy = env.noise_scale > 0  # then poses rarely repeat

    def _look(view_key: bytes, feat, pose) -> _Query:
        """The situation entry of the current view and pose; under odometry
        noise a fresh query that is not kept."""
        if noisy:
            return _query(graph, feat, pose)
        key = (view_key, pose.tobytes())
        q = memo.query.get(key)
        if q is None:
            q = _query(graph, feat, pose)
            _keep(memo.query, QUERY_ENTRIES, key, q)
        return q

    def _arrived(q: _Query, feat, pose) -> bool:
        verdict = q.arrived.get(arrival)
        if verdict is None:
            verdict = q.arrived[arrival] = (
                abs(q.cell[0] - gx) < gate and abs(q.cell[1] - gy) < gate
                and _at_goal(feat, pose, goal_feat, goal_pose, success_radius))
        return verdict

    def _route(src: int, dst: int) -> List[int]:
        tree = memo.route.get(src)
        if tree is None:
            tree = graph.weighted_tree(src)
            _keep(memo.route, ROUTE_ENTRIES, src, tree)
        return tree_path(tree, dst)

    view_key, feat, view_part = _view(start_obs.patch)
    # drift-corrected pose estimate: odometry plus the cumulative offset
    # from re-anchoring on recognized memory nodes; ``corr`` stays None
    # until an offset moves it (zeros change no stepped pose estimate)
    corr = None
    pose = np.asarray(start_obs.pose_est, float) + 0.0
    if not graph.nodes:
        at_goal = _at_goal(feat, pose, goal_feat, goal_pose, success_radius)
        return EpisodeResult(0, "already_at_goal" if at_goal
                             else "empty_graph", 0, state)
    q = _look(view_key, feat, pose)
    if _arrived(q, feat, pose):
        return EpisodeResult(0, "already_at_goal", 0, state)
    goal_node = memo.goals.get(goal)
    if goal_node is None:
        goal_node = localize_goal(graph, goal_feat, goal_pose)
        _keep(memo.goals, GOAL_ENTRIES, goal, goal_node)
    route = _route(q.nearest, goal_node)
    if not route:
        return EpisodeResult(0, "unreachable", 0, state)
    plan = NavPlan(goal_node, route)
    # consume any route waypoints already satisfied at the start, so the
    # executor never walks back to touch a node behind it
    _advance_cursor(graph, plan, q, subgoal_radius)

    steps = collisions = steps_since_fix = 0
    budget_left = subgoal_budget
    visits: dict = {}
    blocked: dict = {}
    while steps < max_steps:
        # q is the entry of (view, pose): with the leg it fixes the policy
        # input (feat of the view, the target's feature, its pose - pose)
        on_route = plan.cursor < len(plan.route)
        leg = plan.route[plan.cursor] if on_route else goal
        probs = q.policy.get(leg)
        if probs is None:
            if on_route:
                sub = graph.nodes[leg]
                target, sub_feat, sub_pose = leg, sub.feature, sub.pose
            else:
                target, sub_feat, sub_pose = goal_key, goal_feat, goal_pose
            target_part = memo.targets.get(target)
            if target_part is None:
                target_part = sub_feat @ blocks.target
                _keep(memo.targets, TARGET_ENTRIES, target, target_part)
            probs = q.policy[leg] = tuple(
                blocks.probs(view_part, target_part, sub_pose - pose).tolist())
        cell = q.cell
        visits[cell] = visits.get(cell, 0) + 1
        if q.nbrs is None:
            heading = int(round(float(pose[2]))) % 4
            q.nbrs = tuple((round(cell[0] + dx, 1), round(cell[1] + dy, 1))
                           for dx, dy in _MOVES[env.variant, heading])
        action = _select_action(probs, q.nbrs, visits, blocked,
                                revisit_penalty, cell)
        state, obs = env.step(state, action, rng)
        view_key, feat, view_part = _view(obs.patch)
        steps += 1
        budget_left -= 1
        if obs.collided:
            collisions += 1
            blocked.setdefault(cell, set()).add(action)

        pose = obs.pose_est if corr is None else obs.pose_est + corr
        q = _look(view_key, feat, pose)
        # widen the matching prior as uncorrected steps accumulate, since
        # drift grows with time since the last re-anchor
        radius = min(3.0 + 0.25 * steps_since_fix, 8.0)
        fix = q.drift.get(radius)
        if fix is None:
            offset = _drift_correction(graph, q, pose, radius=radius)
            fix = q.drift[radius] = (offset is not None, offset if (
                offset is not None and any(offset.tolist())) else None)
        matched, offset = fix
        if offset is not None:
            corr = offset if corr is None else corr + offset
            pose = obs.pose_est + corr
            q = _look(view_key, feat, pose)
        steps_since_fix = 0 if matched else steps_since_fix + 1

        if _arrived(q, feat, pose):
            return EpisodeResult(steps, "arrived", plan.replans, state,
                                 collisions)

        advanced = _advance_cursor(graph, plan, q, subgoal_radius)
        if advanced:
            budget_left = subgoal_budget
        elif budget_left <= 0:
            if plan.replans >= max_replans:
                return EpisodeResult(steps, "replan_exhausted",
                                     plan.replans, state, collisions)
            route = _route(q.nearest, plan.goal_node)
            if not route:
                return EpisodeResult(steps, "unreachable", plan.replans,
                                     state, collisions)
            plan.route = route
            plan.cursor = 0
            plan.replans += 1
            budget_left = subgoal_budget

    return EpisodeResult(steps, "max_steps", plan.replans, state,
                         collisions)

import numpy as np
import pytest

from dgmem import cli, config as cfgmod, learner, metrics, navigator
from dgmem.gridworld import (WALL, GridEnv, GridMap, make_four_rooms,
                             make_maze, map_from_text)

# A text map whose top-right room has one door, at (9, 3).
DOOR_MAP = """\
#############
#.....#.....#
#..1..#..2..#
#.....###.###
#...........#
#..3.....4..#
#############
"""


def sealed_grid() -> GridMap:
    """DOOR_MAP with its door walled up. Text maps must be connected, so the
    sealed room is made after parsing."""
    grid = map_from_text(DOOR_MAP)
    tiles = grid.tiles.copy()
    tiles[9, 3] = WALL
    return GridMap(grid.width, grid.height, tiles)


# A map whose free cell (5, 1) is walled in on all four sides.
POCKET_MAP = """\
#########
#...#.#.#
#.#.###.#
#.......#
#########
"""


def pocket_grid() -> GridMap:
    """POCKET_MAP parsed without map_from_text's connectivity check."""
    tiles = np.array([[WALL if ch == "#" else 0 for ch in row]
                      for row in POCKET_MAP.splitlines()], np.int8).T
    return GridMap(tiles.shape[0], tiles.shape[1], tiles)


class TestCoverage:
    def test_tracks_fraction_of_free_cells(self, four_rooms):
        tracker = metrics.CoverageTracker(four_rooms)
        cells = four_rooms.free_cells()
        for x, y in cells[:64]:
            tracker.visit(x, y)
        assert tracker.coverage() == pytest.approx(64 / 256)

    def test_revisits_do_not_inflate_coverage(self, four_rooms):
        tracker = metrics.CoverageTracker(four_rooms)
        for _ in range(10):
            tracker.visit(3, 3)
        assert tracker.coverage() == pytest.approx(1 / 256)


class TestUniformity:
    def test_uniform_histogram_is_one(self):
        assert metrics.uniformity([5] * 256, 256) == pytest.approx(1.0)

    def test_single_cell_is_zero(self):
        assert metrics.uniformity([100], 256) == pytest.approx(0.0)

    def test_skew_lowers_entropy(self):
        flat = metrics.uniformity([10] * 50, 256)
        skew = metrics.uniformity([500] + [1] * 49, 256)
        assert skew < flat

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            metrics.uniformity([], 256)


class TestShortestLength:
    def test_adjacent_cells(self, four_rooms):
        assert metrics.grid_shortest_length(four_rooms, (2, 2), (3, 2)) == 1

    def test_same_cell_zero(self, four_rooms):
        assert metrics.grid_shortest_length(four_rooms, (2, 2), (2, 2)) == 0

    def test_routes_through_doorways(self, four_rooms):
        # opposite rooms: path must thread at least two doorways
        d = metrics.grid_shortest_length(four_rooms, (2, 2), (18, 14))
        manhattan = 16 + 12
        assert d >= manhattan

    def test_wall_cell_rejected(self, four_rooms):
        with pytest.raises(ValueError):
            metrics.grid_shortest_length(four_rooms, (0, 0), (2, 2))

    def test_symmetric(self, four_rooms, rng):
        cells = four_rooms.free_cells()
        for _ in range(10):
            a = cells[int(rng.integers(len(cells)))]
            b = cells[int(rng.integers(len(cells)))]
            assert (metrics.grid_shortest_length(four_rooms, a, b)
                    == metrics.grid_shortest_length(four_rooms, b, a))

    def test_triangle_inequality(self, four_rooms, rng):
        cells = four_rooms.free_cells()
        for _ in range(10):
            a, b, c = (cells[int(rng.integers(len(cells)))] for _ in range(3))
            ab = metrics.grid_shortest_length(four_rooms, a, b)
            bc = metrics.grid_shortest_length(four_rooms, b, c)
            ac = metrics.grid_shortest_length(four_rooms, a, c)
            assert ac <= ab + bc


class TestSpl:
    def test_perfect_path_scores_one(self):
        assert metrics.spl([(True, 10, 10)]) == pytest.approx(1.0)

    def test_detour_penalized(self):
        assert metrics.spl([(True, 20, 10)]) == pytest.approx(0.5)

    def test_failure_scores_zero(self):
        assert metrics.spl([(False, 5, 10)]) == 0.0

    def test_start_equals_goal_counts_full(self):
        assert metrics.spl([(True, 0, 0)]) == pytest.approx(1.0)

    def test_faster_than_shortest_capped_at_one(self):
        # path shorter than the oracle (can't happen, but the ratio is capped)
        assert metrics.spl([(True, 5, 10)]) == pytest.approx(1.0)

    def test_mean_over_episodes(self):
        eps = [(True, 10, 10), (False, 1, 5), (True, 20, 10)]
        assert metrics.spl(eps) == pytest.approx((1.0 + 0.0 + 0.5) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.spl([])


class TestReport:
    def records(self):
        return [
            {"success": True, "steps": 10, "shortest": 10, "dts": 0.0,
             "reason": "arrived", "replans": 0, "collisions": 0},
            {"success": False, "steps": 50, "shortest": 8, "dts": 4.0,
             "reason": "max_steps", "replans": 3, "collisions": 7},
        ]

    def test_build_report_aggregates(self):
        rep = metrics.build_report(self.records())
        assert rep.sr == pytest.approx(0.5)
        assert rep.spl == pytest.approx(0.5)
        assert rep.mean_dts == pytest.approx(2.0)

    def test_csv_has_row_per_episode(self):
        rep = metrics.build_report(self.records())
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "episode,success,steps,shortest,spl,dts,collisions"
        assert len(lines) == 3
        assert [line.split(",")[-1] for line in lines[1:]] == ["0", "7"]

    def test_report_spl_is_spl_of_its_terms(self, rng):
        records = [{"success": bool(rng.random() < 0.7),
                    "steps": int(rng.integers(0, 60)),
                    "shortest": int(rng.integers(0, 40)), "dts": 0.0}
                   for _ in range(200)]
        want = metrics.spl([(r["success"], r["steps"], r["shortest"])
                            for r in records])
        rep = metrics.build_report(records)
        assert rep.spl == want  # bit-identical, not approximate
        for r in records:
            assert r["spl"] == metrics.spl_term(r["success"], r["steps"],
                                                r["shortest"])

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            metrics.build_report([])


def assert_distances_match_bfs(grid, sources):
    cells = grid.free_cells()
    for source in sources:
        dist = metrics.grid_distances(grid, source)
        assert dist.shape == grid.tiles.shape
        assert (dist[grid.tiles == 1] == -1).all()
        for cell in cells:
            want = metrics.grid_shortest_length(grid, cell, source)
            assert (int(dist[cell]) if dist[cell] >= 0 else None) == want


@pytest.mark.parametrize("grid, sources", [
    (make_four_rooms(0), slice(None, None, 20)),
    (make_maze(21, 17, 0), slice(None, None, 20)),
    (sealed_grid(), slice(None, None, 20)),
    (pocket_grid(), slice(None))],  # from every cell, the pocket included
    ids=["four_rooms", "maze", "sealed", "pocket"])
def test_grid_distances_match_bfs(grid, sources):
    assert_distances_match_bfs(grid, grid.free_cells()[sources])


def test_maps_of_one_shape_never_share_a_neighbour_list():
    """The neighbour list lives on its map: two mazes of the same shape,
    alive together or made one after the other (which may reuse an id),
    each get their own."""
    first, second = make_maze(21, 17, 0), make_maze(21, 17, 1)
    assert not np.array_equal(first.tiles, second.tiles)
    assert first.free_neighbours() is not second.free_neighbours()
    for grid in (first, second):
        assert_distances_match_bfs(grid, grid.free_cells()[::40])
    del first, second
    for seed in range(2, 6):
        grid = make_maze(21, 17, seed)
        assert_distances_match_bfs(grid, grid.free_cells()[::60])
        del grid


def test_grid_distances_rejects_wall_source(four_rooms):
    with pytest.raises(ValueError):
        metrics.grid_distances(four_rooms, (0, 0))


def test_run_eval_oracle_matches_bfs(monkeypatch):
    """run_eval's per-episode shortest and dts equal the per-pair BFS,
    including episodes whose start or goal lies in a walled-off room."""
    cfg = cfgmod.make_config({"seed": 0, "learner.total_steps": 600,
                              "eval.episodes": 40, "eval.max_steps": 30})
    env = GridEnv(sealed_grid())
    enc = cli.build_encoder(cfg)
    graph = cli.build_graph(cfg)
    net = learner.training_loop(env, graph, enc, cfg).net

    cells = []  # (start, goal, final) per episode
    execute = navigator.execute
    origin = graph.origin

    def spy(env, state, graph, net, enc, start_obs, goal_obs, rng, **kw):
        res = execute(env, state, graph, net, enc, start_obs, goal_obs, rng,
                      **kw)
        goal = (int(round(origin[0] + goal_obs.pose_est[0])),
                int(round(origin[1] + goal_obs.pose_est[1])))
        cells.append(((state.x, state.y), goal,
                      (res.final_state.x, res.final_state.y)))
        return res

    monkeypatch.setattr(navigator, "execute", spy)
    report = cli.run_eval(env, graph, net, enc, cfg,
                          np.random.default_rng(3))
    assert len(cells) == len(report.episodes) == 40
    for (start, goal, final), rec in zip(cells, report.episodes):
        assert rec["shortest"] == metrics.grid_shortest_length(env.grid,
                                                               start, goal)
        dts = metrics.grid_shortest_length(env.grid, final, goal)
        assert rec["dts"] == (None if dts is None else float(dts))
        assert type(rec["shortest"]) in (int, type(None))
        assert type(rec["dts"]) in (float, type(None))
    assert any(rec["shortest"] is None for rec in report.episodes)
    assert any(rec["shortest"] for rec in report.episodes)

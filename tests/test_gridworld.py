import numpy as np
import pytest

from dgmem import gridworld as gw


def room(x, y):
    """FourRooms room of a free cell: 0-3 by quadrant, each doorway cell
    counted with one of the rooms it joins."""
    if x == 10:
        return 0 if y < 8 else 2
    if y == 8:
        return 0 if x < 10 else 1
    return (0 if x < 10 else 1) + (0 if y < 8 else 2)


def true_pose(state, start):
    """Exact pose of ``state`` relative to the cell ``start``."""
    return np.array([state.x - start[0], state.y - start[1],
                     float(state.heading)])


class TestFourRooms:
    def test_free_cell_count_is_256(self, four_rooms):
        assert len(four_rooms.free_cells()) == 256

    def test_free_cell_count_matches_formula(self, four_rooms):
        # interior minus cross walls plus doorways
        interior = (four_rooms.width - 2) * (four_rooms.height - 2)
        assert interior - (19 + 15 - 1) + 4 == 256

    def test_four_room_labels(self, four_rooms):
        labels = {room(x, y) for x, y in four_rooms.free_cells()}
        assert labels == {0, 1, 2, 3}

    def test_boundary_is_wall(self, four_rooms):
        t = four_rooms.tiles
        assert (t[0, :] == gw.WALL).all() and (t[-1, :] == gw.WALL).all()
        assert (t[:, 0] == gw.WALL).all() and (t[:, -1] == gw.WALL).all()

    def test_free_space_connected(self, four_rooms):
        free = four_rooms.free_cells()
        assert len(gw.flood_fill(four_rooms, free[0])) == len(free)

    def test_deterministic_given_seed(self):
        a = gw.make_four_rooms(3)
        b = gw.make_four_rooms(3)
        assert np.array_equal(a.tiles, b.tiles)

    def test_each_room_has_landmarks(self, four_rooms):
        per_room = {r: 0 for r in range(4)}
        for x, y in four_rooms.free_cells():
            if four_rooms.tiles[x, y] >= gw.FIRST_LANDMARK:
                per_room[room(x, y)] += 1
        assert all(v >= 2 for v in per_room.values())


class TestMaze:
    def test_maze_connected_with_landmarks(self):
        grid = gw.make_maze(21, 17, seed=1)
        free = grid.free_cells()
        assert len(gw.flood_fill(grid, free[0])) == len(free)
        assert any(grid.tiles[x, y] >= gw.FIRST_LANDMARK for x, y in free)


class TestTextMaps:
    def test_round_trip(self, four_rooms):
        chars = {gw.WALL: "#", gw.FREE: "."}
        text = "".join(
            "".join(chars.get(int(t), str(t - gw.FIRST_LANDMARK + 1))
                    for t in four_rooms.tiles[:, y]) + "\n"
            for y in range(four_rooms.height))
        again = gw.map_from_text(text)
        assert np.array_equal(again.tiles, four_rooms.tiles)

    def test_ragged_rows_rejected(self):
        with pytest.raises(gw.MapError):
            gw.map_from_text("####\n##\n####\n")

    def test_bad_character_rejected(self):
        with pytest.raises(gw.MapError):
            gw.map_from_text("###\n#x#\n###\n")

    def test_disconnected_map_rejected(self):
        text = "#####\n#.#.#\n#####\n"
        with pytest.raises(gw.MapError):
            gw.map_from_text(text)


def loop_patch(grid, x, y, k):
    """Reference window: one in-bounds test per cell."""
    r = k // 2
    out = np.full((k, k), gw.WALL, dtype=np.int8)
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            if grid.in_bounds(x + i, y + j):
                out[i + r, j + r] = grid.tiles[x + i, y + j]
    return out


class TestPatch:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("maze", [False, True])
    def test_matches_loop_reference_on_and_off_the_map(self, four_rooms,
                                                       maze, k):
        grid = gw.make_maze(21, 17, seed=1) if maze else four_rooms
        for x in range(-3, grid.width + 3):
            for y in range(-3, grid.height + 3):
                got = grid.patch(x, y, k)
                want = loop_patch(grid, x, y, k)
                assert got.dtype == want.dtype and got.shape == (k, k)
                assert np.array_equal(got, want), (x, y, k)

    def test_out_of_bounds_reads_as_wall(self, four_rooms):
        patch = four_rooms.patch(1, 1, k=5)
        assert (patch[0, :] == gw.WALL).all()
        assert (patch[:, 0] == gw.WALL).all()

    def test_center_is_own_tile(self, four_rooms):
        for x, y in four_rooms.free_cells()[:20]:
            assert four_rooms.patch(x, y, 5)[2, 2] == four_rooms.tiles[x, y]


TEXT_MAP = """\
###########
#..1#.....#
#...#..2..#
#.......###
#3..#.....#
###########
"""


def slice_patch(grid, x, y, k):
    """Reference window: the clipped slice of ``tiles`` copied into a
    wall-filled array."""
    r = k // 2
    out = np.full((k, k), gw.WALL, dtype=np.int8)
    x0, x1 = max(x - r, 0), min(x + r + 1, grid.width)
    y0, y1 = max(y - r, 0), min(y + r + 1, grid.height)
    if x0 < x1 and y0 < y1:
        out[x0 - x + r:x1 - x + r, y0 - y + r:y1 - y + r] = \
            grid.tiles[x0:x1, y0:y1]
    return out


def view_grids(four_rooms):
    return {"four_rooms": four_rooms, "maze": gw.make_maze(21, 17, seed=1),
            "text": gw.map_from_text(TEXT_MAP)}


class TestPatchViews:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("name", ["four_rooms", "maze", "text"])
    def test_free_cell_views_match_references(self, four_rooms, name, k):
        grid = view_grids(four_rooms)[name]
        for x, y in grid.free_cells():
            got = grid.patch(x, y, k)
            assert got.dtype == np.int8 and got.shape == (k, k)
            assert np.array_equal(got, loop_patch(grid, x, y, k)), (x, y, k)
            assert np.array_equal(got, slice_patch(grid, x, y, k)), (x, y, k)

    @pytest.mark.parametrize("name", ["four_rooms", "maze", "text"])
    def test_patches_are_read_only(self, four_rooms, name):
        grid = view_grids(four_rooms)[name]
        for x, y in ((1, 1), (0, 0), (-2, 3), (grid.width, grid.height)):
            patch = grid.patch(x, y, 5)
            assert not patch.flags.writeable
            with pytest.raises(ValueError):
                patch[0, 0] = gw.FREE
        # the padded copy would go stale if tiles changed after a patch
        with pytest.raises(ValueError):
            grid.tiles[1, 1] = gw.WALL

    def test_views_of_one_cell_share_memory(self, four_rooms):
        a, b = four_rooms.patch(3, 3, 5), four_rooms.patch(4, 3, 5)
        assert np.shares_memory(a, b)
        assert four_rooms.patch(3, 3, 5).base is a.base

    def test_observations_are_map_views(self, env, rng):
        state = env.spawn(rng)
        for _ in range(50):
            state, obs = env.step(state, int(rng.integers(env.n_actions)),
                                  rng)
            assert not obs.patch.flags.writeable
            assert np.array_equal(obs.patch,
                                  loop_patch(env.grid, state.x, state.y, 5))


class TestCardinalStep:
    def test_moves_match_deltas(self, env, rng):
        state = gw.AgentState(x=3, y=3)
        for action, (dx, dy) in ((gw.UP, (0, -1)), (gw.DOWN, (0, 1)),
                                 (gw.LEFT, (-1, 0)), (gw.RIGHT, (1, 0))):
            nxt, obs = env.step(state, action, rng)
            assert (nxt.x, nxt.y) == (state.x + dx, state.y + dy)
            assert not obs.collided

    def test_collision_keeps_position_and_flags(self, env, rng):
        state = gw.AgentState(x=1, y=1)
        nxt, obs = env.step(state, gw.LEFT, rng)
        assert (nxt.x, nxt.y) == (1, 1)
        assert obs.collided

    def test_bad_action_rejected(self, env, rng):
        with pytest.raises(ValueError):
            env.step(gw.AgentState(x=3, y=3), 7, rng)

    def test_noiseless_pose_estimate_is_exact(self, env, rng):
        state = gw.AgentState(x=3, y=3)
        for _ in range(50):
            a = int(rng.integers(env.n_actions))
            state, obs = env.step(state, a, rng)
        assert np.allclose(obs.pose_est, true_pose(state, (3, 3)))

    def test_noisy_pose_estimate_drifts(self, four_rooms):
        env = gw.GridEnv(four_rooms, noise_scale=0.3)
        rng = np.random.default_rng(1)
        state = gw.AgentState(x=3, y=3)
        for _ in range(50):
            state, obs = env.step(state, int(rng.integers(4)), rng)
        assert not np.allclose(obs.pose_est, true_pose(state, (3, 3)))

    def test_noise_is_zero_mean(self, four_rooms):
        # averaged over many steps the estimate tracks the truth
        env = gw.GridEnv(four_rooms, noise_scale=0.1)
        rng = np.random.default_rng(2)
        errs = []
        for rep in range(20):
            state = gw.AgentState(x=5, y=4)
            for _ in range(100):
                state, obs = env.step(state, int(rng.integers(4)), rng)
            errs.append(obs.pose_est[:2] - true_pose(state, (5, 4))[:2])
        assert np.abs(np.mean(errs, axis=0)).max() < 0.5


class TestStepReference:
    @pytest.mark.parametrize("variant,noise,patch_size",
                             [("cardinal", 0.0, 5), ("cardinal", 0.3, 3),
                              ("orientation", 0.0, 5),
                              ("orientation", 0.2, 7)])
    def test_random_rollouts_match_reference(self, four_rooms, variant,
                                             noise, patch_size, replace_step):
        env = gw.GridEnv(four_rooms, noise_scale=noise, variant=variant,
                         patch_size=patch_size)
        actions = np.random.default_rng(5)
        for seed in range(3):
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            state = ref = env.spawn(np.random.default_rng(seed + 10))
            for _ in range(400):
                a = int(actions.integers(env.n_actions))
                state, obs = env.step(state, a, rng)
                ref, ref_obs = replace_step(env, ref, a, ref_rng)
                assert ((state.x, state.y, state.heading)
                        == (ref.x, ref.y, ref.heading))
                assert np.array_equal(state.pose_est, ref.pose_est)
                assert np.array_equal(obs.patch, ref_obs.patch)
                assert np.array_equal(obs.pose_est, ref_obs.pose_est)
                assert obs.collided is ref_obs.collided
            # same number of draws from the noise stream
            assert rng.random() == ref_rng.random()

    @staticmethod
    def warm_env(grid, variant):
        """An env whose transition memo has been filled by a random walk."""
        env = gw.GridEnv(grid, variant=variant)
        rng = np.random.default_rng(3)
        state = env.spawn(rng)
        for _ in range(300):
            state, _ = env.step(state, int(rng.integers(env.n_actions)), rng)
        return env, state

    @pytest.mark.parametrize("variant", ["cardinal", "orientation"])
    def test_bad_action_raises_with_warm_memo(self, four_rooms, variant, rng):
        env, state = self.warm_env(four_rooms, variant)
        for bad in (-1, env.n_actions, 7):
            for _ in range(2):  # a miss that raised left no entry behind
                with pytest.raises(ValueError):
                    env.step(state, bad, rng)

    @pytest.mark.parametrize("variant", ["cardinal", "orientation"])
    def test_off_map_state_gets_walled_patch(self, four_rooms, variant, rng,
                                             replace_step):
        env, _ = self.warm_env(four_rooms, variant)
        for x, y in ((-3, 2), (-1, 0), (four_rooms.width, 5), (4, 40)):
            for action in range(env.n_actions):
                state = gw.AgentState(x=x, y=y, heading=1)
                nxt, obs = env.step(state, action, rng)
                ref, ref_obs = replace_step(env, state, action, rng)
                assert (nxt.x, nxt.y, nxt.heading) == (ref.x, ref.y,
                                                       ref.heading)
                assert obs.collided is ref_obs.collided
                assert np.array_equal(obs.patch, ref_obs.patch)
                assert np.array_equal(obs.patch,
                                      loop_patch(four_rooms, nxt.x, nxt.y, 5))
                assert np.array_equal(obs.pose_est, ref_obs.pose_est)

    @pytest.mark.parametrize("start", [(3, 3), (-2, -2)])
    def test_tiles_read_only_after_first_step(self, rng, start):
        """The memo's entries rest on the tiles, so the first step freezes
        them, on the map or off it."""
        grid = gw.make_four_rooms(0)
        assert grid.tiles.flags.writeable
        gw.GridEnv(grid).step(gw.AgentState(*start), gw.UP, rng)
        assert not grid.tiles.flags.writeable
        with pytest.raises(ValueError):
            grid.tiles[1, 1] = gw.FREE


class TestOrientationVariant:
    def test_turns_change_heading_not_position(self, four_rooms, rng):
        env = gw.GridEnv(four_rooms, variant="orientation")
        state = gw.AgentState(x=3, y=3)
        nxt, _ = env.step(state, gw.TURN_RIGHT, rng)
        assert (nxt.x, nxt.y) == (3, 3) and nxt.heading == 1
        nxt, _ = env.step(nxt, gw.TURN_LEFT, rng)
        assert nxt.heading == 0

    def test_move_ahead_follows_heading(self, four_rooms, rng):
        env = gw.GridEnv(four_rooms, variant="orientation")
        state = gw.AgentState(x=3, y=3, heading=1)  # east
        nxt, _ = env.step(state, gw.MOVE_AHEAD, rng)
        assert (nxt.x, nxt.y) == (4, 3)

    def test_action_counts(self, four_rooms):
        assert gw.GridEnv(four_rooms).n_actions == 4
        assert gw.GridEnv(four_rooms, variant="orientation").n_actions == 3


def test_spawn_is_free_cell(env):
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = env.spawn(rng)
        assert env.grid.is_free(s.x, s.y)

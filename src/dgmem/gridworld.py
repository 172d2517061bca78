"""Deterministic discrete gridworld with noisy odometry.

Maps are 2-D tile arrays (free / wall / numbered landmark tiles). The agent
moves on free cells, receives a local tile patch plus a pose estimate that is
the cumulative sum of per-step noisy deltas. Ground-truth position is kept on
the state for evaluation bookkeeping only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# Tile codes. Landmark tiles are FIRST_LANDMARK + (id - 1) for ids 1..MAX_LANDMARK_ID.
FREE = 0
WALL = 1
FIRST_LANDMARK = 2
MAX_LANDMARK_ID = 8
N_TILE_KINDS = FIRST_LANDMARK + MAX_LANDMARK_ID

# Cardinal action set (didactic four-action variant).
UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
CARDINAL_ACTIONS = (UP, DOWN, LEFT, RIGHT)
CARDINAL_DELTA = {UP: (0, -1), DOWN: (0, 1), LEFT: (-1, 0), RIGHT: (1, 0)}

# Orientation variant: move ahead plus quarter turns.
MOVE_AHEAD, TURN_LEFT, TURN_RIGHT = 0, 1, 2
ORIENTATION_ACTIONS = (MOVE_AHEAD, TURN_LEFT, TURN_RIGHT)
_HEADING_DELTA = {0: (0, -1), 1: (1, 0), 2: (0, 1), 3: (-1, 0)}  # N E S W


def action_effect(variant: str, action: int,
                  heading: int) -> Tuple[int, int, int]:
    """(dx, dy, new heading) of an action taken at a heading, before walls.

    The one rule mapping actions to displacements, shared by the
    environment and by anything that predicts where an action leads.
    """
    if variant == "cardinal":
        if action not in CARDINAL_ACTIONS:
            raise ValueError(f"bad cardinal action {action}")
        dx, dy = CARDINAL_DELTA[action]
        return dx, dy, heading
    if action not in ORIENTATION_ACTIONS:
        raise ValueError(f"bad orientation action {action}")
    if action == TURN_LEFT:
        return 0, 0, (heading - 1) % 4
    if action == TURN_RIGHT:
        return 0, 0, (heading + 1) % 4
    dx, dy = _HEADING_DELTA[heading]
    return dx, dy, heading


def landmark_id(tile: int) -> int:
    """1-based landmark id of a landmark tile."""
    return tile - FIRST_LANDMARK + 1


@dataclass
class GridMap:
    """Bounded tile grid.

    ``tiles`` is indexed ``tiles[x, y]``; boundary cells are walls.
    ``tiles`` becomes read-only once a patch or the neighbour list has been
    taken on the map, since both are derived copies of it.
    """

    width: int
    height: int
    tiles: np.ndarray
    # patch size -> tiles with a wall border of half that size
    _padded: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # free_neighbours(), made on its first call
    _neighbours: Optional[List[Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False)

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and self.tiles[x, y] != WALL

    def free_cells(self) -> List[Tuple[int, int]]:
        xs, ys = np.nonzero(self.tiles != WALL)
        return list(zip(xs.tolist(), ys.tolist()))

    def free_neighbours(self) -> List[Tuple[int, ...]]:
        """For each cell, by its index ``x * height + y`` in
        ``tiles.ravel()``, the indices of the free cells one cardinal move
        away; empty for a wall. Made once per map and shared by later calls.
        """
        if self._neighbours is None:
            self.tiles.flags.writeable = False
            free = (self.tiles != WALL).tolist()
            w, h = self.width, self.height
            self._neighbours = [
                tuple(nx * h + ny for nx, ny in ((x, y + 1), (x, y - 1),
                                                 (x + 1, y), (x - 1, y))
                      if 0 <= nx < w and 0 <= ny < h and free[nx][ny])
                if free[x][y] else ()
                for x in range(w) for y in range(h)]
        return self._neighbours

    def patch(self, x: int, y: int, k: int = 5) -> np.ndarray:
        """Read-only k x k tile window centered on (x, y); out-of-bounds
        reads as wall.

        ``k`` must be odd. For a centre on the map the window is a view of
        one wall-padded copy of ``tiles``, made on the first window of size
        ``k`` and shared by all later ones. Elsewhere the in-bounds part of
        the window is copied into a wall-filled array.
        """
        if 0 <= x < self.width and 0 <= y < self.height:
            padded = self._padded.get(k)
            if padded is None:
                r = k // 2
                padded = np.full((self.width + 2 * r, self.height + 2 * r),
                                 WALL, dtype=np.int8)
                padded[r:r + self.width, r:r + self.height] = self.tiles
                padded.flags.writeable = False
                self.tiles.flags.writeable = False
                self._padded[k] = padded
            return padded[x:x + k, y:y + k]
        r = k // 2
        out = np.full((k, k), WALL, dtype=np.int8)
        x0, x1 = max(x - r, 0), min(x + r + 1, self.width)
        y0, y1 = max(y - r, 0), min(y + r + 1, self.height)
        if x0 < x1 and y0 < y1:
            out[x0 - x + r:x1 - x + r, y0 - y + r:y1 - y + r] = \
                self.tiles[x0:x1, y0:y1]
        out.flags.writeable = False
        return out


class MapError(ValueError):
    pass


def map_from_text(text: str) -> GridMap:
    """Parse the plain-text map format: '#' wall, '.' free, digits for landmarks."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise MapError("empty map")
    width = len(lines[0])
    height = len(lines)
    if any(len(ln) != width for ln in lines):
        raise MapError("ragged map rows")
    tiles = np.zeros((width, height), dtype=np.int8)
    for y, ln in enumerate(lines):
        for x, ch in enumerate(ln):
            if ch == "#":
                tiles[x, y] = WALL
            elif ch == ".":
                tiles[x, y] = FREE
            elif ch.isdigit() and ch != "0":
                tiles[x, y] = FIRST_LANDMARK + int(ch) - 1
            else:
                raise MapError(f"bad map character {ch!r} at ({x},{y})")
    grid = GridMap(width, height, tiles)
    _validate(grid)
    return grid


def _validate(grid: GridMap) -> None:
    if not (grid.tiles[0, :] == WALL).all() or not (grid.tiles[-1, :] == WALL).all():
        raise MapError("boundary must be wall")
    if not (grid.tiles[:, 0] == WALL).all() or not (grid.tiles[:, -1] == WALL).all():
        raise MapError("boundary must be wall")
    free = grid.free_cells()
    if not free:
        raise MapError("no free cells")
    if len(flood_fill(grid, free[0])) != len(free):
        raise MapError("free space is not connected")


def flood_fill(grid: GridMap, start: Tuple[int, int]) -> set:
    """All free cells reachable from start by cardinal moves."""
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nxt = (x + dx, y + dy)
            if nxt not in seen and grid.is_free(*nxt):
                seen.add(nxt)
                stack.append(nxt)
    return seen


# FourRooms: 21x17 bounded grid, 19x15 interior, cross walls with 4 doorways.
# Free cells: 19*15 - (19 + 15 - 1) + 4 = 256.
_FR_W, _FR_H = 21, 17
_FR_VX, _FR_HY = 10, 8
_FR_DOORS = ((_FR_VX, 4), (_FR_VX, 12), (5, _FR_HY), (15, _FR_HY))


def make_four_rooms(seed: int) -> GridMap:
    """Classic four-room layout with exactly 256 free cells.

    Landmark tiles are placed deterministically from the seed, at least two
    per room, in a loose cluster around each room center so most room cells
    see more than one landmark in a 5x5 window.
    """
    tiles = np.full((_FR_W, _FR_H), WALL, dtype=np.int8)
    tiles[1:-1, 1:-1] = FREE
    tiles[_FR_VX, 1:-1] = WALL
    tiles[1:-1, _FR_HY] = WALL
    for dx, dy in _FR_DOORS:
        tiles[dx, dy] = FREE

    rng = np.random.default_rng(seed)
    centers = ((5, 4), (15, 4), (5, 12), (15, 12))
    offsets = ((-2, 0), (2, 0), (0, -2), (0, 2))
    next_id = 1
    for cx, cy in centers:
        placed = 0
        for ox, oy in offsets:
            jx = int(rng.integers(-1, 2))
            jy = int(rng.integers(-1, 2))
            x = int(np.clip(cx + ox + jx, 1, _FR_W - 2))
            y = int(np.clip(cy + oy + jy, 1, _FR_H - 2))
            if tiles[x, y] != FREE:
                x, y = cx + ox, cy + oy
            if tiles[x, y] != FREE:
                continue
            tiles[x, y] = FIRST_LANDMARK + (next_id - 1)
            next_id = next_id % MAX_LANDMARK_ID + 1
            placed += 1
        # Landmark placement never touches walls, so free count stays 256.
        assert placed >= 2
    grid = GridMap(_FR_W, _FR_H, tiles)
    _validate(grid)
    return grid


def make_maze(width: int, height: int, seed: int) -> GridMap:
    """Procedural maze (recursive backtracker) with a landmark on every
    fourth free cell."""
    if width % 2 == 0:
        width += 1
    if height % 2 == 0:
        height += 1
    rng = np.random.default_rng(seed)
    tiles = np.full((width, height), WALL, dtype=np.int8)
    start = (1, 1)
    tiles[start] = FREE
    stack = [start]
    while stack:
        x, y = stack[-1]
        options = []
        for dx, dy in ((0, 2), (0, -2), (2, 0), (-2, 0)):
            nx, ny = x + dx, y + dy
            if 0 < nx < width - 1 and 0 < ny < height - 1 and tiles[nx, ny] == WALL:
                options.append((dx, dy))
        if not options:
            stack.pop()
            continue
        dx, dy = options[int(rng.integers(len(options)))]
        tiles[x + dx // 2, y + dy // 2] = FREE
        tiles[x + dx, y + dy] = FREE
        stack.append((x + dx, y + dy))
    free = [(x, y) for x in range(width) for y in range(height) if tiles[x, y] == FREE]
    next_id = 1
    for idx, (x, y) in enumerate(free):
        if idx % 4 == 0:
            tiles[x, y] = FIRST_LANDMARK + (next_id - 1)
            next_id = next_id % MAX_LANDMARK_ID + 1
    grid = GridMap(width, height, tiles)
    _validate(grid)
    return grid


@dataclass
class AgentState:
    x: int
    y: int
    heading: int = 0  # cardinal index, used by the orientation variant
    pose_est: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass
class Observation:
    patch: np.ndarray  # read-only, usually a view of the map's tiles
    pose_est: np.ndarray
    collided: bool = False


class GridEnv:
    """Environment wrapper binding a map, action variant and noise scale.

    Transitions are pure in (state, action, rng draw). An instance holds no
    agent state, so copies may run concurrently; it keeps only a transition
    memo, which cannot go stale: the tiles are read-only from its first step.
    """

    def __init__(self, grid: GridMap, noise_scale: float = 0.0,
                 variant: str = "cardinal", patch_size: int = 5):
        if variant not in ("cardinal", "orientation"):
            raise ValueError(f"unknown variant {variant!r}")
        if patch_size % 2 == 0:
            raise ValueError("patch size must be odd")
        self.grid = grid
        self.noise_scale = float(noise_scale)
        self.variant = variant
        self.patch_size = patch_size
        self._moves: Dict[tuple, tuple] = {}  # step's, by (x, y, h, action)

    @property
    def n_actions(self) -> int:
        return 4 if self.variant == "cardinal" else 3

    def spawn(self, rng: np.random.Generator) -> AgentState:
        cells = self.grid.free_cells()
        x, y = cells[int(rng.integers(len(cells)))]
        return AgentState(x=x, y=y)

    def observe(self, state: AgentState, collided: bool = False) -> Observation:
        return Observation(self.grid.patch(state.x, state.y, self.patch_size),
                           state.pose_est.copy(), collided)

    def observation_at(self, x: int, y: int,
                       pose_est: np.ndarray) -> Observation:
        """Observation as captured at an arbitrary cell (evaluation harness)."""
        return Observation(self.grid.patch(x, y, self.patch_size),
                           np.asarray(pose_est, float), False)

    def step(self, state: AgentState, action: int,
             rng: np.random.Generator) -> Tuple[AgentState, Observation]:
        x, y, h = state.x, state.y, state.heading
        key = (x, y, h, action)
        move = self._moves.get(key)
        if move is None:  # raises here on a bad action
            dx, dy, heading = action_effect(self.variant, action, h)
            nx, ny = x + dx, y + dy
            grid = self.grid
            collided = bool((dx or dy) and not (
                0 <= nx < grid.width and 0 <= ny < grid.height
                and grid.tiles[nx, ny] != WALL))
            if collided:
                nx, ny = x, y
            true_delta = np.array([nx - x, ny - y, float(heading - h)])
            true_delta.flags.writeable = False
            grid.tiles.flags.writeable = False
            move = self._moves[key] = (nx, ny, heading, collided, true_delta,
                                       grid.patch(nx, ny, self.patch_size))
        nx, ny, heading, collided, delta, patch = move
        if self.noise_scale > 0.0:
            delta = delta + rng.normal(0.0, self.noise_scale, 3)
        pose_est = state.pose_est + delta
        return (AgentState(nx, ny, heading, pose_est),
                Observation(patch, pose_est.copy(), collided))

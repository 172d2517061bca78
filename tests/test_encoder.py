import numpy as np
import pytest

from dgmem import gridworld as gw
from dgmem.encoder import PatchEncoder, semantic_score


class TestEncode:
    def test_unit_norm(self, encoder, rng):
        for _ in range(50):
            patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
            vec = encoder.encode(patch)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_deterministic(self, encoder, rng):
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        assert np.array_equal(encoder.encode(patch), encoder.encode(patch))

    def test_same_seed_same_projection(self, rng):
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        a = PatchEncoder(seed=5).encode(patch)
        b = PatchEncoder(seed=5).encode(patch)
        assert np.array_equal(a, b)

    def test_different_seed_different_projection(self, rng):
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        a = PatchEncoder(seed=5).encode(patch)
        b = PatchEncoder(seed=6).encode(patch)
        assert not np.allclose(a, b)

    def test_single_tile_change_separates(self, encoder, rng):
        # flipping one landmark tile must move the embedding measurably
        for _ in range(50):
            patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
            other = patch.copy()
            i, j = rng.integers(5), rng.integers(5)
            other[i, j] = (other[i, j] + 1 +
                           rng.integers(gw.N_TILE_KINDS - 1)) % gw.N_TILE_KINDS
            cos = float(encoder.encode(patch) @ encoder.encode(other))
            assert cos < 1.0 - 1e-4

    def test_wrong_shape_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((3, 3), int))

    def test_projection_is_frozen(self, encoder):
        with pytest.raises(ValueError):
            encoder._proj[0, 0, 0] = 1.0

    def test_feature_dim(self):
        assert PatchEncoder(feature_dim=64).encode(np.zeros((5, 5), int)).shape == (64,)


class TestSemanticScore:
    def test_no_landmarks_scores_zero(self):
        assert semantic_score(np.zeros((5, 5), int)) == 0.0

    def test_three_landmarks_score_three(self):
        patch = np.zeros((5, 5), int)
        patch[0, 0] = patch[1, 1] = patch[2, 2] = gw.FIRST_LANDMARK
        assert semantic_score(patch) == 3.0

    def test_matches_counting_oracle_on_random_patches(self, rng):
        for _ in range(100):
            patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
            oracle = sum(1 for v in patch.ravel()
                         if int(v) >= gw.FIRST_LANDMARK)
            assert semantic_score(patch) == float(oracle)

    def test_walls_do_not_count(self):
        assert semantic_score(np.full((5, 5), gw.WALL)) == 0.0


def uncached_encode(encoder, patch):
    """Encoding computed from the projection, bypassing the memo."""
    flat = np.asarray(patch).reshape(-1).astype(np.intp)
    vec = encoder._proj[np.arange(flat.size), flat].sum(axis=0)
    return vec / np.linalg.norm(vec)


class TestEncodeMemo:
    @pytest.mark.parametrize("maze", [False, True])
    def test_every_view_matches_uncached_computation(self, four_rooms, maze):
        grid = gw.make_maze(21, 17, seed=1) if maze else four_rooms
        enc = PatchEncoder()
        views = [grid.patch(x, y) for x in range(grid.width)
                 for y in range(grid.height)]
        for _ in range(2):  # first calls fill the memo, repeats read it
            for patch in views:
                want = uncached_encode(enc, patch)
                assert enc.encode(patch).tobytes() == want.tobytes()
        assert len(enc._memo) == len({p.tobytes() for p in views})

    def test_result_is_read_only(self, rng):
        enc = PatchEncoder()
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        for _ in range(2):
            vec = enc.encode(patch)
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0

    def test_equal_values_share_one_encoding(self, rng):
        enc = PatchEncoder()
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        assert enc.encode(patch.astype(np.int8)) is enc.encode(patch)

    def test_bad_shapes_still_raise_after_caching(self, rng):
        enc = PatchEncoder()
        patch = rng.integers(0, gw.N_TILE_KINDS, (5, 5))
        enc.encode(patch)
        for bad in (patch.reshape(-1), patch.reshape(1, 5, 5), patch[:3, :3],
                    patch.T[:, :4]):
            with pytest.raises(ValueError):
                enc.encode(bad)

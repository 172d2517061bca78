"""Frozen feature encoder and semantic score for tile patches.

A seeded random projection of the one-hot patch stands in for a pretrained
visual backbone; the semantic score simply sums per-landmark confidences,
filtering featureless views.
"""
from __future__ import annotations

from typing import Dict

import numpy as np

from . import gridworld


class PatchEncoder:
    """Frozen random projection of one-hot tile patches to unit-norm vectors.

    The projection matrix is sampled once from a seeded Gaussian and never
    updated; instances are read-only after construction.
    """

    def __init__(self, feature_dim: int = 128, patch_size: int = 5,
                 seed: int = 0):
        self.feature_dim = int(feature_dim)
        self.patch_size = int(patch_size)
        kinds = gridworld.N_TILE_KINDS
        rng = np.random.default_rng(seed)
        n_in = patch_size * patch_size * kinds
        proj = rng.standard_normal((n_in, feature_dim)) / np.sqrt(n_in)
        # Indexed as [cell position, tile kind, feature] so encoding is a gather.
        self._proj = proj.reshape(patch_size * patch_size, kinds, feature_dim)
        self._proj.setflags(write=False)
        # Encodings keyed by patch values. The projection is frozen, so each
        # distinct patch is encoded once; an environment's patches are the
        # views of its map, which bounds the memo's size.
        self._memo: Dict[bytes, np.ndarray] = {}

    def encode(self, patch: np.ndarray) -> np.ndarray:
        """Unit-norm feature of a patch, read-only and shared between calls
        with equal patch values."""
        patch = np.asarray(patch)
        if patch.shape != (self.patch_size, self.patch_size):
            raise ValueError(
                f"patch shape {patch.shape} != "
                f"({self.patch_size}, {self.patch_size})")
        flat = patch.reshape(-1).astype(np.intp)
        key = flat.tobytes()
        vec = self._memo.get(key)
        if vec is None:
            vec = self._proj[np.arange(flat.size), flat].sum(axis=0)
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise ValueError("degenerate patch encoding")
            vec = vec / norm
            vec.setflags(write=False)
            self._memo[key] = vec
        return vec


def semantic_score(patch: np.ndarray) -> float:
    """Number of landmark tiles in the patch: each landmark counts with
    confidence 1."""
    patch = np.asarray(patch)
    return float(np.count_nonzero(patch >= gridworld.FIRST_LANDMARK))

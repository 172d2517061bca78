"""Minimal feedforward actor-critic with hand-written gradients.

The network is a two-layer tanh trunk (512, 256 units) over the concatenated
(observation feature, goal feature, relative pose) input, with a softmax
actor head and a scalar critic head. Gradients are computed analytically and
checked against finite differences in the test suite; optimization is a
from-scratch Adam.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

LOG_EPS = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class ActorCritic:
    """Goal-conditioned policy and value network."""

    def __init__(self, input_dim: int, n_actions: int,
                 hidden: Tuple[int, int] = (512, 256), seed: int = 0):
        self.input_dim = int(input_dim)
        self.n_actions = int(n_actions)
        self.hidden = tuple(int(h) for h in hidden)
        rng = np.random.default_rng(seed)
        self.params: Dict[str, np.ndarray] = {}
        for name, fan_in, fan_out in self.layers(self.input_dim,
                                                 self.n_actions, self.hidden):
            self._init_layer(rng, name, fan_in, fan_out)

    @staticmethod
    def layers(input_dim: int, n_actions: int,
               hidden: Tuple[int, int]) -> List[Tuple[str, int, int]]:
        """(name, fan_in, fan_out) of each layer, in parameter order; each
        layer has a ``<name>.w`` and a ``<name>.b`` parameter."""
        h1, h2 = hidden
        return [("fc1", input_dim, h1), ("fc2", h1, h2),
                ("actor", h2, n_actions), ("critic", h2, 1)]

    def _init_layer(self, rng, name: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        self.params[f"{name}.w"] = rng.uniform(-bound, bound, (fan_in, fan_out))
        self.params[f"{name}.b"] = np.zeros(fan_out)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, dict]:
        """(logits, values, cache) for a batch of inputs, shape (n, input_dim)."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        p = self.params
        h1 = np.tanh(x @ p["fc1.w"] + p["fc1.b"])
        h2 = np.tanh(h1 @ p["fc2.w"] + p["fc2.b"])
        logits = h2 @ p["actor.w"] + p["actor.b"]
        values = (h2 @ p["critic.w"] + p["critic.b"])[:, 0]
        return logits, values, {"x": x, "h1": h1, "h2": h2}

    def backward(self, cache: dict, dlogits: np.ndarray,
                 dvalues: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients given loss gradients at the two heads."""
        x, h1, h2 = cache["x"], cache["h1"], cache["h2"]
        p = self.params
        dvalues = np.asarray(dvalues, float).reshape(-1, 1)
        grads = {
            "actor.w": h2.T @ dlogits,
            "actor.b": dlogits.sum(axis=0),
            "critic.w": h2.T @ dvalues,
            "critic.b": dvalues.sum(axis=0),
        }
        dh2 = dlogits @ p["actor.w"].T + dvalues @ p["critic.w"].T
        dz2 = dh2 * (1.0 - h2 * h2)
        grads["fc2.w"] = h1.T @ dz2
        grads["fc2.b"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["fc2.w"].T
        dz1 = dh1 * (1.0 - h1 * h1)
        grads["fc1.w"] = x.T @ dz1
        grads["fc1.b"] = dz1.sum(axis=0)
        return grads

    def policy(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probs, logp, values) without gradient bookkeeping."""
        logits, values, _ = self.forward(x)
        return softmax(logits), log_probs(logits), values

    def act(self, x: np.ndarray, rng: np.random.Generator,
            greedy: bool = False,
            temperature: float = 1.0) -> Tuple[int, float, float]:
        """Sample (or argmax) a single action; returns (action, logp, value).

        ``temperature`` rescales the logits before sampling: values below 1
        concentrate mass on the preferred action while keeping enough
        randomness to escape action loops. The returned log-probability is
        always under the unscaled policy.
        """
        logits, values, _ = self.forward(x)
        probs = softmax(logits)
        logp = log_probs(logits)
        if greedy:
            a = int(np.argmax(probs[0]))
        else:
            if temperature != 1.0:
                if temperature <= 0:
                    raise ValueError("temperature must be positive")
                probs = softmax(logits / temperature)
            a = int(rng.choice(self.n_actions, p=probs[0]))
        return a, float(logp[0, a]), float(values[0])

    # -- parameter plumbing ---------------------------------------------------

    def copy_params(self) -> Dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: Dict[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k] = params[k].copy()

    def params_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.params.values())


class Adam:
    """Adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: Dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Dict[str, np.ndarray],
             grads: Dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * (g * g)
            params[k] -= lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


class MLP:
    """Plain tanh MLP regressor used by the intrinsic-reward baselines."""

    def __init__(self, input_dim: int, hidden: Tuple[int, ...],
                 output_dim: int, seed: int = 0):
        self.dims = (int(input_dim),) + tuple(int(h) for h in hidden) + (int(output_dim),)
        rng = np.random.default_rng(seed)
        self.params: Dict[str, np.ndarray] = {}
        for i in range(len(self.dims) - 1):
            bound = 1.0 / np.sqrt(self.dims[i])
            self.params[f"l{i}.w"] = rng.uniform(-bound, bound,
                                                 (self.dims[i], self.dims[i + 1]))
            self.params[f"l{i}.b"] = np.zeros(self.dims[i + 1])

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, list]:
        x = np.atleast_2d(np.asarray(x, float))
        acts = [x]
        for i in range(self.n_layers):
            z = acts[-1] @ self.params[f"l{i}.w"] + self.params[f"l{i}.b"]
            acts.append(np.tanh(z) if i < self.n_layers - 1 else z)
        return acts[-1], acts

    def backward(self, acts: list, dout: np.ndarray) -> Dict[str, np.ndarray]:
        grads = {}
        d = np.asarray(dout, float)
        for i in reversed(range(self.n_layers)):
            grads[f"l{i}.w"] = acts[i].T @ d
            grads[f"l{i}.b"] = d.sum(axis=0)
            if i > 0:
                d = (d @ self.params[f"l{i}.w"].T) * (1.0 - acts[i] * acts[i])
        return grads

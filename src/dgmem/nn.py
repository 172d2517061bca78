"""Minimal feedforward networks with hand-written gradients.

One layer loop serves both networks: ``tanh_forward`` runs a stack of dense
tanh layers, ``dense_backward`` walks it back, passing ``(d @ W.T) * (1 -
a*a)`` down each tanh, and ``init_dense`` initialises every layer.
``ActorCritic`` is the goal-conditioned policy: a two-layer tanh trunk (512,
256 units) over the (observation feature, goal feature, relative pose)
input, with separate softmax actor and scalar critic heads. ``MLP`` is a
tanh stack with a linear output, used by the intrinsic-reward baselines.
Gradients are checked against finite differences in the test suite;
optimization is a from-scratch Adam.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_probs(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def init_dense(rng: np.random.Generator, params: Dict[str, np.ndarray],
               name: str, fan_in: int, fan_out: int) -> None:
    """Add layer ``name``: uniform weights in +-1/sqrt(fan_in), zero bias."""
    bound = 1.0 / np.sqrt(fan_in)
    params[f"{name}.w"] = rng.uniform(-bound, bound, (fan_in, fan_out))
    params[f"{name}.b"] = np.zeros(fan_out)


def tanh_forward(params: Dict[str, np.ndarray], names: Sequence[str],
                 x: np.ndarray) -> List[np.ndarray]:
    """Activations ``[x, h1, ...]`` of the tanh layers ``names``, in order."""
    acts = [x]
    for name in names:
        acts.append(np.tanh(acts[-1] @ params[f"{name}.w"]
                            + params[f"{name}.b"]))
    return acts


def dense_backward(params: Dict[str, np.ndarray], names: Sequence[str],
                   acts: Sequence[np.ndarray], d: np.ndarray,
                   grads: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Add the gradients of layers ``names`` to ``grads`` and return it.

    ``acts[i]`` is the input of layer ``names[i]``, a tanh output for i > 0;
    ``d`` is the loss gradient at the last layer's pre-activation.
    """
    for i in reversed(range(len(names))):
        grads[f"{names[i]}.w"] = acts[i].T @ d
        grads[f"{names[i]}.b"] = d.sum(axis=0)
        if i > 0:
            d = (d @ params[f"{names[i]}.w"].T) * (1.0 - acts[i] * acts[i])
    return grads


class ActorCritic:
    """Goal-conditioned policy and value network."""

    TRUNK = ("fc1", "fc2")

    def __init__(self, input_dim: int, n_actions: int,
                 hidden: Tuple[int, int] = (512, 256), seed: int = 0):
        self.input_dim = int(input_dim)
        self.n_actions = int(n_actions)
        self.hidden = tuple(int(h) for h in hidden)
        rng = np.random.default_rng(seed)
        self.params: Dict[str, np.ndarray] = {}
        for name, fan_in, fan_out in self.layers(self.input_dim,
                                                 self.n_actions, self.hidden):
            init_dense(rng, self.params, name, fan_in, fan_out)

    @staticmethod
    def layers(input_dim: int, n_actions: int,
               hidden: Tuple[int, int]) -> List[Tuple[str, int, int]]:
        """(name, fan_in, fan_out) of each layer, in parameter order; each
        layer has a ``<name>.w`` and a ``<name>.b`` parameter."""
        h1, h2 = hidden
        return [("fc1", input_dim, h1), ("fc2", h1, h2),
                ("actor", h2, n_actions), ("critic", h2, 1)]

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, dict]:
        """(logits, values, cache) for a batch of inputs, shape (n, input_dim)."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        p = self.params
        acts = tanh_forward(p, self.TRUNK, x)
        h2 = acts[-1]
        logits = h2 @ p["actor.w"] + p["actor.b"]
        values = (h2 @ p["critic.w"] + p["critic.b"])[:, 0]
        return logits, values, {"x": x, "acts": acts}

    def backward(self, cache: dict, dlogits: np.ndarray,
                 dvalues: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients given loss gradients at the two heads."""
        acts = cache["acts"]
        h2 = acts[-1]
        p = self.params
        dvalues = np.asarray(dvalues, float).reshape(-1, 1)
        grads = {
            "actor.w": h2.T @ dlogits,
            "actor.b": dlogits.sum(axis=0),
            "critic.w": h2.T @ dvalues,
            "critic.b": dvalues.sum(axis=0),
        }
        dh2 = dlogits @ p["actor.w"].T + dvalues @ p["critic.w"].T
        return dense_backward(p, self.TRUNK, acts, dh2 * (1.0 - h2 * h2),
                              grads)

    def act(self, x: np.ndarray, rng: np.random.Generator,
            memo: Optional[dict] = None) -> Tuple[int, float, float]:
        """Sample a single action; returns (action, logp, value).

        The draw is the one ``rng.choice(n_actions, p=softmax(logits))``
        makes: one ``rng.random()`` searched in the normalised CDF, so the
        action and the generator's state match it exactly. ``memo`` maps
        ``x.tobytes()`` to (CDF, log-prob row, value) and is filled on a
        miss; it is valid only while the parameters stay unchanged.
        Non-finite probabilities raise ValueError, as ``choice`` does.
        """
        key = None if memo is None else x.tobytes()
        decision = None if memo is None else memo.get(key)
        if decision is None:
            logits, values, _ = self.forward(x)
            cdf = softmax(logits)[0].cumsum()
            if not np.isfinite(cdf[-1]):
                raise ValueError("Probabilities contain NaN")
            cdf /= cdf[-1]
            decision = (cdf, log_probs(logits)[0], float(values[0]))
            if memo is not None:
                memo[key] = decision
        cdf, logp, value = decision
        a = int(cdf.searchsorted(rng.random(), side="right"))
        return a, float(logp[a]), value

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
        self.names = tuple(f"l{i}" for i in range(len(self.dims) - 1))
        rng = np.random.default_rng(seed)
        self.params: Dict[str, np.ndarray] = {}
        for name, fan_in, fan_out in zip(self.names, self.dims, self.dims[1:]):
            init_dense(rng, self.params, name, fan_in, fan_out)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, list]:
        acts = tanh_forward(self.params, self.names[:-1],
                            np.atleast_2d(np.asarray(x, float)))
        last = self.names[-1]
        out = acts[-1] @ self.params[f"{last}.w"] + self.params[f"{last}.b"]
        acts.append(out)
        return out, acts

    def backward(self, acts: list, dout: np.ndarray) -> Dict[str, np.ndarray]:
        return dense_backward(self.params, self.names, acts,
                              np.asarray(dout, float), {})

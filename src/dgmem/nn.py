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

Training batches repeat inputs; ``distinct_rows`` finds a batch's distinct
rows, and the training losses (``learner``) run the network on those only.
The network itself sees whatever rows it is given. A backward allocates
nothing large: its temporaries and the weight gradients it returns are views
of the network's ``Workspace``, valid only until the next backward through
that network (an ``MLP``'s go to its flat gradient array). ``Adam.step``
updates its moments and the parameters in place, in its formula's order.

Imitation runs its plain-SGD steps on one fixed batch through
``ActorCritic.sgd_on_fixed_inputs``, which moves the first layer's
pre-activation through the batch's Gram matrix instead of forming that
layer's input product and weight gradient at every step.
"""
from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


@functools.lru_cache(maxsize=None)
def layer_keys(name: str) -> Tuple[str, ...]:
    """Parameter keys (w, b) and workspace keys (dw, dx, gate) of ``name``."""
    return tuple(f"{name}.{part}" for part in ("w", "b", "dw", "dx", "gate"))


def tanh_forward(params: Dict[str, np.ndarray], names: Sequence[str],
                 x: np.ndarray) -> List[np.ndarray]:
    """Activations ``[x, h1, ...]`` of the tanh layers ``names``, in order."""
    acts = [x]
    for name in names:
        w, b = layer_keys(name)[:2]
        acts.append(np.tanh(acts[-1] @ params[w] + params[b]))
    return acts


class Workspace:
    """Scratch arrays that a network's backward reuses from call to call.

    ``rows(name, n, cols)`` is an ``(n, cols)`` view of buffer ``name``. The
    buffer grows to the largest ``n`` asked for and never shrinks, so a
    training loop stops allocating once it has seen its largest batch.
    """

    def __init__(self):
        self.buffers: Dict[str, np.ndarray] = {}

    def rows(self, name: str, n: int, cols: int) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or len(buf) < n:
            buf = self.buffers[name] = np.empty((n, cols))
        return buf[:n]


def tanh_backward(d: np.ndarray, a: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """``d * (1 - a*a)``, written into ``d``; ``scratch`` is a's shape."""
    np.multiply(a, a, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    return np.multiply(d, scratch, out=d)


def dense_backward(params: Dict[str, np.ndarray], names: Sequence[str],
                   acts: Sequence[np.ndarray], d: np.ndarray,
                   grads: Dict[str, np.ndarray],
                   ws: Workspace) -> Dict[str, np.ndarray]:
    """Write the gradients of layers ``names`` into ``grads`` and return it.

    ``acts[i]`` is the input of layer ``names[i]``, a tanh output for i > 0;
    ``d`` is the loss gradient at the last layer's pre-activation. Arrays
    already in ``grads`` are written into; other weight gradients and the
    temporaries are views of ``ws``, valid until its next backward. One row's
    weight gradients are BLAS outer products (``np.dot``; ``np.matmul`` loops
    in C); its bias gradient is the row (a sum turns -0.0 into 0.0, which no
    SGD or Adam step from zero-initialised biases and moments can tell).
    """
    n = len(d)
    product = np.dot if n == 1 else np.matmul
    for i in reversed(range(len(names))):
        wk, bk, dwk, dxk, gatek = layer_keys(names[i])
        w = params[wk]
        if wk not in grads:
            grads[wk], grads[bk] = ws.rows(dwk, *w.shape), np.empty(w.shape[1])
        product(acts[i].T, d, out=grads[wk])
        grads[bk][:] = d[0] if n == 1 else d.sum(axis=0)
        if i > 0:
            d = tanh_backward(np.matmul(d, w.T, out=ws.rows(dxk, n, len(w))),
                              acts[i], ws.rows(gatek, n, len(w)))
    return grads


def distinct_rows(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) of a 2-D batch: ``x[rows]`` are its distinct rows,
    compared by their bytes, and ``x[rows][inverse]`` equals ``x``."""
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1])))[:, 0]
    _, rows, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows, inverse.reshape(-1)


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
        self.workspace = Workspace()

    @staticmethod
    def layers(input_dim: int, n_actions: int,
               hidden: Tuple[int, int]) -> List[Tuple[str, int, int]]:
        """(name, fan_in, fan_out) of each layer, in parameter order; each
        layer has a ``<name>.w`` and a ``<name>.b`` parameter."""
        h1, h2 = hidden
        return [("fc1", input_dim, h1), ("fc2", h1, h2),
                ("actor", h2, n_actions), ("critic", h2, 1)]

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, dict]:
        """(logits, values, cache) for a batch of inputs, shape (n,
        input_dim)."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        p = self.params
        acts = tanh_forward(p, self.TRUNK, x)
        h2 = acts[-1]
        logits = h2 @ p["actor.w"] + p["actor.b"]
        values = (h2 @ p["critic.w"] + p["critic.b"])[:, 0]
        return logits, values, {"x": x, "acts": acts}

    def actor_logits(self, z1: np.ndarray) -> np.ndarray:
        """Actor logits given ``fc1``'s pre-activation ``z1``: the rest of
        the trunk and the actor head, as ``forward`` runs them."""
        p = self.params
        h2 = tanh_forward(p, self.TRUNK[1:], np.tanh(z1))[-1]
        return h2 @ p["actor.w"] + p["actor.b"]

    def heads(self, z1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``actor_logits(z1)`` and the critic's values."""
        p = self.params
        h2 = tanh_forward(p, self.TRUNK[1:], np.tanh(z1))[-1]
        return (h2 @ p["actor.w"] + p["actor.b"],
                (h2 @ p["critic.w"] + p["critic.b"])[..., 0])

    def keep_inputs(self, n: int) -> None:
        """Keep the first ``n`` rows of ``fc1.w``: the network of inputs
        whose later entries are zero (those rows never get a gradient)."""
        self.params["fc1.w"] = self.params["fc1.w"][:n].copy()
        self.input_dim = int(n)

    def backward(self, cache: dict, dlogits: np.ndarray,
                 dvalues: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients given loss gradients at the two heads; the
        trunk's weight gradients are valid until the next backward."""
        acts = cache["acts"]
        h2 = acts[-1]
        p, ws = self.params, self.workspace
        n, width = h2.shape
        dvalues = np.asarray(dvalues, float).reshape(-1, 1)
        grads = {
            "actor.w": h2.T @ dlogits,
            "actor.b": dlogits.sum(axis=0),
            "critic.w": h2.T @ dvalues,
            "critic.b": dvalues.sum(axis=0),
        }
        dh2 = np.matmul(dlogits, p["actor.w"].T, out=ws.rows("dh2", n, width))
        dv = np.matmul(dvalues, p["critic.w"].T, out=ws.rows("dv", n, width))
        dh2 += dv
        return dense_backward(p, self.TRUNK, acts, tanh_backward(dh2, h2, dv),
                              grads, ws)

    def sgd_on_fixed_inputs(self, x: np.ndarray, steps: int, lr: float,
                            head_grad: Callable[[np.ndarray], np.ndarray]
                            ) -> None:
        """``steps`` plain-SGD steps ``p -= lr * grad`` of the actor head and
        the trunk on the fixed inputs ``x`` (d, input_dim).

        Each step calls ``head_grad(logits)`` for the loss gradient at the
        logits. The critic is left alone: a loss of the logits has no
        gradient there. ``fc1`` is folded through the Gram matrix of the
        inputs. Its step ``W1 -= lr * x.T @ dz1``, ``b1 -= lr * dz1.sum(0)``
        moves its pre-activation ``z1 = x @ W1 + b1`` by ``-lr * G @ dz1``,
        with ``G = x @ x.T + 1``. So ``z1`` is formed once and moved by
        ``G`` after each step but the last, and ``fc1`` takes the summed step
        ``W1 -= lr * x.T @ sum(dz1)``, ``b1 -= lr * sum(dz1).sum(0)`` last.
        In real arithmetic this equals a step-by-step update; only rounding
        differs. Each step costs three d-row products instead of five, plus
        ``G @ dz1`` in the cheaper matrix-chain order: as it stands (d*d
        multiply-adds per hidden unit) while d < 2 * input_dim, else as ``x
        @ (x.T @ dz1) + dz1.sum(0)`` (2*d*input_dim).

        ``z1``, ``sum(dz1)`` and ``G`` are allocated once per call (kept in
        the workspace, they measured more peak RSS). The per-step
        temporaries are views of the workspace buffers a backward owns:
        ``h1``, then its gate, then ``G @ dz1`` in ``fc2.gate``; ``h2`` and
        its gate in ``dv``; ``dz2`` in ``dh2``; ``dz1`` in ``fc2.dx``; the
        weight gradients in ``fc2.dw`` and ``fc1.dw``. Like a backward, a
        call ends the validity of the gradients the last backward returned.
        """
        p, ws = self.params, self.workspace
        d = len(x)
        width1, width2 = self.hidden
        z1 = x @ p["fc1.w"]
        z1 += p["fc1.b"]
        dz1_sum = np.zeros_like(z1)
        gram = None
        if d < 2 * self.input_dim:
            gram = x @ x.T
            gram += 1.0
        for step in range(steps):
            h1 = np.tanh(z1, out=ws.rows("fc2.gate", d, width1))
            h2 = np.matmul(h1, p["fc2.w"], out=ws.rows("dv", d, width2))
            h2 += p["fc2.b"]
            np.tanh(h2, out=h2)
            dlogits = head_grad(h2 @ p["actor.w"] + p["actor.b"])
            grads = {"actor.w": h2.T @ dlogits,
                     "actor.b": dlogits.sum(axis=0)}
            dz2 = tanh_backward(np.matmul(dlogits, p["actor.w"].T,
                                          out=ws.rows("dh2", d, width2)),
                                h2, h2)
            grads["fc2.w"] = np.matmul(h1.T, dz2,
                                       out=ws.rows("fc2.dw", width1, width2))
            grads["fc2.b"] = dz2.sum(axis=0)
            dz1 = tanh_backward(np.matmul(dz2, p["fc2.w"].T,
                                          out=ws.rows("fc2.dx", d, width1)),
                                h1, h1)
            for key, g in grads.items():
                p[key] -= np.multiply(g, lr, out=g)
            dz1_sum += dz1
            if step == steps - 1:
                break  # nothing reads the last step's move of z1
            move = h1  # h1's buffer is free once dz1 is formed
            if gram is None:
                np.matmul(x, np.matmul(x.T, dz1, out=ws.rows(
                    "fc1.dw", self.input_dim, width1)), out=move)
                move += dz1.sum(axis=0)
            else:
                np.matmul(gram, dz1, out=move)
            z1 -= np.multiply(move, lr, out=move)
        dw1 = np.matmul(x.T, dz1_sum, out=ws.rows("fc1.dw", self.input_dim,
                                                  width1))
        p["fc1.w"] -= np.multiply(dw1, lr, out=dw1)
        p["fc1.b"] -= lr * dz1_sum.sum(axis=0)

    def act(self, x: np.ndarray, rng: np.random.Generator,
            memo: Optional[dict] = None,
            heads: Optional[Callable] = None) -> Tuple[int, float, float]:
        """Sample a single action; returns (action, logp, value).

        The draw is the one ``rng.choice(n_actions, p=softmax(logits))``
        makes: one ``rng.random()`` searched in the normalised CDF, so the
        action and the generator's state match it exactly. ``memo`` maps
        ``x.tobytes()`` to (CDF, log-prob row, value) and is filled on a
        miss; it is valid only while the parameters stay unchanged. On a
        miss ``heads()``, when given, supplies x's (logits, values) in place
        of ``forward(x)``. Non-finite probabilities raise ValueError, as
        ``choice`` does.
        """
        key = None if memo is None else x.tobytes()
        decision = None if memo is None else memo.get(key)
        if decision is None:
            logits, values = self.forward(x)[:2] if heads is None else heads()
            cdf = softmax(logits).reshape(-1).cumsum()
            if not np.isfinite(cdf[-1]):
                raise ValueError("Probabilities contain NaN")
            cdf /= cdf[-1]
            decision = (cdf, log_probs(logits).reshape(-1),
                        float(values.reshape(-1)[0]))
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
        # one scratch pair shared by every parameter: one pair per parameter
        # would double Adam's memory
        size = max((v.size for v in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: Dict[str, np.ndarray],
             grads: Dict[str, np.ndarray], lr: float) -> None:
        """One update in place: per parameter, ``m = b1*m + (1-b1)*g``, ``v
        = b2*v + (1-b2)*(g*g)`` and ``p -= lr * (m/b1c) / (sqrt(v/b2c) +
        eps)``, with the same operations in the same order."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            s, u = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            np.add(np.multiply(m, self.beta1, out=m),
                   np.multiply(g, 1 - self.beta1, out=s), out=m)
            np.multiply(g, g, out=s)
            np.add(np.multiply(v, self.beta2, out=v),
                   np.multiply(s, 1 - self.beta2, out=s), out=v)
            np.multiply(np.divide(m, b1c, out=s), lr, out=s)
            np.add(np.sqrt(np.divide(v, b2c, out=u), out=u), self.eps, out=u)
            params[k] -= np.divide(s, u, out=s)


class MLP:
    """Plain tanh MLP regressor used by the intrinsic-reward baselines;
    ``params`` and ``grads`` are views of the flat arrays ``flat``, ``grad``."""

    def __init__(self, input_dim: int, hidden: Tuple[int, ...],
                 output_dim: int, seed: int = 0):
        self.dims = (int(input_dim),) + tuple(int(h) for h in hidden) + (int(output_dim),)
        self.names = tuple(f"l{i}" for i in range(len(self.dims) - 1))
        rng = np.random.default_rng(seed)
        params: Dict[str, np.ndarray] = {}
        for name, fan_in, fan_out in zip(self.names, self.dims, self.dims[1:]):
            init_dense(rng, params, name, fan_in, fan_out)
        self.flat = np.concatenate([p.ravel() for p in params.values()])
        self.grad = np.empty_like(self.flat)
        cuts = np.cumsum([p.size for p in params.values()])[:-1]
        self.params, self.grads = (
            {k: v.reshape(params[k].shape)
             for k, v in zip(params, np.split(flat, cuts))}
            for flat in (self.flat, self.grad))
        self.workspace = Workspace()

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, list]:
        acts = tanh_forward(self.params, self.names[:-1],
                            np.atleast_2d(np.asarray(x, float)))
        w, b = layer_keys(self.names[-1])[:2]
        out = acts[-1] @ self.params[w] + self.params[b]
        acts.append(out)
        return out, acts

    def backward(self, acts: list, dout: np.ndarray) -> Dict[str, np.ndarray]:
        """Parameter gradients: ``grads``, written anew by every backward."""
        return dense_backward(self.params, self.names, acts,
                              np.asarray(dout, float), self.grads,
                              self.workspace)

    def sgd_step(self, acts: list, target: np.ndarray, lr: float) -> float:
        """Squared error of the forward's one output row ``acts[-1][0]``
        against ``target``, then one plain-SGD step on it: ``p -= lr * g``
        for all parameters in one pass over ``flat``. Returns the error."""
        err = acts[-1][0] - target
        self.backward(acts, 2.0 * err[None, :] / len(err))
        self.flat -= np.multiply(self.grad, lr, out=self.grad)
        return float(err @ err)

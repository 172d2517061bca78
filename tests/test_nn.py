import numpy as np
import pytest

from dgmem.nn import (MLP, ActorCritic, Adam, distinct_rows, init_dense,
                      log_probs, softmax)


def finite_diff_check(params, loss_fn, grads, eps=1e-6, rel_tol=1e-4,
                      n_probe=6):
    """Compare analytic grads to central differences on sampled entries."""
    rng = np.random.default_rng(0)
    for name, g in grads.items():
        flat = params[name].reshape(-1)
        gflat = g.reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_probe, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn()
            flat[idx] = orig - eps
            dn = loss_fn()
            flat[idx] = orig
            num = (up - dn) / (2 * eps)
            denom = max(abs(num), abs(gflat[idx]), 1e-8)
            assert abs(num - gflat[idx]) / denom < rel_tol, (
                f"{name}[{idx}]: analytic {gflat[idx]}, numeric {num}")


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.standard_normal((10, 4)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal((5, 4))
        assert np.allclose(softmax(z), softmax(z + 100.0))

    def test_log_probs_consistent(self, rng):
        z = rng.standard_normal((5, 4))
        assert np.allclose(np.exp(log_probs(z)), softmax(z))

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1000.0, -1000.0, 0.0, 0.0]])
        assert np.isfinite(softmax(z)).all()
        assert np.isfinite(log_probs(z)).all()


class TestActorCritic:
    def make(self):
        return ActorCritic(12, 4, hidden=(16, 8), seed=3)

    def test_shapes(self, rng):
        net = self.make()
        logits, values, _ = net.forward(rng.standard_normal((7, 12)))
        assert logits.shape == (7, 4) and values.shape == (7,)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            self.make().forward(np.zeros((2, 5)))

    def test_deterministic_init(self):
        a, b = self.make(), self.make()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_gradients_match_finite_differences(self, rng):
        """Composite loss touching both heads checks every layer's gradient."""
        net = self.make()
        x = rng.standard_normal((5, 12))
        actions = rng.integers(0, 4, 5)
        targets = rng.standard_normal(5)

        def loss_fn():
            logits, values, _ = net.forward(x)
            lp = log_probs(logits)
            pol = -lp[np.arange(5), actions].mean()
            val = 0.5 * ((values - targets) ** 2).mean()
            return pol + val

        logits, values, cache = net.forward(x)
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(5), actions] = 1.0
        dlogits = (probs - onehot) / 5
        dvalues = (values - targets) / 5
        grads = net.backward(cache, dlogits, dvalues)
        finite_diff_check(net.params, loss_fn, grads)

    def test_entropy_gradient_matches_finite_differences(self, rng):
        net = self.make()
        x = rng.standard_normal((4, 12))

        def loss_fn():
            logits, _, _ = net.forward(x)
            lp = log_probs(logits)
            p = softmax(logits)
            return -(-(p * lp).sum(axis=1)).mean()

        logits, _, cache = net.forward(x)
        lp = log_probs(logits)
        p = softmax(logits)
        ent = -(p * lp).sum(axis=1)
        dlogits = (1.0 / 4) * p * (lp + ent[:, None])
        grads = net.backward(cache, dlogits, np.zeros(4))
        finite_diff_check(net.params, loss_fn, grads)

    def test_act_returns_valid_action(self, rng):
        net = self.make()
        x = rng.standard_normal(12)
        a, logp, v = net.act(x, rng)
        assert 0 <= a < 4 and logp <= 0.0 and np.isfinite(v)

    def test_act_samples_from_softmax(self, rng):
        net = self.make()
        x = rng.standard_normal(12)
        logits, values, _ = net.forward(x)
        expect = softmax(logits)[0]
        draws = [net.act(x, rng) for _ in range(4000)]
        freq = np.array([np.mean([d[0] == a for d in draws])
                         for a in range(4)])
        assert np.abs(freq - expect).max() < 0.03
        for a, logp, v in draws[:20]:
            assert logp == log_probs(logits)[0, a] and v == values[0]

    def test_act_draws_as_choice_does(self, rng):
        """Draw for draw the action ``rng.choice(p=softmax(logits))`` picks,
        leaving the generator in the same state, with and without a memo;
        a memo hit runs no forward."""
        net = self.make()
        # large inputs saturate the trunk: near-one-hot and flat rows alike
        xs = rng.standard_normal((6, 12)) * np.array([[0.1], [1], [3], [10],
                                                      [30], [100]])
        forwards = []
        forward = net.forward
        net.forward = lambda x: forwards.append(1) or forward(x)
        for memo in (None, {}):
            forwards.clear()
            ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
            for i in range(600):
                x = xs[i % len(xs)]
                logits, values, _ = forward(x)
                want = int(theirs.choice(4, p=softmax(logits)[0]))
                a, logp, v = net.act(x, ours, memo=memo)
                assert a == want
                assert logp == log_probs(logits)[0, a] and v == values[0]
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert len(forwards) == (600 if memo is None else len(xs))
        assert len(memo) == len(xs)

    def test_act_rejects_nan_parameters(self, rng):
        net = self.make()
        net.params["fc1.w"][0, 0] = np.nan
        x = np.ones(12)
        with pytest.raises(ValueError):
            rng.choice(4, p=softmax(net.forward(x)[0])[0])
        memo = {}
        for m in (None, memo, memo):
            with pytest.raises(ValueError):
                net.act(x, rng, memo=m)
        assert memo == {}

    def test_layer_loop_matches_unrolled_trunk(self, rng):
        """Byte-equal to the trunk written out layer by layer."""
        net = self.make()
        p = net.params
        for n in (1, 7, 64):
            x = rng.standard_normal((n, 12))
            h1 = np.tanh(x @ p["fc1.w"] + p["fc1.b"])
            h2 = np.tanh(h1 @ p["fc2.w"] + p["fc2.b"])
            logits, values, cache = net.forward(x)
            assert logits.tobytes() == (h2 @ p["actor.w"]
                                        + p["actor.b"]).tobytes()
            assert values.tobytes() == (h2 @ p["critic.w"]
                                        + p["critic.b"])[:, 0].tobytes()
            dlogits = rng.standard_normal((n, 4))
            dvalues = rng.standard_normal((n, 1))
            dz2 = ((dlogits @ p["actor.w"].T + dvalues @ p["critic.w"].T)
                   * (1.0 - h2 * h2))
            dz1 = (dz2 @ p["fc2.w"].T) * (1.0 - h1 * h1)
            want = {"actor.w": h2.T @ dlogits, "actor.b": dlogits.sum(axis=0),
                    "critic.w": h2.T @ dvalues,
                    "critic.b": dvalues.sum(axis=0),
                    "fc2.w": h1.T @ dz2, "fc2.b": dz2.sum(axis=0),
                    "fc1.w": x.T @ dz1, "fc1.b": dz1.sum(axis=0)}
            grads = net.backward(cache, dlogits, dvalues[:, 0])
            assert list(grads) == list(want)
            for k in want:
                assert grads[k].tobytes() == want[k].tobytes(), k

    def test_param_copy_set_round_trip(self, rng):
        net = self.make()
        saved = net.copy_params()
        net.params["fc1.w"] += 1.0
        net.set_params(saved)
        for k in saved:
            assert np.array_equal(net.params[k], saved[k])

    def test_params_finite_detects_nan(self):
        net = self.make()
        assert net.params_finite()
        net.params["fc2.w"][0, 0] = np.nan
        assert not net.params_finite()


class TestDistinctRows:
    def test_rows_and_inverse_rebuild_the_batch(self, rng, duplicate_heavy):
        x = duplicate_heavy(rng, 9, 50, 5)
        rows, inverse = distinct_rows(x)
        assert len(rows) == 9 and inverse.shape == (50,)
        assert x[rows][inverse].tobytes() == x.tobytes()

    def test_rows_compare_by_bytes(self):
        # -0.0 == 0.0 as numbers, but a row holding either stays its own
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        rows, inverse = distinct_rows(x)
        assert len(rows) == 2 and x[rows][inverse].tobytes() == x.tobytes()


class TestWorkspace:
    def test_gradients_survive_a_forward(self, rng, duplicate_heavy):
        net = ActorCritic(259, 4, seed=2)
        x = duplicate_heavy(rng, 20, 128)
        logits, values, cache = net.forward(x)
        grads = net.backward(cache, rng.standard_normal(logits.shape),
                             rng.standard_normal(len(x)))
        kept = {k: g.copy() for k, g in grads.items()}
        net.forward(duplicate_heavy(rng, 30, 300))
        for k in kept:
            assert grads[k].tobytes() == kept[k].tobytes(), k

    def test_buffers_stop_growing_at_the_largest_batch(self, rng):
        ac, mlp = ActorCritic(259, 4, seed=2), MLP(6, (8, 8), 3, seed=1)
        for net in (ac, mlp):
            seen = []
            for n in (64, 300, 10, 200, 300, 1, 299):
                if net is ac:
                    logits, _, cache = ac.forward(
                        rng.standard_normal((n, 259)))
                    ac.backward(cache, np.ones_like(logits), np.ones(n))
                else:
                    out, acts = mlp.forward(rng.standard_normal((n, 6)))
                    mlp.backward(acts, np.ones_like(out))
                seen.append({k: (id(b), b.shape)
                             for k, b in net.workspace.buffers.items()})
            # after the 300-row batch every buffer is the same array, the
            # per-row ones 300 rows long, the weight gradients weight-shaped
            assert seen[1] and all(later == seen[1] for later in seen[2:])
            for name, (_, shape) in seen[1].items():
                if name.endswith(".dw"):
                    assert shape == net.params[name[:-3] + ".w"].shape
                else:
                    assert shape[0] == 300, name

    def test_second_backward_reuses_the_weight_gradients(self, rng):
        net = ActorCritic(12, 4, hidden=(16, 8), seed=3)
        x = rng.standard_normal((5, 12))
        logits, _, cache = net.forward(x)
        first = net.backward(cache, np.ones_like(logits), np.ones(5))
        second = net.backward(cache, np.ones_like(logits), np.ones(5))
        assert first["fc1.w"] is not second["fc1.w"]
        assert np.shares_memory(first["fc1.w"], second["fc1.w"])


class TestAdam:
    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = Adam(params)
        for _ in range(500):
            opt.step(params, {"w": 2 * params["w"]}, lr=0.05)
        assert np.abs(params["w"]).max() < 1e-3

    def test_first_step_size_is_lr(self):
        # bias correction makes the very first update equal lr in magnitude
        params = {"w": np.zeros(3)}
        opt = Adam(params)
        opt.step(params, {"w": np.array([1.0, -2.0, 0.5])}, lr=0.1)
        assert np.allclose(np.abs(params["w"]), 0.1, atol=1e-6)


    def test_in_place_step_matches_the_formula(self, rng, reference_adam):
        """50 random steps on mixed shapes: the in-place update gives the
        bytes of the fresh-array formula, moments included."""
        shapes = {"w": (7, 5), "b": (5,), "big": (40, 30), "s": (1,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref_params = {k: v.copy() for k, v in params.items()}
        opt, ref = Adam(params), reference_adam(ref_params)
        for step in range(50):
            keys = [k for k in shapes if rng.random() < 0.8] or ["w"]
            grads = {k: rng.standard_normal(shapes[k])
                     * 10.0 ** rng.integers(-6, 3) for k in keys}
            lr = float(rng.uniform(1e-5, 1e-1))
            opt.step(params, {k: g.copy() for k, g in grads.items()}, lr)
            ref.step(ref_params, grads, lr)
            for k in shapes:
                assert params[k].tobytes() == ref_params[k].tobytes(), step
                assert opt.m[k].tobytes() == ref.m[k].tobytes()
                assert opt.v[k].tobytes() == ref.v[k].tobytes()
        assert opt.t == ref.t == 50


class TestMLP:
    def test_gradients_match_finite_differences(self, rng):
        net = MLP(6, (8, 8), 3, seed=1)
        x = rng.standard_normal((4, 6))
        target = rng.standard_normal((4, 3))

        def loss_fn():
            out, _ = net.forward(x)
            return 0.5 * ((out - target) ** 2).sum() / 4

        out, acts = net.forward(x)
        grads = net.backward(acts, (out - target) / 4)
        finite_diff_check(net.params, loss_fn, grads)

    @pytest.mark.parametrize("dims", [(132, (64, 64), 128),
                                      (259, (512, 256), 4)])
    def test_one_row_weight_gradients_equal_matmul(self, rng, dims):
        """A one-row backward forms its weight gradients with ``np.dot``;
        they equal the ``np.matmul`` outer products bit for bit."""
        net = MLP(*dims, seed=4)
        out, acts = net.forward(rng.standard_normal((1, dims[0])))
        d = rng.standard_normal(out.shape)
        grads = net.backward(acts, d.copy())
        for i in reversed(range(len(net.names))):
            name = net.names[i]
            assert (grads[f"{name}.w"].tobytes()
                    == np.matmul(acts[i].T, d).tobytes()), name
            d = (d @ net.params[f"{name}.w"].T) * (1 - acts[i] * acts[i])

    def test_parameters_and_gradients_are_flat_views(self, rng):
        """``params`` and ``grads`` view one flat array each, in layer
        order; the parameters are ``init_dense``'s, and ``sgd_step``
        returns the squared error and takes ``p -= lr * g`` per parameter."""
        net = MLP(6, (8, 8), 3, seed=1)
        init, init_rng = {}, np.random.default_rng(1)
        for name, fan_in, fan_out in (("l0", 6, 8), ("l1", 8, 8),
                                      ("l2", 8, 3)):
            init_dense(init_rng, init, name, fan_in, fan_out)
        assert list(net.params) == list(net.grads) == list(init)
        start = 0
        for k, v in init.items():
            assert net.params[k].tobytes() == v.tobytes(), k
            for view, flat in ((net.params[k], net.flat),
                               (net.grads[k], net.grad)):
                assert view.base is flat and view.shape == v.shape
                assert view.__array_interface__["data"][0] == (
                    flat.__array_interface__["data"][0] + 8 * start)
            start += v.size
        assert start == net.flat.size == net.grad.size
        for _ in range(3):
            out, acts = net.forward(rng.standard_normal((1, 6)))
            target = rng.standard_normal(3)
            err = out[0] - target
            grads = net.backward(acts, 2.0 * err[None, :] / 3)
            assert grads is net.grads
            want = {k: net.params[k] - 0.01 * g for k, g in grads.items()}
            assert net.sgd_step(acts, target, 0.01) == float(err @ err)
            for k, v in want.items():
                assert net.params[k].tobytes() == v.tobytes(), k
        out, acts = net.forward(rng.standard_normal((5, 6)))
        assert net.backward(acts, np.ones_like(out)) is net.grads

    def test_one_row_bias_gradient_is_the_row(self, rng):
        """A one-row backward copies its row into the bias gradient, equal
        in value to the sum over the row (which would turn -0.0 into 0.0)."""
        net = MLP(6, (8,), 3, seed=1)
        out, acts = net.forward(rng.standard_normal((1, 6)))
        d = np.array([[-0.0, 0.5, -2.0]])
        grads = net.backward(acts, d)
        assert grads["l1.b"].tobytes() == d[0].tobytes()
        assert np.array_equal(grads["l1.b"], d.sum(axis=0))

    def test_regression_converges(self, rng):
        net = MLP(2, (16,), 1, seed=0)
        x = rng.uniform(-1, 1, (64, 2))
        y = (x[:, :1] * 0.5 - x[:, 1:] * 0.25)
        for _ in range(400):
            out, acts = net.forward(x)
            grads = net.backward(acts, (out - y) / len(x))
            for k, g in grads.items():
                net.params[k] -= 0.5 * g
        out, _ = net.forward(x)
        assert float(((out - y) ** 2).mean()) < 1e-3

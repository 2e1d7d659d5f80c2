"""Network forward/backward correctness, optimizer behavior, checkpoint round-trips."""

import tracemalloc

import numpy as np
import pytest

from flowlag.nn import Adam, Mlp, TimeEmbedding, load_checkpoint, restore_rng, save_checkpoint


def numerical_param_gradient(net, loss_fn, key, idx, eps=1e-6):
    """Central finite difference of loss_fn in one parameter coordinate."""
    p = net.parameters()[key]
    orig = p.flat[idx]
    p.flat[idx] = orig + eps
    up = loss_fn()
    p.flat[idx] = orig - eps
    down = loss_fn()
    p.flat[idx] = orig
    return (up - down) / (2.0 * eps)


class TestTimeEmbedding:
    def test_width_and_shape(self):
        emb = TimeEmbedding(n_pairs=4)
        assert emb.width == 8
        assert emb(0.3).shape == (8,)
        assert emb(np.linspace(0, 1, 5)).shape == (5, 8)

    def test_deterministic(self):
        emb = TimeEmbedding()
        np.testing.assert_array_equal(emb(0.7), emb(0.7))

    def test_smooth_in_time(self):
        emb = TimeEmbedding(n_pairs=6)
        t = np.linspace(0, 1, 2001)
        deltas = np.abs(np.diff(emb(t), axis=0)).max()
        # largest frequency is pi * 2^5, so steps of 5e-4 move features < 0.06
        assert deltas < 0.06


class TestForward:
    def test_zero_final_layer_gives_zero_map(self):
        net = Mlp.create(dim=3, hidden=(8,), rng=np.random.default_rng(1))
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        rng = np.random.default_rng(2)
        out = net.forward(rng.standard_normal((5, 3)), 0.3)
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_skip_scales_state_by_time_feature_product(self):
        """With a zero body, the output is (skip[0] + emb(t) . skip[1:]) x."""
        net = Mlp.create(dim=3, hidden=(4,), rng=np.random.default_rng(23), n_time_pairs=2)
        net.weights[-1][:] = 0.0
        net.skip[:] = [0.5, 1.0, -2.0, 0.25, 3.0]
        x = np.array([1.0, -2.0, 0.5])
        scale = 0.5 + net.time_embedding(0.3) @ net.skip[1:]
        np.testing.assert_allclose(net.forward(x, 0.3), scale * x, rtol=1e-14)
        np.testing.assert_array_equal(net.forward_cached(x, 0.3)[0], net.forward(x, 0.3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_row_t", [False, True])
    def test_forward_equals_cached_and_mutates_nothing(self, dtype, per_row_t):
        rng = np.random.default_rng(24)
        net = Mlp.create(dim=5, hidden=(16, 12), rng=rng, n_time_pairs=3, dtype=dtype)
        for b in net.biases:
            b[:] = rng.uniform(-0.5, 0.5, b.shape)
        net.skip[:] = rng.uniform(-0.5, 0.5, net.skip.shape)
        x = rng.standard_normal((9, 5)).astype(dtype)
        t = rng.uniform(0.0, 1.0, 9) if per_row_t else 0.3
        x_before = x.copy()
        params_before = {k: p.copy() for k, p in net.parameters().items()}

        out, cache = net.forward_cached(x, t)
        acts_before = [a.copy() for a in cache["acts"]]
        again = net.forward(x, t)
        assert again.dtype == dtype
        np.testing.assert_array_equal(again, out)
        np.testing.assert_array_equal(x, x_before)
        for key, p in net.parameters().items():
            np.testing.assert_array_equal(p, params_before[key])
        for a, before in zip(cache["acts"], acts_before):
            np.testing.assert_array_equal(a, before)
        # the cache holds the body output, without the skip term
        assert not np.array_equal(cache["acts"][-1], out)

    def test_scalar_time_equals_repeated_per_row_time(self):
        rng = np.random.default_rng(25)
        net = Mlp.create(dim=4, hidden=(8,), rng=rng, dtype=np.float32)
        net.skip[:] = rng.uniform(-0.5, 0.5, net.skip.shape)
        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(net.forward(x, 0.7), net.forward(x, np.full(6, 0.7)))

    def test_forward_is_deterministic(self):
        net = Mlp.create(dim=4, hidden=(16, 16), rng=np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((7, 4))
        a = net.forward(x, 0.25)
        b = net.forward(x, 0.25)
        np.testing.assert_array_equal(a, b)

    def test_golden_vector_pinned(self):
        """Frozen output of a fixed tiny net; guards against silent drift."""
        net = Mlp.create(dim=2, hidden=(4, 3), rng=np.random.default_rng(0), n_time_pairs=2)
        out = net.forward(np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(
            out, [0.25769710339865626, -0.18091911886770068], rtol=0, atol=1e-15)

    def test_single_vector_and_batch_agree(self):
        net = Mlp.create(dim=3, hidden=(8,), rng=np.random.default_rng(5))
        x = np.array([0.5, -0.25, 1.0])
        single = net.forward(x, 0.6)
        batch = net.forward(x[None, :], 0.6)
        assert single.shape == (3,)
        np.testing.assert_array_equal(single, batch[0])

    def test_rejects_nonfinite_input(self):
        net = Mlp.create(dim=2, hidden=(4,), rng=np.random.default_rng(6))
        with pytest.raises(ValueError):
            net.forward(np.array([np.nan, 0.0]), 0.5)

    def test_input_that_overflows_the_net_dtype_is_rejected(self):
        net = Mlp.create(dim=2, hidden=(4,), rng=np.random.default_rng(6), dtype=np.float32)
        x = np.array([[1e39, 0.0]])   # finite in float64, inf once cast to float32
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            net.forward(x, 0.5)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            net.forward_cached(x, 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_row_t", [False, True])
    def test_reused_buffers_never_leak_into_outputs(self, dtype, per_row_t):
        rng = np.random.default_rng(26)
        net = Mlp.create(dim=6, hidden=(24, 16, 24), rng=rng, n_time_pairs=3, dtype=dtype)
        for b in net.biases:
            b[:] = rng.uniform(-0.5, 0.5, b.shape)
        net.skip[:] = rng.uniform(-0.5, 0.5, net.skip.shape)
        inputs = []
        for n in (8192, 7, None, 8192):
            x = rng.standard_normal(6 if n is None else (n, 6))
            t = rng.uniform(0.0, 1.0, 1 if n is None else n) if per_row_t else 0.4
            inputs.append((x, t))
        outputs, expected = [], []
        for x, t in inputs:
            out = net.forward(x, t)
            assert out.dtype == dtype and out.shape == x.shape
            want = net.forward_cached(x, t)[0]
            np.testing.assert_array_equal(out, want)
            outputs.append(out)
            expected.append(want.copy())
        # later calls, at the same or another row count, leave earlier outputs alone
        for out, want in zip(outputs, expected):
            np.testing.assert_array_equal(out, want)
        for i, out in enumerate(outputs):
            for x, _ in inputs:
                assert not np.shares_memory(out, x)
            for other in outputs[i + 1:]:
                assert not np.shares_memory(out, other)

    def test_warm_forward_allocates_little_beyond_its_output(self):
        net = Mlp.create(dim=64, hidden=(256, 256, 256), rng=np.random.default_rng(27),
                         dtype=np.float32)
        x = np.random.default_rng(28).standard_normal((4096, 64))
        net.forward(x, 0.5)
        tracemalloc.start()
        try:
            out = net.forward(x, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes, f"peak {peak} bytes for a {out.nbytes}-byte output"

    def test_no_activation_blowup_on_training_box(self):
        net = Mlp.create(dim=8, hidden=(32, 32), rng=np.random.default_rng(7))
        x = np.random.default_rng(8).uniform(-5, 5, size=(256, 8))
        out = net.forward(x, 0.5)
        assert np.all(np.isfinite(out))
        # tanh layers keep the map Lipschitz; outputs stay within the
        # bound ||W_last||_1 * 1 + ||b||
        bound = np.abs(net.weights[-1]).sum() + np.abs(net.biases[-1]).sum()
        assert np.abs(out).max() <= bound


class TestBackward:
    def test_linear_net_matches_least_squares_gradient(self):
        """No hidden layers: gradient of ||xW + b - y||^2 is closed form."""
        net = Mlp.create(dim=2, hidden=(), rng=np.random.default_rng(9), n_time_pairs=2)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 2))
        t = 0.4
        out, cache = net.forward_cached(x, t)
        resid = out - y
        grads = net.backward(cache, 2.0 * resid)
        z = cache["acts"][0]
        np.testing.assert_allclose(grads["W0"], 2.0 * z.T @ resid, rtol=1e-12)
        np.testing.assert_allclose(grads["b0"], 2.0 * resid.sum(axis=0), rtol=1e-12)

    def test_zero_loss_gradient_gives_zero_param_gradients(self):
        net = Mlp.create(dim=3, hidden=(5,), rng=np.random.default_rng(11))
        out, cache = net.forward_cached(np.ones((4, 3)), 0.2)
        grads = net.backward(cache, np.zeros_like(out))
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_finite_difference_agreement(self):
        """20 random parameter probes on a 2-hidden-layer net, rel err < 1e-4."""
        net = Mlp.create(dim=3, hidden=(6, 5), rng=np.random.default_rng(12), n_time_pairs=2)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((8, 3))
        t = rng.uniform(0, 1, 8)

        def loss():
            r = net.forward(x, t) - y
            return float((r * r).sum())

        out, cache = net.forward_cached(x, t)
        grads = net.backward(cache, 2.0 * (out - y))
        keys = sorted(grads)
        for probe in range(20):
            key = keys[probe % len(keys)]
            idx = int(rng.integers(net.parameters()[key].size))
            fd = numerical_param_gradient(net, loss, key, idx)
            an = grads[key].flat[idx]
            assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (key, idx, an, fd)

    def test_backward_requires_cache(self):
        net = Mlp.create(dim=2, hidden=(4,), rng=np.random.default_rng(14))
        with pytest.raises(ValueError):
            net.backward({"bogus": True}, np.zeros((1, 2)))

    def test_backward_shape_check(self):
        net = Mlp.create(dim=2, hidden=(4,), rng=np.random.default_rng(15))
        _, cache = net.forward_cached(np.ones((3, 2)), 0.1)
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros((2, 2)))


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        net = Mlp.create(dim=2, hidden=(4,), rng=np.random.default_rng(16))
        params = net.parameters()
        before = {k: p.copy() for k, p in params.items()}
        opt = Adam(lr=0.1)
        opt.step(params, {k: np.zeros_like(p) for k, p in params.items()})
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_first_step_is_signlike(self):
        """From zero moments, the bias-corrected step is -lr * g / (|g| + eps)."""
        p = {"w": np.array([1.0, -2.0, 3.0])}
        g = {"w": np.array([10.0, -0.5, 2.0])}
        opt = Adam(lr=0.01)
        opt.step(p, g)
        expected = np.array([1.0, -2.0, 3.0]) - 0.01 * np.sign(g["w"])
        np.testing.assert_allclose(p["w"], expected, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        opt = Adam()
        with pytest.raises(ValueError):
            opt.step({"w": np.zeros(3)}, {"w": np.zeros(4)})

    def test_step_count_strictly_increases(self):
        opt = Adam()
        p = {"w": np.ones(2)}
        for i in range(1, 4):
            opt.step(p, {"w": np.ones(2)})
            assert opt.step_count == i


class TestCheckpoint:
    def _train_a_bit(self, net, opt, rng, steps):
        for _ in range(steps):
            x = rng.standard_normal((8, net.dim))
            y = rng.standard_normal((8, net.dim))
            out, cache = net.forward_cached(x, 0.5)
            grads = net.backward(cache, 2.0 * (out - y))
            opt.step(net.parameters(), grads)

    def test_exact_roundtrip_and_continued_training(self, tmp_path):
        """Save/restore mid-run; the continued trajectory must be identical."""
        rng = np.random.default_rng(17)
        net = Mlp.create(dim=3, hidden=(8,), rng=rng)
        opt = Adam(lr=1e-2)
        self._train_a_bit(net, opt, rng, 5)

        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, opt, rng=rng, step=5, extra={"note": "mid"})
        self._train_a_bit(net, opt, rng, 3)
        reference = {k: p.copy() for k, p in net.parameters().items()}

        ck = load_checkpoint(path)
        assert ck.step == 5
        assert ck.extra == {"note": "mid"}
        rng2 = restore_rng(ck.rng_state)
        self._train_a_bit(ck.net, ck.optimizer, rng2, 3)
        for k, p in ck.net.parameters().items():
            np.testing.assert_array_equal(p, reference[k])

    def test_roundtrip_without_optimizer(self, tmp_path):
        net = Mlp.create(dim=2, hidden=(4, 4), rng=np.random.default_rng(18))
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        ck = load_checkpoint(path)
        assert ck.optimizer is None
        x = np.random.default_rng(19).standard_normal((5, 2))
        np.testing.assert_array_equal(ck.net.forward(x, 0.3), net.forward(x, 0.3))

    def test_rng_state_roundtrip_mid_stream(self):
        rng = np.random.default_rng(20)
        rng.standard_normal(10)
        state = rng.bit_generator.state
        expected = rng.standard_normal(5)
        np.testing.assert_array_equal(restore_rng(state).standard_normal(5), expected)

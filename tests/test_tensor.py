import ctypes
import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meant.errors import ContractError, DimensionError, NumericError
from meant.fusion import MeantModel, ModelConfig
from meant.tensor import (Tensor, attention, gelu, grad_check, layer_norm,
                          matmul, no_grad, rotate_pairs, softmax_last_dim)
from meant.training import cross_entropy


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_dot(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data[0, 0] == 11.0

    def test_vs_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_shapes_vs_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_uniform(self):
        out = softmax_last_dim(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax_last_dim(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_hand_value(self):
        out = softmax_last_dim(Tensor([0.0, math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_nan_rejected(self):
        from meant.errors import NumericError
        with pytest.raises(NumericError):
            softmax_last_dim(Tensor([np.nan, 0.0]))

    @given(arrays(np.float64, (3, 4, 5),
                  elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        out = softmax_last_dim(Tensor(x))
        assert np.all(out.data >= 0)
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12


class TestLayerNorm:
    def gain_bias(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_input(self):
        g, b = self.gain_bias(3)
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), g, b)
        assert np.max(np.abs(out.data)) < 1e-2  # eps keeps it near zero

    def test_hand_standard(self):
        g, b = self.gain_bias(2)
        out = layer_norm(Tensor([1.0, -1.0]), g, b)
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-5)

    @given(arrays(np.float64, (4, 6), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_standardization_property(self, x):
        if np.any(x.std(axis=-1) < 10.0):
            return  # low-variance rows are visibly shifted by epsilon
        g, b = self.gain_bias(6)
        out = layer_norm(Tensor(x), g, b).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6

    def test_empty_last_axis(self):
        g, b = self.gain_bias(0)
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 0))), g, b)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_positive_asymptote(self):
        assert abs(gelu(Tensor([10.0])).data[0] - 10.0) < 1e-9

    def test_negative_asymptote(self):
        assert abs(gelu(Tensor([-10.0])).data[0]) < 1e-9


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_softmax_sum_is_constant(self):
        x = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True)
        softmax_last_dim(x).sum().backward()
        assert np.max(np.abs(x.grad)) < 1e-12

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_accumulation_and_reset(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * first)
        x.zero_grad()
        (x * x).sum().backward()
        assert np.allclose(x.grad, first)

    def test_backward_deterministic(self):
        def run():
            x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            y = softmax_last_dim(matmul(x, x.swapaxes(0, 1)))
            (y * y).sum().backward()
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert y._backward is None


class TestGradCheck:
    def test_quadratic_exact(self):
        err = grad_check(lambda x: (x * x).sum(), Tensor([1.0, 2.0]))
        assert err < 1e-8

    def test_gelu(self):
        x = Tensor(np.random.default_rng(1).normal(size=8))
        assert grad_check(lambda t: gelu(t).sum(), x) < 1e-6

    def test_small_mlp_with_cross_entropy(self):
        rng = np.random.default_rng(2)
        w1 = Tensor(rng.normal(size=(4, 6)))
        w2 = Tensor(rng.normal(size=(6, 2)))
        labels = np.array([0, 1, 1])

        def f(x):
            logits = matmul(gelu(matmul(x, w1)), w2)
            shift = Tensor(logits.data.max(axis=-1, keepdims=True))
            lse = ((logits - shift).exp().sum(axis=-1)).log() + shift.reshape(3)
            true = logits[np.arange(3), labels]
            return (lse - true).mean()

        assert grad_check(f, Tensor(rng.normal(size=(3, 4)))) < 1e-4

    def test_elementwise_ops_many_seeds(self):
        # an added linear term keeps every gradient coordinate away from
        # zero, where the relative-error metric would only measure noise
        gain, bias = Tensor(np.ones(6)), Tensor(np.zeros(6))
        fns = [
            lambda t: gelu(t).sum() + 3.0 * t.sum(),
            lambda t: (softmax_last_dim(t) * 0.5).sum() + 2.0 * t.sum(),
            lambda t: layer_norm(t.reshape(1, 6), gain, bias).sum() + 2.0 * t.sum(),
            lambda t: matmul(t.reshape(2, 3), t.reshape(3, 2)).sum(),
        ]
        worst = 0.0
        for seed in range(100):
            x = Tensor(np.random.default_rng(seed).normal(size=6))
            for fn in fns:
                worst = max(worst, grad_check(fn, x))
        assert worst < 1e-6

    def test_bad_step_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda x: x.sum(), Tensor([1.0]), step=0.0)


def rand(*shape, seed=0, loc=0.0):
    return Tensor(np.random.default_rng(seed).normal(loc, 1.0, size=shape))


def unfused_attention(q, k, v, scale, mask=None):
    logits = np.matmul(q, k.swapaxes(-1, -2)) * scale
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    return np.matmul(softmax_last_dim(Tensor(logits)).data, v)


class TestAttention:
    def test_matches_unfused_ops(self):
        q, k, v = rand(2, 2, 3, 4), rand(2, 2, 5, 4, seed=1), rand(2, 2, 5, 3, seed=2)
        mask = np.array([True, True, False, True, False])[None, None, None, :]
        for m in (None, mask):
            out = attention(q, k, v, 0.5, m).data
            want = unfused_attention(q.data, k.data, v.data, 0.5, m)
            assert np.max(np.abs(out - want)) < 1e-12

    def test_masked_keys_get_exactly_zero_weight(self):
        # far larger logits than any additive mask constant could outweigh
        q, k = rand(1, 2, 4), rand(1, 3, 4, seed=1)
        v = rand(1, 3, 2, seed=2)
        k.data[0, 2] *= 1e60
        mask = np.array([True, True, False])
        out = attention(q, k, v, 1.0, mask).data
        v.data[0, 2] = 1e300
        assert np.array_equal(attention(q, k, v, 1.0, mask).data, out)

    def test_all_masked_row_rejected(self):
        q = rand(1, 2, 4)
        with pytest.raises(NumericError, match="every key masked"):
            attention(q, q, q, 1.0, np.zeros((1, 1, 2), dtype=bool))

    def test_nan_logits_rejected_even_under_the_mask(self):
        q, k = rand(1, 2, 4), rand(1, 2, 4, seed=1)
        k.data[0, 1, 0] = np.nan
        with pytest.raises(NumericError, match="NaN"):
            attention(q, k, k, 1.0, np.array([True, False]))

    def test_misaligned_operands_rejected(self):
        with pytest.raises(DimensionError):
            attention(rand(2, 4), rand(3, 4), rand(2, 4), 1.0)

    @pytest.mark.parametrize("shapes, mask", [
        (((2, 3, 4), (2, 5, 4), (2, 5, 3)), None),
        # one row sees a single key, another all but one
        (((1, 3, 4), (1, 4, 4), (1, 4, 2)),
         np.array([[True, False, False, False], [True, True, True, False],
                   [False, True, False, True]])),
        # leading axes broadcast between q, k and v
        (((1, 2, 3, 4), (2, 1, 4, 4), (2, 2, 4, 3)),
         np.array([True, True, False, True])[None, None, None, :]),
        # a single key
        (((2, 3, 4), (2, 1, 4), (2, 1, 3)), None),
    ])
    def test_grad_check(self, shapes, mask):
        q, k, v = (rand(*s, seed=i) for i, s in enumerate(shapes))
        probe = rand(*attention(q, k, v, 0.5, mask).shape, seed=9)

        def f(q, k, v):
            return (attention(q, k, v, 0.5, mask) * probe).sum()

        assert grad_check(f, q, k, v) < 1e-6


class TestFusedLayerNorm:
    def test_matches_unfused_ops(self):
        x, gain, bias = rand(3, 6), rand(6, seed=1), rand(6, seed=2)
        centered = x.data - x.data.mean(-1, keepdims=True)
        scale = np.sqrt((centered ** 2).mean(-1, keepdims=True) + 1e-5)
        want = centered / scale * gain.data + bias.data
        out = layer_norm(x, gain, bias).data
        assert np.max(np.abs(out - want)) < 1e-12

    def test_grad_check_with_gain_and_bias(self):
        probe = rand(2, 3, 6, seed=3)

        def f(x, gain, bias):
            return (layer_norm(x, gain, bias) * probe).sum()

        err = grad_check(f, rand(2, 3, 6), rand(6, seed=1, loc=1.0),
                         rand(6, seed=2))
        assert err < 1e-6


class TestRotatePairs:
    def test_rotates_each_pair(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        cos = np.array([[0.0, 0.0, 1.0, 1.0]])
        sin = np.array([[1.0, 1.0, 0.0, 0.0]])
        # a quarter turn on the first pair, identity on the second
        assert np.array_equal(rotate_pairs(x, cos, sin).data, [[-2.0, 1.0, 3.0, 4.0]])

    def test_odd_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            rotate_pairs(rand(2, 3), np.ones(3), np.zeros(3))

    def test_grad_check_with_scaled_tables(self):
        # unrelated, non-unit cos/sin entries stand for a folded xPos scale
        cos, sin = rand(4, 6, seed=1).data, rand(4, 6, seed=2).data
        probe = rand(2, 4, 6, seed=3)
        err = grad_check(lambda x: (rotate_pairs(x, cos, sin) * probe).sum(),
                         rand(2, 4, 6))
        assert err < 1e-6

    def test_single_pair_leaves_input_intact(self):
        # a last axis of 2 is one pair per row, where swapping the pair
        # reshapes to a view of the input rather than a copy
        x = rand(3, 5, 2)
        before = x.data.copy()
        cos, sin = rand(5, 2, seed=1).data, rand(5, 2, seed=2).data
        out = rotate_pairs(x, cos, sin).data
        x1, x2 = before[..., 0], before[..., 1]
        expected = np.stack([x1 * cos[:, 0] - x2 * sin[:, 0],
                             x2 * cos[:, 1] + x1 * sin[:, 1]], axis=-1)
        assert np.array_equal(x.data, before)
        assert np.allclose(out, expected, rtol=1e-14, atol=1e-14)
        assert not np.shares_memory(out, x.data)
        probe = rand(3, 5, 2, seed=3)
        err = grad_check(lambda t: (rotate_pairs(t, cos, sin) * probe).sum(),
                         rand(3, 5, 2))
        assert err < 1e-6


class TestGraphLifetime:
    def test_backward_frees_intermediates(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        hidden = x * x
        probs = softmax_last_dim(hidden)
        loss = (probs * hidden).sum()
        loss.backward()
        for node in (hidden, probs, loss):
            assert node.grad is None and node._parents == ()
        assert x.grad is not None

    def test_leaf_grads_are_owned_and_writable(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = Tensor([[5.0, 6.0]], requires_grad=True)
        (a + b).sum().backward()
        c.reshape(2).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        for leaf in (a, b, c):
            assert leaf.grad.flags.owndata and leaf.grad.flags.writeable
        a.grad *= 2.0
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_second_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ContractError, match="freed"):
            loss.backward()

    def test_backward_through_a_freed_intermediate_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        shared = x * x
        first, second = shared.sum(), (shared * 2.0).sum()
        first.backward()
        with pytest.raises(ContractError, match="freed"):
            second.backward()

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the allocator policy needs glibc's mallopt")
    def test_steady_state_steps_do_not_fault_memory_back_in(self):
        cfg = ModelConfig(vocab_size=64, seq_len=128, use_image=False)
        model = MeantModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, cfg.vocab_size, size=(8, cfg.lag, cfg.seq_len))
        macd = rng.normal(size=(8, cfg.lag, 5))
        labels = rng.integers(0, 2, size=8)

        def step():
            model.zero_grad()
            cross_entropy(model(ids, macd, None), labels).backward()

        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # ~25k when freed temporaries go back to the OS after each step
        assert faults < 1000


def test_grad_check_covers_every_input():
    a, b = rand(3), rand(3, seed=1)
    assert grad_check(lambda a, b: (a * b * b).sum(), a, b) < 1e-8
    # b's values reach the output through a constant, so its analytic
    # gradient is zero while the numeric one is a
    def detached(a, b):
        return (a * Tensor(b.data)).sum() + (b * 0.0).sum()
    assert grad_check(detached, a, b) > 0.1

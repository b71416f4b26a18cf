import ctypes
import inspect
import itertools
import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (GRADCHECK_LINE, padded_days, softmax_last_dim, toy_batch,
                      toy_model)
from meant import tensor
from meant.cli import _op_checks
from meant.errors import ContractError, DimensionError, NumericError
from meant.fusion import MeantModel, ModelConfig
from meant.tensor import (Tensor, attention, gelu, grad_check, layer_norm,
                          matmul, no_grad, rotate_pairs)
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
            y = softmax_last_dim(matmul(x, x.transpose(1, 0)))
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

    def test_roundoff_of_a_large_value_does_not_count(self):
        # rounding f(x +- h) ~ 1e3 moves the central difference by ~2e-8,
        # 1% of the 2e-6 gradient; a plain relative error reads ~2e-4
        big = Tensor(1e3)
        err = grad_check(lambda x: (x * x).sum() * 1e-6 + big, Tensor([1.0, 2.0]))
        assert err == 0.0

    @staticmethod
    def _square_with_gradient_times(factor):
        def op(x):
            def bwd(g):
                x._accumulate(g * 2.0 * x.data * factor)
            return Tensor._from_op(x.data * x.data, (x,), bwd)
        return op

    @pytest.mark.parametrize("offset, factor, flagged", [
        (0.0, 1.1, True),
        # at |f| ~ 1e3 the floor is ~3.6e-7, so of the 2e-6 gradient an
        # error of 10% (2e-7) is hidden and one of 20% (4e-7) shows
        (1e3, 1.1, False),
        (1e3, 1.2, True),
    ])
    def test_an_offset_in_f_raises_the_floor(self, offset, factor, flagged):
        square, c = self._square_with_gradient_times(factor), Tensor(offset)
        err = grad_check(lambda x: square(x).sum() * 1e-6 + c, Tensor([1.0]))
        assert (err >= 1e-6) == flagged

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_reads_inf(self, bad):
        err = grad_check(lambda x: self._square_with_gradient_times(bad)(x).sum(),
                         Tensor([1.0, 2.0]))
        assert err == math.inf

    def test_gelu(self):
        x = Tensor(np.random.default_rng(1).normal(size=8))
        assert grad_check(lambda t: gelu(t).sum(), x) < 1e-6

    def test_small_mlp_with_cross_entropy(self):
        rng = np.random.default_rng(2)
        w1 = Tensor(rng.normal(size=(4, 6)))
        w2 = Tensor(rng.normal(size=(6, 2)))
        labels = np.array([0, 1, 1])

        def f(x):
            return cross_entropy(matmul(gelu(matmul(x, w1)), w2), labels)

        assert grad_check(f, Tensor(rng.normal(size=(3, 4)))) < 1e-4

    def test_elementwise_ops_many_seeds(self):
        # a softmax row and a layer-normed row with zero bias sum to a
        # constant, so their outputs are weighed by a random probe
        gain, bias = Tensor(np.ones(6)), Tensor(np.zeros(6))
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x, probe = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
            fns = [
                lambda t: gelu(t).sum(),
                lambda t: (softmax_last_dim(t) * probe).sum(),
                lambda t: (layer_norm(t.reshape(1, 6), gain, bias)
                           * probe.reshape(1, 6)).sum(),
                lambda t: matmul(t.reshape(2, 3), t.reshape(3, 2)).sum(),
            ]
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


def key_padding_mask() -> np.ndarray:
    """A (5, 1, 1, 24) key-padding mask whose rows need 8, 16 or 24 keys:
    one row sees a single key, one has a masked key inside its visible
    prefix, and one sees every key."""
    visible = np.zeros((5, 24), dtype=bool)
    visible[0, :1] = True
    visible[1, :12] = True
    visible[1, 5] = False
    visible[2, :] = True
    visible[3, :20] = True
    visible[4, :7] = True
    return visible[:, None, None, :]


class TestGroupedAttention:
    """Rows of a key-padding mask attend over the keys they need only."""

    shapes = ((5, 2, 3, 4), (5, 2, 24, 4), (5, 2, 24, 3))

    def operands(self):
        return [rand(*s, seed=i) for i, s in enumerate(self.shapes)]

    def test_matches_unfused_ops(self):
        q, k, v = self.operands()
        mask = key_padding_mask()
        out = attention(q, k, v, 0.5, mask).data
        want = unfused_attention(q.data, k.data, v.data, 0.5, mask)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_grad_check(self):
        q, k, v = self.operands()
        mask = key_padding_mask()
        probe = rand(5, 2, 3, 3, seed=9)

        def f(q, k, v):
            return (attention(q, k, v, 0.5, mask) * probe).sum()

        assert grad_check(f, q, k, v) < 1e-6

    def test_keys_past_a_rows_width_get_zero_gradient(self):
        q, k, v = self.operands()
        for t in (q, k, v):
            t.requires_grad = True
        (attention(q, k, v, 0.5, key_padding_mask()) * rand(5, 2, 3, 3)).sum().backward()
        assert not k.grad[0, :, 8:].any() and not v.grad[0, :, 8:].any()
        assert not k.grad[1, :, 16:].any() and not v.grad[1, :, 16:].any()

    def test_row_alone_equals_row_in_mixed_batch(self):
        q, k, v = self.operands()
        mask = key_padding_mask()
        batch = attention(q, k, v, 0.5, mask).data
        for row in range(5):
            alone = attention(*(Tensor(t.data[row:row + 1]) for t in (q, k, v)),
                              0.5, mask[row:row + 1]).data
            assert alone.tobytes() == batch[row:row + 1].tobytes(), row


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
        cos = np.array([[0.0, 1.0]])
        sin = np.array([[1.0, 0.0]])
        # a quarter turn on the first pair, identity on the second
        assert np.array_equal(rotate_pairs(x, cos, sin).data, [[-2.0, 1.0, 3.0, 4.0]])

    def test_odd_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            rotate_pairs(rand(2, 3), np.ones(3), np.zeros(3))

    def test_grad_check_with_scaled_tables(self):
        # unrelated, non-unit cos/sin entries stand for a folded xPos scale
        cos, sin = rand(4, 3, seed=1).data, rand(4, 3, seed=2).data
        probe = rand(2, 4, 6, seed=3)
        err = grad_check(lambda x: (rotate_pairs(x, cos, sin) * probe).sum(),
                         rand(2, 4, 6))
        assert err < 1e-6

    def test_single_pair_leaves_input_intact(self):
        # a last axis of 2 is one pair per row
        x = rand(3, 5, 2)
        before = x.data.copy()
        cos, sin = rand(5, 1, seed=1).data, rand(5, 1, seed=2).data
        out = rotate_pairs(x, cos, sin).data
        x1, x2 = before[..., 0], before[..., 1]
        expected = np.stack([x1 * cos[:, 0] - x2 * sin[:, 0],
                             x2 * cos[:, 0] + x1 * sin[:, 0]], axis=-1)
        assert np.array_equal(x.data, before)
        assert np.allclose(out, expected, rtol=1e-14, atol=1e-14)
        assert not np.shares_memory(out, x.data)
        probe = rand(3, 5, 2, seed=3)
        err = grad_check(lambda t: (rotate_pairs(t, cos, sin) * probe).sum(),
                         rand(3, 5, 2))
        assert err < 1e-6

    def test_matches_pair_formulas_on_split_heads(self):
        # q as MultiHeadAttention._split leaves it: a strided (b, h, n, d)
        # view of (b, n, h * d); the forward is the rotation and the
        # backward its transpose, each pair lane by lane and bit for bit
        b, h, n, d = 2, 3, 5, 8
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(b, n, h * d)), requires_grad=True)
        heads = x.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        assert not heads.data.flags.c_contiguous
        cos, sin = rng.normal(size=(n, d // 2)), rng.normal(size=(n, d // 2))
        g = rng.normal(size=(b, h, n, d))
        out = rotate_pairs(heads, cos, sin)
        (out * Tensor(g)).sum().backward()
        dx = x.grad.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        x0, x1 = heads.data[..., 0::2], heads.data[..., 1::2]
        g0, g1 = g[..., 0::2], g[..., 1::2]
        for got, want in ((out.data[..., 0::2], x0 * cos - x1 * sin),
                          (out.data[..., 1::2], x1 * cos + x0 * sin),
                          (dx[..., 0::2], g0 * cos + g1 * sin),
                          (dx[..., 1::2], g1 * cos - g0 * sin)):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


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
            for p in model.params().values():
                p.zero_grad()
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


SHAPE_OPS = {"Tensor.reshape", "Tensor.transpose", "concat"}


def graph_ops(loss: Tensor) -> set[str]:
    """The op behind every node of ``loss``'s graph, named by the function
    whose backward closure the node holds."""
    ops, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.add(node._backward.__qualname__.split(".<locals>")[0])
        stack.extend(node._parents)
    return ops


def test_model_runs_a_pinned_op_set():
    ops = set()
    combos = [c for c in itertools.product((True, False), repeat=3) if any(c)]
    for pooling in ("mean_pool", "seq_proj"):
        for lang_pos in ("xpos", "rotary", "none"):
            for text, image, price in combos:
                model = toy_model(pooling=pooling, lang_pos=lang_pos,
                                  use_text=text, use_image=image,
                                  use_price=price)
                batch = toy_batch(model.config)
                ids = padded_days(model.config, (2, model.config.lag))
                logits = model(ids if text else None,
                               batch["macd"] if price else None,
                               batch["images"] if image else None)
                ops |= graph_ops(cross_entropy(logits, batch["labels"]))
    assert ops == set(GRADCHECK_LINE) | SHAPE_OPS

    lines = {name for name, _ in _op_checks(np.random.default_rng(7))}
    assert set(GRADCHECK_LINE.values()) <= lines

    def has_backward(fn):
        return any(getattr(c, "co_name", None) == "bwd"
                   for c in fn.__code__.co_consts)

    defined = {f.__qualname__
               for f in [*vars(tensor).values(), *vars(Tensor).values()]
               if inspect.isfunction(f) and f.__module__ == tensor.__name__
               and has_backward(f)}
    assert defined <= ops

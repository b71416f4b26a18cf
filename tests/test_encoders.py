import numpy as np
import pytest

from meant.embeddings import apply_xpos
from meant.encoders import (FeedForward, LanguagePipeline, MultiHeadAttention,
                            VisionPipeline)
from meant.errors import ContractError, DimensionError, NumericError
from meant.fusion import ModelConfig
from meant.tensor import Tensor, grad_check


def rng_(seed=0):
    return np.random.default_rng(seed)


def make_mha(dim=8, heads=2, seed=0):
    return MultiHeadAttention(rng_(seed), dim, heads, "t")


class TestMultiHeadAttention:
    def test_single_key_passes_value_through(self):
        # with one position softmax is exactly 1, so out = wo(wv(x))
        mha = make_mha()
        x = Tensor(rng_(1).normal(size=(2, 1, 8)))
        out = mha(x)
        want = mha.wo(mha.wv(x))
        assert np.max(np.abs(out.data - want.data)) < 1e-12

    def test_identical_tokens_give_identical_rows(self):
        mha = make_mha()
        row = rng_(2).normal(size=8)
        x = Tensor(np.tile(row, (1, 4, 1)))
        out = mha(x).data
        assert np.max(np.abs(out - out[:, :1, :])) < 1e-12

    def test_mask_equals_slicing(self):
        # masking the tail keys must match attention over the sliced input
        mha = make_mha()
        x = rng_(3).normal(size=(1, 5, 8))
        mask = np.array([[True, True, True, False, False]])
        masked = mha(Tensor(x), mask=mask).data[:, :3, :]
        sliced = mha(Tensor(x[:, :3, :])).data
        assert np.max(np.abs(masked - sliced)) < 1e-10

    def test_all_masked_row_rejected(self):
        mha = make_mha()
        x = Tensor(rng_(4).normal(size=(1, 3, 8)))
        with pytest.raises(NumericError):
            mha(x, mask=np.zeros((1, 3), dtype=bool))

    def test_pad_rows_do_not_reach_real_tokens_under_xpos_at_s128(self):
        # masked keys get exactly zero weight, and with xPos's scale base
        # the logits stay bounded at s=128 (without it they reach ~1e66)
        mha = make_mha(dim=32, heads=2)
        s, real = 128, 100
        x = rng_(10).normal(size=(1, s, 32))
        mask = np.arange(s)[None, :] < real
        rope = lambda q, k: apply_xpos(q, k, np.arange(s))
        out = mha(Tensor(x), mask=mask, rope=rope).data
        q, k = rope(mha._split(mha.wq(Tensor(x))),
                    mha._split(mha.wk(Tensor(x))))
        logits = q.data @ np.swapaxes(k.data, -1, -2) * mha.scale
        assert np.max(np.abs(logits)) < 1.0
        x[:, real:] = rng_(11).normal(size=(1, s - real, 32))
        again = mha(Tensor(x), mask=mask, rope=rope).data
        assert np.array_equal(again[:, :real], out[:, :real])

    def test_zero_out_projection_gives_zero(self):
        mha = make_mha()
        mha.wo.weight.data[:] = 0.0
        out = mha(Tensor(rng_(5).normal(size=(2, 3, 8))))
        assert np.array_equal(out.data, np.zeros((2, 3, 8)))

    def test_permutation_equivariance_without_rope(self):
        mha = make_mha()
        x = rng_(6).normal(size=(1, 6, 8))
        perm = np.array([3, 0, 5, 1, 4, 2])
        out = mha(Tensor(x)).data
        out_p = mha(Tensor(x[:, perm, :])).data
        assert np.max(np.abs(out_p - out[:, perm, :])) < 1e-10

    def test_indivisible_heads_rejected(self):
        with pytest.raises(DimensionError):
            MultiHeadAttention(rng_(), 8, 3, "t")

    def test_grad_check_through_attention(self):
        mha = make_mha()
        x0 = rng_(7).normal(size=(1, 3, 8))

        def f(w):
            mha.wq.weight = w
            return (mha(Tensor(x0)) * Tensor(rng_(8).normal(size=(1, 3, 8)))).sum()

        w = Tensor(rng_(9).normal(0.0, 0.3, size=(8, 8)))
        assert grad_check(f, w) < 1e-5


class TestFeedForward:
    def test_hidden_width(self):
        ffn = FeedForward(rng_(), 8, "f")
        assert ffn.fc1.weight.shape == (8, 32)
        assert ffn.fc2.weight.shape == (32, 8)



class TestLanguagePipeline:
    def make(self, **over):
        cfg = ModelConfig(**{**dict(vocab_size=12, lang_depth=2, d_l=16,
                                    heads=2), **over})
        return LanguagePipeline(rng_(0), cfg)

    def test_output_shape(self):
        pipe = self.make()
        ids = rng_(1).integers(0, 12, size=(2, 5, 7))
        assert pipe(ids).shape == (2, 5, 7, 16)

    def test_lag_days_processed_independently(self):
        # permuting whole days permutes outputs without mixing them
        pipe = self.make()
        ids = rng_(2).integers(1, 12, size=(1, 4, 6))
        perm = np.array([2, 0, 3, 1])
        out = pipe(ids).data
        out_p = pipe(ids[:, perm, :]).data
        assert np.max(np.abs(out_p - out[:, perm, :, :])) < 1e-10

    def test_pad_tokens_do_not_influence_real_tokens(self):
        pipe = self.make()
        ids = rng_(3).integers(1, 12, size=(1, 1, 6))
        padded = ids.copy()
        padded[0, 0, 4:] = pipe.config.pad_id
        trimmed = pipe(padded).data[0, 0, :4, :]
        short = np.full((1, 1, 6), pipe.config.pad_id, dtype=np.int64)
        short[0, 0, :4] = padded[0, 0, :4]
        assert np.max(np.abs(pipe(short).data[0, 0, :4, :] - trimmed)) < 1e-12

    def test_fully_padded_day_survives(self):
        pipe = self.make()
        ids = np.full((1, 2, 6), pipe.config.pad_id, dtype=np.int64)
        out = pipe(ids)
        assert np.isfinite(out.data).all()

    def test_position_encoding_variants_differ(self):
        ids = rng_(4).integers(1, 12, size=(1, 1, 6))
        outs = [self.make(lang_pos=p)(ids).data
                for p in ("xpos", "rotary", "none")]
        assert not np.allclose(outs[0], outs[1])
        assert not np.allclose(outs[1], outs[2])

    def test_unknown_pos_encoding(self):
        with pytest.raises(ContractError, match="lang_pos"):
            self.make(lang_pos="fourier")


class TestVisionPipeline:
    def make(self, depth=1, dim=16, heads=2, patch=4, hw=(8, 8), seed=0):
        cfg = ModelConfig(vision_depth=depth, d_p=dim, heads=heads,
                          patch_size=patch, image_height=hw[0],
                          image_width=hw[1])
        return VisionPipeline(rng_(seed), cfg)

    def test_output_shape(self):
        pipe = self.make()
        images = rng_(1).random((2, 5, 3, 8, 8))
        assert pipe(images).shape == (2, 20, 16)

    def test_paper_scale_token_count(self):
        # 224x224 with 16-pixel patches is 196 tokens per frame; a 5-day
        # window flattens to 980
        assert 5 * self.make(patch=16, hw=(224, 224)).n_p == 980

    def test_identical_frames_stay_identical(self):
        # temporal attention over equal frames is frame-symmetric
        pipe = self.make()
        frame = rng_(2).random((3, 8, 8))
        images = np.tile(frame, (1, 4, 1, 1, 1))
        out = pipe(images).data.reshape(1, 4, 4, 16)
        assert np.max(np.abs(out - out[:, :1])) < 1e-12

    def test_patch_projection_follows_config(self):
        # one c*P*P pixel row per patch in, one d_p token out
        pipe = self.make(dim=8, patch=4)
        assert pipe.patch.weight.shape == (3 * 4 * 4, 8)
        assert pipe.patch.bias.shape == (8,)

    def test_frame_order_matters(self):
        pipe = self.make()
        images = rng_(3).random((1, 3, 3, 8, 8))
        out = pipe(images).data
        out_rev = pipe(images[:, ::-1]).data
        assert not np.allclose(out, out_rev)

    def test_gradients_reach_patch_projection(self):
        pipe = self.make()
        images = rng_(4).random((1, 2, 3, 8, 8))
        pipe(images).sum().backward()
        assert pipe.patch.weight.grad is not None
        assert np.any(pipe.patch.weight.grad != 0)

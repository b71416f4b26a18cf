import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meant.embeddings import (ROTARY_BASE, apply_axial_rotary_2d,
                              apply_rotary, apply_xpos, extract_patches,
                              patch_embed, token_embed, xpos_scales)
from meant.encoders import Linear, VisionPipeline
from meant.errors import DimensionError
from meant.fusion import MeantModel, ModelConfig
from meant.tensor import Tensor, grad_check, matmul, rotate_pairs


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def linear(weight: np.ndarray, bias: np.ndarray) -> Linear:
    """A ``Linear`` layer holding ``weight`` and ``bias``."""
    layer = Linear(np.random.default_rng(0), *weight.shape, "patch")
    layer.weight, layer.bias = Tensor(weight), Tensor(bias)
    return layer


class TestTokenEmbed:
    def test_matches_one_hot_matmul(self):
        table = Tensor(rand((7, 4)))
        ids = np.array([[0, 3], [6, 6]])
        out = token_embed(ids, table)
        one_hot = np.eye(7)[ids]
        assert np.array_equal(out.data, one_hot @ table.data)

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            token_embed(np.array([7]), Tensor(rand((7, 4))))

    def test_gradient_counts_usage(self):
        table = Tensor(rand((5, 3)), requires_grad=True)
        token_embed(np.array([2, 2, 4]), table).sum().backward()
        assert np.array_equal(table.grad[2], [2.0, 2.0, 2.0])
        assert np.array_equal(table.grad[4], [1.0, 1.0, 1.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0, 0.0])


class TestPatches:
    def test_patch_counts(self):
        for side, patch, n_p in ((224, 16, 196), (8, 4, 4)):
            config = ModelConfig(image_height=side, image_width=side,
                                 patch_size=patch)
            assert VisionPipeline(np.random.default_rng(0), config).n_p == n_p

    def test_indivisible_rejected(self):
        # checked when the model is built, and only if it reads images
        config = dict(image_height=100, image_width=224, patch_size=16)
        with pytest.raises(DimensionError):
            MeantModel(ModelConfig(**config))
        MeantModel(ModelConfig(**config, use_image=False))
        with pytest.raises(DimensionError):
            extract_patches(rand((3, 10, 8)), 4)

    def test_extract_reassembles_pixels(self):
        # every pixel appears exactly once; check a specific patch cell
        img = np.arange(16.0).reshape(1, 4, 4)
        flat = extract_patches(img, 2)
        assert flat.shape == (4, 4)
        # patch 1 covers columns 2..3 of rows 0..1
        assert np.array_equal(flat[1], [2.0, 3.0, 6.0, 7.0])
        assert sorted(flat.reshape(-1)) == sorted(img.reshape(-1))

    def test_channel_major_layout(self):
        img = rand((2, 2, 2), seed=1)
        flat = extract_patches(img, 2)
        assert np.array_equal(flat[0, :4], img[0].reshape(-1))
        assert np.array_equal(flat[0, 4:], img[1].reshape(-1))

    def test_batch_leading_axes(self):
        flat = extract_patches(rand((2, 5, 3, 8, 8)), 4)
        assert flat.shape == (2, 5, 4, 48)

    def test_patch_embed_linear_in_pixels(self):
        b = rand(6, seed=3)
        proj = linear(rand((3 * 4 * 4, 6), seed=2), b)
        zero = patch_embed(np.zeros((3, 8, 8)), proj, 4)
        assert np.allclose(zero.data, np.broadcast_to(b, (4, 6)))
        a, c = rand((3, 8, 8), 4), rand((3, 8, 8), 5)
        lhs = patch_embed(a + c, proj, 4).data
        rhs = (patch_embed(a, proj, 4).data
               + patch_embed(c, proj, 4).data - b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_patch_embed_invertible_when_overcomplete(self):
        # with dim >= c*P*P a full-rank projection loses no pixels
        w = rand((4, 8), seed=6)
        img = rand((1, 4, 4), seed=7)
        out = patch_embed(img, linear(w, np.zeros(8)), 2).data
        back = out @ np.linalg.pinv(w)
        assert np.max(np.abs(back - extract_patches(img, 2))) < 1e-9


class TestRotary:
    def test_position_zero_is_identity(self):
        q = Tensor(rand((3, 8)))
        k = Tensor(rand((3, 8), 1))
        qr, kr = apply_rotary(q, k, np.zeros(3))
        assert np.allclose(qr.data, q.data, atol=1e-15)
        assert np.allclose(kr.data, k.data, atol=1e-15)

    def test_norm_preserved(self):
        q = Tensor(rand((5, 8)))
        qr, _ = apply_rotary(q, q, np.arange(5))
        assert np.max(np.abs(np.linalg.norm(qr.data, axis=-1)
                             - np.linalg.norm(q.data, axis=-1))) < 1e-12

    def test_odd_dim_rejected(self):
        q = Tensor(rand((2, 5)))
        with pytest.raises(DimensionError):
            apply_rotary(q, q, np.arange(2))

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 20),
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_scores_depend_only_on_offset(self, m, n, shift, seed):
        # <R_m q, R_n k> must equal <R_{m+s} q, R_{n+s} k>
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(1, 8)))
        k = Tensor(rng.normal(size=(1, 8)))

        def score(pos_q, pos_k):
            qr, _ = apply_rotary(q, q, np.array([pos_q]))
            _, kr = apply_rotary(k, k, np.array([pos_k]))
            return (qr.data @ kr.data.T).item()

        a, b = score(m, n), score(m + shift, n + shift)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestXpos:
    def test_position_zero_is_identity(self):
        q = Tensor(rand((2, 8)))
        qr, kr = apply_xpos(q, q, np.zeros(2))
        assert np.allclose(qr.data, q.data, atol=1e-15)
        assert np.allclose(kr.data, q.data, atol=1e-15)

    def test_scale_formula(self):
        d, gamma = 8, 0.4
        # positions are divided by the scale base 512 (Sun et al. 2022)
        scales = xpos_scales(np.array([3.0]), d)
        zeta = (np.arange(d // 2) / (d / 2) + gamma) / (1.0 + gamma)
        assert np.allclose(scales[0], zeta ** (3.0 / 512), atol=1e-15)

    def test_q_and_k_scales_cancel(self):
        # q is scaled by zeta^m and k by zeta^-n, so equal positions cancel
        q = Tensor(rand((1, 8)))
        k = Tensor(rand((1, 8), 1))
        pos = np.array([7.0])
        qx, kx = apply_xpos(q, k, pos)
        qr, kr = apply_rotary(q, k, pos)
        assert abs((qx.data @ kx.data.T).item()
                   - (qr.data @ kr.data.T).item()) < 1e-9

    def test_attenuates_with_distance(self):
        # for a fixed query, score magnitude decays as keys move further back
        d = 16
        q = Tensor(np.ones((1, d)))
        k = Tensor(np.ones((1, d)))
        mags = []
        for offset in (0, 8, 32):
            qx, _ = apply_xpos(q, q, np.array([float(offset)]))
            _, kx = apply_xpos(k, k, np.array([0.0]))
            mags.append(np.linalg.norm(qx.data * kx.data))
        assert mags[0] > mags[1] > mags[2]


class TestAxialRotary:
    def test_origin_is_identity(self):
        q = Tensor(rand((4, 8)))
        qr, kr = apply_axial_rotary_2d(q, q, np.zeros(4), np.zeros(4))
        assert np.allclose(qr.data, q.data, atol=1e-15)

    def test_norm_preserved(self):
        q = Tensor(rand((6, 8)))
        rows, cols = np.arange(6) // 3, np.arange(6) % 3
        qr, _ = apply_axial_rotary_2d(q, q, rows, cols)
        assert np.max(np.abs(np.linalg.norm(qr.data, axis=-1)
                             - np.linalg.norm(q.data, axis=-1))) < 1e-12

    def test_axes_are_independent(self):
        # moving along columns only changes the second half of the dims
        q = Tensor(rand((2, 8)))
        base, _ = apply_axial_rotary_2d(q, q, np.zeros(2), np.zeros(2))
        moved, _ = apply_axial_rotary_2d(q, q, np.zeros(2), np.ones(2))
        assert np.allclose(moved.data[:, :4], base.data[:, :4], atol=1e-15)
        assert not np.allclose(moved.data[:, 4:], base.data[:, 4:])

    def test_row_translation_invariance(self):
        rng = np.random.default_rng(9)
        q = Tensor(rng.normal(size=(1, 8)))
        k = Tensor(rng.normal(size=(1, 8)))

        def score(rq, cq, rk, ck):
            qr, _ = apply_axial_rotary_2d(q, q, np.array([rq]), np.array([cq]))
            _, kr = apply_axial_rotary_2d(k, k, np.array([rk]), np.array([ck]))
            return (qr.data @ kr.data.T).item()

        assert abs(score(2, 5, 1, 3) - score(7, 6, 6, 4)) < 1e-9

    def test_tables_pinned_on_patch_grid(self):
        # the angle tables as first written: a (n, d/2) theta, one angle per
        # pair, with the row angles in its first half and the column angles
        # in its second; d = 16 on a 14x14 patch grid
        d, side = 16, 14
        rows = np.repeat(np.arange(side), side).astype(np.float64)
        cols = np.tile(np.arange(side), side).astype(np.float64)
        freqs = ROTARY_BASE ** (-2.0 * np.arange(d // 4) / (d // 2))
        theta = np.concatenate([rows[:, None] * freqs[None, :],
                                cols[:, None] * freqs[None, :]], 1)
        q = Tensor(rand((2, side * side, d)))
        qr, _ = apply_axial_rotary_2d(q, q, rows, cols)
        want = rotate_pairs(q, np.cos(theta), np.sin(theta))
        assert qr.data.tobytes() == want.data.tobytes()

    def test_dim_not_multiple_of_four(self):
        q = Tensor(rand((2, 6)))
        with pytest.raises(DimensionError):
            apply_axial_rotary_2d(q, q, np.zeros(2), np.zeros(2))


def test_rotations_are_differentiable():
    q = Tensor(rand((2, 8)), requires_grad=True)
    k = Tensor(rand((2, 8), 1), requires_grad=True)
    qr, kr = apply_xpos(q, k, np.arange(2))
    (qr * kr).sum().backward()
    assert q.grad is not None and np.any(q.grad != 0)
    assert k.grad is not None and np.any(k.grad != 0)


@pytest.mark.parametrize("rope", [
    lambda q, k: apply_rotary(q, k, np.arange(4)),
    lambda q, k: apply_xpos(q, k, np.arange(4)),
    lambda q, k: apply_axial_rotary_2d(q, k, np.arange(4) // 2,
                                       np.arange(4) % 2),
], ids=["rotary", "xpos", "axial"])
def test_rotation_grad_check(rope):
    probe = Tensor(rand((2, 4, 4), seed=3))

    def scores(q, k):
        qr, kr = rope(q, k)
        return (matmul(qr, kr.transpose(0, 2, 1)) * probe).sum()

    assert grad_check(scores, Tensor(rand((2, 4, 8))),
                      Tensor(rand((2, 4, 8), seed=1))) < 1e-6

import itertools

import numpy as np
import pytest

from conftest import (TOY_MODEL, padded_days, target_weights, toy_batch,
                      toy_model)
from meant.encoders import visible_tokens
from meant.errors import ContractError, DimensionError
from meant.fusion import (MeantModel, ModelConfig, QueryTargetAttention,
                          SequenceProjection, day_widths, fuse_price,
                          mean_pool)
from meant import fusion
from meant.tensor import Tensor, concat
from meant.training import cross_entropy


def rng_(seed=0):
    return np.random.default_rng(seed)


class TestModelConfig:
    def test_fused_width(self):
        assert ModelConfig(d_l=32).d_t == 37
        assert ModelConfig(d_l=768).d_t == 773
        assert ModelConfig(d_l=32, use_text=False).d_t == 5
        assert ModelConfig(d_l=32, use_price=False).d_t == 32

    def test_needs_a_modality(self):
        with pytest.raises(ContractError):
            ModelConfig(use_text=False, use_image=False, use_price=False)

    def test_round_trip_dict(self):
        cfg = ModelConfig(**TOY_MODEL)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ContractError, match="dropout"):
            ModelConfig.from_dict({"dropout": 0.1})

    def test_unknown_pooling(self):
        with pytest.raises(ContractError):
            ModelConfig(pooling="max_pool")

    @pytest.mark.parametrize("bad", [
        {"heads": 0}, {"vision_depth": 0}, {"d_l": "8"}, {"lag": 0},
        {"lang_depth": 2.5}, {"seq_len": -1}, {"vocab_size": True},
        {"patch_size": 4.0}, {"pad_id": 12}, {"pad_id": -1},
        {"pad_id": None}, {"use_text": 1}, {"lang_pos": "bogus"},
        {"d_p": 12}])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ContractError, match=next(iter(bad))):
            ModelConfig(**{**TOY_MODEL, **bad})


class TestMeanPool:
    def test_matches_loop_oracle(self):
        # each day averages its visible tokens only, PAD inside a day too
        x = rng_(1).normal(size=(2, 3, 4, 5))
        visible = rng_(2).random((2, 3, 4)) < 0.6
        visible[..., 0] = True
        visible[1, 2] = [True, False, False, True]
        out = mean_pool(Tensor(x), visible).data
        want = np.zeros((2, 3, 5))
        for b in range(2):
            for l in range(3):
                n = visible[b, l].sum()
                for s in range(4):
                    if visible[b, l, s]:
                        want[b, l] += x[b, l, s] / n
        assert np.max(np.abs(out - want)) < 1e-12

    def test_pad_rows_reach_neither_value_nor_gradient(self):
        x = Tensor(rng_(3).normal(size=(2, 6, 4)), requires_grad=True)
        visible = np.arange(6) < np.array([[2], [5]])
        out = mean_pool(x, visible)
        x.data[~visible] = 1e300
        assert out.data.tobytes() == mean_pool(x, visible).data.tobytes()
        out.sum().backward()
        assert not x.grad[~visible].any() and x.grad[visible].all()


class TestSequenceProjection:
    def test_uniform_weights_match_gelu_norm_mean(self):
        # with weight 1/s the projection is exactly GELU(LN(mean over tokens))
        from meant.tensor import gelu, layer_norm
        s, d = 6, 8
        proj = SequenceProjection(rng_(4), s, d, "p")
        proj.weight.data[:] = 1.0 / s
        x = rng_(5).normal(size=(2, 3, s, d))
        out = proj(Tensor(x)).data
        want = gelu(layer_norm(Tensor(x.mean(axis=2)), proj.norm.gain,
                               proj.norm.bias)).data
        assert np.max(np.abs(out - want)) < 1e-10

    def test_parameter_delta_vs_mean_pool(self):
        # swapping mean pooling for the learned reduction adds the s
        # projection weights and the norm's gain+bias
        s, d = TOY_MODEL["seq_len"], TOY_MODEL["d_l"]
        a = toy_model(pooling="mean_pool").parameter_count()
        b = toy_model(pooling="seq_proj").parameter_count()
        assert b - a == s + 2 * d

    def test_wrong_sequence_length(self):
        # a bucket of days shorter than seq_len uses the leading weights;
        # more positions than weights is an error
        proj = SequenceProjection(rng_(6), 6, 8, "p")
        assert proj(Tensor(rng_(7).normal(size=(1, 1, 5, 8)))).shape == (1, 1, 8)
        with pytest.raises(DimensionError):
            proj(Tensor(rng_(7).normal(size=(1, 1, 7, 8))))

    def test_masked_positions_are_ignored(self):
        proj = SequenceProjection(rng_(8), 6, 8, "p")
        x = rng_(9).normal(size=(2, 1, 5, 8))
        visible = np.arange(5) < np.array([[3], [5]])[:, None]
        out = proj(Tensor(x), visible).data
        x[:, :, 3:][~visible[:, :, 3:]] = 1e6
        assert out.tobytes() == proj(Tensor(x), visible).data.tobytes()


class TestFusePrice:
    def test_language_first_then_macd(self):
        l_seq = Tensor(rng_(8).normal(size=(2, 3, 4)))
        macd = Tensor(rng_(9).normal(size=(2, 3, 5)))
        out = fuse_price(l_seq, macd)
        assert out.shape == (2, 3, 9)
        assert np.array_equal(out.data[..., :4], l_seq.data)
        assert np.array_equal(out.data[..., 4:], macd.data)

    def test_single_input_passthrough(self):
        macd = Tensor(rng_(10).normal(size=(2, 3, 5)))
        assert fuse_price(None, macd) is macd
        l_seq = Tensor(rng_(11).normal(size=(2, 3, 4)))
        assert fuse_price(l_seq, None) is l_seq
        with pytest.raises(ContractError):
            fuse_price(None, None)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            fuse_price(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 2, 5))))


class TestQueryTargetAttention:
    def test_single_day_is_exact(self):
        # with lag 1, softmax over one key is exactly 1
        qta = QueryTargetAttention(rng_(12), 8)
        x = Tensor(rng_(13).normal(size=(2, 1, 8)))
        out = qta(x)
        h = qta.wo(qta.wv(x)) + x
        want = (h + qta.ffn(qta.ffn_norm(h))).data.reshape(2, 8)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_weights_sum_to_one(self):
        qta = QueryTargetAttention(rng_(14), 8)
        fused = Tensor(rng_(15).normal(size=(3, 5, 8)))
        w = target_weights(qta, fused)
        assert w.shape == (3, 1, 1, 5)
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12

    def test_history_permutation_changes_only_weights(self):
        # without positional encoding, permuting the non-target days
        # leaves the output unchanged (keys/values are a set)
        qta = QueryTargetAttention(rng_(16), 8)
        x = rng_(17).normal(size=(1, 5, 8))
        perm = np.array([3, 1, 0, 2, 4])   # target day stays last
        out = qta(Tensor(x)).data
        out_p = qta(Tensor(x[:, perm, :])).data
        assert np.max(np.abs(out - out_p)) < 1e-10

    def test_weights_are_the_ones_the_forward_uses(self):
        # the output is wo(weights @ values) plus the target day, then the
        # FFN sub-layer
        qta = QueryTargetAttention(rng_(30), 8)
        fused = Tensor(rng_(31).normal(size=(2, 4, 8)))
        w = target_weights(qta, fused)
        v = qta._split(qta.wv(fused)).data
        mixed = (w @ v).transpose(0, 2, 1, 3).reshape(2, 1, 8)
        h = qta.wo(Tensor(mixed)) + fused[:, 3:4, :]
        want = (h + qta.ffn(qta.ffn_norm(h))).data.reshape(2, 8)
        assert np.max(np.abs(qta(fused).data - want)) < 1e-12

    def test_query_gradient_locality(self):
        # the query path only sees the last lag day: upstream gradient
        # reaches wq from day l-1 only
        qta = QueryTargetAttention(rng_(20), 8)
        x = Tensor(rng_(21).normal(size=(1, 4, 8)), requires_grad=True)
        target = qta.wq(x[:, 3:4, :])
        target.sum().backward()
        assert np.all(x.grad[0, :3] == 0.0)
        assert np.any(x.grad[0, 3] != 0.0)

    def test_is_single_head(self):
        # the fused width d_l + 5 is odd at every even d_l
        qta = QueryTargetAttention(rng_(25), 37)
        assert (qta.heads, qta.head_dim) == (1, 37)
        assert qta(Tensor(rng_(26).normal(size=(2, 3, 37)))).shape == (2, 37)


class TestMeantModel:
    def test_forward_shape_and_finiteness(self):
        model = toy_model()
        batch = toy_batch(model.config)
        logits = model(batch["ids"], batch["macd"], batch["images"])
        assert logits.shape == (2, 2)
        assert np.isfinite(logits.data).all()

    def test_determinism_same_seed(self):
        batch = toy_batch(toy_model().config)
        a = toy_model(seed=7)(batch["ids"], batch["macd"], batch["images"])
        b = toy_model(seed=7)(batch["ids"], batch["macd"], batch["images"])
        assert np.array_equal(a.data, b.data)
        c = toy_model(seed=8)(batch["ids"], batch["macd"], batch["images"])
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("flags", [
        (True, True, True), (True, True, False), (True, False, True),
        (False, True, True), (True, False, False), (False, True, False),
        (False, False, True)])
    def test_every_modality_combination_runs(self, flags):
        text, image, price = flags
        model = toy_model(use_text=text, use_image=image, use_price=price)
        batch = toy_batch(toy_model().config)
        logits = model(batch["ids"] if text else None,
                       batch["macd"] if price else None,
                       batch["images"] if image else None)
        assert logits.shape == (2, 2)

    def test_missing_modality_input_rejected(self):
        model = toy_model()
        batch = toy_batch(model.config)
        with pytest.raises(ContractError):
            model(None, batch["macd"], batch["images"])
        with pytest.raises(ContractError):
            model(batch["ids"], None, batch["images"])
        with pytest.raises(ContractError):
            model(batch["ids"], batch["macd"], None)

    def test_input_shapes_checked_against_config(self):
        # every enabled input needs the config's lag; ids its seq_len
        model = toy_model(lag=5)
        for lag in (3, 7):
            batch = toy_batch(toy_model(lag=lag).config)
            with pytest.raises(DimensionError, match="lag"):
                model(batch["ids"], batch["macd"], batch["images"])
        good = toy_batch(model.config)
        for key in ("ids", "macd", "images"):
            short = {**good, key: good[key][:, 1:]}
            with pytest.raises(DimensionError, match="lag"):
                model(short["ids"], short["macd"], short["images"])
        with pytest.raises(DimensionError, match="seq_len"):
            model(good["ids"][..., :-1], good["macd"], good["images"])

    def test_token_ids_checked_against_vocabulary(self):
        model = toy_model()
        batch = toy_batch(model.config)
        for bad in (model.config.vocab_size, -1):
            ids = batch["ids"].copy()
            ids[1, 0, 2] = bad
            with pytest.raises(ContractError, match="token ids"):
                model(ids, batch["macd"], batch["images"])

    def test_disabled_modality_ignores_input(self):
        model = toy_model(use_image=False)
        batch = toy_batch(toy_model().config)
        a = model(batch["ids"], batch["macd"], None).data
        b = model(batch["ids"], batch["macd"], batch["images"]).data
        assert np.array_equal(a, b)

    def test_param_count_additivity(self):
        # shared head excepted, modality parameters are independent; the
        # text+price fused temporal block is wider than either alone
        full = toy_model().parameter_count()
        no_img = toy_model(use_image=False).parameter_count()
        img_only = toy_model(use_text=False, use_price=False).parameter_count()
        assert no_img < full
        assert img_only < full

    def test_param_names_unique_and_grads_flow(self):
        model = toy_model()
        params = model.params()
        assert len(params) == len(set(params))
        batch = toy_batch(model.config)
        from meant.training import cross_entropy
        loss = cross_entropy(model(batch["ids"], batch["macd"],
                                   batch["images"]), batch["labels"])
        loss.backward()
        touched = sum(p.grad is not None and np.any(p.grad != 0)
                      for p in params.values())
        assert touched >= 0.9 * len(params)

    @pytest.mark.parametrize("pooling", ["mean_pool", "seq_proj"])
    def test_every_trainable_tensor_is_a_parameter(self, pooling):
        # a trainable tensor that params() misses is never trained or saved;
        # look through every attribute, list and dict the model reaches
        model = toy_model(pooling=pooling)
        found, seen, todo = set(), set(), [model]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                if obj.requires_grad:
                    found.add(id(obj))
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif isinstance(obj, dict):
                todo += obj.values()
            elif hasattr(obj, "__dict__"):
                todo += vars(obj).values()
        assert len(found) > 20
        assert found == {id(p) for p in model.params().values()}

    def test_image_only_model_has_no_temporal_block(self):
        model = toy_model(use_text=False, use_price=False)
        assert model.temporal is None
        assert model.language is None
        assert not any(k.startswith("temporal") for k in model.params())


def _rolling_ids(config: ModelConfig, b: int, seed: int = 0) -> np.ndarray:
    """``b`` windows cut from one run of day rows, so neighbouring windows
    share days. Days end in PAD tails of random length, one day is fully
    padded, and the first window holds one day twice."""
    rng = rng_(seed)
    n_days = b + config.lag - 1
    days = rng.integers(1, config.vocab_size, size=(n_days, config.seq_len))
    for day, real in zip(days, rng.integers(1, config.seq_len + 1, n_days)):
        day[real:] = config.pad_id
    days[1] = config.pad_id
    ids = np.stack([days[i:i + config.lag] for i in rng.permutation(b)])
    ids[0, 0] = ids[0, -1]
    return ids


def _per_window_forward(model: MeantModel, ids, macd, images) -> Tensor:
    """The model's forward with every (window, day) row encoded on its own,
    at full width."""
    l_out = model.language(ids)
    visible = visible_tokens(ids, model.config.pad_id)
    l_seq = (mean_pool(l_out, visible) if model.pool is None
             else model.pool(l_out, visible))
    parts = [model.temporal(fuse_price(l_seq, Tensor(macd)))]
    if model.vision is not None:
        parts.append(model.image_proj(model.vision(images)))
    return model.head(parts[0] if len(parts) == 1 else concat(parts, axis=-1))


def _logits_and_grads(model, forward, batch):
    for p in model.params().values():
        p.zero_grad()
    logits = forward(batch["ids"], batch["macd"], batch["images"])
    cross_entropy(logits, batch["labels"]).backward()
    return logits.data, {k: p.grad for k, p in model.params().items()}


def _assert_matches_per_window(model, batch, reference=None):
    """The model's logits equal ``reference``'s (by default the per-window
    forward) bit for bit, and its gradients to roundoff."""
    got, got_grads = _logits_and_grads(model, model, batch)
    want, want_grads = _logits_and_grads(
        model, reference or (lambda *x: _per_window_forward(model, *x)), batch)
    assert got.tobytes() == want.tobytes()
    for name, g in want_grads.items():
        scale = np.abs(g).max()
        # a gradient that is zero up to roundoff (the seq_proj bias, which
        # the layer norm after it cancels) is compared absolutely
        tol = 1e-12 * scale if scale > 1e-14 else 1e-15
        assert np.abs(got_grads[name] - g).max() <= tol, name


class TestDistinctDayEncoding:
    """The forward encodes each distinct day row of a batch once."""

    @pytest.mark.parametrize("pooling", ["mean_pool", "seq_proj"])
    @pytest.mark.parametrize("lang_pos", ["xpos", "rotary"])
    def test_toy_matches_per_window_forward(self, pooling, lang_pos):
        model = toy_model(lag=5, pooling=pooling, lang_pos=lang_pos)
        batch = toy_batch(model.config, b=8)
        batch["ids"] = _rolling_ids(model.config, 8)
        u = len(np.unique(batch["ids"].reshape(-1, 4), axis=0))
        assert u < 8 * 5
        _assert_matches_per_window(model, batch)

    def test_seq128_with_pad_tails_matches_per_window_forward(self):
        model = toy_model(vocab_size=64, seq_len=128, lag=5, d_l=16,
                          lang_depth=2, use_image=False)
        batch = toy_batch(model.config, b=6, seed=2)
        batch["ids"] = _rolling_ids(model.config, 6, seed=3)
        _assert_matches_per_window(model, batch)

    def test_every_day_identical(self):
        model = toy_model(lag=5)
        batch = toy_batch(model.config, b=3)
        batch["ids"] = np.broadcast_to(batch["ids"][0, 0], (3, 5, 4)).copy()
        _assert_matches_per_window(model, batch)

    def test_no_day_repeated(self):
        model = toy_model(lag=5)
        batch = toy_batch(model.config, b=3)
        batch["ids"] = np.array(
            list(itertools.product(range(1, 4), repeat=4))[:15]).reshape(3, 5, 4)
        assert len(np.unique(batch["ids"].reshape(-1, 4), axis=0)) == 15
        _assert_matches_per_window(model, batch)


class TestLengthBuckets:
    """Each distinct day is encoded on its first ``day_widths`` tokens."""

    def test_widths(self):
        visible = np.zeros((5, 20), dtype=bool)
        for row, n in enumerate((1, 8, 9, 17, 20)):
            visible[row, :n] = True
        visible[1, 3] = False                  # PAD inside a day
        assert day_widths(visible).tolist() == [8, 8, 16, 20, 20]

    @pytest.mark.parametrize("pooling", ["mean_pool", "seq_proj"])
    def test_bucketed_forward_equals_full_width(self, monkeypatch, pooling):
        model = toy_model(vocab_size=40, seq_len=32, lag=3, d_l=16,
                          lang_depth=2, use_image=False, pooling=pooling)
        batch = toy_batch(model.config, b=6, seed=4)
        batch["ids"] = padded_days(model.config, (6, 3), seed=5)
        batch["ids"][2, 1] = model.config.pad_id
        days = batch["ids"].reshape(-1, 32)
        assert len(np.unique(day_widths(visible_tokens(days, 0)))) >= 3

        def full_width(*inputs):
            with monkeypatch.context() as m:
                m.setattr(fusion, "day_widths",
                          lambda visible: np.full(len(visible), 32))
                return model(*inputs)

        _assert_matches_per_window(model, batch, full_width)

    @pytest.mark.parametrize("pooling", ["mean_pool", "seq_proj"])
    def test_day_vectors_do_not_depend_on_padding(self, pooling):
        # the same day rows padded to 16 and to 32 tokens, a fully padded
        # day among them, give the same day vectors and logits
        short = toy_model(vocab_size=40, seq_len=16, lag=3, d_l=16,
                          use_image=False, pooling=pooling)
        long = toy_model(vocab_size=40, seq_len=32, lag=3, d_l=16,
                         use_image=False, pooling=pooling)
        for name, p in long.params().items():
            src = short.params()[name].data
            p.data[..., :src.shape[-1]] = src
        batch = toy_batch(short.config, b=4, seed=6)
        ids = padded_days(short.config, (4, 3), seed=7)
        ids[1, 0] = short.config.pad_id
        wide = np.zeros((4, 3, 32), dtype=ids.dtype)
        wide[..., :16] = ids
        days, logits = zip(*((model._encode_days(x).data.tobytes(),
                              model(x, batch["macd"], None).data.tobytes())
                             for model, x in ((short, ids), (long, wide))))
        assert days[0] == days[1] and logits[0] == logits[1]

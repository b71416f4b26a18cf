import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meant.errors import ContractError
from meant.tokenizer import (TokenizerSpec, build_vocab, split_tokens,
                             tokenize)


def toy_spec(max_len=5):
    return TokenizerSpec(vocab={"alpha": 3, "beta": 4}, max_len=max_len)


class TestSplit:
    def test_lowercases_and_strips_punctuation(self):
        assert split_tokens("Buy AAPL, now!") == ["buy", "aapl", "now"]

    def test_sep_survives(self):
        assert split_tokens("a [SEP] b") == ["a", "[sep]", "b"]

    def test_apostrophe_kept(self):
        assert split_tokens("don't") == ["don't"]

    def test_empty(self):
        assert split_tokens("   ") == []


class TestTokenize:
    def test_known_unknown_pad(self):
        spec = toy_spec()
        assert tokenize("alpha [SEP] beta", spec) == [3, 2, 4, 0, 0]

    def test_unknown_maps_to_unk(self):
        assert tokenize("gamma", toy_spec()) == [1, 0, 0, 0, 0]

    def test_head_truncation(self):
        spec = toy_spec(max_len=2)
        assert tokenize("alpha beta alpha", spec) == [3, 4]

    def test_empty_text_all_pad(self):
        assert tokenize("", toy_spec()) == [0] * 5

    @given(st.text(alphabet="ab c[SEP]'", max_size=40), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_fixed_length_and_pad_suffix(self, text, max_len):
        spec = toy_spec(max_len=max_len)
        ids = tokenize(text, spec)
        assert len(ids) == max_len
        assert all(0 <= i < spec.vocab_size for i in ids)
        # PAD must be a contiguous suffix
        seen_pad = False
        for i in ids:
            if i == spec.pad_id:
                seen_pad = True
            else:
                assert not seen_pad


class TestBuildVocab:
    def test_frequency_order_with_alpha_ties(self):
        spec = build_vocab(["b b a", "c a"])
        # a and b tie at 2, alphabetical puts a first; c trails with 1
        assert spec.vocab == {"a": 3, "b": 4, "c": 5}

    def test_max_size_caps_vocab(self):
        spec = build_vocab(["a b c d e"], max_size=5)
        assert len(spec.vocab) == 2
        assert spec.vocab_size == 5

    def test_sep_never_enters_vocab(self):
        spec = build_vocab(["a [SEP] b [SEP]"])
        assert "[sep]" not in spec.vocab

    def test_round_trip_dict(self):
        spec = build_vocab(["alpha beta beta"], max_len=7)
        again = TokenizerSpec.from_dict(spec.to_dict())
        assert again == spec


class TestSpecValidation:
    def test_duplicate_reserved_ids(self):
        with pytest.raises(ContractError):
            TokenizerSpec(vocab={}, pad_id=0, unk_id=0, sep_id=2)

    def test_nonpositive_max_len(self):
        with pytest.raises(ContractError):
            TokenizerSpec(vocab={}, max_len=0)

    def test_negative_id_rejected(self):
        with pytest.raises(ContractError, match="out of range"):
            TokenizerSpec(vocab={"alpha": 3, "beta": -1})

    def test_vocab_size_counts_reserved(self):
        assert TokenizerSpec(vocab={}).vocab_size == 3
        assert toy_spec().vocab_size == 5

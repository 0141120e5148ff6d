"""Tokenizer, normalization, length buckets, and list joining."""

import string

from hypothesis import given
from hypothesis import strategies as st

from dialogtasks.textutil import (
    LENGTH_CLASSES,
    MEDIUM_MAX_TOKENS,
    SHORT_MAX_TOKENS,
    STOPWORDS,
    is_content_token,
    join_natural,
    length_class,
    normalize_tokens,
    split_token,
    tokenize,
)


def test_split_token_keeps_interior_punctuation():
    assert split_token("That's") == ["That's"]
    assert split_token("song,") == ["song", ","]
    assert split_token("``quoted''") == ["`", "`", "quoted", "'", "'"]
    assert split_token("...") == [".", ".", "."]
    assert split_token("") == []


def test_tokenize_reference_sentence():
    text = "Absolutely . That's the most important thing , so it's a good thing the flat came furnished ."
    tokens = tokenize(text)
    assert tokens[0] == "Absolutely"
    assert tokens[2] == "That's"
    assert tokens[-1] == "."
    assert tokens.count("thing") == 2


def test_tokenize_splits_trailing_punctuation():
    assert tokenize("Hello... world!") == ["Hello", ".", ".", ".", "world", "!"]


def test_normalize_lowercases_and_respaces():
    assert normalize_tokens("Hello,  World!") == ["hello", ",", "world", "!"]


@given(st.text(alphabet=string.printable, max_size=80))
def test_normalize_idempotent(text):
    once = normalize_tokens(text)
    assert normalize_tokens(" ".join(once)) == once


def test_stopwords_cover_discourse_words():
    assert "absolutely" in STOPWORDS
    assert "okay" in STOPWORDS
    assert "thing" not in STOPWORDS
    assert not is_content_token("That's")  # not alphabetic
    assert not is_content_token("Absolutely")
    assert is_content_token("flat")


def test_content_tokens_reference_sentence():
    text = "Absolutely . That's the most important thing , so it's a good thing the flat came furnished ."
    assert [t for t in tokenize(text) if is_content_token(t)] == ["important", "thing", "thing", "flat", "came", "furnished"]


def test_length_class_boundaries():
    assert length_class(1) == "short"
    assert length_class(SHORT_MAX_TOKENS) == "short"
    assert length_class(SHORT_MAX_TOKENS + 1) == "medium"
    assert length_class(MEDIUM_MAX_TOKENS) == "medium"
    assert length_class(MEDIUM_MAX_TOKENS + 1) == "long"


@given(st.integers(min_value=0, max_value=200))
def test_length_class_total(count):
    assert length_class(count) in LENGTH_CLASSES


def test_join_natural():
    assert join_natural([]) == ""
    assert join_natural(["a"]) == "a"
    assert join_natural(["a", "b"]) == "a and b"
    assert join_natural(["a", "b", "c"]) == "a, b, and c"
    assert join_natural(["sad", "happy", "mad"]) == "sad, happy, and mad"

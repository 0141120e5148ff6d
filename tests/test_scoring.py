"""The one-pass corpus scorer against the string-level implementation it replaced.

Oracles here are copies of the original textbook algorithms: the O(n*m)
LCS dynamic program and the per-string BLEU-2 count function. The golden
report was captured from the string-level scorer on the same corpus.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks.composer import compose_corpus, load_rules
from dialogtasks.evaluate import (
    BeginsWith,
    ContainsKeywords,
    EndsWith,
    ExactMatch,
    LengthClass,
    ReferenceOverlap,
    _bleu2_token_counts,
    _lcs_length,
    check_constraint,
    extract_constraints,
    rouge_l,
    score_corpus,
)
from dialogtasks.ingest import synth_corpus
from dialogtasks.registry import derive_corpus
from dialogtasks.textutil import normalize_tokens


def _dp_lcs_length(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(prev[j - 1] + 1)
            else:
                current.append(max(prev[j], current[-1]))
        prev = current
    return prev[-1]


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _string_bleu2_counts(candidate, references):
    cand = normalize_tokens(candidate)
    refs = [normalize_tokens(r) for r in references]
    counts = []
    for n in (1, 2):
        cand_ngrams = _ngram_counts(cand, n)
        max_ref = Counter()
        for ref in refs:
            for gram, count in _ngram_counts(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        matched = sum(min(count, max_ref[gram]) for gram, count in cand_ngrams.items())
        total = sum(cand_ngrams.values())
        counts.extend([matched, total])
    cand_len = len(cand)
    ref_len = min((abs(len(r) - cand_len), len(r)) for r in refs)[1]
    return counts[0], counts[1], counts[2], counts[3], cand_len, ref_len


_TOKENS = st.lists(st.sampled_from("abcde"), max_size=150)


@settings(max_examples=300, deadline=None)
@given(a=_TOKENS, b=_TOKENS)
def test_bit_parallel_lcs_matches_dp(a, b):
    assert _lcs_length(a, b) == _dp_lcs_length(a, b)
    assert _lcs_length(b, a) == _dp_lcs_length(a, b)


def test_bit_parallel_lcs_past_one_machine_word():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.choice("xyz") for _ in range(rng.randint(60, 200))]
        b = [rng.choice("xyz") for _ in range(rng.randint(60, 200))]
        assert _lcs_length(a, b) == _dp_lcs_length(a, b)


_TEXT = st.lists(st.sampled_from(["a", "b", "c", "A", "b,", ".", "c!"]), max_size=30).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(candidate=_TEXT, reference=_TEXT)
def test_token_bleu_counts_match_string_counts(candidate, reference):
    token_counts = _bleu2_token_counts(normalize_tokens(candidate), [normalize_tokens(reference)])
    assert token_counts == _string_bleu2_counts(candidate, [reference])


def _golden_examples():
    """30 synthetic dialogs at seed 7, atomic plus composite instances, and a
    seeded mock output per instance: gold, gold with about a fifth of its
    tokens dropped, another instance's gold, or gold with another appended.
    """
    atomic = derive_corpus(synth_corpus(7, 30), 7)
    composites, _ = compose_corpus(atomic, load_rules())
    instances = atomic + composites
    golds = [inst.target_item.value for inst in instances]
    rng = random.Random(7)
    examples = []
    for inst, gold in zip(instances, golds):
        draw = rng.random()
        if draw < 0.30:
            output = gold
        elif draw < 0.60:
            output = " ".join(t for t in gold.split(" ") if rng.random() >= 0.2)
        elif draw < 0.80:
            output = rng.choice(golds)
        else:
            output = gold + " " + rng.choice(golds)
        examples.append((extract_constraints(inst), output))
    return examples


def test_score_corpus_golden_report():
    assert score_corpus(_golden_examples()).to_dict() == {
        "n_examples": 6730,
        "per_constraint_accuracy": {
            "begins_with": 0.9435364041604755,
            "contains_keywords": 0.95111441307578,
            "ends_with": 0.9096582466567608,
            "exact_match": 0.9188707280832095,
            "length_class": 0.9416047548291233,
        },
        "constraint_counts": {
            "begins_with": 1143,
            "contains_keywords": 1168,
            "ends_with": 1149,
            "exact_match": 1037,
            "length_class": 1168,
        },
        "compositional_accuracy": 0.6904903417533432,
        "bleu2": 0.6828942460118296,
        "rouge_l": 0.7363757831757237,
    }


_CONSTRAINTS = st.sampled_from(
    [
        BeginsWith("a b"),
        EndsWith("c !"),
        ContainsKeywords(("b", "a b")),
        LengthClass("short"),
        LengthClass("medium"),
        ExactMatch("a b, c"),
        ReferenceOverlap("a b c"),
    ]
)


@settings(max_examples=200, deadline=None)
@given(constraint=_CONSTRAINTS, output=_TEXT, reference=_TEXT)
def test_text_and_token_list_inputs_agree(constraint, output, reference):
    tokens = normalize_tokens(output)
    assert check_constraint(constraint, tokens) == check_constraint(constraint, output)
    assert rouge_l(tokens, normalize_tokens(reference)) == rouge_l(output, reference)

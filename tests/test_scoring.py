"""The one-pass corpus scorer against the string-level implementation it replaced.

Oracles here are copies of the original textbook algorithms: the O(n*m)
LCS dynamic program, the per-string BLEU-2 count function and the n-gram
count min-sum that clipping is. The golden report was captured from the
string-level scorer on the same corpus.
"""

import dataclasses
import functools
import operator
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks.composer import compose_corpus, load_rules
from dialogtasks.evaluate import (
    BOOLEAN_KINDS,
    Constraint,
    ConstraintSpec,
    _bleu2_from_counts,
    _bleu2_token_counts,
    _clipped_count,
    _lcs_length,
    _lcs_masks,
    bleu2,
    corpus_bleu2,
    extract_constraints,
    rouge_l,
    score_corpus,
)
from dialogtasks.ingest import synth_corpus
from dialogtasks.registry import derive_corpus
from dialogtasks.textutil import LENGTH_CLASSES, length_class, normalize_tokens


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


def _masked_lcs(tokens, reference):
    """The LCS kernel as score_corpus runs it: ``tokens`` walked over the reference's masks."""
    return _lcs_length(tokens, _lcs_masks(reference), len(reference))


@settings(max_examples=300, deadline=None)
@given(a=_TOKENS, b=_TOKENS)
def test_bit_parallel_lcs_matches_dp(a, b):
    # Each side is the reference once, so the reference is both the shorter and the longer.
    assert _masked_lcs(a, b) == _dp_lcs_length(a, b)
    assert _masked_lcs(b, a) == _dp_lcs_length(a, b)


def test_bit_parallel_lcs_past_one_machine_word():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.choice("xyz") for _ in range(rng.randint(60, 200))]
        b = [rng.choice("xyz") for _ in range(rng.randint(60, 200))]
        short = b[: rng.randint(0, 20)]
        assert _masked_lcs(a, b) == _masked_lcs(b, a) == _dp_lcs_length(a, b)
        assert _masked_lcs(a, short) == _masked_lcs(short, a) == _dp_lcs_length(a, short)


_FEW_TOKENS = st.lists(st.sampled_from("abc"), max_size=20)


def _min_sum(cand, refs, n):
    """Clipped n-gram matches: each candidate n-gram counted at most its highest count in one reference."""
    limits = Counter()
    for ref in refs:
        limits |= _ngram_counts(ref, n)
    return sum(min(count, limits[gram]) for gram, count in _ngram_counts(cand, n).items())


@settings(max_examples=300, deadline=None)
@given(cand=_FEW_TOKENS, refs=st.lists(_FEW_TOKENS, min_size=1, max_size=3))
def test_clip_matches_the_min_sum_of_ngram_counts(cand, refs):
    for n in (1, 2):
        reference = dict(_ngram_counts(refs[0], n))
        grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        assert _clipped_count(grams, reference) == _min_sum(cand, refs[:1], n)
        assert reference == _ngram_counts(refs[0], n)
    m1, _, m2, _, _, _ = _bleu2_token_counts(cand, refs)
    assert (m1, m2) == (_min_sum(cand, refs, 1), _min_sum(cand, refs, 2))


_TEXT = st.lists(st.sampled_from(["a", "b", "c", "A", "b,", ".", "c!"]), max_size=30).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(candidate=_TEXT, references=st.lists(_TEXT, min_size=1, max_size=3))
def test_token_bleu_counts_match_string_counts(candidate, references):
    expected = _string_bleu2_counts(candidate, references)
    refs = [normalize_tokens(r) for r in references]
    assert _bleu2_token_counts(normalize_tokens(candidate), refs) == expected
    assert bleu2(candidate, references) == _bleu2_from_counts(*expected)
    assert corpus_bleu2([(candidate, references)] * 2) == _bleu2_from_counts(*[2 * c for c in expected])


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
    assert score_corpus(_golden_examples()) == {
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


@settings(max_examples=200, deadline=None)
@given(output=_TEXT, reference=_TEXT)
def test_text_and_token_list_inputs_agree(output, reference):
    tokens = normalize_tokens(output)
    assert rouge_l(tokens, normalize_tokens(reference)) == rouge_l(output, reference)


# --- whole corpus against a from-scratch scorer -------------------------------

def _oracle_holds(constraint, out):
    """Boolean verdict from the row's tokens, normalizing the constraint's text anew."""
    if constraint.type == "begins_with":
        prefix = normalize_tokens(constraint.value)
        return out[: len(prefix)] == prefix
    if constraint.type == "ends_with":
        suffix = normalize_tokens(constraint.value)
        return len(suffix) == 0 or out[len(out) - len(suffix):] == suffix
    if constraint.type == "contains_keywords":
        for keyword in constraint.value:
            needle = normalize_tokens(keyword)
            starts = range(len(out) - len(needle) + 1)
            if needle and not any(out[i : i + len(needle)] == needle for i in starts):
                return False
        return True
    if constraint.type == "length_class":
        return length_class(len(out)) == constraint.value
    return out == normalize_tokens(constraint.value)


def _oracle_report(examples):
    """score_corpus rebuilt from the oracles: every row tokenizes every text it needs."""
    n = len(examples)
    passed = Counter()
    present = Counter()
    all_pass = 0
    totals = [0] * 6
    rouges = []
    for spec, output in examples:
        out = normalize_tokens(output)
        kinds, failed = set(), set()
        row_rouges = []
        for constraint in spec.constraints:
            if constraint.type == "reference_overlap":
                counts = _string_bleu2_counts(output, [constraint.value])
                totals = [a + b for a, b in zip(totals, counts)]
                ref = normalize_tokens(constraint.value)
                lcs = _dp_lcs_length(out, ref)
                row_rouges.append((1.0 + 1.0 * 1.0) * lcs / (len(out) + 1.0 * 1.0 * len(ref)) if lcs else 0.0)
                continue
            kinds.add(constraint.type)
            if not _oracle_holds(constraint, out):
                failed.add(constraint.type)
        # A row's scores join the mean sorted, so no hash seed moves its last digit.
        rouges += sorted(row_rouges)
        present.update(kinds)
        passed.update(kind for kind in BOOLEAN_KINDS if kind not in failed)
        all_pass += not failed
    return {
        "n_examples": n,
        "per_constraint_accuracy": {kind: passed[kind] / n for kind in sorted(present)},
        "constraint_counts": dict(sorted(present.items())),
        "compositional_accuracy": all_pass / n if n else 1.0,
        "bleu2": _bleu2_from_counts(*totals) if rouges else None,
        "rouge_l": functools.reduce(operator.add, rouges, 0.0) / len(rouges) if rouges else None,
    }


# Texts that normalize to no tokens at all, as outputs and as references.
_BLANK = st.sampled_from(["", "  "])


@st.composite
def _pooled_corpora(draw):
    """Rows drawing their constraints from a small pool, so equal constraints recur.

    Each row gets a fresh but equal copy of the pooled constraint, as rows
    parsed from a constraints file do.
    """
    references = draw(st.lists(_TEXT | _BLANK, min_size=1, max_size=3))
    phrases = draw(st.lists(_TEXT, min_size=1, max_size=3))
    keyword_lists = draw(st.lists(st.lists(_TEXT, max_size=3).map(tuple), min_size=1, max_size=3))
    pool = (
        [Constraint("reference_overlap", r) for r in references]
        + [Constraint("begins_with", p) for p in phrases]
        + [Constraint("ends_with", p) for p in phrases]
        + [Constraint("exact_match", p) for p in phrases]
        + [Constraint("contains_keywords", k) for k in keyword_lists]
        + [Constraint("length_class", label) for label in LENGTH_CLASSES]
    )
    constraint = st.sampled_from(pool).map(dataclasses.replace)
    outputs = st.sampled_from(references + phrases) | _TEXT | _BLANK
    rows = draw(st.lists(st.tuples(st.frozensets(constraint, max_size=4), outputs), max_size=30))
    return [(ConstraintSpec(constraints), output) for constraints, output in rows]


@settings(max_examples=300, deadline=None)
@given(examples=_pooled_corpora())
def test_score_corpus_matches_a_from_scratch_scorer(examples):
    assert score_corpus(examples) == _oracle_report(examples)


def test_each_distinct_constraint_is_tokenized_once(monkeypatch):
    from dialogtasks import evaluate, textutil

    texts = []

    def counting(text):
        texts.append(text)
        return normalize_tokens(text)

    monkeypatch.setattr(evaluate, "normalize_tokens", counting)
    monkeypatch.setattr(textutil, "normalize_tokens", counting)
    pool = [
        Constraint("reference_overlap", "the flat came furnished ."),
        Constraint("begins_with", "the flat"),
        Constraint("ends_with", "furnished ."),
        Constraint("contains_keywords", ("flat", "came furnished")),
        Constraint("exact_match", "Inform"),
        Constraint("length_class", "short"),
    ]
    outputs = [f"the flat came furnished {i} ." for i in range(40)]
    # Equal constraints, new objects on every row, as a parsed file gives them.
    examples = [
        (ConstraintSpec(frozenset(dataclasses.replace(c) for c in pool[: 1 + i % len(pool)])), output)
        for i, output in enumerate(outputs)
    ]
    report = score_corpus(examples)
    prepared = ["the flat came furnished .", "the flat", "furnished .", "flat", "came furnished", "Inform"]
    assert sorted(texts) == sorted(outputs + prepared)
    monkeypatch.undo()
    assert report == _oracle_report(examples)


def test_each_distinct_reference_gets_its_masks_once(monkeypatch):
    from dialogtasks import evaluate

    built = []

    def counting(reference):
        built.append(" ".join(reference))
        return _lcs_masks(reference)

    monkeypatch.setattr(evaluate, "_lcs_masks", counting)
    references = ["the flat came furnished .", "a b a b a", "", "Flat, furnished!"]
    outputs = [f"the flat {i} a b furnished" for i in range(40)]
    # Equal references, new objects on every row, as a parsed file gives them.
    examples = [
        (
            ConstraintSpec(
                frozenset({Constraint("reference_overlap", references[i % 4]), Constraint("length_class", "short")})
            ),
            output,
        )
        for i, output in enumerate(outputs)
    ]
    expected = sorted(" ".join(normalize_tokens(r)) for r in references)
    report = score_corpus(examples)
    assert sorted(built) == expected
    built.clear()
    assert score_corpus(examples) == report
    assert sorted(built) == expected
    monkeypatch.undo()
    assert report == _oracle_report(examples)

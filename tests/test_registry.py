"""Atomic task derivation oracles over a hand-built dialog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import registry
from dialogtasks.model import ComponentKind, Dialog, DialogItem, TargetItem, Turn, validate_instance
from dialogtasks.ingest import synth_corpus
from dialogtasks.registry import (
    REGISTRY,
    DerivationError,
    GoldMissing,
    NoContentTokens,
    TooShort,
    derive_corpus,
    derive_task,
    list_tasks,
    rank_keywords,
)
from dialogtasks.textutil import tokenize

S, E, A, R = (
    ComponentKind.STATE,
    ComponentKind.EVIDENCE,
    ComponentKind.ACTION,
    ComponentKind.RESPONSE,
)

RESPONSE = (
    "Absolutely . That's the most important thing , "
    "so it's a good thing the flat came furnished ."
)

DIALOG = Dialog(
    dialog_id="hand-1",
    dataset="hand",
    turns=(
        Turn(
            "Speaker 1",
            "do you have any hobbies ?",
            (
                DialogItem(S, "emotion", "no_emotion", 0),
                DialogItem(A, "dialog_act", "question", 0),
                DialogItem(E, "persona", "i collect old coins .", 0),
            ),
        ),
        Turn(
            "Speaker 2",
            RESPONSE,
            (
                DialogItem(S, "emotion", "surprise", 1),
                DialogItem(A, "dialog_act", "inform", 1),
                DialogItem(E, "persona", "i live in a flat .", 1),
                DialogItem(E, "knowledge", "the flat opened in 1987 .", 1),
            ),
        ),
    ),
    split="train",
)

EXPECTED_SIGNATURES = {
    "beginswith_controlled_generation": "ICA-R",
    "endswith_controlled_generation": "ICA-R",
    "keyword_controlled_generation": "ICA-R",
    "response_generation_length": "ICA-R",
    "edit_generation": "ICA-R",
    "emotion_generation": "ICA-R",
    "act_generation": "ICA-R",
    "persona_grounded_generation": "ICE-R",
    "knowledge_grounded_generation": "ICE-R",
    "response_generation": "IC-R",
    "response_length_prediction": "IC-A",
    "emotion_prediction": "IC-A",
    "act_prediction": "IC-A",
    "keyword_prediction": "IC-A",
    "emotion_tagging": "IC-S",
    "act_classification": "IC-S",
    "persona_generation": "IC-E",
    "knowledge_generation": "IC-E",
}


def test_registry_lists_all_eighteen_tasks():
    tasks = list_tasks()
    assert len(tasks) == 18
    assert [t.name for t in tasks] == sorted(EXPECTED_SIGNATURES)
    assert {t.name: t.signature for t in tasks} == EXPECTED_SIGNATURES


def test_rank_keywords_reference_sentence():
    # "thing" appears twice so it outranks everything; the rest follow first
    # occurrence; stopwords and non-alphabetic tokens never qualify.
    assert rank_keywords(RESPONSE) == ["thing", "important", "flat", "came", "furnished"]


def test_rank_keywords_dedupes_case_keeping_first_surface():
    assert rank_keywords("Flat flat FLAT window") == ["Flat", "window"]


def test_beginswith_derivation():
    inst = derive_task("beginswith_controlled_generation", DIALOG, 1, seed=0)
    tokens = tokenize(RESPONSE)
    item = inst.grounding_items[0]
    k = len(tokenize(item.value))
    assert k in (2, 3, 4)
    assert item.value == " ".join(tokens[:k])
    assert item.component is A and item.kind == "begins_with"
    assert inst.signature.canonical_string() == "ICA-R"
    assert inst.target_item.value == RESPONSE
    assert len(inst.context) == 1  # exclusive context
    assert inst.provenance.source_tasks == ("beginswith_controlled_generation",)


def test_endswith_derivation():
    inst = derive_task("endswith_controlled_generation", DIALOG, 1, seed=0)
    tokens = tokenize(RESPONSE)
    item = inst.grounding_items[0]
    k = len(tokenize(item.value))
    assert k in (2, 3, 4)
    assert item.value == " ".join(tokens[-k:])
    assert item.kind == "ends_with"


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**9))
def test_phrase_spans_always_match_gold(seed):
    bw = derive_task("beginswith_controlled_generation", DIALOG, 1, seed=seed)
    ew = derive_task("endswith_controlled_generation", DIALOG, 1, seed=seed)
    text = " ".join(tokenize(RESPONSE))
    assert text.startswith(bw.grounding_items[0].value)
    assert text.endswith(ew.grounding_items[0].value)


def test_keyword_controlled_derivation():
    inst = derive_task("keyword_controlled_generation", DIALOG, 1, seed=3)
    keywords = inst.grounding_items[0].value.split(", ")
    ranked = rank_keywords(RESPONSE)
    assert 1 <= len(keywords) <= 3
    assert all(k in ranked for k in keywords)
    # Rank order is preserved in the stored list.
    assert sorted(keywords, key=ranked.index) == keywords


def test_length_class_derivation():
    inst = derive_task("response_generation_length", DIALOG, 1, seed=0)
    assert inst.grounding_items[0].value == "medium"  # 18 tokens
    pred = derive_task("response_length_prediction", DIALOG, 1, seed=0)
    assert pred.target_item.value == "medium"
    assert pred.target_item.component is A
    assert pred.grounding_items == ()


def test_edit_generation_draft_differs_from_gold():
    inst = derive_task("edit_generation", DIALOG, 1, seed=5)
    draft = inst.grounding_items[0]
    assert draft.kind == "draft_response"
    assert draft.value != inst.target_item.value
    assert abs(len(tokenize(draft.value)) - len(tokenize(RESPONSE))) <= 1


def test_label_grounded_generation_remaps_to_action():
    emo = derive_task("emotion_generation", DIALOG, 1, seed=0)
    act = derive_task("act_generation", DIALOG, 1, seed=0)
    assert (emo.grounding_items[0].component, emo.grounding_items[0].value) == (A, "surprise")
    assert (act.grounding_items[0].component, act.grounding_items[0].value) == (A, "inform")
    assert emo.target_item.value == RESPONSE


def test_evidence_grounded_generation_keeps_evidence():
    persona = derive_task("persona_grounded_generation", DIALOG, 1, seed=0)
    knowledge = derive_task("knowledge_grounded_generation", DIALOG, 1, seed=0)
    assert persona.grounding_items[0].component is E
    assert persona.grounding_items[0].value == "i live in a flat ."  # target speaker's persona
    assert knowledge.grounding_items[0].value == "the flat opened in 1987 ."


def test_prediction_targets_and_context_exclusive():
    emo = derive_task("emotion_prediction", DIALOG, 1, seed=0)
    act = derive_task("act_prediction", DIALOG, 1, seed=0)
    assert emo.target_item == TargetItem(A, "emotion", "surprise")
    assert act.target_item.value == "inform"
    assert len(emo.context) == 1


def test_tagging_targets_and_context_inclusive():
    emo = derive_task("emotion_tagging", DIALOG, 1, seed=0)
    act = derive_task("act_classification", DIALOG, 1, seed=0)
    assert emo.target_item.component is S
    assert emo.target_item.value == "surprise"
    assert act.target_item.component is S
    assert len(emo.context) == 2  # the labeled utterance is visible
    assert emo.context[-1].text == RESPONSE


def test_evidence_targets():
    persona = derive_task("persona_generation", DIALOG, 1, seed=0)
    knowledge = derive_task("knowledge_generation", DIALOG, 1, seed=0)
    assert persona.target_item.component is E
    assert persona.target_item.value == "i live in a flat ."
    assert knowledge.target_item.value == "the flat opened in 1987 ."
    assert len(persona.context) == 1


def test_grounding_component_comes_from_the_row():
    # A canonical corpus may file a persona line under another component;
    # the instance still has the signature its task row declares.
    odd = Dialog(
        dialog_id="odd", dataset="hand",
        turns=(
            Turn("Speaker 1", "hi .", (DialogItem(S, "persona", "i sail .", 0),)),
            Turn("Speaker 2", "hello ."),
            Turn("Speaker 1", "nice weather for it .", (DialogItem(S, "knowledge", "wind is up .", 2),)),
        ),
    )
    persona = derive_task("persona_grounded_generation", odd, 2, seed=0)
    knowledge = derive_task("knowledge_grounded_generation", odd, 2, seed=0)
    assert persona.grounding_items == (DialogItem(E, "persona", "i sail .", 0),)
    assert knowledge.grounding_items == (DialogItem(E, "knowledge", "wind is up .", 2),)
    for inst in (persona, knowledge):
        assert inst.signature.canonical_string() == REGISTRY[inst.task_name].signature == "ICE-R"


def test_missing_annotations_raise_gold_missing():
    bare = Dialog(
        dialog_id="bare", dataset="hand",
        turns=(Turn("Speaker 1", "hi ."), Turn("Speaker 2", "hello there friend .")),
    )
    with pytest.raises(GoldMissing):
        derive_task("emotion_prediction", bare, 1, seed=0)
    with pytest.raises(GoldMissing):
        derive_task("persona_grounded_generation", bare, 1, seed=0)


def test_short_turn_raises_too_short():
    short = Dialog(
        dialog_id="short", dataset="hand",
        turns=(Turn("Speaker 1", "hi ."), Turn("Speaker 2", "ok")),
    )
    with pytest.raises(TooShort):
        derive_task("beginswith_controlled_generation", short, 1, seed=0)
    with pytest.raises(TooShort):
        derive_task("edit_generation", short, 1, seed=0)


def test_stopword_only_turn_raises_no_content_tokens():
    dull = Dialog(
        dialog_id="dull", dataset="hand",
        turns=(Turn("Speaker 1", "hi ."), Turn("Speaker 2", "so it is .")),
    )
    with pytest.raises(NoContentTokens):
        derive_task("keyword_controlled_generation", dull, 1, seed=0)


@pytest.mark.parametrize("turn_index", [2, 3, 7, -1, -3], ids=["end", "past end", "far past end", "-1", "-3"])
def test_derive_task_outside_the_dialog_is_a_derivation_error(turn_index):
    assert len(DIALOG.turns) == 2
    for name in REGISTRY:
        with pytest.raises(DerivationError, match="out of range"):
            derive_task(name, DIALOG, turn_index, seed=0)


def test_derive_task_unknown_name():
    with pytest.raises(KeyError):
        derive_task("nope", DIALOG, 1, seed=0)


def test_derive_corpus_deterministic_and_valid():
    dialogs = synth_corpus(9, 10)
    first = derive_corpus(dialogs, seed=4)
    second = derive_corpus(dialogs, seed=4)
    assert [i.to_dict() for i in first] == [i.to_dict() for i in second]
    assert first and [i.to_dict() for i in derive_corpus(dialogs, seed=5)] != [
        i.to_dict() for i in first
    ]
    for inst in first:
        assert validate_instance(inst) == []
        assert inst.signature.canonical_string() == EXPECTED_SIGNATURES[inst.task_name]
        assert inst.signature.canonical_string() == REGISTRY[inst.task_name].signature
        assert inst.provenance.source_tasks == (inst.task_name,)


def test_derive_corpus_task_subset():
    dialogs = synth_corpus(9, 5)
    subset = derive_corpus(dialogs, seed=4, tasks=["act_prediction", "emotion_tagging"])
    assert {i.task_name for i in subset} == {"act_prediction", "emotion_tagging"}
    with pytest.raises(KeyError):
        derive_corpus(dialogs, seed=4, tasks=["bogus"])


def test_derive_corpus_tokenizes_each_target_turn_once(monkeypatch):
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(registry, "tokenize", counting_tokenize)
    dialogs = synth_corpus(7, 20)
    assert derive_corpus(dialogs, seed=7)
    assert calls == [turn.text for d in dialogs for turn in d.turns[1:]]
    calls.clear()
    # Tasks that read only annotation items never tokenize.
    assert derive_corpus(dialogs, seed=7, tasks=["emotion_prediction", "act_classification"])
    assert calls == []


def test_derive_corpus_ranks_each_target_turns_keywords_once(monkeypatch):
    # keyword_controlled_generation and keyword_prediction both read the
    # keywords of a position; they share one ranking.
    calls = []

    def counting_rank_keywords(tokens):
        calls.append(list(tokens))
        return rank_keywords(tokens)

    monkeypatch.setattr(registry, "rank_keywords", counting_rank_keywords)
    dialogs = synth_corpus(7, 30)
    instances = derive_corpus(dialogs, seed=7)
    assert {"keyword_controlled_generation", "keyword_prediction"} <= {i.task_name for i in instances}
    assert calls == [tokenize(turn.text) for d in dialogs for turn in d.turns[1:]]


def test_derive_corpus_shares_signatures_and_instructions():
    instances = derive_corpus(synth_corpus(7, 10), seed=7)
    assert len({id(i.signature) for i in instances}) == len({i.signature for i in instances})
    assert len({id(i.instruction) for i in instances}) == len({i.instruction for i in instances})


def test_derivation_error_is_value_error():
    assert issubclass(DerivationError, ValueError)
    assert issubclass(TooShort, DerivationError)


def test_tasks_at_one_position_share_one_context_object():
    dialogs = synth_corpus(7, 10)
    instances = derive_corpus(dialogs, 7)
    turns = {d.dialog_id: d.turns for d in dialogs}
    contexts = {}
    for inst in instances:
        t = inst.provenance.target_turn_index
        tagging = REGISTRY[inst.task_name].tagging
        assert inst.context == turns[inst.provenance.dialog_id][: t + 1 if tagging else t]
        key = (inst.provenance.dialog_id, t, tagging)
        assert contexts.setdefault(key, inst.context) is inst.context, inst.task_name
    positions = sum(len(d.turns) - 1 for d in dialogs)
    assert len(contexts) <= 2 * positions < len(instances)

"""Corpus loading, adapters, schema errors, and the synthetic generator."""

import json

import pytest

from dialogtasks import cli
from dialogtasks.ingest import (
    ADAPTERS,
    EmptyCorpus,
    ParseError,
    SchemaError,
    SynthConfig,
    load_corpus,
    split_for,
    synth_corpus,
    write_corpus,
)
from dialogtasks.model import ComponentKind


def test_canonical_round_trip(tmp_path):
    dialogs = synth_corpus(1, 10)
    path = tmp_path / "corpus.jsonl"
    manifest = write_corpus(dialogs, path)
    assert manifest.count == 10
    assert manifest.dataset == "synth"
    loaded, loaded_manifest = load_corpus(path)
    assert [d.to_dict() for d in loaded] == [d.to_dict() for d in dialogs]
    assert loaded_manifest.checksum == manifest.checksum


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(synth_corpus(1, 1)[0].to_dict())
    path.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_schema_error_names_field_path(tmp_path):
    record = synth_corpus(1, 1)[0].to_dict()
    del record["turns"][1]["text"]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path)
    assert err.value.field_path == "turns[1].text"


def test_schema_error_on_bad_component(tmp_path):
    record = synth_corpus(1, 1)[0].to_dict()
    record["turns"][0]["items"][0]["component"] = "R"
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path)
    assert "component" in err.value.field_path


def test_empty_corpus_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
        load_corpus(path)


def test_unknown_adapter_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(synth_corpus(1, 1), path)
    with pytest.raises(ValueError):
        load_corpus(path, "nope")


def test_act_emotion_adapter(tmp_path):
    record = {
        "dialog_id": "d7",
        "turns": [
            {"speaker": "Speaker 1", "text": "hi there .", "act": "question", "emotion": "surprise"},
            {"speaker": "Speaker 2", "text": "hello .", "act": "inform"},
        ],
    }
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    dialogs, manifest = load_corpus(path, "act_emotion")
    assert manifest.dataset == "act_emotion"
    turn0 = dialogs[0].turns[0]
    kinds = {(i.component, i.kind, i.value) for i in turn0.items}
    assert (ComponentKind.ACTION, "dialog_act", "question") in kinds
    assert (ComponentKind.STATE, "emotion", "surprise") in kinds
    assert len(dialogs[0].turns[1].items) == 1  # no emotion on turn 1


def test_persona_list_adapter(tmp_path):
    record = {
        "dialog_id": "d8",
        "personas": [["i like tea .", "i own a bike ."], ["i teach math ."]],
        "turns": [
            {"speaker": "Speaker 1", "text": "hi ."},
            {"speaker": "Speaker 2", "text": "hello ."},
            {"speaker": "Speaker 1", "text": "how are you ?"},
        ],
    }
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    dialogs, _ = load_corpus(path, "persona_list")
    dialog = dialogs[0]
    first = [(i.kind, i.value) for i in dialog.turns[0].items]
    second = [(i.kind, i.value) for i in dialog.turns[1].items]
    assert first == [("persona", "i like tea ."), ("persona", "i own a bike .")]
    assert second == [("persona", "i teach math .")]
    assert dialog.turns[2].items == ()
    assert all(i.component is ComponentKind.EVIDENCE for t in dialog.turns for i in t.items)


def test_unicode_line_separator_inside_a_string_loads(tmp_path, capsys):
    # U+2028 is a line break to str.splitlines() but not to JSONL: only "\n"
    # ends a record. Written unescaped, it must stay inside the turn text.
    record = synth_corpus(1, 1)[0].to_dict()
    record["turns"][0]["text"] = "first half \u2028 second half ."
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    dialogs, manifest = load_corpus(path)
    assert manifest.count == 1
    assert dialogs[0].turns[0].text == "first half \u2028 second half ."
    canonical = tmp_path / "dialogs.jsonl"
    instances = tmp_path / "instances.jsonl"
    assert cli.main(["ingest", "--input", str(path), "--out", str(canonical)]) == cli.EXIT_OK
    assert cli.main(["tasks", "--derive", "--corpus", str(canonical), "--out", str(instances)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["stats", "--in", str(instances)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_instances"] > 0


@pytest.mark.parametrize(
    "adapter, record, field_path",
    [
        ("act_emotion", {"dialog_id": "d", "turns": ["text"]}, "turns[0]"),
        ("act_emotion", {"dialog_id": "d", "turns": [{"text": "hi ."}, 5]}, "turns[1]"),
        ("persona_list", {"dialog_id": "d", "turns": ["text"]}, "turns[0]"),
        ("persona_list", {"dialog_id": "d", "personas": [5], "turns": [{"text": "hi ."}]}, "personas"),
        ("canonical", {"dialog_id": "d", "dataset": "x", "split": "train",
                       "turns": [{"speaker": "A", "text": "hi .", "items": ["persona"]}]},
         "turns[0].items[0]"),
        ("canonical", {"dialog_id": "d", "dataset": "x", "split": "train",
                       "turns": [{"speaker": "A", "text": "hi .", "items": 5}]},
         "turns[0].items"),
    ],
)
def test_malformed_turns_and_items_are_schema_errors(tmp_path, capsys, adapter, record, field_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path, adapter)
    assert err.value.field_path == field_path
    assert err.value.line_number == 1
    code = cli.main(["ingest", "--input", str(path), "--adapter", adapter, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_IO
    assert f"line 1: missing or invalid field {field_path}" in capsys.readouterr().err


def test_adapters_registry_shape():
    assert set(ADAPTERS) == {"canonical", "act_emotion", "persona_list"}


def test_split_for_is_deterministic_and_partitioned():
    ids = [f"dlg-{i}" for i in range(2000)]
    first = [split_for(i) for i in ids]
    assert first == [split_for(i) for i in ids]
    counts = {s: first.count(s) for s in ("train", "dev", "test")}
    assert sum(counts.values()) == 2000
    assert counts["train"] > 1600
    assert counts["dev"] > 30
    assert counts["test"] > 30


def test_synth_corpus_deterministic():
    a = synth_corpus(42, 15)
    b = synth_corpus(42, 15)
    assert [d.to_dict() for d in a] == [d.to_dict() for d in b]
    assert [d.to_dict() for d in synth_corpus(43, 15)] != [d.to_dict() for d in a]


def test_synth_corpus_shape():
    config = SynthConfig(dataset="demo")
    dialogs = synth_corpus(5, 30, config)
    assert len(dialogs) == 30
    assert {d.dataset for d in dialogs} == {"demo"}
    assert {d.split for d in dialogs} <= {"train", "dev", "test"}
    for dialog in dialogs:
        assert config.min_turns <= len(dialog.turns) <= config.max_turns
        for turn in dialog.turns:
            assert turn.text
            kinds = [i.kind for i in turn.items]
            assert "emotion" in kinds and "dialog_act" in kinds
    all_kinds = {i.kind for d in dialogs for t in d.turns for i in t.items}
    assert all_kinds == {"emotion", "dialog_act", "persona", "knowledge"}


def test_synth_corpus_item_families_configurable():
    dialogs = synth_corpus(5, 5, SynthConfig(item_families=("emotion",)))
    kinds = {i.kind for d in dialogs for t in d.turns for i in t.items}
    assert kinds == {"emotion"}


def test_synth_corpus_rejects_zero():
    with pytest.raises(ValueError):
        synth_corpus(1, 0)

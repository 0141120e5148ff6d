"""Corpus loading, adapters, schema errors, the synthetic generator, and the JSONL writer."""

import hashlib
import json
import os
import stat
import threading
import tracemalloc

import pytest

from dialogtasks import cli
from dialogtasks.ingest import (
    _BLOCK,
    ADAPTERS,
    EmptyCorpus,
    ParseError,
    SchemaError,
    SynthConfig,
    load_corpus,
    split_for,
    synth_corpus,
    write_corpus,
    write_json,
    write_jsonl,
)
from dialogtasks.model import ComponentKind


def test_canonical_round_trip(tmp_path):
    dialogs = synth_corpus(1, 10)
    path = tmp_path / "corpus.jsonl"
    manifest = write_corpus(dialogs, path)
    assert manifest["count"] == 10
    assert manifest["dataset"] == "synth"
    loaded, loaded_manifest = load_corpus(path)
    assert [d.to_dict() for d in loaded] == [d.to_dict() for d in dialogs]
    assert loaded_manifest["checksum"] == manifest["checksum"]
    # ingest --input of a canonical corpus writes it again byte for byte.
    again = tmp_path / "again.jsonl"
    assert cli.main(["ingest", "--input", str(path), "--out", str(again)]) == cli.EXIT_OK
    assert again.read_bytes() == path.read_bytes()


def test_corpus_checksum_is_the_file_bytes(tmp_path):
    rows = [json.dumps(d.to_dict()).encode("utf-8") for d in synth_corpus(3, 3)]
    # Blank lines, a "\r\n" line ending and no final newline: every byte counts.
    data = b"\n" + rows[0] + b"\r\n\n  \n" + rows[1] + b"\n" + rows[2]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    dialogs, manifest = load_corpus(path)
    assert [d.dialog_id for d in dialogs] == [d.dialog_id for d in synth_corpus(3, 3)]
    assert manifest["checksum"] == hashlib.sha256(data).hexdigest()


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
    assert manifest["dataset"] == "act_emotion"
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
    assert manifest["count"] == 1
    assert dialogs[0].turns[0].text == "first half \u2028 second half ."
    canonical = tmp_path / "dialogs.jsonl"
    instances = tmp_path / "instances.jsonl"
    assert cli.main(["ingest", "--input", str(path), "--out", str(canonical)]) == cli.EXIT_OK
    assert cli.main(["tasks", "--derive", "--corpus", str(canonical), "--out", str(instances)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["stats", "--in", str(instances)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_instances"] > 0


def _with(record, value, *keys):
    """A copy of record whose field at keys (object keys and list indices) holds value."""
    record = json.loads(json.dumps(record))
    parent = record
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return record


_CANONICAL = synth_corpus(1, 1)[0].to_dict()
_ACT_EMOTION = {
    "dialog_id": "ae",
    "turns": [{"speaker": "A", "text": "hi .", "act": "question", "emotion": "surprise"}, {"text": "hello ."}],
}
_PERSONA_LIST = {"dialog_id": "pl", "personas": [["i like tea ."]], "turns": [{"speaker": "A", "text": "hi ."}]}


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
        ("canonical", _with(_CANONICAL, None, "dialog_id"), "dialog_id"),
        ("canonical", _with(_CANONICAL, 5, "dataset"), "dataset"),
        ("canonical", _with(_CANONICAL, None, "turns", 1, "speaker"), "turns[1].speaker"),
        ("canonical", _with(_CANONICAL, None, "turns", 0, "text"), "turns[0].text"),
        ("canonical", _with(_CANONICAL, ["hi ."], "turns", 1, "text"), "turns[1].text"),
        ("canonical", _with(_CANONICAL, ["x"], "turns", 0, "items", 1, "kind"), "turns[0].items[1].kind"),
        ("canonical", _with(_CANONICAL, 3, "turns", 1, "items", 0, "value"), "turns[1].items[0].value"),
        ("act_emotion", _with(_ACT_EMOTION, {"text": None, "act": {"x": 1}}, "turns", 0), "turns[0].text"),
        ("act_emotion", _with(_ACT_EMOTION, {"x": 1}, "turns", 0, "act"), "turns[0].act"),
        ("act_emotion", _with(_ACT_EMOTION, None, "turns", 0, "act"), "turns[0].act"),
        ("act_emotion", _with(_ACT_EMOTION, 5, "turns", 1, "emotion"), "turns[1].emotion"),
        ("act_emotion", _with(_ACT_EMOTION, 1, "turns", 0, "speaker"), "turns[0].speaker"),
        ("act_emotion", _with(_ACT_EMOTION, 7, "dialog_id"), "dialog_id"),
        ("act_emotion", _with(_ACT_EMOTION, [], "dataset"), "dataset"),
        ("persona_list", _with(_PERSONA_LIST, [["i like tea .", 5]], "personas"), "personas"),
        ("persona_list", _with(_PERSONA_LIST, None, "personas", 0, 0), "personas"),
        ("persona_list", _with(_PERSONA_LIST, None, "turns", 0, "text"), "turns[0].text"),
        ("persona_list", _with(_PERSONA_LIST, False, "turns", 0, "speaker"), "turns[0].speaker"),
        ("persona_list", _with(_PERSONA_LIST, None, "dataset"), "dataset"),
        ("persona_list", _with(_PERSONA_LIST, 3, "dialog_id"), "dialog_id"),
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


@pytest.mark.parametrize("adapter", ["act_emotion", "persona_list"])
def test_absent_optional_fields_keep_their_defaults(tmp_path, adapter):
    record = {"dialog_id": "d", "turns": [{"text": "hi ."}, {"text": "hello .", "emotion": ""}]}
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    dialogs, _ = load_corpus(path, adapter)
    assert dialogs[0].dataset == adapter
    assert [(t.speaker, t.items) for t in dialogs[0].turns] == [("Speaker 1", ()), ("Speaker 2", ())]


@pytest.mark.parametrize("adapter", ["act_emotion", "persona_list"])
@pytest.mark.parametrize(
    "split",
    ["validation", "Train", [1], 5, False, 0, [], {}],
    ids=["word", "case", "list", "int", "false", "zero", "empty-list", "empty-object"],
)
def test_adapter_split_outside_train_dev_test_is_schema_error(tmp_path, capsys, adapter, split):
    record = {"dialog_id": "d", "split": split, "turns": [{"text": "hi ."}]}
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path, adapter)
    assert (err.value.field_path, err.value.line_number) == ("split", 1)
    code = cli.main(["ingest", "--input", str(path), "--adapter", adapter, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_IO
    assert "line 1: missing or invalid field split" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("adapter", ["act_emotion", "persona_list"])
def test_adapter_split_falls_back_only_when_absent_null_or_empty(tmp_path, adapter):
    records = [
        {"dialog_id": "d0", "turns": [{"text": "hi ."}]},
        {"dialog_id": "d1", "split": None, "turns": [{"text": "hi ."}]},
        {"dialog_id": "d2", "split": "", "turns": [{"text": "hi ."}]},
        {"dialog_id": "d3", "split": "dev", "turns": [{"text": "hi ."}]},
    ]
    path = tmp_path / "raw.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    dialogs, _ = load_corpus(path, adapter)
    assert [d.split for d in dialogs] == [split_for("d0"), split_for("d1"), split_for("d2"), "dev"]


@pytest.mark.parametrize("adapter", ["canonical", "act_emotion", "persona_list"])
def test_repeated_dialog_id_of_a_dataset_is_schema_error(tmp_path, capsys, adapter):
    # Two dialogs with one "dataset/dialog_id" prefix would share every export id.
    dialog = {
        "dialog_id": "d", "dataset": "a", "split": "train",
        "turns": [{"speaker": "s", "text": "hi .", "items": []}],
    }
    rows = [dialog, {**dialog, "dialog_id": "e"}, {**dialog, "dataset": "b"}, dialog]
    path = tmp_path / "raw.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path, adapter)
    assert (err.value.field_path, err.value.line_number) == ("dialog_id", 4)
    assert "already on line 1" in str(err.value)
    code = cli.main(["ingest", "--input", str(path), "--adapter", adapter, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_IO
    assert "line 4: dialog_id" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    path.write_text("".join(json.dumps(r) + "\n" for r in rows[:3]), encoding="utf-8")
    assert len(load_corpus(path, adapter)[0]) == 3
    # Dataset "a/b" with dialog "c" and dataset "a" with dialog "b/c" spell one id prefix.
    rows += [{**dialog, "dataset": "a/b", "dialog_id": "c"}, {**dialog, "dataset": "a", "dialog_id": "b/c"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows[:3] + rows[4:]), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_corpus(path, adapter)
    assert (err.value.field_path, err.value.line_number) == ("dialog_id", 5)
    assert "'a/b/c', which is already on line 4" in str(err.value)
    code = cli.main(["ingest", "--input", str(path), "--adapter", adapter, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and "line 5: dialog_id" in captured.err
    assert not (tmp_path / "o").exists()


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


def _joined(records):
    """The bytes write_jsonl wrote before it streamed: every line built, then joined."""
    lines = [json.dumps(record, sort_keys=True, ensure_ascii=True) for record in records]
    data = ("\n".join(lines) + "\n") if lines else ""
    return data.encode("utf-8"), len(lines)


_RECORD_SETS = {
    "none": [],
    "one": [{"b": 2, "a": "caf\u00e9 \u2028 \U0001f600"}],
    "many": [{"i": i, "text": "x" * i, "nested": {"z": [i, None, True], "a": 1.5}} for i in range(300)],
}


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("name", sorted(_RECORD_SETS))
def test_write_jsonl_streams_the_joined_bytes(tmp_path, name, as_generator):
    records = _RECORD_SETS[name]
    data, count = _joined(records)
    path = tmp_path / "out.jsonl"
    manifest = write_jsonl((r for r in records) if as_generator else records, path)
    assert path.read_bytes() == data
    assert (manifest["name"], manifest["count"], manifest["sha256"]) == ("out.jsonl", count, hashlib.sha256(data).hexdigest())
    assert os.listdir(tmp_path) == ["out.jsonl"]


def _str_records(total):
    """str records whose lines, each with its newline, hold ``total`` bytes in all."""
    records = []
    while total:
        size = min(total, 101)
        records.append(str(len(records) % 10) * (size - 1))
        total -= size
    return records


@pytest.mark.parametrize(
    "records",
    [
        _str_records(_BLOCK - 1),
        _str_records(_BLOCK),
        _str_records(_BLOCK + 1),
        ["a", "b" * (2 * _BLOCK + 3), "c"],
    ],
    ids=["one byte under a block", "a block", "one byte over a block", "a line longer than a block"],
)
def test_write_jsonl_writes_the_joined_lines_across_blocks(tmp_path, records):
    data = "".join(record + "\n" for record in records).encode("utf-8")
    path = tmp_path / "out.jsonl"
    manifest = write_jsonl(iter(records), path)
    assert path.read_bytes() == data
    assert (manifest["count"], manifest["sha256"]) == (len(records), hashlib.sha256(data).hexdigest())


def _failing_after_two_blocks():
    yield from _str_records(2 * _BLOCK + 1)
    yield {"b": object()}


@pytest.mark.parametrize("before", [None, b'{"old": true}\n'], ids=["no file", "old file"])
def test_write_jsonl_failing_after_a_written_block_leaves_the_path_as_it_was(tmp_path, before):
    path = tmp_path / "out.jsonl"
    if before is not None:
        path.write_bytes(before)
    with pytest.raises(TypeError):
        write_jsonl(_failing_after_two_blocks(), path)
    assert os.listdir(tmp_path) == ([] if before is None else ["out.jsonl"])
    if before is not None:
        assert path.read_bytes() == before


def _failing_midway():
    yield {"a": 1}
    yield {"b": object()}


@pytest.mark.parametrize("before", [None, b'{"old": true}\n'], ids=["no file", "old file"])
def test_write_jsonl_failing_midway_leaves_the_path_as_it_was(tmp_path, before):
    path = tmp_path / "out.jsonl"
    if before is not None:
        path.write_bytes(before)
    with pytest.raises(TypeError):
        write_jsonl(_failing_midway(), path)
    assert os.listdir(tmp_path) == ([] if before is None else ["out.jsonl"])
    if before is not None:
        assert path.read_bytes() == before


def test_write_jsonl_follows_a_symlink_to_a_file(tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    records = _RECORD_SETS["many"]
    manifest = write_jsonl(records, link)
    assert link.is_symlink()
    assert target.read_bytes() == _joined(records)[0]
    assert (manifest["name"], manifest["count"]) == ("link.jsonl", len(records))
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]


def _write_through_a_pipe(tmp_path, records):
    """write_jsonl(records) to a symlink to a pipe: its manifest and the bytes read from the pipe.

    The manifest is None where write_jsonl raised; the error is kept in
    place of the manifest.
    """
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link = tmp_path / "stdout"
    link.symlink_to(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        manifest = write_jsonl(records, link)
    except Exception as exc:
        manifest = exc
    finally:
        reader.join(timeout=10)
        if reader.is_alive():
            fifo.write_bytes(b"")  # the writer never opened the pipe: release the reader
            reader.join(timeout=10)
    assert not reader.is_alive()
    assert link.is_symlink() and stat.S_ISFIFO(os.stat(fifo).st_mode)
    return manifest, received


def test_write_jsonl_writes_a_pipe_in_place(tmp_path):
    # As with --out /dev/stdout: a symlink to a pipe is written through,
    # neither it nor the pipe is replaced by a regular file.
    manifest, received = _write_through_a_pipe(tmp_path, _RECORD_SETS["many"])
    data, count = _joined(_RECORD_SETS["many"])
    assert received == [data]
    assert (manifest["count"], manifest["sha256"]) == (count, hashlib.sha256(data).hexdigest())
    assert sorted(os.listdir(tmp_path)) == ["fifo", "stdout"]


@pytest.mark.parametrize(
    "records, written",
    [
        (_failing_midway, [{"a": 1}]),
        (_failing_after_two_blocks, _str_records(2 * _BLOCK + 1)),
    ],
    ids=["within the first block", "after two written blocks"],
)
def test_write_jsonl_failing_on_a_pipe_still_writes_every_line_before(tmp_path, records, written):
    # A pipe cannot be put back as it was, so it gets what the program
    # wrote before the failure, as if each line were written as it came.
    error, received = _write_through_a_pipe(tmp_path, records())
    assert isinstance(error, TypeError)
    lines = [line if isinstance(line, str) else json.dumps(line, sort_keys=True) for line in written]
    assert received == ["".join(line + "\n" for line in lines).encode("utf-8")]


def test_write_jsonl_memory_does_not_grow_with_the_file(tmp_path):
    records = ({"i": i, "text": "abcdefghij" * 100} for i in range(20_000))
    tracemalloc.start()
    try:
        manifest = write_jsonl(records, tmp_path / "big.jsonl")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.jsonl").stat().st_size
    assert manifest["count"] == 20_000 and size > 20_000_000
    assert peak < size / 4


@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_write_jsonl_leaves_an_unrelated_tmp_file_alone(tmp_path, fails):
    path = tmp_path / "out.jsonl"
    unrelated = tmp_path / "out.jsonl.tmp"
    unrelated.write_bytes(b"not ours\n")
    if fails:
        with pytest.raises(TypeError):
            write_jsonl(_failing_midway(), path)
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl.tmp"]
    else:
        write_jsonl(_RECORD_SETS["many"], path)
        assert path.read_bytes() == _joined(_RECORD_SETS["many"])[0]
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "out.jsonl.tmp"]
    assert unrelated.read_bytes() == b"not ours\n"


def test_write_jsonl_never_reuses_a_taken_temporary_name(tmp_path, monkeypatch):
    # The random part of the first name drawn is that of a file already
    # there; the writer must draw again and leave that file alone.
    (tmp_path / "out.jsonl.00000000.tmp").write_bytes(b"not ours\n")
    draws = iter([b"\x00" * 4, b"\x01" * 4])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    write_jsonl([{"c": 1}], tmp_path / "out.jsonl")
    assert next(draws, None) is None
    assert (tmp_path / "out.jsonl").read_bytes() == b'{"c": 1}\n'
    assert (tmp_path / "out.jsonl.00000000.tmp").read_bytes() == b"not ours\n"
    assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "out.jsonl.00000000.tmp"]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_written_files_get_new_file_permissions(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_jsonl([{"a": 1}], tmp_path / "out.jsonl")
        write_json({"a": 1}, tmp_path / "out.json")
    finally:
        os.umask(old)
    for name in ("out.jsonl", "out.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask


def test_write_json_writes_indented_sorted_json(tmp_path):
    data = {"b": [1, {"d": "\u00e9", "c": None}], "a": 1.5}
    path = tmp_path / "doc.json"
    path.write_bytes(b"old\n")
    write_json(data, path)
    assert path.read_text(encoding="utf-8") == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert os.listdir(tmp_path) == ["doc.json"]

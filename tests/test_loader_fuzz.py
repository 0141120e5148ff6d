"""Fuzz the corpus adapters and the instance-file reader with mutated valid rows.

A loader may reject a row only with ParseError or SchemaError, and the CLI
command reading the file must then exit 2 without a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import cli
from dialogtasks.export import read_instances, write_instances
from dialogtasks.ingest import ParseError, SchemaError, SynthConfig, load_corpus, synth_corpus
from dialogtasks.registry import derive_corpus

_SMALL = SynthConfig(min_turns=2, max_turns=3, max_tokens=6)

VALID_ROWS = {
    "canonical": [d.to_dict() for d in synth_corpus(5, 2, _SMALL)],
    "act_emotion": [
        {
            "dialog_id": "ae-1",
            "split": "dev",
            "turns": [
                {"speaker": "A", "text": "where is the station ?", "act": "question", "emotion": "no_emotion"},
                {"speaker": "B", "text": "next to the river .", "act": "inform", "emotion": "happiness"},
            ],
        },
        {"dialog_id": "ae-2", "turns": [{"text": "hello ."}, {"text": "hi !", "act": "inform"}]},
    ],
    "persona_list": [
        {
            "dialog_id": "pl-1",
            "personas": [["i like tea ."], ["i own a bike .", "i teach math ."]],
            "turns": [{"speaker": "A", "text": "hi ."}, {"speaker": "B", "text": "hello there ."}],
        },
    ],
}


def _instance_rows():
    """Rows of a written instance file, plus one more instance inline as to_dict gives it."""
    instances = derive_corpus(synth_corpus(5, 2, _SMALL), seed=5)[:7]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "instances.jsonl"
        write_instances(instances[:-1], path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return rows + [instances[-1].to_dict()]


INSTANCE_ROWS = _instance_rows()

_SCALAR = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
_JSON = st.one_of(
    _SCALAR,
    st.lists(_SCALAR, max_size=3),
    st.dictionaries(st.text(max_size=4), _SCALAR, max_size=3),
)
_RAW_LINE = st.sampled_from(["{", "not json", "[1,", '"text"', "5", "[]", "null"])


@st.composite
def _mutated_lines(draw, rows):
    """The rows as JSONL lines after one to three mutations.

    A mutation walks from a random row down through nested objects and lists
    and then deletes the value it stopped at or replaces it with any JSON.
    Sometimes one line is replaced by a line that is not an object.
    """
    rows = json.loads(json.dumps(rows))
    for _ in range(draw(st.integers(1, 3))):
        parent = rows[draw(st.integers(0, len(rows) - 1))]
        while parent:
            key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
            child = parent[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                parent = child
                continue
            if draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = draw(_JSON)
            break
    lines = [json.dumps(row) for row in rows]
    if draw(st.integers(0, 4)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_RAW_LINE)
    return lines


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _expected_code(load):
    try:
        load()
    except (ParseError, SchemaError):
        return cli.EXIT_IO
    return cli.EXIT_OK


@pytest.mark.parametrize("adapter", sorted(VALID_ROWS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_adapters_raise_only_parse_and_schema_errors(adapter, data):
    lines = data.draw(_mutated_lines(VALID_ROWS[adapter]))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "raw.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = _expected_code(lambda: load_corpus(path, adapter))
        code, err = _run_cli(
            ["ingest", "--input", str(path), "--adapter", adapter, "--out", str(Path(directory) / "out.jsonl")]
        )
    assert code == expected
    assert "Traceback" not in err
    if expected == cli.EXIT_IO:
        assert err.startswith("error: line ")


@settings(max_examples=200, deadline=None)
@given(lines=_mutated_lines(INSTANCE_ROWS))
def test_read_instances_raises_only_parse_and_schema_errors(lines):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "instances.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = _expected_code(lambda: read_instances(path))
        code, err = _run_cli(["stats", "--in", str(path)])
    assert code == expected
    assert "Traceback" not in err
    if expected == cli.EXIT_IO:
        assert err.startswith("error: line ")


def test_valid_rows_load():
    for adapter, rows in VALID_ROWS.items():
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "raw.jsonl"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            assert len(load_corpus(path, adapter)[0]) == len(rows)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "instances.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in INSTANCE_ROWS), encoding="utf-8")
        assert len(read_instances(path)) == len(INSTANCE_ROWS)

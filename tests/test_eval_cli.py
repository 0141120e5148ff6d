"""eval: joining model outputs to constraint rows, and rejecting malformed input."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogtasks import cli
from dialogtasks.evaluate import BOOLEAN_KINDS, ConstraintSpec, score_corpus
from dialogtasks.ingest import ParseError, SchemaError

# Every constraint kind, each met by its row's output up to case and the
# space before a full stop, and a row with two references.
CONSTRAINT_ROWS = [
    {
        "id": "a",
        "constraints": [
            {"type": "begins_with", "phrase": "The flat"},
            {"type": "reference_overlap", "reference": "the flat came furnished ."},
            {"type": "reference_overlap", "reference": "the rent includes heating ."},
        ],
    },
    {
        "id": "b",
        "constraints": [
            {"type": "contains_keywords", "keywords": ["garden"]},
            {"type": "length_class", "label": "short"},
            {"type": "ends_with", "phrase": "Garden ."},
        ],
    },
    {"id": "c", "constraints": [{"type": "exact_match", "value": "inform"}]},
]

OUTPUT_ROWS = [
    {"id": "a", "output": "the flat came with a garden"},
    {"id": "b", "output": "a garden."},
    {"id": "c", "output": "Inform"},
]


def _write(path, rows):
    """One line per row: JSON values are dumped, strings are written raw."""
    lines = [row if isinstance(row, str) else json.dumps(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _eval(directory, constraint_rows, output_rows):
    constraints = Path(directory) / "constraints.jsonl"
    outputs = Path(directory) / "outputs.jsonl"
    _write(constraints, constraint_rows)
    _write(outputs, output_rows)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--constraints", str(constraints), "--outputs", str(outputs)])
    return code, out.getvalue(), err.getvalue()


def test_eval_reports_join_counts(tmp_path):
    code, out, _ = _eval(tmp_path, CONSTRAINT_ROWS, OUTPUT_ROWS)
    assert code == cli.EXIT_OK
    clean = json.loads(out)
    assert clean["n_duplicate_outputs"] == clean["n_unknown_outputs"] == clean["n_missing_outputs"] == 0
    assert clean["n_examples"] == 3 and clean["compositional_accuracy"] == 1.0
    assert list(clean["per_constraint_accuracy"]) == sorted(BOOLEAN_KINDS)

    noisy_outputs = [
        OUTPUT_ROWS[0],
        {"id": "zz", "output": "nobody asked"},
        OUTPUT_ROWS[0],
        OUTPUT_ROWS[1],
        {"id": "zz", "output": "nobody asked"},
        {"id": "yy", "output": ""},
        OUTPUT_ROWS[2],
    ]
    code, out, _ = _eval(tmp_path, CONSTRAINT_ROWS, noisy_outputs)
    assert code == cli.EXIT_OK
    noisy = json.loads(out)
    assert noisy["n_duplicate_outputs"] == 2
    assert noisy["n_unknown_outputs"] == 2
    assert noisy["n_missing_outputs"] == 0
    # Repeated and unknown rows change the counts, never the scores.
    for key in ("n_duplicate_outputs", "n_unknown_outputs"):
        del clean[key], noisy[key]
    assert noisy == clean


def test_eval_counts_missing_outputs(tmp_path):
    code, out, _ = _eval(tmp_path, CONSTRAINT_ROWS, OUTPUT_ROWS[:1])
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["n_missing_outputs"] == 2
    assert report["n_examples"] == 3


def test_eval_refuses_two_different_outputs_for_one_id(tmp_path):
    outputs = OUTPUT_ROWS + [{"id": "b", "output": "a different answer"}]
    code, out, err = _eval(tmp_path, CONSTRAINT_ROWS, outputs)
    assert code == cli.EXIT_IO
    assert out == ""
    assert "line 4" in err and "'b'" in err


def test_eval_refuses_two_constraint_rows_for_one_id(tmp_path):
    constraint_rows = [
        {"id": "x", "constraints": [{"type": "exact_match", "value": "yes"}]},
        {"id": "y", "constraints": [{"type": "exact_match", "value": "yes"}]},
        {"id": "x", "constraints": [{"type": "exact_match", "value": "no"}]},
    ]
    code, out, err = _eval(tmp_path, constraint_rows, [{"id": "x", "output": "yes"}])
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith("error: line 3: ") and "'x'" in err
    assert "constraints.jsonl" in err and "Traceback" not in err


def test_eval_refuses_a_length_class_label_no_output_can_meet(tmp_path):
    constraint_rows = [
        CONSTRAINT_ROWS[0],
        {"id": "b", "constraints": [{"type": "length_class", "label": "huge"}]},
    ]
    code, out, err = _eval(tmp_path, constraint_rows, OUTPUT_ROWS)
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith("error: line 2: missing or invalid field constraints[0].label")


def test_eval_non_utf8_line_exits_two_with_line_number(tmp_path):
    _write(tmp_path / "constraints.jsonl", CONSTRAINT_ROWS)
    (tmp_path / "outputs.jsonl").write_bytes(b'{"id": "a", "output": "x"}\n{"id": "b", "output": "caf\xe9"}\n')
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([
            "eval", "--constraints", str(tmp_path / "constraints.jsonl"),
            "--outputs", str(tmp_path / "outputs.jsonl"),
        ])
    assert code == cli.EXIT_IO
    assert err.getvalue().startswith("error: line 2: ")


@pytest.mark.parametrize(
    "constraint_rows, output_rows, message",
    [
        ([{"constraints": []}], OUTPUT_ROWS, "line 1: missing or invalid field id"),
        (
            [CONSTRAINT_ROWS[0], {"id": "b", "constraints": [{"type": "contains_keywords", "keywords": 5}]}],
            OUTPUT_ROWS,
            "line 2: missing or invalid field constraints[0].keywords",
        ),
        (CONSTRAINT_ROWS, [[1]], "line 1: missing or invalid field (record)"),
        (CONSTRAINT_ROWS, [OUTPUT_ROWS[0], "{"], "line 2: "),
        (CONSTRAINT_ROWS, [{"id": "a", "output": 5}], "line 1: missing or invalid field output"),
        (CONSTRAINT_ROWS, [{"id": ["a"], "output": "x"}], "line 1: missing or invalid field id"),
        ([{"id": "a", "constraints": "begins_with"}], OUTPUT_ROWS, "field constraints"),
        ([{"id": "a", "constraints": ["begins_with"]}], OUTPUT_ROWS, "field constraints[0]"),
        ([{"id": "a", "constraints": [{"type": "mystery"}]}], OUTPUT_ROWS, "field constraints[0].type"),
        ([{"id": "a", "constraints": [{"type": ["x"]}]}], OUTPUT_ROWS, "field constraints[0].type"),
        (
            [{"id": "a", "constraints": [{"type": "length_class", "label": "short"}, {"type": "begins_with"}]}],
            OUTPUT_ROWS,
            "line 1: missing or invalid field constraints[1].phrase",
        ),
    ],
)
def test_eval_malformed_input_exits_two_with_line_and_field(
    tmp_path, constraint_rows, output_rows, message
):
    code, out, err = _eval(tmp_path, constraint_rows, output_rows)
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "repeat, path",
    [
        # The first two would meet the parse of the row before if a memo
        # keyed them loosely: "a" as a keyword list, and ["a"] as a phrase.
        ({"type": "contains_keywords", "keywords": "a"}, "keywords"),
        ({"type": "begins_with", "phrase": ["a"]}, "phrase"),
        ({"type": "contains_keywords", "keywords": ["a", 1]}, "keywords"),
        ({"type": "exact_match", "value": True}, "value"),
        ({"type": "length_class", "label": 1}, "label"),
        ({"type": "begins_with", "phrase": None}, "phrase"),
    ],
)
def test_eval_repeated_constraint_with_a_mistyped_field_exits_two(tmp_path, repeat, path):
    """A constraint repeating an earlier valid one but for its field's type still fails."""
    valid = {
        "contains_keywords": {"type": "contains_keywords", "keywords": ["a"]},
        "begins_with": {"type": "begins_with", "phrase": "a"},
        "exact_match": {"type": "exact_match", "value": "True"},
        "length_class": {"type": "length_class", "label": "short"},
    }
    first = {"id": "x", "constraints": [valid[repeat["type"]], {"type": "begins_with", "phrase": "a"}]}
    second = {"id": "y", "constraints": [{"type": "ends_with", "phrase": "b"}, repeat]}
    code, out, err = _eval(tmp_path, [first, second], [{"id": "x", "output": "a"}])
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith(f"error: line 2: missing or invalid field constraints[1].{path} ")


def test_join_constraints_parses_each_distinct_constraint_once():
    rows = [
        (1, {"id": "a", "constraints": [{"type": "begins_with", "phrase": "x"}, {"type": "contains_keywords", "keywords": ["k"]}]}),
        (2, {"id": "b", "constraints": [{"type": "contains_keywords", "keywords": ["k"]}, {"type": "ends_with", "phrase": "x"}]}),
        (3, {"id": "c", "constraints": [{"type": "begins_with", "phrase": "x"}, {"type": "ends_with", "phrase": "x"}]}),
    ]
    examples, _ = cli.join_constraints(rows, {})
    constraints = [c for spec, _ in examples for c in spec.constraints]
    assert len(constraints) == 6
    assert len({id(c) for c in constraints}) == len(set(constraints)) == 3


def test_join_constraints_shares_one_spec_per_constraint_set_in_any_order():
    begins = {"type": "begins_with", "phrase": "x"}
    keywords = {"type": "contains_keywords", "keywords": ["k", "j"]}
    reference = {"type": "reference_overlap", "reference": "x k j"}
    rows = [
        (1, {"id": "a", "constraints": [begins, keywords, reference]}),
        (2, {"id": "b", "constraints": [reference, begins, keywords]}),
        (3, {"id": "c", "constraints": [keywords, reference]}),
        (4, {"id": "d", "constraints": json.loads(json.dumps([keywords, reference, begins]))}),
    ]
    examples, _ = cli.join_constraints(rows, {})
    specs = [spec for spec, _ in examples]
    assert specs[0] is specs[1] is specs[3]
    assert specs[2] is not specs[0] and specs[2] != specs[0]


def test_equal_outputs_share_one_string_and_the_join_takes_each_id_from_the_outputs():
    rows = [
        (1, {"id": "a", "output": "".join(["the ", "flat"])}),
        (2, {"id": "b", "output": "".join(["the", " flat"])}),
        (3, {"id": "a", "output": "".join(["th", "e flat"])}),
        (4, {"id": "z", "output": "".join(["the f", "lat"])}),
        (5, {"id": "c", "output": "other"}),
    ]
    outputs, duplicates = cli.collect_outputs(rows)
    assert duplicates == 1
    assert outputs["a"] is outputs["b"] is outputs["z"]
    constraint_rows = [
        (1, {"id": "b", "constraints": []}),
        (2, {"id": "m", "constraints": []}),
        (3, {"id": "a", "constraints": []}),
        (4, {"id": "c", "constraints": []}),
    ]
    examples, counts = cli.join_constraints(constraint_rows, outputs)
    assert [output for _, output in examples] == ["the flat", "", "the flat", "other"]
    assert examples[0][1] is examples[2][1]
    assert counts == {"n_missing_outputs": 1, "n_unknown_outputs": 1}
    # The join consumes the dict: taken ids are marked None, unknown ones keep their output.
    assert outputs == {"a": None, "b": None, "c": None, "z": "the flat"}


@pytest.mark.parametrize(
    "constraint_rows, output_rows, bad_file",
    [
        ([{"constraints": []}], OUTPUT_ROWS, "constraints.jsonl"),
        (CONSTRAINT_ROWS, [{"output": "x"}], "outputs.jsonl"),
    ],
    ids=["constraints", "outputs"],
)
def test_eval_error_names_the_file(tmp_path, constraint_rows, output_rows, bad_file):
    code, _, err = _eval(tmp_path, constraint_rows, output_rows)
    assert code == cli.EXIT_IO
    assert err == f"error: line 1: missing or invalid field id (in {tmp_path / bad_file})\n"


# --- fuzz ----------------------------------------------------------------------

_SCALAR = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(_SCALAR, max_size=3), st.dictionaries(st.text(max_size=4), _SCALAR, max_size=3),
)
_TEXT = st.text(max_size=12)
_FIELD_VALUES = {
    "begins_with": ("phrase", _TEXT),
    "ends_with": ("phrase", _TEXT),
    "contains_keywords": ("keywords", st.lists(_TEXT, max_size=3)),
    "length_class": ("label", st.sampled_from(["short", "medium", "long"])),
    "exact_match": ("value", _TEXT),
    "reference_overlap": ("reference", _TEXT),
}
_IDS = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def _spoiled(draw, valid):
    """A well-formed record, half the time with one field dropped or replaced by any JSON."""
    data = draw(valid)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(_JSON)
    return data


def _well_formed_constraint(kind):
    field, values = _FIELD_VALUES[kind]
    return st.fixed_dictionaries({"type": st.just(kind), field: values})


_CONSTRAINT = _spoiled(st.one_of([_well_formed_constraint(kind) for kind in sorted(_FIELD_VALUES)]))
_CONSTRAINT_ROW = _spoiled(st.fixed_dictionaries({"id": _IDS, "constraints": st.lists(_CONSTRAINT, max_size=3)}))
_OUTPUT_TEXT = st.sampled_from(["x", "the flat"]) | _TEXT
_OUTPUT_ROW = _spoiled(st.fixed_dictionaries({"id": _IDS, "output": _OUTPUT_TEXT}))
_RAW_LINE = st.sampled_from(["{", "not json", "[1,", '"text"', "", "  "])


def _lines(row):
    return st.lists(row, max_size=5) | st.lists(row | _JSON | _RAW_LINE, max_size=5)


def _assert_only_parse_and_schema_errors(constraint_rows, output_rows):
    with tempfile.TemporaryDirectory() as directory:
        code, _, err = _eval(directory, constraint_rows, output_rows)
        try:
            outputs, _ = cli.collect_outputs(cli.read_jsonl(str(Path(directory) / "outputs.jsonl")))
            cli.join_constraints(cli.read_jsonl(str(Path(directory) / "constraints.jsonl")), outputs)
            expected = cli.EXIT_OK
        except (ParseError, SchemaError):
            expected = cli.EXIT_IO
    assert code == expected
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(constraint_rows=_lines(_CONSTRAINT_ROW))
def test_eval_fuzz_constraint_rows(constraint_rows):
    _assert_only_parse_and_schema_errors(constraint_rows, OUTPUT_ROWS)


@settings(max_examples=150, deadline=None)
@given(output_rows=_lines(_OUTPUT_ROW))
def test_eval_fuzz_output_rows(output_rows):
    _assert_only_parse_and_schema_errors(CONSTRAINT_ROWS, output_rows)


_CONSTRAINT_SET = st.lists(st.one_of([_well_formed_constraint(kind) for kind in sorted(_FIELD_VALUES)]), max_size=3)


@st.composite
def _join_files(draw):
    """Well-formed constraint and output rows with repeated, missing, unknown and duplicated ids.

    Constraint rows draw their lists from a few sets, each in any order.
    Output rows repeat earlier rows; sometimes a constraint id is given a
    second row, or an output id a second output, which eval refuses.
    """
    sets = draw(st.lists(_CONSTRAINT_SET, min_size=1, max_size=3))
    ids = draw(st.lists(_IDS, unique=True, max_size=4))
    if ids and draw(st.integers(0, 3)) == 0:
        ids.append(draw(st.sampled_from(ids)))
    constraint_rows = [{"id": i, "constraints": draw(st.permutations(draw(st.sampled_from(sets))))} for i in ids]
    output_rows = [{"id": i, "output": draw(_OUTPUT_TEXT)} for i in draw(st.lists(_IDS, unique=True, max_size=4))]
    if output_rows:
        output_rows += draw(st.lists(st.sampled_from(output_rows), max_size=3))
        if draw(st.integers(0, 3)) == 0:
            output_rows.append({"id": draw(st.sampled_from(output_rows))["id"], "output": draw(_OUTPUT_TEXT)})
    return constraint_rows, draw(st.permutations(output_rows))


def _oracle_report(constraint_rows, output_rows):
    """The eval report by a plain dict join, or None where eval must refuse the files."""
    outputs = {}
    duplicates = 0
    for row in output_rows:
        if row["id"] not in outputs:
            outputs[row["id"]] = row["output"]
        elif outputs[row["id"]] == row["output"]:
            duplicates += 1
        else:
            return None
    ids = [row["id"] for row in constraint_rows]
    if len(set(ids)) < len(ids):
        return None
    examples = [(ConstraintSpec.from_dicts(row["constraints"]), outputs.get(row["id"], "")) for row in constraint_rows]
    return {
        "n_duplicate_outputs": duplicates,
        "n_missing_outputs": sum(1 for i in ids if i not in outputs),
        "n_unknown_outputs": len(set(outputs) - set(ids)),
        **score_corpus(examples),
    }


@settings(max_examples=200, deadline=None)
@given(files=_join_files())
def test_eval_report_equals_a_plain_join(files):
    constraint_rows, output_rows = files
    expected = _oracle_report(constraint_rows, output_rows)
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _eval(directory, constraint_rows, output_rows)
    if expected is None:
        assert code == cli.EXIT_IO and out == ""
        assert err.startswith("error: line ") and "Traceback" not in err
    else:
        assert code == cli.EXIT_OK
        assert json.loads(out) == json.loads(json.dumps(expected))


def test_eval_report_is_the_same_under_every_hash_seed(tmp_path):
    # A row's constraints are a frozenset, whose order follows the string hash
    # seed; with several references a row, that order must not reach the report.
    rng = random.Random(0)
    words = "the flat came furnished rent includes heating garden river music coffee window".split()

    def text():
        return " ".join(rng.choice(words) for _ in range(rng.randint(3, 30)))

    constraint_rows, output_rows = [], []
    for i in range(100):
        references = [{"type": "reference_overlap", "reference": text()} for _ in range(3)]
        constraint_rows.append({"id": f"r{i}", "constraints": references})
        output_rows.append({"id": f"r{i}", "output": text()})
    _write(tmp_path / "constraints.jsonl", constraint_rows)
    _write(tmp_path / "outputs.jsonl", output_rows)
    command = [sys.executable, "-m", "dialogtasks.cli", "eval", "--constraints", "constraints.jsonl"]
    source = str(Path(cli.__file__).resolve().parents[1])
    reports = set()
    for hash_seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": source}
        done = subprocess.run(
            command + ["--outputs", "outputs.jsonl"], cwd=tmp_path, env=env, capture_output=True, timeout=120
        )
        assert done.returncode == cli.EXIT_OK, done.stderr
        reports.add(done.stdout)
    assert len(reports) == 1


_WRONG_TYPES = (
    st.none() | st.booleans() | st.integers() | st.lists(st.integers(), min_size=1, max_size=2) | st.just({})
)


@settings(max_examples=100, deadline=None)
@given(
    row=st.integers(0, len(CONSTRAINT_ROWS) + len(OUTPUT_ROWS) - 1),
    field=st.integers(0, 3),
    value=_WRONG_TYPES,
)
def test_eval_fuzz_one_mistyped_field_exits_two(row, field, value):
    constraint_rows = json.loads(json.dumps(CONSTRAINT_ROWS))
    output_rows = json.loads(json.dumps(OUTPUT_ROWS))
    if row < len(constraint_rows):
        record = constraint_rows[row]
        paths = [(record, "id"), (record, "constraints")]
        paths += [(c, key) for c in record["constraints"] for key in c]
    else:
        record = output_rows[row - len(constraint_rows)]
        paths = [(record, "id"), (record, "output")]
    target, key = paths[field % len(paths)]
    target[key] = value
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _eval(directory, constraint_rows, output_rows)
    assert code == cli.EXIT_IO
    assert out == ""
    assert "line " in err and "Traceback" not in err

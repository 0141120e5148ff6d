"""JSONL files and corpus loading: the one JSONL reader and writer, canonical
records, reference adapters, synthetic corpora.

Canonical record, one JSON object per line:
{"dialog_id": str, "dataset": str, "split": "train"|"dev"|"test",
 "turns": [{"speaker": str, "text": str,
            "items": [{"component": "S"|"E"|"A", "kind": str, "value": str}]}]}
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .model import ComponentKind, Dialog, DialogItem, SchemaError, Turn
from .seeding import stable_hash, subseed

SPLITS = ("train", "dev", "test")


class ParseError(ValueError):
    """A line that is not valid JSON; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyCorpus(ValueError):
    """A corpus file with zero records."""


def read_jsonl(path: str | Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield the JSON objects of a JSONL file, each with its 1-based line number.

    Only "\n" ends a record, so U+2028 and other Unicode line breaks inside a
    string stay in it. Blank lines are skipped. Raises ParseError for a line
    that is not UTF-8 JSON and SchemaError for one that is JSON but not an
    object.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(line_number, str(exc)) from exc
            if not isinstance(record, dict):
                raise SchemaError("(record)", line_number)
            yield line_number, record


@dataclass(frozen=True)
class ExportManifest:
    """One written file: name, record count, content checksum."""

    name: str
    count: int
    sha256: str

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "count": self.count, "sha256": self.sha256}


def write_jsonl(records: Iterable[Dict[str, Any]], path: str | Path) -> ExportManifest:
    """Write records one JSON object per line, sorted keys, ASCII only.

    Each record is encoded, written and hashed as it arrives, so a generator
    is never held in memory as a whole. A regular file (or a new one) is
    written to a temporary file beside it that replaces it once the last
    record is written: if a record fails, the file keeps what it held before
    and the temporary file is removed. A symlink is followed, not replaced.
    A pipe or device, such as /dev/stdout, is written in place.
    """
    path = Path(path)
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=True).encode
    digest = hashlib.sha256()
    count = 0

    def write_to(handle: BinaryIO) -> None:
        nonlocal count
        for record in records:
            line = (encode(record) + "\n").encode("utf-8")
            digest.update(line)
            handle.write(line)
            count += 1

    if _is_file_or_new(path):
        target = Path(os.path.realpath(path))
        partial = target.with_name(target.name + ".tmp")
        try:
            with open(partial, "wb") as handle:
                write_to(handle)
            os.replace(partial, target)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    else:
        with open(path, "wb") as handle:
            write_to(handle)
    return ExportManifest(name=path.name, count=count, sha256=digest.hexdigest())


def _is_file_or_new(path: Path) -> bool:
    """Whether ``path``, after any symlinks, is a regular file or does not exist."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


@dataclass(frozen=True)
class CorpusManifest:
    """Summary of one loaded or written corpus file."""

    dataset: str
    count: int
    split: str
    checksum: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "count": self.count,
            "split": self.split,
            "checksum": self.checksum,
        }


def _corpus_manifest(dialogs: Sequence[Dialog], checksum: str) -> CorpusManifest:
    datasets = {d.dataset for d in dialogs}
    splits = {d.split for d in dialogs}
    return CorpusManifest(
        dataset=datasets.pop() if len(datasets) == 1 else "mixed",
        count=len(dialogs),
        split=splits.pop() if len(splits) == 1 else "mixed",
        checksum=checksum,
    )


@dataclass(frozen=True)
class AdapterSpec:
    """How one source-dataset shape maps onto dialogs and items.

    native_items maps each natively provided item family to its component
    letter; parse converts one raw record (plus its line number, for error
    messages) into a Dialog.
    """

    name: str
    description: str
    native_items: Dict[str, str]
    parse: Callable[[Dict[str, Any], int], Dialog]


def _require(record: Dict[str, Any], key: str, line_number: int, path: str = "") -> Any:
    if key not in record:
        raise SchemaError(f"{path}{key}", line_number)
    return record[key]


def _require_turns(record: Dict[str, Any], line_number: int) -> List[Dict[str, Any]]:
    """The record's non-empty turn list, every turn an object with a non-empty text."""
    raw_turns = _require(record, "turns", line_number)
    if not isinstance(raw_turns, list) or not raw_turns:
        raise SchemaError("turns", line_number)
    for t_index, raw_turn in enumerate(raw_turns):
        if not isinstance(raw_turn, dict):
            raise SchemaError(f"turns[{t_index}]", line_number)
        if "text" not in raw_turn or not str(raw_turn["text"]):
            raise SchemaError(f"turns[{t_index}].text", line_number)
    return raw_turns


def split_for(dialog_id: str, ratios: Tuple[int, int, int] = (90, 5, 5)) -> str:
    """Deterministic, seed-independent split assignment by dialog id."""
    bucket = stable_hash("split", dialog_id) % sum(ratios)
    if bucket < ratios[0]:
        return "train"
    if bucket < ratios[0] + ratios[1]:
        return "dev"
    return "test"


def _parse_canonical(record: Dict[str, Any], line_number: int) -> Dialog:
    dialog_id = str(_require(record, "dialog_id", line_number))
    dataset = str(_require(record, "dataset", line_number))
    split = str(_require(record, "split", line_number))
    if split not in SPLITS:
        raise SchemaError("split", line_number)
    turns: List[Turn] = []
    for t_index, raw_turn in enumerate(_require_turns(record, line_number)):
        if "speaker" not in raw_turn:
            raise SchemaError(f"turns[{t_index}].speaker", line_number)
        raw_items = raw_turn.get("items", [])
        if not isinstance(raw_items, list):
            raise SchemaError(f"turns[{t_index}].items", line_number)
        items: List[DialogItem] = []
        for i_index, raw_item in enumerate(raw_items):
            if not isinstance(raw_item, dict):
                raise SchemaError(f"turns[{t_index}].items[{i_index}]", line_number)
            for key in ("component", "kind", "value"):
                if key not in raw_item:
                    raise SchemaError(f"turns[{t_index}].items[{i_index}].{key}", line_number)
            if raw_item["component"] not in ("S", "E", "A"):
                raise SchemaError(f"turns[{t_index}].items[{i_index}].component", line_number)
            items.append(
                DialogItem(
                    component=ComponentKind(raw_item["component"]),
                    kind=str(raw_item["kind"]),
                    value=str(raw_item["value"]),
                    turn_index=t_index,
                )
            )
        turns.append(Turn(speaker=str(raw_turn["speaker"]), text=str(raw_turn["text"]), items=tuple(items)))
    return Dialog(dialog_id=dialog_id, dataset=dataset, turns=tuple(turns), split=split)


def _parse_act_emotion(record: Dict[str, Any], line_number: int) -> Dialog:
    """Adapter for corpora with per-turn dialog-act and emotion labels.

    Acts become Action items (kind "dialog_act"); emotions become State items
    (kind "emotion").
    """
    dialog_id = str(_require(record, "dialog_id", line_number))
    dataset = str(record.get("dataset", "act_emotion"))
    turns: List[Turn] = []
    for t_index, raw_turn in enumerate(_require_turns(record, line_number)):
        speaker = str(raw_turn.get("speaker", f"Speaker {t_index % 2 + 1}"))
        items: List[DialogItem] = []
        if raw_turn.get("act"):
            items.append(DialogItem(ComponentKind.ACTION, "dialog_act", str(raw_turn["act"]), t_index))
        if raw_turn.get("emotion"):
            items.append(DialogItem(ComponentKind.STATE, "emotion", str(raw_turn["emotion"]), t_index))
        turns.append(Turn(speaker=speaker, text=str(raw_turn["text"]), items=tuple(items)))
    split = str(record.get("split") or split_for(dialog_id))
    return Dialog(dialog_id=dialog_id, dataset=dataset, turns=tuple(turns), split=split)


def _parse_persona_list(record: Dict[str, Any], line_number: int) -> Dialog:
    """Adapter for corpora with per-speaker persona lines plus plain utterances.

    Persona lines become Evidence items (kind "persona") attached to the first
    turn of the speaker they describe.
    """
    dialog_id = str(_require(record, "dialog_id", line_number))
    dataset = str(record.get("dataset", "persona_list"))
    personas = record.get("personas", [])
    if not isinstance(personas, list) or not all(isinstance(lines, list) for lines in personas):
        raise SchemaError("personas", line_number)
    speakers: List[str] = []
    texts: List[str] = []
    for t_index, raw_turn in enumerate(_require_turns(record, line_number)):
        speakers.append(str(raw_turn.get("speaker", f"Speaker {t_index % 2 + 1}")))
        texts.append(str(raw_turn["text"]))
    first_turn_of: Dict[str, int] = {}
    for t_index, speaker in enumerate(speakers):
        first_turn_of.setdefault(speaker, t_index)
    items_by_turn: Dict[int, List[DialogItem]] = {}
    distinct_speakers = list(dict.fromkeys(speakers))
    for s_index, lines in enumerate(personas):
        if s_index >= len(distinct_speakers):
            break
        anchor = first_turn_of[distinct_speakers[s_index]]
        for line in lines:
            items_by_turn.setdefault(anchor, []).append(
                DialogItem(ComponentKind.EVIDENCE, "persona", str(line), anchor)
            )
    turns = tuple(
        Turn(speaker=speakers[i], text=texts[i], items=tuple(items_by_turn.get(i, ())))
        for i in range(len(texts))
    )
    split = str(record.get("split") or split_for(dialog_id))
    return Dialog(dialog_id=dialog_id, dataset=dataset, turns=turns, split=split)


ADAPTERS: Dict[str, AdapterSpec] = {
    "canonical": AdapterSpec(
        name="canonical",
        description="The engine's own line-delimited record format.",
        native_items={},
        parse=_parse_canonical,
    ),
    "act_emotion": AdapterSpec(
        name="act_emotion",
        description="Per-turn dialog-act and emotion labels.",
        native_items={"dialog_act": "A", "emotion": "S"},
        parse=_parse_act_emotion,
    ),
    "persona_list": AdapterSpec(
        name="persona_list",
        description="Per-speaker persona lines plus utterances.",
        native_items={"persona": "E"},
        parse=_parse_persona_list,
    ),
}

# Adapters must map item families onto components consistently with the
# component table: persona and knowledge are Evidence, dialog acts are
# Actions, emotions and summaries are State.
_COMPONENT_TABLE = {"persona": "E", "knowledge": "E", "dialog_act": "A", "emotion": "S", "summary": "S"}
for _adapter in ADAPTERS.values():
    for _kind, _component in _adapter.native_items.items():
        assert _COMPONENT_TABLE.get(_kind, _component) == _component, (
            f"adapter {_adapter.name} misassigns {_kind}"
        )


def load_corpus(path: str | Path, adapter: AdapterSpec | str = "canonical") -> Tuple[List[Dialog], CorpusManifest]:
    """Load a line-delimited corpus file through an adapter.

    Raises ParseError (bad JSON, with line number), SchemaError (missing
    field, with path), or EmptyCorpus.
    """
    if isinstance(adapter, str):
        if adapter not in ADAPTERS:
            raise ValueError(f"unknown adapter: {adapter!r} (have: {', '.join(sorted(ADAPTERS))})")
        adapter = ADAPTERS[adapter]
    dialogs = [adapter.parse(record, line_number) for line_number, record in read_jsonl(path)]
    if not dialogs:
        raise EmptyCorpus(f"no records in {path}")
    return dialogs, _corpus_manifest(dialogs, hashlib.sha256(Path(path).read_bytes()).hexdigest())


def write_corpus(dialogs: Sequence[Dialog], path: str | Path) -> CorpusManifest:
    """Write dialogs in the canonical record format; inverse of canonical load."""
    return _corpus_manifest(dialogs, write_jsonl((d.to_dict() for d in dialogs), path).sha256)


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic corpus generator (test and demo fixture)."""

    dataset: str = "synth"
    min_turns: int = 2
    max_turns: int = 8
    min_tokens: int = 3
    max_tokens: int = 24
    item_families: Tuple[str, ...] = ("emotion", "dialog_act", "persona", "knowledge")


_VOCAB = """
music concert garden coffee travel window market evening weather bicycle
library dinner painting station mountain holiday teacher ticket kitchen
river puzzle jacket camera island letter morning soccer theater village
wallet guitar bridge flower market lantern harbor meadow orchard pastry
""".split()

_EMOTIONS = ("happiness", "sadness", "anger", "surprise", "fear", "disgust", "no_emotion")
_ACTS = ("inform", "question", "directive", "commissive")
_PERSONA_TEMPLATES = (
    "i collect old {0} .",
    "my favorite {0} is blue .",
    "i work near the {0} .",
    "i visit the {0} every weekend .",
)
_KNOWLEDGE_TEMPLATES = (
    "the {0} opened in 1987 .",
    "a {0} can be found downtown .",
    "the {0} was famous last summer .",
)


def _synth_sentence(rng: random.Random, config: SynthConfig) -> str:
    count = rng.randint(config.min_tokens, config.max_tokens)
    words = [rng.choice(_VOCAB) for _ in range(count - 1)]
    words.append(rng.choice([".", "?", "!"]))
    return " ".join(words)


def synth_corpus(seed: int, n_dialogs: int, config: Optional[SynthConfig] = None) -> List[Dialog]:
    """Deterministic synthetic dialogs with configurable item families.

    Dialogs have 2-8 turns with alternating speakers; texts are pre-tokenized
    style (tokens joined by single spaces). Every atomic task in the registry
    has derivable instances when all item families are enabled.
    """
    if n_dialogs < 1:
        raise ValueError("n_dialogs must be >= 1")
    config = config or SynthConfig()
    dialogs: List[Dialog] = []
    for index in range(n_dialogs):
        dialog_id = f"{config.dataset}-{index:05d}"
        rng = random.Random(subseed(seed, "synth", config.dataset, index))
        n_turns = rng.randint(config.min_turns, config.max_turns)
        turns: List[Turn] = []
        for t_index in range(n_turns):
            speaker = f"Speaker {t_index % 2 + 1}"
            text = _synth_sentence(rng, config)
            items: List[DialogItem] = []
            if "emotion" in config.item_families:
                items.append(DialogItem(ComponentKind.STATE, "emotion", rng.choice(_EMOTIONS), t_index))
            if "dialog_act" in config.item_families:
                items.append(DialogItem(ComponentKind.ACTION, "dialog_act", rng.choice(_ACTS), t_index))
            if "persona" in config.item_families and t_index < 2:
                template = rng.choice(_PERSONA_TEMPLATES)
                items.append(
                    DialogItem(ComponentKind.EVIDENCE, "persona", template.format(rng.choice(_VOCAB)), t_index)
                )
            if "knowledge" in config.item_families and rng.random() < 0.5:
                template = rng.choice(_KNOWLEDGE_TEMPLATES)
                items.append(
                    DialogItem(ComponentKind.EVIDENCE, "knowledge", template.format(rng.choice(_VOCAB)), t_index)
                )
            turns.append(Turn(speaker=speaker, text=text, items=tuple(items)))
        dialogs.append(
            Dialog(
                dialog_id=dialog_id,
                dataset=config.dataset,
                turns=tuple(turns),
                split=split_for(dialog_id),
            )
        )
    return dialogs

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
from typing import Any, BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .model import SPLITS, ComponentKind, Dialog, DialogItem, SchemaError, Turn, _checked, _checked_name
from .seeding import stable_hash, subseed


class ParseError(ValueError):
    """A line that is not UTF-8 or does not parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_utf8(path: str | Path) -> str:
    """A UTF-8 text file's contents, each "\r\n" or "\r" read as "\n" as in text mode.

    A byte that does not decode raises ParseError naming its line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
        yield from _records(handle)


def _records(lines: Iterable[bytes]) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """read_jsonl's parse of raw lines, each ending in "\n" except perhaps the last."""
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(line_number, str(exc)) from exc
        if not isinstance(record, dict):
            raise SchemaError("(record)", line_number)
        yield line_number, record


def _hashed(lines: Iterable[bytes], digest: Any) -> Iterator[bytes]:
    """Pass raw lines through, adding each to ``digest`` as it goes by."""
    for raw in lines:
        digest.update(raw)
        yield raw


# Characters of JSONL text gathered before write_jsonl encodes, hashes and
# writes them as one block.
_BLOCK = 1 << 16


def write_jsonl(records: Iterable[Union[str, Dict[str, Any]]], path: str | Path) -> Dict[str, Any]:
    """Write records one JSON object per line, sorted keys, ASCII only; a str record is that line's text.

    Returns the file's manifest: its ``name``, record ``count`` and ``sha256``.

    Lines are gathered into blocks of about 64 KiB, and each block is
    encoded, hashed and written as one, so a generator is never held in
    memory as a whole. A regular file (or a new one) is written to a new,
    uniquely named temporary file beside it that replaces it once the last
    record is written: if a record fails, even after blocks were written,
    the file keeps what it held before and the temporary file is removed. A
    symlink is followed, not replaced. A pipe or device, such as
    /dev/stdout, is written in place, a block at a time; if a record fails,
    every line before it is still written.
    """
    path = Path(path)
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=True).encode
    digest = hashlib.sha256()
    count = 0

    def write_block(handle: BinaryIO, lines: List[str]) -> None:
        lines.append("")  # so that the join ends the last line too
        data = "\n".join(lines).encode("utf-8")
        digest.update(data)
        handle.write(data)

    def write_to(handle: BinaryIO) -> None:
        nonlocal count
        block: List[str] = []
        size = 0
        try:
            for record in records:
                line = record if isinstance(record, str) else encode(record)
                block.append(line)
                size += len(line) + 1
                count += 1
                if size >= _BLOCK:
                    full, block, size = block, [], 0
                    write_block(handle, full)
        finally:
            # After a failing record too, so that a pipe gets every row before it.
            if block:
                write_block(handle, block)

    _write_whole(path, write_to)
    return {"name": path.name, "count": count, "sha256": digest.hexdigest()}


def write_json(data: Any, path: str | Path) -> None:
    """Write one JSON document, indented with sorted keys, as write_jsonl does."""
    text = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write_whole(Path(path), lambda handle: handle.write(text))


def _write_whole(path: Path, write_to: Callable[[BinaryIO], Any]) -> None:
    """Have write_to fill a new file that then replaces path, or write a pipe in place."""
    if not _is_file_or_new(path):
        with open(path, "wb") as handle:
            write_to(handle)
        return
    target = Path(os.path.realpath(path))
    partial, fd = _new_file_beside(target)
    try:
        with open(fd, "wb") as handle:
            write_to(handle)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _new_file_beside(target: Path) -> Tuple[Path, int]:
    """Create a file under an unused name in target's directory, mode 0o666 before umask."""
    while True:
        partial = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            return partial, os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def _is_file_or_new(path: Path) -> bool:
    """Whether ``path``, after any symlinks, is a regular file or does not exist."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _corpus_manifest(dialogs: Sequence[Dialog], checksum: str) -> Dict[str, Any]:
    """Summary of one loaded or written corpus file: its dataset, count, split and checksum."""
    datasets = {d.dataset for d in dialogs}
    splits = {d.split for d in dialogs}
    return {
        "dataset": datasets.pop() if len(datasets) == 1 else "mixed",
        "count": len(dialogs),
        "split": splits.pop() if len(splits) == 1 else "mixed",
        "checksum": checksum,
    }


def _require_turns(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The record's non-empty turn list, every turn an object with a non-empty text."""
    raw_turns = _checked(record.get("turns"), list, "turns")
    if not raw_turns:
        raise SchemaError("turns")
    for t_index, raw_turn in enumerate(raw_turns):
        _checked(raw_turn, dict, f"turns[{t_index}]")
        if not _checked(raw_turn.get("text"), str, f"turns[{t_index}].text"):
            raise SchemaError(f"turns[{t_index}].text")
    return raw_turns


def split_for(dialog_id: str) -> str:
    """Deterministic, seed-independent 90/5/5 train/dev/test split by dialog id."""
    bucket = stable_hash("split", dialog_id) % 100
    if bucket < 90:
        return "train"
    if bucket < 95:
        return "dev"
    return "test"


def _adapter_split(record: Dict[str, Any], dialog_id: str) -> str:
    """A record's split; split_for(dialog_id) when it is absent, null or ``""``."""
    split = record.get("split")
    if split is None or split == "":
        split = split_for(dialog_id)
    if split not in SPLITS:
        raise SchemaError("split")
    return split


def _parse_canonical(record: Dict[str, Any]) -> Dialog:
    """The engine's own record format, as Dialog.to_dict writes it."""
    dialog = Dialog.from_dict(record)
    if dialog.split not in SPLITS:
        raise SchemaError("split")
    _require_turns(record)
    return dialog


def _parse_act_emotion(record: Dict[str, Any]) -> Dialog:
    """Adapter for corpora with per-turn dialog-act and emotion labels.

    Acts become Action items (kind "dialog_act"); emotions become State items
    (kind "emotion").
    """
    dialog_id = _checked_name(record.get("dialog_id"), "dialog_id")
    dataset = _checked_name(record.get("dataset", "act_emotion"), "dataset")
    turns: List[Turn] = []
    for t_index, raw_turn in enumerate(_require_turns(record)):
        path = f"turns[{t_index}]"
        speaker = _checked(raw_turn.get("speaker", f"Speaker {t_index % 2 + 1}"), str, f"{path}.speaker")
        items: List[DialogItem] = []
        act = _checked(raw_turn.get("act", ""), str, f"{path}.act")
        if act:
            items.append(DialogItem(ComponentKind.ACTION, "dialog_act", act, t_index))
        emotion = _checked(raw_turn.get("emotion", ""), str, f"{path}.emotion")
        if emotion:
            items.append(DialogItem(ComponentKind.STATE, "emotion", emotion, t_index))
        turns.append(Turn(speaker=speaker, text=raw_turn["text"], items=tuple(items)))
    split = _adapter_split(record, dialog_id)
    return Dialog(dialog_id=dialog_id, dataset=dataset, turns=tuple(turns), split=split)


def _parse_persona_list(record: Dict[str, Any]) -> Dialog:
    """Adapter for corpora with per-speaker persona lines plus plain utterances.

    Persona lines become Evidence items (kind "persona") attached to the first
    turn of the speaker they describe.
    """
    dialog_id = _checked_name(record.get("dialog_id"), "dialog_id")
    dataset = _checked_name(record.get("dataset", "persona_list"), "dataset")
    personas = _checked(record.get("personas", []), list, "personas")
    for lines in personas:
        for line in _checked(lines, list, "personas"):
            _checked(line, str, "personas")
    speakers: List[str] = []
    texts: List[str] = []
    for t_index, raw_turn in enumerate(_require_turns(record)):
        speaker = raw_turn.get("speaker", f"Speaker {t_index % 2 + 1}")
        speakers.append(_checked(speaker, str, f"turns[{t_index}].speaker"))
        texts.append(raw_turn["text"])
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
                DialogItem(ComponentKind.EVIDENCE, "persona", line, anchor)
            )
    turns = tuple(
        Turn(speaker=speakers[i], text=texts[i], items=tuple(items_by_turn.get(i, ())))
        for i in range(len(texts))
    )
    split = _adapter_split(record, dialog_id)
    return Dialog(dialog_id=dialog_id, dataset=dataset, turns=turns, split=split)


# Each source-dataset shape is one function from a JSON record to a Dialog.
# It raises SchemaError naming the bad field; load_corpus adds the line.
ADAPTERS: Dict[str, Callable[[Dict[str, Any]], Dialog]] = {
    "canonical": _parse_canonical,
    "act_emotion": _parse_act_emotion,
    "persona_list": _parse_persona_list,
}


def get_adapter(name: str) -> Callable[[Dict[str, Any]], Dialog]:
    """The adapter of that name; ValueError, listing the names there are, when there is none."""
    if name not in ADAPTERS:
        raise ValueError(f"unknown adapter: {name!r} (have: {', '.join(sorted(ADAPTERS))})")
    return ADAPTERS[name]


def load_corpus(path: str | Path, adapter: str = "canonical") -> Tuple[List[Dialog], Dict[str, Any]]:
    """Load a line-delimited corpus file through the adapter of that name.

    Raises ParseError (bad JSON, with line number), SchemaError (missing or
    mistyped field, or a "dataset/dialog_id" id prefix repeated, with line
    number and path), or EmptyCorpus.
    """
    parse = get_adapter(adapter)
    dialogs: List[Dialog] = []
    first_line: Dict[str, int] = {}
    # The checksum covers every byte read, blank lines included, so the
    # file is read once.
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for line_number, record in _records(_hashed(handle, digest)):
            try:
                dialog = parse(record)
            except SchemaError as exc:
                raise SchemaError(exc.field_path, line_number, exc.problem) from exc
            prefix = f"{dialog.dataset}/{dialog.dialog_id}"
            earlier = first_line.setdefault(prefix, line_number)
            if earlier != line_number:
                raise SchemaError("dialog_id", line_number, f"dialog_id {dialog.dialog_id!r} "
                                  f"of dataset {dialog.dataset!r} gives the id prefix {prefix!r}, "
                                  f"which is already on line {earlier}")
            dialogs.append(dialog)
    if not dialogs:
        raise EmptyCorpus(f"no records in {path}")
    return dialogs, _corpus_manifest(dialogs, digest.hexdigest())


def write_corpus(dialogs: Sequence[Dialog], path: str | Path) -> Dict[str, Any]:
    """Write dialogs in the canonical record format; inverse of canonical load."""
    return _corpus_manifest(dialogs, write_jsonl((d.to_dict() for d in dialogs), path)["sha256"])


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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

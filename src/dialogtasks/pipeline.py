"""One-shot pipeline: ingest, derive, compose, render, sample, export.

Configured from an INI file so runs are reproducible from a single artifact.
Every stage seeds its own randomness from the run seed; rerunning the same
config writes byte-identical outputs.
"""

from __future__ import annotations

import configparser
import dataclasses
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .composer import CompositionRule, compose_corpus, load_rules
from .export import RenderOptions, SamplingPlan, export_corpus
from .ingest import ParseError, SynthConfig, get_adapter, load_corpus, read_utf8, synth_corpus, write_corpus, write_json
from .model import Dialog, TaskInstance
from .prompts import apply_cot, parse_cot_mode
from .registry import derive_corpus, task_names
from .textutil import split_keyword_list


def _key(section: str, default: Any, key: str = "", note: str = "", example: str = "",
         read: Optional[Callable[[str], Any]] = None, option: str = "") -> Any:
    """A config field read from ``[section] key`` (the field's name when key is empty): with
    ``getboolean`` or ``getint`` when its default is a bool or an int, else as text passed to
    ``read`` if given. The template prints it at its default, or commented out at ``example``
    when the default is None, followed by ``note``. The staged commands spell it ``option``
    (``--`` and the field's name, hyphenated, when empty)."""
    return dataclasses.field(default=default, metadata=dict(section=section, key=key, note=note,
                                                            example=example, read=read, option=option))


class ConfigError(ValueError):
    """A config value no stage takes; names the field and the problem."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}")
        self.field, self.problem = field, problem


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Typed view of one pipeline INI file; each field names its own section, key and staged option."""

    seed: int = _key("run", 0)
    input_path: Optional[str] = _key("corpus", None, "input", "omit to generate a synthetic corpus",
                                     "dialogs.jsonl", option="--input")
    adapter: str = _key("corpus", "canonical")
    synth_dialogs: int = _key("corpus", 200, option="--synth")
    synth_dataset: str = _key("corpus", "synth", option="--dataset")
    tasks: Optional[Tuple[str, ...]] = _key("tasks", None, "include", "omit for every task",
                                            "act_prediction, emotion_tagging", read=split_keyword_list)
    compose_enabled: bool = _key("compose", True, "enabled")
    rules_path: Optional[str] = _key("compose", None, "rules", "omit for the packaged rule table",
                                     "custom_rules.csv", option="--rules")
    max_dim: int = _key("compose", 2)
    cot: str = _key("render", "none", note="none or random-K")
    block_shuffle: bool = _key("render", RenderOptions().block_shuffle)
    generic_fallback: bool = _key("render", RenderOptions().generic_fallback)
    atomic_quota: int = _key("sample", SamplingPlan().atomic_quota)
    composite_quota: int = _key("sample", SamplingPlan().composite_quota)
    out_dir: str = _key("output", "out", "dir")
    emit_constraints: bool = _key("output", True)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise ConfigError naming the first field whose value no stage takes."""
        for name, test in (("adapter", get_adapter), ("synth_dataset", str.encode), ("tasks", task_names),
                           ("cot", parse_cot_mode)):
            try:
                test(getattr(self, name))
            except (KeyError, ValueError) as exc:  # str() of a KeyError quotes its message
                raise ConfigError(name, exc.args[0] if isinstance(exc, KeyError) else str(exc)) from None
        if not self.input_path and self.synth_dialogs < 1:
            raise ConfigError("synth_dialogs", "must be >= 1 when no input is set")
        if self.compose_enabled and self.max_dim < 2:
            raise ConfigError("max_dim", "must be >= 2")

    @classmethod
    def from_ini(cls, path: str | Path) -> "PipelineConfig":
        """Read a config: values are literal (no ``%`` interpolation), ``[DEFAULT]`` is an ordinary
        section, absent keys keep their defaults, and ValueError names the file and a value that
        does not convert, then any section or key that no field names, then a value that check refuses."""
        parser = configparser.ConfigParser(interpolation=None, default_section="",
                                           inline_comment_prefixes=(";", "#"))
        try:
            parser.read_string(read_utf8(path), source=str(path))
        except (configparser.Error, ParseError) as exc:
            raise ValueError(f"config {path}: {exc}") from exc
        values = {}
        for field, section, key in _ini_keys():
            if not parser.has_option(section, key):
                continue
            convert = {bool: parser.getboolean, int: parser.getint}.get(type(field.default), parser.get)
            try:
                value = convert(section, key)
            except ValueError as exc:
                raise ValueError(f"config {path}: [{section}] {key}: {exc}") from exc
            values[field.name] = field.metadata["read"](value) if field.metadata["read"] else value
        known = {(section, key) for _, section, key in _ini_keys()}
        for section in parser.sections():
            if not any(known_section == section for known_section, _ in known):
                raise ValueError(f"config {path}: unknown section [{section}]")
            for key in parser[section]:
                if (section, key) not in known:
                    raise ValueError(f"config {path}: unknown key {key!r} in [{section}]")
        try:
            return cls(**values)
        except ConfigError as exc:
            section, key = next((section, key) for field, section, key in _ini_keys() if field.name == exc.field)
            raise ValueError(f"config {path}: [{section}] {key}: {exc.problem}") from None

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["tasks"] = list(self.tasks) if self.tasks else None
        return data


def _ini_keys() -> Iterator[Tuple[dataclasses.Field, str, str]]:
    """Each config field with its section and key, in field order."""
    for field in dataclasses.fields(PipelineConfig):
        yield field, field.metadata["section"], field.metadata["key"] or field.name


def _template() -> str:
    sections: Dict[str, List[str]] = {}
    for field, section, key in _ini_keys():
        value = field.default
        if value is None:
            line = f"; {key} = {field.metadata['example']}"
        else:
            line = f"{key} = {str(value).lower() if isinstance(value, bool) else value}"
        note = field.metadata["note"]
        sections.setdefault(section, [f"[{section}]"]).append(f"{line:28} ; {note}" if note else line)
    body = "\n\n".join("\n".join(lines) for lines in sections.values())
    return f"; Pipeline configuration. All keys are optional; values below are defaults.\n{body}\n"


CONFIG_TEMPLATE = _template()


def _build(dialog: Dialog, config: PipelineConfig, rules: List[CompositionRule], rejections: Counter) -> List[TaskInstance]:
    """One dialog's instances after cot; adds its compose refusals to ``rejections``."""
    instances = derive_corpus([dialog], config.seed, tasks=config.tasks)
    if config.compose_enabled:
        composites, reasons = compose_corpus(instances, rules, max_dim=config.max_dim)
        instances += composites
        rejections.update(reasons)
    return apply_cot(instances, config.cot, config.seed)


def load_dialogs(config: PipelineConfig) -> Tuple[List[Dialog], Optional[Dict[str, Any]]]:
    """The run's dialogs with its input file's manifest, or synthesized with None for the manifest."""
    if config.input_path:
        return load_corpus(config.input_path, config.adapter)
    return synth_corpus(config.seed, config.synth_dialogs, SynthConfig(dataset=config.synth_dataset)), None


def export_instances(instances: List[TaskInstance], config: PipelineConfig, out_dir: str | Path) -> Dict[str, Any]:
    """Sample, render and write instances after cot into out_dir as the config says; the export manifest."""
    plan = SamplingPlan(config.atomic_quota, config.composite_quota)
    options = RenderOptions(config.block_shuffle, config.generic_fallback)
    return export_corpus(instances, out_dir, config.seed, plan, options, config.emit_constraints)


def run_pipeline(config: PipelineConfig) -> Dict[str, Any]:
    """Run every stage and write the corpus plus manifest.json into out_dir."""
    # A bad config, rule table or corpus raises here, before anything is written.
    config.check()
    rules = load_rules(config.rules_path) if config.compose_enabled else []
    dialogs, corpus_manifest = load_dialogs(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if corpus_manifest is None:
        corpus_manifest = write_corpus(dialogs, out_dir / "dialogs.jsonl")

    rejections: Counter = Counter()
    instances = [inst for dialog in dialogs for inst in _build(dialog, config, rules, rejections)]
    export_manifest = export_instances(instances, config, out_dir)
    # The manifest names files, never paths, so its bytes do not depend on
    # where the run happens: the input and rule table by file name (the
    # input's checksum is under "corpus"), and no out_dir, which is the
    # manifest's own directory.
    config_data = config.to_dict()
    del config_data["out_dir"]
    for key in ("input_path", "rules_path"):
        if config_data[key]:
            config_data[key] = Path(config_data[key]).name
    manifest = {
        "config": config_data,
        "corpus": corpus_manifest,
        "rejections": dict(sorted(rejections.items())),
        "export": export_manifest,
    }
    write_json(manifest, out_dir / "manifest.json")
    return manifest

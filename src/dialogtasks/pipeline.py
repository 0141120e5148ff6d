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
from typing import Any, Callable, Dict, Optional, Tuple

from .composer import compose_corpus, load_rules
from .export import RenderOptions, SamplingPlan, export_corpus
from .ingest import SynthConfig, get_adapter, load_corpus, synth_corpus, write_corpus, write_json
from .prompts import apply_cot, parse_cot_mode
from .registry import derive_corpus, task_names

CONFIG_TEMPLATE = """\
; Pipeline configuration. All keys are optional; values below are defaults.
[run]
seed = 0

[corpus]
; input = dialogs.jsonl      ; omit to generate a synthetic corpus
adapter = canonical
synth_dialogs = 200
synth_dataset = synth

[tasks]
; include = act_prediction, emotion_tagging   ; omit for every task

[compose]
enabled = true
; rules = custom_rules.csv   ; omit for the packaged rule table
max_dim = 2

[render]
cot = none                   ; none or random-K
block_shuffle = true
generic_fallback = false

[sample]
atomic_quota = 5000
composite_quota = 1000

[output]
dir = out
emit_constraints = true
"""


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Typed view of one pipeline INI file."""

    seed: int = 0
    input_path: Optional[str] = None
    adapter: str = "canonical"
    synth_dialogs: int = 200
    synth_dataset: str = "synth"
    tasks: Optional[Tuple[str, ...]] = None
    compose_enabled: bool = True
    rules_path: Optional[str] = None
    max_dim: int = 2
    cot: str = "none"
    block_shuffle: bool = True
    generic_fallback: bool = False
    atomic_quota: int = 5000
    composite_quota: int = 1000
    out_dir: str = "out"
    emit_constraints: bool = True

    def __post_init__(self) -> None:
        parse_cot_mode(self.cot)

    @classmethod
    def from_ini(cls, path: str | Path) -> "PipelineConfig":
        """Read a config: values are literal (no ``%`` interpolation), ``[DEFAULT]`` is an ordinary
        section, and ValueError names the file and any section or key that no ``get`` below reads."""
        parser = configparser.ConfigParser(interpolation=None, default_section="",
                                           inline_comment_prefixes=(";", "#"))
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as exc:
            raise ValueError(f"config {path}: {exc}") from exc
        read = set()

        def get(section: str, key: str, fallback: Any = None, convert: Callable = parser.get) -> Any:
            read.add((section, key))
            try:
                return convert(section, key, fallback=fallback)
            except ValueError as exc:
                raise ValueError(f"config {path}: [{section}] {key}: {exc}") from exc

        defaults = cls()
        include = get("tasks", "include")
        config = cls(
            seed=get("run", "seed", defaults.seed, parser.getint),
            input_path=get("corpus", "input"),
            adapter=get("corpus", "adapter", defaults.adapter),
            synth_dialogs=get("corpus", "synth_dialogs", defaults.synth_dialogs, parser.getint),
            synth_dataset=get("corpus", "synth_dataset", defaults.synth_dataset),
            tasks=None if include is None else tuple(name.strip() for name in include.split(",") if name.strip()),
            compose_enabled=get("compose", "enabled", defaults.compose_enabled, parser.getboolean),
            rules_path=get("compose", "rules"),
            max_dim=get("compose", "max_dim", defaults.max_dim, parser.getint),
            cot=get("render", "cot", defaults.cot),
            block_shuffle=get("render", "block_shuffle", defaults.block_shuffle, parser.getboolean),
            generic_fallback=get("render", "generic_fallback", defaults.generic_fallback, parser.getboolean),
            atomic_quota=get("sample", "atomic_quota", defaults.atomic_quota, parser.getint),
            composite_quota=get("sample", "composite_quota", defaults.composite_quota, parser.getint),
            out_dir=get("output", "dir", defaults.out_dir),
            emit_constraints=get("output", "emit_constraints", defaults.emit_constraints, parser.getboolean),
        )
        for section in parser.sections():
            if not any(known == section for known, _ in read):
                raise ValueError(f"config {path}: unknown section [{section}]")
            for key in parser[section]:
                if (section, key) not in read:
                    raise ValueError(f"config {path}: unknown key {key!r} in [{section}]")
        return config

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["tasks"] = list(self.tasks) if self.tasks else None
        return data


def run_pipeline(config: PipelineConfig) -> Dict[str, Any]:
    """Run every stage and write the corpus plus manifest.json into out_dir."""
    # A bad config or corpus raises here, before anything is written.
    cot_k = parse_cot_mode(config.cot)
    task_names(config.tasks)
    get_adapter(config.adapter)
    rules = load_rules(config.rules_path) if config.compose_enabled else []
    if config.compose_enabled and config.max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    if config.input_path:
        dialogs, corpus_manifest = load_corpus(config.input_path, config.adapter)
    else:
        dialogs = synth_corpus(
            config.seed, config.synth_dialogs, SynthConfig(dataset=config.synth_dataset)
        )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not config.input_path:
        corpus_manifest = write_corpus(dialogs, out_dir / "dialogs.jsonl")

    instances = derive_corpus(dialogs, config.seed, tasks=config.tasks)
    rejections: Counter = Counter()
    if config.compose_enabled:
        composites, rejections = compose_corpus(instances, rules, max_dim=config.max_dim)
        instances = instances + composites
        del composites  # nothing reads the composites from before cot
    if cot_k is not None:
        instances = apply_cot(instances, config.cot, config.seed)

    export_manifest = export_corpus(
        instances,
        out_dir,
        config.seed,
        plan=SamplingPlan(config.atomic_quota, config.composite_quota),
        options=RenderOptions(
            block_shuffle=config.block_shuffle, generic_fallback=config.generic_fallback
        ),
        emit_constraints=config.emit_constraints,
    )
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

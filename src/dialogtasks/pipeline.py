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
from typing import Any, Dict, Optional, Tuple

from .composer import compose_corpus, load_rules
from .export import RenderOptions, SamplingPlan, export_corpus
from .ingest import SynthConfig, load_corpus, synth_corpus, write_corpus, write_json
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
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        text = Path(path).read_text(encoding="utf-8")
        parser.read_string(text, source=str(path))
        defaults = cls()
        include = parser.get("tasks", "include", fallback=None)
        tasks = tuple(name.strip() for name in include.split(",") if name.strip()) if include else None
        return cls(
            seed=parser.getint("run", "seed", fallback=defaults.seed),
            input_path=parser.get("corpus", "input", fallback=None),
            adapter=parser.get("corpus", "adapter", fallback=defaults.adapter),
            synth_dialogs=parser.getint("corpus", "synth_dialogs", fallback=defaults.synth_dialogs),
            synth_dataset=parser.get("corpus", "synth_dataset", fallback=defaults.synth_dataset),
            tasks=tasks,
            compose_enabled=parser.getboolean("compose", "enabled", fallback=defaults.compose_enabled),
            rules_path=parser.get("compose", "rules", fallback=None),
            max_dim=parser.getint("compose", "max_dim", fallback=defaults.max_dim),
            cot=parser.get("render", "cot", fallback=defaults.cot),
            block_shuffle=parser.getboolean("render", "block_shuffle", fallback=defaults.block_shuffle),
            generic_fallback=parser.getboolean(
                "render", "generic_fallback", fallback=defaults.generic_fallback
            ),
            atomic_quota=parser.getint("sample", "atomic_quota", fallback=defaults.atomic_quota),
            composite_quota=parser.getint("sample", "composite_quota", fallback=defaults.composite_quota),
            out_dir=parser.get("output", "dir", fallback=defaults.out_dir),
            emit_constraints=parser.getboolean(
                "output", "emit_constraints", fallback=defaults.emit_constraints
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["tasks"] = list(self.tasks) if self.tasks else None
        return data


def run_pipeline(config: PipelineConfig) -> Dict[str, Any]:
    """Run every stage and write the corpus plus manifest.json into out_dir."""
    # A bad config raises here, before any stage runs or writes.
    cot_k = parse_cot_mode(config.cot)
    task_names(config.tasks)
    rules = load_rules(config.rules_path) if config.compose_enabled else []
    if config.compose_enabled and config.max_dim < 2:
        raise ValueError("max_dim must be >= 2")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.input_path:
        dialogs, corpus_manifest = load_corpus(config.input_path, config.adapter)
    else:
        dialogs = synth_corpus(
            config.seed, config.synth_dialogs, SynthConfig(dataset=config.synth_dataset)
        )
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
        "corpus": corpus_manifest.to_dict(),
        "rejections": dict(sorted(rejections.items())),
        "export": export_manifest,
    }
    write_json(manifest, out_dir / "manifest.json")
    return manifest

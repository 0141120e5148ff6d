"""dialogtasks: derive, compose, render, export, and score dialog task corpora.

The pipeline turns annotated dialog corpora into instruction-tuning task
instances: atomic tasks are derived per dialog turn, composed into
higher-dimensional tasks under a declarative rule table, rendered as
order-invariant prompts, exported as sampled JSONL corpora, and scored
against per-instance constraints.
"""

from .composer import (
    CompositionRule,
    Rejection,
    compose,
    compose_corpus,
    infeasibility_guard,
    load_rules,
    naive_compose,
    naive_corpus,
)
from .evaluate import Constraint, ConstraintSpec, bleu2, extract_constraints, rouge_l, score_corpus
from .export import SamplingPlan, corpus_stats, export_corpus, sample
from .ingest import ADAPTERS, SynthConfig, load_corpus, synth_corpus, write_corpus
from .model import (
    ComponentKind,
    Dialog,
    DialogItem,
    Provenance,
    TargetItem,
    TaskInstance,
    TaskSignature,
    Turn,
    parse_signature,
    signature_of,
    validate_instance,
)
from .pipeline import PipelineConfig, run_pipeline
from .prompts import RenderOptions, RenderedExample, apply_cot, cot_transform, render, render_corpus
from .registry import REGISTRY, AtomicTaskDef, derive_corpus, derive_task, list_tasks

__version__ = "0.1.0"

__all__ = [
    "ADAPTERS",
    "AtomicTaskDef",
    "ComponentKind",
    "CompositionRule",
    "Constraint",
    "ConstraintSpec",
    "Dialog",
    "DialogItem",
    "PipelineConfig",
    "Provenance",
    "REGISTRY",
    "Rejection",
    "RenderOptions",
    "RenderedExample",
    "SamplingPlan",
    "SynthConfig",
    "TargetItem",
    "TaskInstance",
    "TaskSignature",
    "Turn",
    "apply_cot",
    "bleu2",
    "compose",
    "compose_corpus",
    "corpus_stats",
    "cot_transform",
    "derive_corpus",
    "derive_task",
    "export_corpus",
    "extract_constraints",
    "infeasibility_guard",
    "list_tasks",
    "load_corpus",
    "load_rules",
    "naive_compose",
    "naive_corpus",
    "parse_signature",
    "render",
    "render_corpus",
    "rouge_l",
    "run_pipeline",
    "sample",
    "score_corpus",
    "signature_of",
    "synth_corpus",
    "validate_instance",
    "write_corpus",
]

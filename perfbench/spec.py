"""Names and sizes shared by ``run.py`` and its child processes.

Stdlib only and free of program imports, so ``run.py`` can read it without
importing ``dialogtasks``.
"""

DEFAULT_SEED = 7

# Dialog counts per size. "full" is what the benchmark measures; "tiny" is
# for the benchmark's own tests. One full repetition takes 3-6 s on a 2-core
# x86-64 VM with Python 3.11.7, so a 35 s run holds six to twelve of them.
SIZES = {
    "build_corpus": {"full": 126, "tiny": 7},
    "staged_roundtrip": {"full": 16, "tiny": 3},
    "score_outputs": {"full": 126, "tiny": 7},
}

# Turn-count range per workload. staged_roundtrip uses long dialogs because
# every serialized instance row carries its whole context prefix.
TURNS = {
    "build_corpus": (2, 8),
    "staged_roundtrip": (6, 16),
    "score_outputs": (2, 8),
}

RENDERED_FILES = ("train.jsonl", "dev.jsonl", "test.jsonl")
CONSTRAINT_FILES = ("constraints-train.jsonl", "constraints-dev.jsonl", "constraints-test.jsonl")
# Checked export files. manifest.json is left out: it holds the config's
# paths verbatim (so its bytes depend on where the run happens) and its
# counters are meant to grow.
EXPORT_FILES = RENDERED_FILES + CONSTRAINT_FILES + ("stats.json",)

# Checked fields of the eval report: the MetricReport fields plus the join's
# missing-output count. Fields added later do not change the digest.
REPORT_KEYS = (
    "n_examples",
    "per_constraint_accuracy",
    "constraint_counts",
    "compositional_accuracy",
    "bleu2",
    "rouge_l",
    "n_missing_outputs",
)

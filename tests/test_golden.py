"""Golden checksums: the exact bytes of one small fixed run.

Determinism is otherwise only checked run-to-run, which a refactor that
changes outputs consistently still passes. These sha256 values pin the
files themselves: the pipeline's exports for synth_corpus(7, 30) with
cot=random-1, and the instance files of its atomic, composite and naive
corpora together with the instances they hold, and the rendered naive
composites. A change that alters any of them on purpose must say so and
re-pin them here.
"""

import hashlib

from dialogtasks.composer import compose_corpus, load_rules, naive_corpus
from dialogtasks.export import read_instances, write_instances, write_jsonl, write_rendered
from dialogtasks.ingest import synth_corpus
from dialogtasks.pipeline import PipelineConfig, run_pipeline
from dialogtasks.registry import derive_corpus

SEED = 7
N_DIALOGS = 30

PIPELINE_FILES = {
    "constraints-dev.jsonl": "18dad89d6392b801c81c2a70d9969d05b5580cb40497d3cc03dd01f93b69e42e",
    "constraints-test.jsonl": "52544b35dfb265fde52c750679cdc80807a5fe2c4f016bb92e6107efe3a7b26f",
    "constraints-train.jsonl": "93debd935d15f6357793548a23f2caaf7fb16173411fcfbb8eff5f3116afbdc8",
    "dev.jsonl": "c54680b0f77d32dbc969ba2a8b748e9428abb88492a6ec51e119df57b02225d4",
    "dialogs.jsonl": "9271172546c3d0d551335e109616fc690b389bf3621ea3624d48e26855a128f7",
    "manifest.json": "d40358dad70ea903ceb4acd22227c6f703118b5619c0a5f3063ee8ab58a0a782",
    "stats.json": "e2bb6b2f344b5794bd348f20ea41d409b291d4c58abf43e6ef4826829117931a",
    "test.jsonl": "8ba345511636e0b8126b7bf8da829a49ad18ba3a0d76f8876895bb189c2c7879",
    "train.jsonl": "7c84327f4812c35204063445eefb6f2c347de9d48c729f88c121d1956d35666d",
}

# Instance contents: the sha256 of every instance re-serialized inline by
# to_dict, one per line. These are the bytes write_instances wrote before
# instance files shared each dialog's turns, so they also prove that the
# shared format holds the same instances.
INSTANCE_CONTENTS = {
    "atomic": (2350, "4282f04a9b6bf22d314ab5de81eeed1b6a92991cb06ef758e1e48198ec999056"),
    "composite": (4380, "6770a79ca737f1979188f9cad740c55053e638bb4c39dd7ea55ff17737110500"),
    "naive": (4380, "26f3ef36e8fec1ddf889e415658b49269cd1107b7b555c23fc60d94cc1bfbb8f"),
}

# The bytes write_instances writes for the same corpora.
INSTANCE_FILES = {
    "atomic": (2350, "0d19137fbaec10773a47b04371269f05a3b9db4360d8c52ffa04f7b14625e86c"),
    "composite": (4380, "ee449ab3d1d63e31d9e6a86fdb03c17ce1caaff4c70cfd78e61875d0d39a1537"),
    "naive": (4380, "8986b4554aef6b2dc14dd92f4d6701a902373fc3b9ba0c84c79d8483e8f5b89d"),
}

# The bytes write_rendered writes for the naive composites at seed 7.
NAIVE_RENDERED = (4380, "1d31ebedae74c0e069d06df9b88bd3ab2c43ce7591b659573bfd976a2426862e")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_exports_match_golden_checksums(tmp_path):
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(seed=SEED, synth_dialogs=N_DIALOGS, cot="random-1", out_dir=str(out)))
    assert {p.name: _sha256(p) for p in out.iterdir()} == PIPELINE_FILES


def test_instance_files_match_golden_checksums(tmp_path):
    atomic = derive_corpus(synth_corpus(SEED, N_DIALOGS), SEED)
    rules = load_rules()
    composites, _ = compose_corpus(atomic, rules)
    corpora = {"atomic": atomic, "composite": composites, "naive": naive_corpus(atomic, rules)}
    files, contents = {}, {}
    for name, instances in corpora.items():
        path = tmp_path / f"{name}.jsonl"
        manifest = write_instances(instances, path)
        files[name] = (manifest["count"], _sha256(path))
        inline = write_jsonl((i.to_dict() for i in read_instances(path)), tmp_path / f"{name}-inline.jsonl")
        contents[name] = (inline["count"], inline["sha256"])
    assert contents == INSTANCE_CONTENTS
    assert files == INSTANCE_FILES


def test_naive_rendered_file_matches_golden_checksum(tmp_path):
    atomic = derive_corpus(synth_corpus(SEED, N_DIALOGS), SEED)
    naive = naive_corpus(atomic, load_rules())
    # The naive layout is unshuffled, so the render seed changes no byte.
    for seed in (SEED, SEED + 1):
        manifest, errors = write_rendered(naive, tmp_path / f"naive-{seed}.jsonl", seed)
        assert errors == []
        assert (manifest["count"], manifest["sha256"]) == NAIVE_RENDERED

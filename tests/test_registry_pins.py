"""Pinned derivation outcomes of every registered task.

For every task at every position of synth_corpus(7, 30) and of a few hand
dialogs with edge-case turns, the outcome is either the sha256 of the
instance's to_dict() or the name of the DerivationError subclass raised.
The values were captured before the registry became a table, so any change
to what a task derives, to which error it raises, or to the order in which
it checks its inputs shows up here. `tasks --list` is pinned byte for byte.
"""

import hashlib
import json

from dialogtasks.cli import main
from dialogtasks.ingest import synth_corpus
from dialogtasks.model import ComponentKind, Dialog, DialogItem, Turn
from dialogtasks.registry import REGISTRY, DerivationError, derive_task

S, E, A = ComponentKind.STATE, ComponentKind.EVIDENCE, ComponentKind.ACTION

SEED = 7

HAND_DIALOGS = (
    # Speaker 2 holds the whitespace-only and the stopword-only turns; the
    # one-token turn carries no items, and turn 4 has an act but no emotion.
    Dialog(
        dialog_id="edges",
        dataset="hand",
        turns=(
            Turn("Speaker 1", "hello there , how are you ?", (
                DialogItem(S, "emotion", "happiness", 0),
                DialogItem(A, "dialog_act", "question", 0),
                DialogItem(E, "persona", "i like long walks .", 0),
            )),
            Turn("Speaker 2", "   ", (
                DialogItem(S, "emotion", "no_emotion", 1),
                DialogItem(A, "dialog_act", "inform", 1),
                DialogItem(E, "knowledge", "walks are healthy .", 1),
            )),
            Turn("Speaker 1", "ok"),
            Turn("Speaker 2", "so it is .", (
                DialogItem(E, "persona", "i work nights .", 3),
                DialogItem(E, "knowledge", "", 3),
            )),
            Turn("Speaker 1", "the museum downtown reopened yesterday with a dinosaur hall", (
                DialogItem(A, "dialog_act", "inform", 4),
            )),
            Turn("Speaker 2", "Dinosaurs ! Dinosaurs everywhere , bones bones bones .", (
                DialogItem(S, "emotion", "surprise", 5),
                DialogItem(E, "persona", "i love fossils .", 5),
                DialogItem(E, "persona", "i have two dogs .", 5),
            )),
        ),
        split="dev",
    ),
    # No annotation items at all.
    Dialog(
        dialog_id="bare",
        dataset="hand",
        turns=(
            Turn("Speaker 1", "hi ."),
            Turn("Speaker 2", "hello there friend , nice weather for sailing today ."),
            Turn("Speaker 1", "a b"),
        ),
    ),
)

# sha256 over the outcome lines of one task: synth positions, then hand.
DIGESTS = {
    "act_classification": "f1103ea557d996d32b043c3f79d1ea02997194dc4f6ad547fdef9048c917c633",
    "act_generation": "6af3caba5f2d98c790c47312169fe715989e74bf6b566817ee83bb959d8ce709",
    "act_prediction": "777421e1ac95996f32f58d54a4029e1e9698b7ceaa49fde505a8d86e373701af",
    "beginswith_controlled_generation": "5babe53cc7d12b12e94433b3fafee99181df6eb9b06ffd9d82370cc6bbd4a4e9",
    "edit_generation": "f98b3cdd0c8fe461fb8342e47af318dcd871a7dc48686e53b97d60b5d8868b22",
    "emotion_generation": "1730cfebf4c0e0dfb86afaeacfd986c44aaa860dd1938e96aa2c7ff1cb11f986",
    "emotion_prediction": "cbc285726655664b72771f710729c74216f214ab2d92abb09bde9f53a986f05f",
    "emotion_tagging": "1534f9acc90c0168e8036ebcf566b9ae6839105e64ab3bb7e5df0d499dc5e497",
    "endswith_controlled_generation": "c1a58337a550d764060d12a51c178936079cc923c4e5d4fa978a50aefcde9ad3",
    "keyword_controlled_generation": "fb40755ef8b5d16bc77ce2a40514ad00e6d60ea9c1ae8a1f93f7fff628f7b85c",
    "keyword_prediction": "649c3c2947f1a6900cb09ae332055dd0a1f5e1335bbe0ed4aa02947efe908c17",
    "knowledge_generation": "b1a4ad18b7c52d823059601ecb36bb5cfee3aed67895755d9a9147539144f378",
    "knowledge_grounded_generation": "7a80cd272f75ba79147861c69d63a0a07163f4b97f317756296ac7a8fa284e72",
    "persona_generation": "ccb9a9ef5b204ddfcfd1b5605a56147707e3ddd627ca6f0816ed07951b520c69",
    "persona_grounded_generation": "79162e6d7368ad1a48117f5dbd8bbaa95a783701fc1f9693ad82753c5eff3e4f",
    "response_generation": "eebca5571cf2b0f170ab015f86a46d9b7280e48042d1002bec7fe7fa7135e374",
    "response_generation_length": "bfc903145610dc0981a89154913120548f27149359d6d7c807fdc08cf1a6b13c",
    "response_length_prediction": "dcbed43c32ba279ade0c4069fd62655ae54be0a795069277865c1b338bfe9fdf",
}

# Hand-dialog outcomes per task, in position order ("ok" for an instance).
HAND = {
    "act_classification": "DerivationError ok GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing GoldMissing",
    "act_generation": "DerivationError TooShort GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing GoldMissing",
    "act_prediction": "DerivationError ok GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing GoldMissing",
    "beginswith_controlled_generation": "DerivationError TooShort TooShort ok ok ok DerivationError ok ok",
    "edit_generation": "DerivationError TooShort TooShort ok ok ok DerivationError ok ok",
    "emotion_generation": "DerivationError TooShort GoldMissing GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing",
    "emotion_prediction": "DerivationError ok GoldMissing GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing",
    "emotion_tagging": "DerivationError ok GoldMissing GoldMissing GoldMissing ok GoldMissing GoldMissing GoldMissing",
    "endswith_controlled_generation": "DerivationError TooShort TooShort ok ok ok DerivationError ok ok",
    "keyword_controlled_generation": "NoContentTokens NoContentTokens ok NoContentTokens ok ok DerivationError ok ok",
    "keyword_prediction": "NoContentTokens NoContentTokens ok NoContentTokens ok ok DerivationError ok ok",
    "knowledge_generation": "GoldMissing ok GoldMissing DerivationError GoldMissing GoldMissing GoldMissing GoldMissing GoldMissing",
    "knowledge_grounded_generation": "GoldMissing TooShort GoldMissing DerivationError GoldMissing GoldMissing GoldMissing GoldMissing GoldMissing",
    "persona_generation": "DerivationError GoldMissing ok ok ok ok GoldMissing GoldMissing GoldMissing",
    "persona_grounded_generation": "DerivationError TooShort ok ok ok ok GoldMissing GoldMissing GoldMissing",
    "response_generation": "DerivationError TooShort ok ok ok ok DerivationError ok ok",
    "response_generation_length": "DerivationError TooShort ok ok ok ok DerivationError ok ok",
    "response_length_prediction": "DerivationError TooShort ok ok ok ok DerivationError ok ok",
}

TASKS_LIST = (
    'act_classification                   IC-S     Label the dialog act of the last visible utterance.\n'
    'act_generation                       ICA-R    Generate the next turn realizing a given dialog act.\n'
    'act_prediction                       IC-A     Predict the dialog act of the hidden next turn.\n'
    'beginswith_controlled_generation     ICA-R    Generate the next turn so it starts with a given phrase.\n'
    'edit_generation                      ICA-R    Rewrite a draft into the correct next turn.\n'
    'emotion_generation                   ICA-R    Generate the next turn expressing a given emotion.\n'
    'emotion_prediction                   IC-A     Predict the emotion of the hidden next turn.\n'
    'emotion_tagging                      IC-S     Label the emotion of the last visible utterance.\n'
    'endswith_controlled_generation       ICA-R    Generate the next turn so it ends with a given phrase.\n'
    'keyword_controlled_generation        ICA-R    Generate the next turn so it contains given keywords.\n'
    'keyword_prediction                   IC-A     Predict keywords of the hidden next turn.\n'
    'knowledge_generation                 IC-E     Produce the knowledge snippet the next turn relies on.\n'
    'knowledge_grounded_generation        ICE-R    Generate the next turn grounded in a knowledge snippet.\n'
    'persona_generation                   IC-E     Produce a persona line for the next speaker.\n'
    'persona_grounded_generation          ICE-R    Generate the next turn consistent with a persona line.\n'
    'response_generation                  IC-R     Generate the next turn from the dialog context alone.\n'
    'response_generation_length           ICA-R    Generate the next turn at a given length class.\n'
    'response_length_prediction           IC-A     Predict the length class of the hidden next turn.\n'
)


def synth_positions():
    return [(d, t) for d in synth_corpus(SEED, 30) for t in range(1, len(d.turns))]


def hand_positions():
    # Turn 0 is included so that the order of a task's checks is pinned too.
    return [(d, t) for d in HAND_DIALOGS for t in range(len(d.turns))]


def outcomes(name, positions):
    lines = []
    for dialog, t in positions:
        try:
            inst = derive_task(name, dialog, t, SEED)
        except DerivationError as err:
            outcome = type(err).__name__
        else:
            outcome = hashlib.sha256(json.dumps(inst.to_dict(), sort_keys=True).encode()).hexdigest()
        lines.append(f"{dialog.dataset}/{dialog.dialog_id}\t{t}\t{outcome}")
    return lines


def test_every_task_position_outcome_is_pinned():
    positions = synth_positions() + hand_positions()
    got = {
        name: hashlib.sha256("".join(line + "\n" for line in outcomes(name, positions)).encode()).hexdigest()
        for name in sorted(REGISTRY)
    }
    assert got == DIGESTS


def test_hand_dialog_outcomes_are_pinned():
    got = {}
    for name in sorted(REGISTRY):
        words = [line.split("\t")[2] for line in outcomes(name, hand_positions())]
        got[name] = " ".join("ok" if len(w) == 64 else w for w in words)
    assert got == HAND


def test_tasks_list_output_is_pinned(capsys):
    assert main(["tasks", "--list"]) == 0
    assert capsys.readouterr().out == TASKS_LIST

"""Tokenization, normalization, stopwords, and length bucketing shared by all modules."""

from __future__ import annotations

import string

PUNCTUATION = frozenset(string.punctuation)

# Length-class thresholds in tokens.
SHORT_MAX_TOKENS = 10
MEDIUM_MAX_TOKENS = 20

LENGTH_CLASSES = ("short", "medium", "long")

# Compact conversational stopword list used by the keyword extractor.
# Besides the usual closed-class words it includes common discourse and
# filler words (absolutely, really, okay, ...) so that extracted keywords
# are content-bearing.
STOPWORDS = frozenset("""
a about above absolutely actually after again all almost also am an and any
anyway are as at back be because been before being below between both but by
can could day did do does doing down during each even few for from further get
go going good got great had has have having he hello her here hers herself hey
him himself his how i if in into is it its itself just know let like little me
more most much my myself never new no nor not now of off oh okay on once one
only or other our ours ourselves out over own please pretty quite rather real
really right same say see she should so some something still such sure than
thank thanks that the their theirs them themselves then there these they
this those through time to today too under until up us very want was way we
well were what when where which while who whom why will with would yeah yes
you your yours yourself yourselves
""".split())


def split_token(token: str) -> list[str]:
    """Split leading and trailing punctuation off one whitespace-delimited token.

    Interior punctuation stays attached, so "That's" remains one token
    while "song," becomes ["song", ","].
    """
    head: list[str] = []
    tail: list[str] = []
    core = token
    while core and core[0] in PUNCTUATION:
        head.append(core[0])
        core = core[1:]
    while core and core[-1] in PUNCTUATION:
        tail.append(core[-1])
        core = core[:-1]
    tail.reverse()
    if core:
        return head + [core] + tail
    return head + tail


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with leading/trailing punctuation split out."""
    tokens: list[str] = []
    for token in text.split():
        if token[0] in PUNCTUATION or token[-1] in PUNCTUATION:
            tokens.extend(split_token(token))
        else:
            tokens.append(token)
    return tokens


def normalize_tokens(text: str) -> list[str]:
    """Lowercased tokens; the comparison form used by every boolean check."""
    return [token.lower() for token in tokenize(text)]


def is_content_token(token: str) -> bool:
    """True for alphabetic tokens outside the stopword list (keyword candidates)."""
    return token.isalpha() and token.lower() not in STOPWORDS


def length_class(token_count: int) -> str:
    """Bucket a token count into "short", "medium", or "long".

    The buckets partition the non-negative integers: every count maps to
    exactly one class.
    """
    if token_count <= SHORT_MAX_TOKENS:
        return "short"
    if token_count <= MEDIUM_MAX_TOKENS:
        return "medium"
    return "long"


def split_keyword_list(value: str) -> tuple[str, ...]:
    """Split a comma-separated list, such as the storage form of a keyword list, dropping blank entries."""
    return tuple(k.strip() for k in value.split(",") if k.strip())


def join_natural(parts: list[str]) -> str:
    """Join words the way the prompt templates expect: "a", "a and b", "a, b, and c"."""
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return f"{parts[0]} and {parts[1]}"
    return ", ".join(parts[:-1]) + f", and {parts[-1]}"

"""Deterministic surface-text statistics for prompt states.

All 14 features are pure functions of the input bytes: identical input
yields identical output across runs and platforms. The word lists behind
the density features ship as a versioned data file whose content hash is
recorded in report provenance.
"""

from __future__ import annotations

import hashlib
import json
import re
import zlib
from collections import Counter
from dataclasses import dataclass, fields
from importlib import resources
from itertools import repeat

from .store import PromptState

FEATURE_ORDER = (
    "word_count",
    "char_count",
    "sentence_count",
    "n_demos",
    "type_token_ratio",
    "compression_ratio",
    "step_word_density",
    "reasoning_word_density",
    "metacog_word_density",
    "numbered_list_presence",
    "avg_word_length",
    "question_count",
    "imperative_density",
    "uppercase_ratio",
)

# Five of the fourteen are standard statistics not named in the source
# analysis; reports label them accordingly.
NON_CANON_FEATURES = (
    "avg_word_length",
    "char_count",
    "question_count",
    "imperative_density",
    "uppercase_ratio",
)

_NUMBERED_LINE = re.compile(r"^\d+[.)]\s")
_SENTENCE_SPLIT = re.compile(r"[.!?]")
# A token is a whitespace run with its leading and trailing
# non-alphanumeric characters stripped; internal punctuation (hyphens,
# apostrophes) is kept and runs that strip to nothing yield no token.
# For str patterns \s is str.isspace and [^\W_] is str.isalnum.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")
# The ASCII characters that are not alphanumeric, as str.strip's set.
_NOT_ALNUM_ASCII = "".join(c for c in map(chr, range(128)) if not c.isalnum())
# ASCII bytes that are not letters, and not uppercase letters, by the
# str predicates; deleting them from an ASCII text leaves what is counted.
_NOT_ALPHA = bytes(b for b in range(128) if not chr(b).isalpha())
_NOT_UPPER = bytes(b for b in range(128) if not (chr(b).isalpha() and chr(b).isupper()))


@dataclass(frozen=True)
class WordLists:
    step_words: frozenset[str]
    reasoning_words: frozenset[str]
    metacog_words: frozenset[str]
    imperative_verbs: frozenset[str]
    version: str
    content_hash: str

    @classmethod
    def from_json(cls, doc: dict) -> "WordLists":
        lists = {}
        names = [item.name for item in fields(cls) if item.name not in ("version", "content_hash")]
        for name in names:
            entries = doc.get(name, [])
            if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
                raise ValueError(f"{name} must be a list of strings")
            for entry in entries:
                if not entry or entry != entry.lower():
                    raise ValueError(f"word list entry '{entry}' must be lowercase and nonempty")
            lists[name] = frozenset(entries)
        canonical = json.dumps(doc, sort_keys=True).encode("utf-8")
        return cls(
            **lists,
            version=str(doc.get("version", "unversioned")),
            content_hash=hashlib.sha256(canonical).hexdigest(),
        )


_default_lists: WordLists | None = None


def default_wordlists() -> WordLists:
    global _default_lists
    if _default_lists is None:
        text = resources.files("editfx.data").joinpath("wordlists.json").read_text("utf-8")
        _default_lists = WordLists.from_json(json.loads(text))
    return _default_lists


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace runs, each trimmed to its alphanumeric ends (_TOKEN).

    ASCII text is lowercased first, split with str.split and trimmed with
    str.strip: for ASCII, str.split's whitespace is the pattern's \\s and
    lowercasing changes no character's class, so the tokens are the
    pattern's. Other text is scanned with the pattern and lowercased token
    by token: lowercasing first can change a character's class
    ("\u0130".lower() appends U+0307, which is not alphanumeric).
    """
    if text.isascii():
        return list(filter(None, map(str.strip, text.lower().split(), repeat(_NOT_ALNUM_ASCII))))
    return [token.lower() for token in _TOKEN.findall(text)]


def letter_counts(text: str) -> tuple[int, int]:
    """(letters, uppercase letters) of text, by str.isalpha and str.isupper."""
    if text.isascii():
        data = text.encode("ascii")
        return len(data.translate(None, _NOT_ALPHA)), len(data.translate(None, _NOT_UPPER))
    return sum(map(str.isalpha, text)), sum(map(str.isupper, filter(str.isalpha, text)))


def compression_ratio(text: str) -> float:
    """Raw DEFLATE (level 6) size over UTF-8 size; 0.0 for empty text.

    Empty input has no ratio to speak of; it reports 0.0 so the whole
    empty-text feature vector is zero, like every other feature. A lone
    surrogate is encoded as its three UTF-8-style bytes, so every str has
    a ratio; valid text encodes as plain UTF-8.
    """
    data = text.encode("utf-8", "surrogatepass")
    if not data:
        return 0.0
    compressor = zlib.compressobj(level=6, wbits=-15)
    compressed = compressor.compress(data) + compressor.flush()
    return len(compressed) / len(data)


def sentence_count(text: str) -> int:
    """Segments ended by '.', '!', '?' or end-of-text that contain a token."""
    return sum(1 for seg in _SENTENCE_SPLIT.split(text) if _TOKEN.search(seg))


def extract(
    state: PromptState, lists: WordLists | None = None, tokens: list[str] | None = None
) -> dict[str, float]:
    """Compute the fixed 14-feature surface vector for one prompt state.

    `tokens`, when given, must be tokenize(state.instruction_text); a
    caller that already holds them saves the scan. Densities are
    matching-token counts divided by word_count, defined as 0 when the
    instruction has no tokens.
    """
    if lists is None:
        lists = default_wordlists()
    text = state.instruction_text
    if tokens is None:
        tokens = tokenize(text)
    n_words = len(tokens)
    counts = Counter(tokens)

    def density(words: frozenset[str]) -> float:
        if n_words == 0:
            return 0.0
        return sum(counts[word] for word in counts.keys() & words) / n_words

    letters, upper = letter_counts(text)
    numbered = any(_NUMBERED_LINE.match(line) for line in text.splitlines())
    token_chars = sum(len(token) * count for token, count in counts.items())

    return {
        "word_count": float(n_words),
        "char_count": float(len(text)),
        "sentence_count": float(sentence_count(text)),
        "n_demos": float(len(state.demos)),
        "type_token_ratio": (len(counts) / n_words) if n_words else 0.0,
        "compression_ratio": compression_ratio(text),
        "step_word_density": density(lists.step_words),
        "reasoning_word_density": density(lists.reasoning_words),
        "metacog_word_density": density(lists.metacog_words),
        "numbered_list_presence": 1.0 if numbered else 0.0,
        "avg_word_length": (token_chars / n_words) if n_words else 0.0,
        "question_count": float(text.count("?")),
        "imperative_density": density(lists.imperative_verbs),
        "uppercase_ratio": upper / letters if letters else 0.0,
    }


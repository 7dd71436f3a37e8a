"""Byte-pair-encoding subword tokenizer with one fixed reserved special-token set.

Training and encoding share one pre-tokenization, ``_pieces``: each
special-token string in the text is cut out whole, and every other run is
lower-cased and split on whitespace into words. Merges are learned and
applied word-internally, and every word gets an end-of-word marker so
decoding can restore word boundaries. Special tokens are atomic: they are
never split and never take part in merge learning. Every vocabulary begins
with ``SPECIAL_TOKENS``, so a special token has the same id in all of them.

Training keeps the pair counts from one merge to the next and updates only
the words that a merge touches. Each merge takes the most frequent pair,
and a tie goes to the lexicographically smallest pair.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .artifact import text_lines

END_OF_WORD = "</w>"

# OntoNotes 5 label scheme used by the large English spaCy NER models.
DEFAULT_ENTITY_TYPE_LABELS = (
    "PERSON",
    "NORP",
    "FAC",
    "ORG",
    "GPE",
    "LOC",
    "PRODUCT",
    "EVENT",
    "WORK_OF_ART",
    "LAW",
    "LANGUAGE",
    "DATE",
    "TIME",
    "PERCENT",
    "MONEY",
    "QUANTITY",
    "ORDINAL",
    "CARDINAL",
)

UNKNOWN_TYPE = "<unk>"


def type_token(label: str) -> str:
    """Special-token string for an entity-type label."""
    return f"[{label}]"


# The reserved tokens, in id order: the template markers, then one token per
# entity-type label and one for an unknown type.
SPECIAL_TOKENS = (
    "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[Ms]", "[Me]", "[ENT]", "[H_SEP]",
    *(type_token(lbl) for lbl in (*DEFAULT_ENTITY_TYPE_LABELS, UNKNOWN_TYPE)),
)
_SPECIAL_ID = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
_SPECIAL_RE = re.compile(
    "(" + "|".join(re.escape(t) for t in sorted(SPECIAL_TOKENS, key=len, reverse=True)) + ")"
)


class TokenizerError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Token table plus the ordered merge rules that produced it.

    Ids are contiguous from 0: ``SPECIAL_TOKENS`` first, then the base
    alphabet in sorted order, then one token per merge in learned order.
    Every merge's two tokens and its product are in the table.
    """

    id_to_token: list[str]
    merges: list[tuple[str, str]]

    # Derived from the two fields above, so equality ignores them.
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    merge_ranks: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _word_cache: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        for i, tok in enumerate(SPECIAL_TOKENS):
            if i >= len(self.id_to_token) or self.id_to_token[i] != tok:
                raise TokenizerError(
                    f"id {i} must be the special token {tok!r}: a vocabulary begins "
                    f"with the {len(SPECIAL_TOKENS)} tokens of bpe.SPECIAL_TOKENS"
                )
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token in vocabulary")
        self.merge_ranks = {pair: i for i, pair in enumerate(self.merges)}
        if len(self.merge_ranks) != len(self.merges):
            raise TokenizerError("duplicate merge rule")
        for a, b in self.merges:
            for tok in (a, b, a + b):
                if tok not in self.token_to_id:
                    raise TokenizerError(
                        f"merge rule {a!r} {b!r} uses {tok!r}, which is not in the vocabulary"
                    )

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return _SPECIAL_ID["[PAD]"]

    @property
    def unk_id(self) -> int:
        return _SPECIAL_ID["[UNK]"]

    def special_id(self, token: str) -> int:
        if token not in _SPECIAL_ID:
            raise TokenizerError(f"{token!r} is not a special token")
        return _SPECIAL_ID[token]

    # -- encoding ----------------------------------------------------------

    def _encode_word(self, word: str) -> tuple[int, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        # A symbol outside the vocabulary is in no merge rule, so it never
        # merges and becomes [UNK].
        symbols = _initial_symbols(word)
        while True:
            best_rank = None
            for pair in zip(symbols, symbols[1:]):
                rank = self.merge_ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            symbols = _merge_pair(symbols, self.merges[best_rank])
        ids = tuple(self.token_to_id.get(s, self.unk_id) for s in symbols)
        self._word_cache[word] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        """Encode text to ids; special-token strings stay atomic."""
        ids: list[int] = []
        for piece in _pieces(text):
            if isinstance(piece, int):
                ids.append(piece)
            else:
                ids.extend(self._encode_word(piece))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode up to whitespace normalization and casing."""
        words: list[str] = []
        current = ""
        for i in ids:
            if not 0 <= i < len(self.id_to_token):
                raise TokenizerError(f"token id {i} out of range")
            tok = self.id_to_token[i]
            if tok in _SPECIAL_ID:
                if current:
                    words.append(current)
                    current = ""
                words.append(tok)
            elif tok.endswith(END_OF_WORD):
                words.append(current + tok[: -len(END_OF_WORD)])
                current = ""
            else:
                current += tok
        if current:
            words.append(current)
        return " ".join(words)

    # -- persistence -------------------------------------------------------

    def save(self, vocab_path, merges_path):
        with open(vocab_path, "w", encoding="utf-8") as f:
            for tok in self.id_to_token:
                f.write(tok + "\n")
        with open(merges_path, "w", encoding="utf-8") as f:
            for a, b in self.merges:
                f.write(f"{a} {b}\n")

    @classmethod
    def load(cls, vocab_path, merges_path) -> "Vocabulary":
        """Read a vocabulary written by ``save``. Raise TokenizerError naming
        the files unless it begins with ``SPECIAL_TOKENS``, has no repeated
        token or merge, and every merge uses tokens of the vocabulary."""
        tokens = [line for _, line in text_lines(vocab_path, TokenizerError)]
        merges: list[tuple[str, str]] = []
        for where, line in text_lines(merges_path, TokenizerError):
            parts = line.split(" ")
            if len(parts) != 2:
                raise TokenizerError(f"{where}: malformed merge rule")
            merges.append((parts[0], parts[1]))
        try:
            return cls(id_to_token=tokens, merges=merges)
        except TokenizerError as e:
            raise TokenizerError(f"{vocab_path} with {merges_path}: {e}") from None


def _pieces(text: str) -> Iterator[int | str]:
    """Each special-token string in ``text`` as its id; every other run
    lower-cased and split on whitespace into words."""
    for segment in _SPECIAL_RE.split(text):
        if segment in _SPECIAL_ID:
            yield _SPECIAL_ID[segment]
        else:
            yield from segment.lower().split()


def _initial_symbols(word: str) -> list[str]:
    chars = list(word)
    chars[-1] = chars[-1] + END_OF_WORD
    return chars


def _merge_pair(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    merged = []
    i = 0
    while i < len(symbols):
        if (
            i + 1 < len(symbols)
            and symbols[i] == pair[0]
            and symbols[i + 1] == pair[1]
        ):
            merged.append(pair[0] + pair[1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


def train_bpe(texts: Iterable[str], target_vocab_size: int) -> Vocabulary:
    """Learn BPE merges from a text stream.

    Each merge takes the most frequent adjacent pair; ties between equally
    frequent pairs go to the lexicographically smallest pair, so training
    is deterministic. Pair counts are kept across merges, and a merge
    rewrites only the words that hold its pair (Sennrich et al., arXiv
    1508.07909).
    """
    word_counts = Counter(
        piece for text in texts for piece in _pieces(text) if isinstance(piece, str)
    )
    if not word_counts:
        raise TokenizerError("empty training corpus")

    words = [_initial_symbols(w) for w in word_counts]
    freqs = list(word_counts.values())
    alphabet = sorted({s for symbols in words for s in symbols})
    base_size = len(alphabet) + len(SPECIAL_TOKENS)
    if target_vocab_size < base_size:
        raise TokenizerError(
            f"target vocab size {target_vocab_size} below alphabet+specials {base_size}"
        )

    pair_counts: Counter = Counter()
    # Every word that holds a pair is in its set; a word that no longer
    # holds it may linger there.
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, (symbols, freq) in enumerate(zip(words, freqs)):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freq
            holders[pair].add(i)
    # (-count, pair) pops the most frequent pair, the smallest on a tie. An
    # entry whose count is no longer the pair's count is stale and skipped;
    # every count change pushes a fresh entry.
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    seen = set(SPECIAL_TOKENS) | set(alphabet)
    while len(merges) < target_vocab_size - base_size and heap:
        neg_count, best = heapq.heappop(heap)
        if pair_counts[best] != -neg_count:
            continue
        merges.append(best)
        delta: Counter = Counter()
        for i in holders.pop(best):
            old = words[i]
            new = _merge_pair(old, best)
            if len(new) == len(old):
                continue
            freq = freqs[i]
            for pair in zip(old, old[1:]):
                delta[pair] -= freq
            for pair in zip(new, new[1:]):
                delta[pair] += freq
                holders[pair].add(i)
            words[i] = new
        for pair, d in delta.items():
            if d:
                pair_counts[pair] += d
                if pair_counts[pair] > 0:
                    heapq.heappush(heap, (-pair_counts[pair], pair))
        product = best[0] + best[1]
        if product not in seen:
            seen.add(product)
            merged_tokens.append(product)

    return Vocabulary(id_to_token=[*SPECIAL_TOKENS, *alphabet, *merged_tokens], merges=merges)

"""Byte-pair-encoding subword tokenizer with a reserved special-token set.

Merges are learned word-internally: the input is lower-cased, split on
whitespace, and every word gets an end-of-word marker so decoding can
restore word boundaries. Special tokens are atomic: they are never split
and never participate in merge learning.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

END_OF_WORD = "</w>"

# Reserved tokens, in id order. Entity-type tokens are appended after these.
BASE_SPECIAL_TOKENS = (
    "[PAD]",
    "[UNK]",
    "[CLS]",
    "[SEP]",
    "[Ms]",
    "[Me]",
    "[ENT]",
    "[H_SEP]",
)

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


def default_special_tokens(type_labels: Iterable[str] = DEFAULT_ENTITY_TYPE_LABELS):
    return list(BASE_SPECIAL_TOKENS) + [
        type_token(lbl) for lbl in (*type_labels, UNKNOWN_TYPE)
    ]


class TokenizerError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Token table plus the ordered merge rules that produced it.

    Ids are contiguous from 0: specials first, then the base alphabet in
    sorted order, then one token per merge in learned order.
    """

    id_to_token: list[str]
    merges: list[tuple[str, str]]
    special_tokens: list[str]

    token_to_id: dict[str, int] = field(init=False, repr=False)
    merge_ranks: dict[tuple[str, str], int] = field(init=False, repr=False)
    _word_cache: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, default_factory=dict
    )
    _special_re: re.Pattern = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token in vocabulary")
        for tok in self.special_tokens:
            if tok not in self.token_to_id:
                raise TokenizerError(f"special token {tok!r} missing from vocabulary")
        self.merge_ranks = {pair: i for i, pair in enumerate(self.merges)}
        if len(self.merge_ranks) != len(self.merges):
            raise TokenizerError("duplicate merge rule")
        longest_first = sorted(self.special_tokens, key=len, reverse=True)
        self._special_re = re.compile(
            "(" + "|".join(re.escape(t) for t in longest_first) + ")"
        )

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id["[PAD]"]

    @property
    def unk_id(self) -> int:
        return self.token_to_id["[UNK]"]

    @property
    def cls_id(self) -> int:
        return self.token_to_id["[CLS]"]

    @property
    def sep_id(self) -> int:
        return self.token_to_id["[SEP]"]

    def special_id(self, token: str) -> int:
        if token not in self.special_tokens:
            raise TokenizerError(f"{token!r} is not a special token")
        return self.token_to_id[token]

    # -- encoding ----------------------------------------------------------

    def _encode_word(self, word: str) -> tuple[int, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = _initial_symbols(word)
        # Unknown characters become None placeholders that never merge.
        symbols = [s if _symbol_known(s, self.token_to_id) else None for s in symbols]
        while True:
            best_rank = None
            for a, b in zip(symbols, symbols[1:]):
                if a is None or b is None:
                    continue
                rank = self.merge_ranks.get((a, b))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            pair = self.merges[best_rank]
            symbols = _merge_pair(symbols, pair)
        ids = tuple(
            self.unk_id if s is None else self.token_to_id.get(s, self.unk_id)
            for s in symbols
        )
        self._word_cache[word] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        """Encode text to ids; special-token strings stay atomic."""
        ids: list[int] = []
        for segment in self._special_re.split(text):
            if not segment:
                continue
            if segment in self.token_to_id and segment in self.special_tokens:
                ids.append(self.token_to_id[segment])
                continue
            for word in segment.lower().split():
                ids.extend(self._encode_word(word))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode up to whitespace normalization and casing."""
        words: list[str] = []
        current = ""
        for i in ids:
            if not 0 <= i < len(self.id_to_token):
                raise TokenizerError(f"token id {i} out of range")
            tok = self.id_to_token[i]
            if tok in self.special_tokens:
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
        with open(vocab_path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f if line.rstrip("\n")]
        merges: list[tuple[str, str]] = []
        with open(merges_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise TokenizerError(f"{merges_path}:{lineno}: malformed merge rule")
                merges.append((parts[0], parts[1]))
        # Specials hold the leading ids; a learned subword may look like one.
        n_special = next(
            (i for i, t in enumerate(tokens) if not re.fullmatch(r"\[.+\]", t)),
            len(tokens),
        )
        return cls(id_to_token=tokens, merges=merges, special_tokens=tokens[:n_special])


def _initial_symbols(word: str) -> list[str]:
    chars = list(word)
    chars[-1] = chars[-1] + END_OF_WORD
    return chars


def _symbol_known(symbol: str, token_to_id: dict[str, int]) -> bool:
    return symbol in token_to_id or symbol[0] in token_to_id


def _merge_pair(symbols: list, pair: tuple[str, str]):
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


def count_pairs(words: dict[tuple, int]) -> Counter:
    """Adjacent-pair frequencies over segmented words, weighted by word count."""
    pairs: Counter = Counter()
    for symbols, freq in words.items():
        for a, b in zip(symbols, symbols[1:]):
            pairs[(a, b)] += freq
    return pairs


def train_bpe(
    texts: Iterable[str],
    target_vocab_size: int,
    special_tokens: list[str] | None = None,
) -> Vocabulary:
    """Learn BPE merges from a text stream.

    Ties between equally frequent pairs go to the lexicographically
    smallest pair, so training is deterministic.
    """
    if special_tokens is None:
        special_tokens = default_special_tokens()
    word_counts: Counter = Counter()
    special_set = set(special_tokens)
    for text in texts:
        for word in text.lower().split():
            if word not in special_set:
                word_counts[word] += 1
    if not word_counts:
        raise TokenizerError("empty training corpus")

    words = {tuple(_initial_symbols(w)): c for w, c in word_counts.items()}
    alphabet = sorted({s for symbols in words for s in symbols})
    base_size = len(alphabet) + len(special_tokens)
    if target_vocab_size < base_size:
        raise TokenizerError(
            f"target vocab size {target_vocab_size} below alphabet+specials {base_size}"
        )

    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    seen = set(special_tokens) | set(alphabet)
    while len(merges) < target_vocab_size - base_size:
        pairs = count_pairs(words)
        if not pairs:
            break
        best_count = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == best_count)
        merges.append(best)
        words = {tuple(_merge_pair(list(s), best)): c for s, c in words.items()}
        product = best[0] + best[1]
        if product not in seen:
            seen.add(product)
            merged_tokens.append(product)

    id_to_token = list(special_tokens) + alphabet + merged_tokens
    return Vocabulary(
        id_to_token=id_to_token, merges=merges, special_tokens=list(special_tokens)
    )

"""Deterministic tokenizer for the simulated LLM backend.

Prefix caches operate on token blocks and the latency model charges per
prefill/decode token, so reproducing the paper's latency and cache
behaviour needs token-level accounting.  Text is split into word and
punctuation pieces, long words into 4-character chunks (roughly the ~1.3
tokens/word of BPE vocabularies), and each piece maps to a stable 32-bit
id via CRC32 (never Python's randomized ``hash``).  The process keeps one
vocabulary: each distinct word's ids and, beside them, the marker bits
:mod:`repro.llm.features` finds in it.
"""

from __future__ import annotations

import re
import zlib
from itertools import chain
from typing import Any

__all__ = ["Tokenizer"]

_PIECE_RE = re.compile(r"[A-Za-z0-9_']+|[^A-Za-z0-9_'\s]")
_WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"
_CHUNK = 4
_MAX_WORD = 8
#: Distinct words the process remembers the ids of; a full memo is cleared.
_WORD_MEMO = 1 << 14

# One vocabulary per process: an id is the CRC32 of its piece, whichever
# tokenizer asks, so every tokenizer shares these tables.  A memo value is a
# function of its key alone; two threads racing on one can only cost a miss.
#: id -> piece, for :meth:`Tokenizer.decode`.
_ID_TO_PIECE: dict[int, str] = {}
#: piece -> id: token lists and radix blocks share one int per id.
_PIECE_TO_ID: dict[str, int] = {}
#: whitespace-separated word -> its ids, cleared at ``_WORD_MEMO``.
_WORD_IDS: dict[str, tuple[int, ...]] = {}
#: the same word -> its marker bits (``features._analyse``), cleared with it.
_WORD_BITS: dict[str, int] = {}


class _ChunkTokens:
    """A static chunk encoded once; kept in ``chunk.memo["tokens"]``."""

    __slots__ = ("ids", "head", "head_ids", "tail", "tail_ids")

    def __init__(self, tokenizer: "Tokenizer", chunk: Any) -> None:
        text = chunk.text
        self.ids = tokenizer.encode(text)
        #: lengths of the leading / trailing word run and their piece counts.
        self.head = len(text) - len(text.lstrip(_WORD_CHARS))
        self.tail = len(text) - len(text.rstrip(_WORD_CHARS))
        self.head_ids = len(tokenizer.pieces(text[: self.head]))
        self.tail_ids = len(tokenizer.pieces(text[len(text) - self.tail :]))
        chunk.memo["tokens"] = self


class Tokenizer:
    """Deterministic text → token-id encoder with decode support for tests."""

    @staticmethod
    def pieces(text: str) -> list[str]:
        """Split ``text`` into token pieces (words, word chunks, punctuation)."""
        out: list[str] = []
        for piece in _PIECE_RE.findall(text):
            if len(piece) <= _MAX_WORD:
                out.append(piece)
                continue
            for start in range(0, len(piece), _CHUNK):
                out.append(piece[start : start + _CHUNK])
        return out

    def encode(self, text: str) -> list[int]:
        """Encode ``text`` to a list of stable token ids.

        No piece spans whitespace (``str.split`` and the pattern's ``\\s``
        are one character class), so the ids are those of the text's
        words in order, and each distinct word is encoded once.
        """
        words = text.split()
        memo = _WORD_IDS
        found = list(map(memo.get, words))
        if None in found:
            if len(memo) >= _WORD_MEMO:
                memo.clear()
                _WORD_BITS.clear()
            for index, ids in enumerate(found):
                if ids is None:
                    word = words[index]
                    ids = memo.get(word)
                    if ids is None:
                        ids = memo[word] = self._encode_word(word)
                    found[index] = ids
        return list(chain.from_iterable(found))

    def _encode_word(self, word: str) -> tuple[int, ...]:
        ids = []
        for piece in self.pieces(word):
            token_id = _PIECE_TO_ID.get(piece)
            if token_id is None:
                token_id = _PIECE_TO_ID[piece] = zlib.crc32(piece.encode("utf-8"))
                _ID_TO_PIECE.setdefault(token_id, piece)
            ids.append(token_id)
        return tuple(ids)

    def encode_prompt(self, prompt: str) -> list[int]:
        """``encode(prompt)``, re-encoding only what is new in it.

        A static chunk of a rendered prompt (see ``prompt_features`` for
        ``prompt.segments``) is encoded once and its ids are reused where
        the text around it cannot change them: pieces never span
        whitespace or punctuation, so only a word run that continues
        across a seam is cut off the chunk and encoded with its neighbour.
        """
        ids: list[int] = []
        size = len(prompt)
        pending = position = 0  # start of the text not encoded yet; cursor
        for segment in getattr(prompt, "segments", None) or (prompt,):
            start, chunk = position, not isinstance(segment, str)
            position += len(segment.text if chunk else segment)
            if not chunk or position == start:
                continue
            memo = segment.memo.get("tokens") or _ChunkTokens(self, segment)
            low, first = start, 0
            if start and prompt[start - 1] in _WORD_CHARS:
                low, first = start + memo.head, memo.head_ids
            high, last = position, len(memo.ids)
            if position < size and prompt[position] in _WORD_CHARS:
                high, last = position - memo.tail, last - memo.tail_ids
            if low <= high:  # else: one word run glued on both sides, all pending
                if pending < low:
                    ids += self.encode(prompt[pending:low])
                ids += memo.ids[first:last]
                pending = high
        if pending < size:
            ids += self.encode(prompt[pending:])
        return ids

    def decode(self, ids: list[int]) -> str:
        """Best-effort inverse of :meth:`encode` (pieces joined by spaces).

        Only pieces some tokenizer of the process has encoded can be
        decoded; unknown ids render as ``<unk>``.  Decoding exists for tests
        and debugging — the runtime never needs it.
        """
        return " ".join(_ID_TO_PIECE.get(token_id, "<unk>") for token_id in ids)

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (no id materialization)."""
        return len(self.pieces(text))

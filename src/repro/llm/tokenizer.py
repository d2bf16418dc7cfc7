"""Deterministic tokenizer for the simulated LLM backend.

A real reproduction of the paper's latency and cache behaviour needs
token-level accounting: prefix caches operate on token blocks, and the
latency model charges per prefill/decode token.  We implement a simple,
fully deterministic word-piece-ish tokenizer: text is split into word and
punctuation pieces, long words are broken into 4-character chunks (roughly
matching the ~1.3 tokens/word ratio of BPE vocabularies), and each piece
maps to a stable 32-bit id via CRC32 (never Python's randomized ``hash``).
"""

from __future__ import annotations

import re
import zlib
from typing import Any

__all__ = ["Tokenizer"]

_PIECE_RE = re.compile(r"[A-Za-z0-9_']+|[^A-Za-z0-9_'\s]")
_WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"
_CHUNK = 4
_MAX_WORD = 8


class _ChunkTokens:
    """A static chunk encoded once; kept in ``chunk.memo["tokens"]``."""

    __slots__ = ("table", "ids", "head", "head_ids", "tail", "tail_ids")

    def __init__(self, tokenizer: "Tokenizer", chunk: Any) -> None:
        text = chunk.text
        self.ids = tokenizer.encode(text)
        #: the last decode table known to hold a piece for every id.
        self.table = tokenizer._id_to_piece
        #: lengths of the leading / trailing word run and their piece counts.
        self.head = len(text) - len(text.lstrip(_WORD_CHARS))
        self.tail = len(text) - len(text.rstrip(_WORD_CHARS))
        self.head_ids = len(tokenizer.pieces(text[: self.head]))
        self.tail_ids = len(tokenizer.pieces(text[len(text) - self.tail :]))
        chunk.memo["tokens"] = self


class Tokenizer:
    """Deterministic text → token-id encoder with decode support for tests."""

    def __init__(self) -> None:
        self._id_to_piece: dict[int, str] = {}
        #: piece -> id: token lists and radix blocks share one int per id.
        self._piece_to_id: dict[str, int] = {}

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
        """Encode ``text`` to a list of stable token ids."""
        ids: list[int] = []
        known = self._piece_to_id
        for piece in self.pieces(text):
            token_id = known.get(piece)
            if token_id is None:
                token_id = known[piece] = zlib.crc32(piece.encode("utf-8"))
                self._id_to_piece.setdefault(token_id, piece)
            ids.append(token_id)
        return ids

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
            if memo.table is not self._id_to_piece:
                # Encoded by another tokenizer: learn its pieces for decode.
                table = memo.table
                self._id_to_piece.update({i: table[i] for i in memo.ids})
                memo.table = self._id_to_piece
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

        Only pieces seen by this tokenizer instance can be decoded; unknown
        ids render as ``<unk>``.  Decoding exists for tests and debugging —
        the runtime never needs it.
        """
        return " ".join(self._id_to_piece.get(token_id, "<unk>") for token_id in ids)

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (no id materialization)."""
        return len(self.pieces(text))

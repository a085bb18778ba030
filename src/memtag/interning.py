"""String interning: every feature value becomes a small int; no word does.

One interner is shared per tagger model, so feature comparison everywhere else
is plain integer equality. Id 0 is always the sentence-boundary marker and id 1
the marker for an unknown right neighbor; both exist in every interner.
"""

from __future__ import annotations

from typing import Iterable, Sequence

BOUNDARY = "="
UNKNOWN_MARK = "UNK-A"

# Sentinel id for text the interner has never seen. Never stored in any
# structure, so it can never match an arc or a pattern slot.
NO_SYMBOL = -1


class Interner:
    """Bijective text <-> id map. Ids are dense and assigned in intern order."""

    __slots__ = ("_ids", "_texts")
    boundary = 0  # the ids of BOUNDARY and UNKNOWN_MARK in every interner
    unknown_mark = 1

    def __init__(self, texts: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._texts: list[str] = []
        self.intern_all([BOUNDARY, UNKNOWN_MARK, *texts])

    @classmethod
    def from_table(cls, texts: Iterable[str]) -> "Interner":
        """The two markers (ids 0 and 1), then `texts` in id order, in one
        step. Raises ValueError if a text repeats or is a marker."""
        table = [BOUNDARY, UNKNOWN_MARK, *texts]
        ids = dict(zip(table, range(len(table))))
        if len(ids) != len(table):
            raise ValueError("interner table repeats a text")
        interner = cls.__new__(cls)
        interner._ids, interner._texts = ids, table
        return interner

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self._texts)
            self._ids[text] = sid
            self._texts.append(text)
        return sid

    def intern_all(self, texts: Sequence[str]) -> list[int]:
        """`intern` of each text; one lookup pass if all are interned."""
        sids = list(map(self._ids.get, texts))
        if None in sids:
            sids = list(map(self.intern, texts))
        return sids

    def id_of(self, text: str) -> int:
        """Id for `text`, or NO_SYMBOL if it was never interned."""
        return self._ids.get(text, NO_SYMBOL)

    def text(self, sid: int) -> str:
        return self._texts[sid]

    def __len__(self) -> int:
        return len(self._texts)

    def __iter__(self):
        return iter(self._texts)

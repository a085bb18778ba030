"""String interning: every feature value becomes a small int; no word does.

One interner is shared per tagger model, so feature comparison everywhere else
is plain integer equality. Ids 0 and 1 are the two markers, the sentence
boundary and an unknown right neighbor, in every interner. No text maps to
them: the texts "=" and "UNK-A" only display the markers, and met as a tag,
a lexicon tag or a letter each is an ordinary value with an id of its own.
"""

from __future__ import annotations

from typing import Iterable, Sequence

BOUNDARY = "="
UNKNOWN_MARK = "UNK-A"

# Sentinel id for text the interner has never seen. Never stored in any
# structure, so it can never match an arc or a pattern slot.
NO_SYMBOL = -1


class Interner:
    """Bijective value text <-> id map, ids 2 on, dense and assigned in
    intern order, after the two marker ids."""

    __slots__ = ("_ids", "_texts")
    boundary = 0  # the ids of the markers, shown as BOUNDARY and UNKNOWN_MARK
    unknown_mark = 1

    def __init__(self, texts: Iterable[str] = ()):
        """The two markers, then `texts` in id order. Raises ValueError if
        a text repeats."""
        self._texts = [BOUNDARY, UNKNOWN_MARK, *texts]
        self._ids = dict(zip(self._texts[2:], range(2, len(self._texts))))
        if len(self._ids) != len(self._texts) - 2:
            raise ValueError("interner table repeats a text")

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

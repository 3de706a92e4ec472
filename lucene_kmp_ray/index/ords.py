"""Term ordinals — the BlockTreeOrds codec role + OrdinalMap.

The reference carries a whole ord-indexed term dictionary codec
(``codecs/blocktreeords/OrdsBlockTreeTermsWriter.kt`` /
``OrdsSegmentTermsEnum.kt``: every block additionally stores how many
terms precede it so ``seekExact(ord)`` / ``ord()`` walk the tree) and a
cross-segment ordinal join (``index/OrdinalMap.kt``: per-segment term
ords → global ords over the merged vocabulary).

Here the segment term dictionary is ALREADY a (field, term)-sorted
Parquet table (index/format.py), so the per-field ord of a term is its
row offset inside the field's contiguous slice — seek-by-ord is an
array index and ord() falls out of the same binary search
``SegmentReader.term_index`` already does. No extra sidecar is needed;
this module only adds the enum surface and the cross-segment map:

- ``TermsOrdEnum``: ``next / term / ord / seek_exact / seek_exact_ord /
  seek_ceil`` with the reference's SeekStatus contract
  (``TestOrdsBlockTree.kt:37-120`` testBasic, ``:292`` testEnum,
  ``:500`` testSeekCeilNotFound).
- ``OrdinalMap``: merged distinct vocabulary across segment readers;
  maps (segment, segment ord) → global ord and global ord → term
  (``index/OrdinalMap.kt`` getGlobalOrds/lookupTerm role).

Both stay on the Arrow term column: the enum seeks with the
dictionary's byte-wise search (``util.cfor.SortedTerms``), and
OrdinalMap.build forms the union with ``format.sorted_codes`` (one
Arrow dictionary-encode + sort, the merge's idiom), so no Python string
is made per term. Scale note: the union runs on the caller — the
vocabulary is the memory-bounded side (≪ postings); a *global*
vocabulary with its df/ttf comes from the segment dictionaries
(``builder.global_term_stats``), not from this reader-side join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util.cfor import SortedTerms
from .format import sorted_codes

__all__ = ["SeekStatus", "TermsOrdEnum", "OrdinalMap"]


class SeekStatus:
    """TermsEnum.SeekStatus (core/index/TermsEnum.kt)."""

    END = "END"
    FOUND = "FOUND"
    NOT_FOUND = "NOT_FOUND"


class TermsOrdEnum:
    """Ord-positioned terms enum over one segment's field slice of the
    sorted Parquet term dictionary (OrdsSegmentTermsEnum role)."""

    def __init__(self, segment_reader, field: str = "text"):
        self._lo, self._hi = segment_reader.field_range(field)
        self._terms = segment_reader.term_search
        self._ord = -1  # unpositioned

    def size(self) -> int:
        return self._hi - self._lo

    # -- positioning ---------------------------------------------------------

    def next(self) -> str | None:
        """Advance; None past the last term (ord then stays at size)."""
        if self._ord + 1 >= self.size():
            self._ord = self.size()
            return None
        self._ord += 1
        return self.term()

    def ord(self) -> int:
        if self._ord < 0 or self._ord >= self.size():
            raise ValueError("enum is unpositioned")
        return self._ord

    def term(self) -> str | None:
        if self._ord < 0 or self._ord >= self.size():
            return None
        return self._terms[self._lo + self._ord]

    # -- seeking -------------------------------------------------------------

    def seek_exact_ord(self, ord: int) -> None:
        """seekExact(long) — caller promises 0 <= ord < size."""
        if not (0 <= ord < self.size()):
            raise IndexError(f"ord {ord} outside [0, {self.size()})")
        self._ord = int(ord)

    def seek_exact(self, term: str) -> bool:
        i = self._terms.find(term, self._lo, self._hi)
        if i >= 0:
            self._ord = i - self._lo
            return True
        return False

    def seek_ceil(self, term: str) -> str:
        """Position on the smallest term >= ``term``; returns the
        SeekStatus (END leaves the enum unpositioned, like the
        exhausted reference enum)."""
        status, i = _seek_ceil(self._terms, term, self._lo, self._hi)
        self._ord = i - self._lo  # size() at END
        return status


def _seek_ceil(terms: SortedTerms, term: str, lo: int,
               hi: int) -> tuple[str, int]:
    """(SeekStatus, row) of the smallest term >= ``term`` in rows
    ``[lo, hi)``; row is ``hi`` at END."""
    i = terms.ceil(term, lo, hi)
    if i >= hi:
        return SeekStatus.END, hi
    return (SeekStatus.FOUND if terms[i] == term
            else SeekStatus.NOT_FOUND), i


class OrdinalMap:
    """Global ordinals over N segment term dictionaries
    (core/index/OrdinalMap.kt).

    ``global_ords[s]`` maps segment ``s``'s per-field ords to ords in
    the merged distinct vocabulary ``values`` (a ``SortedTerms`` over
    the sorted Arrow union, so global ords compare like terms — the
    invariant OrdinalMap guarantees).
    ``first_segment`` / ``first_segment_ord`` record, per global ord,
    the first segment containing the term (getFirstSegmentNumber /
    getFirstSegmentOrd)."""

    def __init__(self, values: SortedTerms,
                 global_ords: list[np.ndarray],
                 first_segment: np.ndarray,
                 first_segment_ord: np.ndarray):
        self.values = values
        self.global_ords = global_ords
        self.first_segment = first_segment
        self.first_segment_ord = first_segment_ord

    @classmethod
    def build(cls, segment_readers, field: str = "text") -> "OrdinalMap":
        vocabs = [sr.field_terms(field)[0] for sr in segment_readers]
        codes, merged = sorted_codes(pa.chunked_array(
            vocabs, pa.string()).combine_chunks())
        bounds = np.cumsum([0] + [len(v) for v in vocabs])
        global_ords = [codes[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        first_segment = np.full(len(merged), -1, dtype=np.int64)
        first_segment_ord = np.full(len(merged), -1, dtype=np.int64)
        for s in range(len(vocabs) - 1, -1, -1):
            g = global_ords[s]
            first_segment[g] = s
            first_segment_ord[g] = np.arange(len(g), dtype=np.int64)
        return cls(SortedTerms(merged), global_ords, first_segment,
                   first_segment_ord)

    @property
    def value_count(self) -> int:
        return len(self.values)

    def global_ord(self, segment: int, segment_ord: int) -> int:
        return int(self.global_ords[segment][segment_ord])

    def term_at(self, global_ord: int) -> str:
        return self.values[global_ord]

    def lookup_term(self, term: str) -> int:
        """Global ord of ``term``, or -1 if absent (lookupTerm role)."""
        return self.values.find(term)

    def seek_ceil(self, term: str) -> tuple[str, int]:
        """(SeekStatus, global ord) of the smallest term >= ``term``;
        ord is value_count at END (the merged-enum contract used by the
        term_ords_seek driver entry)."""
        return _seek_ceil(self.values, term, 0, len(self.values))

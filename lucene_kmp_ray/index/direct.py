"""DirectPostingsFormat role — a field's postings fully decoded in RAM.

The reference's ``codecs/memory/DirectPostingsFormat.kt`` wraps the
on-disk postings and, at open, loads every term's docs/freqs into plain
arrays ("bytes are loaded up-front"), trading heap for the fastest
possible postings access — the hot-segment / testing codec.

Engine form: one read of the field's contiguous ``postings.doc`` range,
then ONE bulk C pass per stream kind (``cfor.decode_streams_at``) into
CSR arrays::

    docs_flat[offs[o]:offs[o+1]], freqs_flat[offs[o]:offs[o+1]]

keyed by the field-local term ord (index/ords.py). ``SegmentReader``
consults an attached DirectField before its lazy per-term record
path, so every search path that goes through ``postings()`` gets the
in-memory postings transparently.

Scale note: direct mode holds ~``sum_ttf`` int64s per field per actor —
size it like the reference does (hot segments, small-but-hammered
indexes), not as the default; the lazy per-term reader stays the
100-TB path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DirectField"]


class DirectField:
    """One field's postings decoded up-front (DirectPostingsFormat)."""

    def __init__(self, segment_reader, field: str = "text"):
        lo, hi = segment_reader.field_range(field)
        self.field = field
        self._lo = lo
        self._terms = segment_reader.term_search
        self.size = hi - lo
        p = segment_reader.postings_file
        self.df = p.df[lo:hi].astype(np.int64)
        self.ttf = p.ttf[lo:hi].astype(np.int64)
        self.docs_flat, self.freqs_flat, self.offs = p.docs_freqs(
            np.arange(lo, hi, dtype=np.int64))

    # -- lookups --------------------------------------------------------------

    def ord_of(self, term: str) -> int:
        """Field-local ord, or -1 (the DirectField binary search)."""
        i = self._terms.find(term, self._lo, self._lo + self.size)
        return i - self._lo if i >= 0 else -1

    def postings_ord(self, ord: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.offs[ord], self.offs[ord + 1]
        return self.docs_flat[s:e], self.freqs_flat[s:e]

    def postings(self, term: str):
        o = self.ord_of(term)
        if o < 0:
            return None
        return self.postings_ord(o)

    def doc_freq(self, term: str) -> int:
        o = self.ord_of(term)
        return int(self.df[o]) if o >= 0 else 0

    def total_term_freq(self, term: str) -> int:
        o = self.ord_of(term)
        return int(self.ttf[o]) if o >= 0 else 0

    def ram_bytes_used(self) -> int:
        """ramBytesUsed() accountable role."""
        return (self.docs_flat.nbytes + self.freqs_flat.nbytes +
                self.df.nbytes + self.ttf.nbytes + self.offs.nbytes)

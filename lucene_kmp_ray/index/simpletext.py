"""SimpleText postings export/import — the human-readable debug codec.

Reference: ``codecs/simpletext/SimpleTextFieldsWriter.kt`` (exact line
markers ``field ``/``  term ``/``    doc ``/``      freq ``/
``      pos ``, END sentinel) and ``SimpleTextUtil.kt`` (newline/escape
byte protocol, zero-padded CRC32 checksum footer, checkFooter
verification). Like the reference's codec — "FOR RECREATIONAL USE ONLY",
a debugging surface, not a storage format — so the per-term write loop
is deliberately simple Python; the Parquet segment format remains the
real store.

The export walks a SegmentReader's term dictionary in (field, term)
order and emits GLOBAL doc ids (this engine's stable doc key — the
SimpleText docID role). ``read_simpletext`` parses the format back
(escape-aware line reader = SimpleTextUtil.readLine) and verifies the
checksum footer, so round-trip tests close the loop.
"""

from __future__ import annotations

import zlib

NEWLINE = 0x0A
ESCAPE = 0x5C
FIELD = b"field "
TERM = b"  term "
DOC = b"    doc "
FREQ = b"      freq "
POS = b"      pos "
END = b"END"
CHECKSUM = b"checksum "


def _escaped(data: bytes) -> bytes:
    out = bytearray()
    for b in data:
        if b in (NEWLINE, ESCAPE):
            out.append(ESCAPE)
        out.append(b)
    return bytes(out)


def export_segment_postings(sr, fields: tuple[str, ...] | None = None
                            ) -> bytes:
    """Serialize one segment's postings (with positions) in the
    SimpleText layout; returns the file bytes including the END line
    and checksum footer."""
    out = bytearray()

    def line(marker: bytes, payload: str = "") -> None:
        out.extend(marker)
        out.extend(_escaped(payload.encode("utf-8")))
        out.append(NEWLINE)

    terms = sr.terms_table  # (field, term) dictionary, sorted
    doc_ids = sr.doc_meta["doc_id"].to_numpy()
    field_col = terms["field"].to_pylist() if "field" in terms.column_names \
        else ["text"] * terms.num_rows
    term_col = sr.term_search  # decodes one term per TERM line
    want = set(fields) if fields is not None else None
    cur_field = None
    for i in range(terms.num_rows):
        f = field_col[i]
        if want is not None and f not in want:
            continue
        if f != cur_field:
            line(FIELD, f)
            cur_field = f
        line(TERM, term_col[i])
        docs, freqs, pos = sr.postings_at(i, positions=True)
        p = 0
        for d, fr in zip(docs, freqs):
            line(DOC, str(int(doc_ids[d])))
            line(FREQ, str(int(fr)))
            for k in range(int(fr)):
                line(POS, str(int(pos[p])))
                p += 1
    line(END)
    crc = zlib.crc32(bytes(out)) & 0xFFFFFFFF
    line(CHECKSUM, str(crc).rjust(20, "0"))
    return bytes(out)


def _read_lines(data: bytes):
    """Escape-aware line splitter (SimpleTextUtil.readLine)."""
    lines, cur, i = [], bytearray(), 0
    while i < len(data):
        b = data[i]
        if b == ESCAPE:
            cur.append(data[i + 1])
            i += 2
            continue
        if b == NEWLINE:
            lines.append(bytes(cur))
            cur = bytearray()
        else:
            cur.append(b)
        i += 1
    if cur:
        lines.append(bytes(cur))
    return lines


def read_simpletext(data: bytes) -> dict:
    """Parse SimpleText postings back to
    ``{field: {term: [(doc, freq, [positions...]), ...]}}``, verifying
    the checksum footer (SimpleTextUtil.checkFooter): the CRC of
    everything before the checksum line must match its value."""
    nl = data.rfind(b"\n", 0, len(data) - 1)
    footer = data[nl + 1:]
    if not footer.startswith(CHECKSUM):
        raise ValueError("missing checksum footer")
    expect = int(footer[len(CHECKSUM):].strip())
    actual = zlib.crc32(data[:nl + 1]) & 0xFFFFFFFF
    if expect != actual:
        raise ValueError(f"checksum failed (hardware problem?): expected="
                         f"{expect} actual={actual}")
    out: dict = {}
    field = term = None
    postings = None
    for raw in _read_lines(data[:nl + 1]):
        if raw == END:
            break
        if raw.startswith(FIELD):
            field = raw[len(FIELD):].decode("utf-8")
            out[field] = {}
        elif raw.startswith(TERM):
            term = raw[len(TERM):].decode("utf-8")
            postings = out[field][term] = []
        elif raw.startswith(DOC):
            postings.append((int(raw[len(DOC):]), 0, []))
        elif raw.startswith(FREQ):
            d, _, p = postings[-1]
            postings[-1] = (d, int(raw[len(FREQ):]), p)
        elif raw.startswith(POS):
            postings[-1][2].append(int(raw[len(POS):]))
        else:
            raise ValueError(f"unexpected line: {raw[:40]!r}")
    return out

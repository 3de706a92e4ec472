"""The C block codec against its numpy references (tests/_ref_codec.py):
the fused positional skip-read must agree exactly with the masked decode
+ gather, and the block encoders (``forutil.encode_blocks`` /
``encode_blocks_pfor`` and the postings writer ``cfor.write_postings``)
must write the same bytes as the numpy matrix encoders, over random
posting shapes, widths and PFor exception patterns."""

import _ref_codec as ref
import numpy as np
import pytest

from lucene_kmp_ray.util import forutil as fu
from lucene_kmp_ray.util.cfor import positions_select, write_postings


def _numpy_reference(enc, n, mask, s, e):
    return ref.positions_select(enc, None, n, mask, s, e, int((e - s).sum()))


@pytest.mark.parametrize("encoder", [fu.encode_blocks,
                                     fu.encode_blocks_pfor])
def test_cfor_fuzz_vs_numpy(encoder):
    rng = np.random.default_rng(13)
    for trial in range(300):
        n = int(rng.integers(1, 700))
        # mixed magnitudes: mostly small deltas, occasional large outliers
        # (PFor exception bait), some zero-heavy runs (width-0 blocks)
        style = trial % 3
        if style == 0:
            vals = rng.integers(0, 4, size=n)
        elif style == 1:
            vals = rng.integers(0, 50, size=n)
            out = rng.random(n) < 0.05
            vals[out] = rng.integers(1 << 10, 1 << 17, size=int(out.sum()))
        else:
            vals = rng.integers(0, 1 << int(rng.integers(1, 30)), size=n)
        vals = vals.astype(np.int64)
        enc = encoder(vals)
        # random NON-EMPTY entry ranges over the occurrence stream (the
        # production contract: every selected posting entry has freq >= 1)
        n_entries = int(rng.integers(1, 12))
        bounds = np.sort(rng.integers(0, n + 1, size=2 * n_entries))
        s, e = bounds[0::2].astype(np.int64), bounds[1::2].astype(np.int64)
        keep = e > s
        s, e = s[keep], e[keep]
        if len(s) == 0:
            s, e = np.array([0], np.int64), np.array([n], np.int64)
        nblocks = (n + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
        # the caller's mask: blocks any [s,e) touches (plus random extras
        # to prove over-decoding is harmless)
        mask = np.zeros(nblocks, dtype=bool)
        for a, b in zip(s, e):
            if b > a:
                mask[a // fu.BLOCK_SIZE:(b - 1) // fu.BLOCK_SIZE + 1] = True
        mask |= rng.random(nblocks) < 0.2
        want = _numpy_reference(enc, n, mask, s, e)
        pm = fu.block_stream_meta(enc, n)
        got = positions_select(enc, pm, n, mask, s, e,
                               int((e - s).sum()))
        assert got is not None
        assert np.array_equal(got, want), (trial, n, s.tolist(), e.tolist())


def test_cfor_wide_width_tail():
    """Widths > 57 and buffer-tail values exercise the byte-assembly
    fallback inside the C decoder."""
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 1 << 62, size=200).astype(np.int64)
    enc = fu.encode_blocks(vals)
    n = len(vals)
    nblocks = (n + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    mask = np.ones(nblocks, dtype=bool)
    s = np.array([0, 120, n - 1], np.int64)
    e = np.array([5, 140, n], np.int64)
    want = _numpy_reference(enc, n, mask, s, e)
    got = positions_select(enc, fu.block_stream_meta(enc, n), n, mask,
                           s, e, int((e - s).sum()))
    assert np.array_equal(got, want)


def _rows_of(stream, starts):
    """Block r of a matrix encoder's stream: each row is one block."""
    ends = np.append(starts[1:], len(stream))
    return [stream[a:b].tobytes() for a, b in zip(starts, ends)]


def test_c_encode_matrix_fuzz_vs_numpy():
    """The public block encoders, one row at a time, must write the bytes
    of the numpy for/pfor matrix encoders over random widths, counts and
    exception patterns (incl. all-zero rows, width-64 values, partial
    tails)."""
    rng = np.random.default_rng(41)
    for trial in range(300):
        R = int(rng.integers(1, 40))
        wbits = int(rng.integers(1, 64))
        m = rng.integers(0, 1 << wbits, size=(R, fu.BLOCK_SIZE),
                         dtype=np.int64).astype(np.uint64)
        if trial % 7 == 0:      # exception bait: a few huge outliers
            m[rng.integers(0, R), rng.integers(0, fu.BLOCK_SIZE)] = \
                np.uint64((1 << 62) + 5)
        if trial % 11 == 0:     # all-zero rows
            m[rng.integers(0, R)] = 0
        counts = rng.integers(1, fu.BLOCK_SIZE + 1, R)
        for r in range(R):
            m[r, counts[r]:] = 0
        for pub, want in ((fu.encode_blocks, ref.for_blocks_matrix),
                          (fu.encode_blocks_pfor, ref.pfor_blocks_matrix)):
            rows = _rows_of(*want(m, counts))
            for r in range(R):
                vals = m[r, :counts[r]].astype(np.int64)
                enc = pub(vals)
                assert enc == rows[r], (trial, pub.__name__, r)
                # and the block must round-trip through the decoder
                assert np.array_equal(fu.decode_blocks(enc, len(vals)),
                                      vals), (trial, r)


def _pfor_rows_through_writer(vals, row_ptr):
    """Rows as the position streams of one-doc terms (row r = term r's
    position deltas): ``write_postings``' ``.pos`` bytes and pointers."""
    counts = np.diff(row_ptr)
    R = len(counts)
    stats, _, pos = write_postings(np.arange(R + 1), np.zeros(R, np.int64),
                                   counts, vals, np.ones(1, np.uint8))
    return pos, stats[3]


def test_c_encode_csr_fuzz_vs_matrix():
    """Flat values cut into rows of at most 128: the public encoders per
    row, and ``write_postings``' position records, must be byte-identical
    to the numpy ``encode_csr`` (the matrix encoders over the equivalent
    zero-padded rows: padding has bit length 0 and can never be an
    exception)."""
    rng = np.random.default_rng(97)
    for trial in range(200):
        R = int(rng.integers(1, 40))
        counts = rng.integers(1, fu.BLOCK_SIZE + 1, R)
        wbits = int(rng.integers(1, 60))
        vals = rng.integers(0, 1 << wbits, size=int(counts.sum()),
                            dtype=np.int64)
        if trial % 5 == 0:
            vals[rng.integers(0, len(vals))] = (1 << 61) + 3
        row_ptr = np.append(0, np.cumsum(counts))
        for pfor in (False, True):
            want, starts = ref.encode_csr(vals, row_ptr, pfor)
            enc = fu.encode_blocks_pfor if pfor else fu.encode_blocks
            got = b"".join(enc(vals[row_ptr[r]:row_ptr[r + 1]])
                           for r in range(R))
            assert got == want.tobytes(), (trial, pfor)
        pos, ptr = _pfor_rows_through_writer(vals, row_ptr)
        assert np.array_equal(pos, want) and np.array_equal(ptr, starts), \
            trial


def test_c_encode_csr_many_short_rows():
    """The PFor width choice over the rows a flush or merge mostly
    encodes — one to three values — plus full rows, with zero, tiny,
    exception-bait and 64-bit values: the public encoders and
    ``write_postings``' position records are byte-identical to the numpy
    ``encode_csr``."""
    rng = np.random.default_rng(5)
    for trial in range(100):
        R = int(rng.integers(1, 400))
        counts = rng.integers(1, 4, R)
        counts[rng.random(R) < 0.05] = fu.BLOCK_SIZE
        vals = rng.integers(0, 4, size=int(counts.sum()), dtype=np.int64)
        for lo, hi, p in ((0, 1, 0.2), (1 << 9, 1 << 20, 0.03),
                          (1 << 62, (1 << 63) - 1, 0.01)):
            hit = rng.random(len(vals)) < p
            vals[hit] = rng.integers(lo, hi, size=int(hit.sum()),
                                     dtype=np.int64)
        if trial % 9 == 0:
            vals[:] = 0
        row_ptr = np.append(0, np.cumsum(counts))
        for pfor in (False, True):
            want, starts = ref.encode_csr(vals, row_ptr, pfor)
            enc = fu.encode_blocks_pfor if pfor else fu.encode_blocks
            got = b"".join(enc(vals[row_ptr[r]:row_ptr[r + 1]])
                           for r in range(R))
            assert got == want.tobytes(), (trial, pfor)
        pos, ptr = _pfor_rows_through_writer(vals, row_ptr)
        assert np.array_equal(pos, want) and np.array_equal(ptr, starts), \
            trial


def test_encoders_reject_negative_values():
    for enc in (fu.encode_blocks, fu.encode_blocks_pfor):
        with pytest.raises(ValueError):
            enc(np.array([3, -1], np.int64))
        assert enc(np.empty(0, np.int64)) == b""


def test_union_docs_c_path_matches_numpy(tmp_path, monkeypatch):
    """union_docs through decode_streams_at must equal the numpy
    per-stream reference decode on a real segment."""
    import pyarrow as pa

    import lucene_kmp_ray.util.cfor as cf
    from lucene_kmp_ray.index.format import build_and_write_segment
    from lucene_kmp_ray.index.reader import SegmentReader

    rng = np.random.default_rng(19)
    words = ["w%04d" % i for i in range(800)]
    texts = [" ".join(rng.choice(words, rng.integers(1, 120)))
             for _ in range(600)]   # head terms exceed one block
    docs = pa.table({"doc_id": pa.array(np.arange(600), pa.int64()),
                     "url": pa.array([f"u{i}" for i in range(600)]),
                     "text": pa.array(texts, pa.string())})
    build_and_write_segment(docs, 0, str(tmp_path))
    import json
    meta = json.load(open(tmp_path / "segments" / "seg=00000"
                          / "manifest.json"))
    meta["dir"] = "segments/seg=00000"
    sr = SegmentReader(str(tmp_path), meta)
    idxs = np.arange(sr.terms_table.num_rows)
    a = sr.union_docs(idxs)
    monkeypatch.setattr(cf, "decode_streams_at", ref.decode_streams)
    b = sr.union_docs(idxs)
    assert np.array_equal(a, b)


# --- hypothesis properties: the C kernels and numpy references are a
# round-trip-identical codec for ANY non-negative int64 payload ---------
from hypothesis import given, settings
from hypothesis import strategies as st

_vals = st.lists(st.integers(0, (1 << 62) - 1), min_size=1, max_size=600)


@settings(max_examples=60, deadline=None)
@given(vals=_vals, pfor=st.booleans())
def test_hypothesis_encode_decode_roundtrip(vals, pfor):
    v = np.asarray(vals, dtype=np.int64)
    enc = fu.encode_blocks_pfor(v) if pfor else fu.encode_blocks(v)
    out = fu.decode_blocks(enc, len(v))
    assert np.array_equal(out, v)


@settings(max_examples=40, deadline=None)
@given(vals=_vals, pfor=st.booleans())
def test_hypothesis_c_encode_matches_numpy(vals, pfor):
    v = np.asarray(vals, dtype=np.int64)
    n = len(v)
    nblocks = (n + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    padded = np.zeros(nblocks * fu.BLOCK_SIZE, dtype=np.uint64)
    padded[:n] = v.astype(np.uint64)
    counts = np.full(nblocks, fu.BLOCK_SIZE, dtype=np.int64)
    counts[-1] = n - (nblocks - 1) * fu.BLOCK_SIZE
    m = padded.reshape(nblocks, fu.BLOCK_SIZE)
    pub = fu.encode_blocks_pfor if pfor else fu.encode_blocks
    want = ref.pfor_blocks_matrix if pfor else ref.for_blocks_matrix
    assert pub(v) == want(m, counts)[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(lists=st.lists(_vals, min_size=1, max_size=12), pfor=st.booleans())
def test_hypothesis_bulk_stream_decode(lists, pfor):
    from lucene_kmp_ray.util.cfor import decode_streams_at
    enc = fu.encode_blocks_pfor if pfor else fu.encode_blocks
    bufs = [enc(np.asarray(v, np.int64)) for v in lists]
    counts = np.array([len(v) for v in lists], np.int64)
    starts = np.cumsum([0] + [len(b) for b in bufs[:-1]])
    out, voffs = decode_streams_at(np.frombuffer(b"".join(bufs), np.uint8),
                                   starts, counts)
    for i, v in enumerate(lists):
        assert np.array_equal(out[voffs[i]:voffs[i + 1]],
                              np.asarray(v, np.int64))

"""Delta+FOR posting-block codec round-trips (ForUtil/ForDeltaUtil semantics)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_kmp_ray.util import forutil as fu


def test_block_size_matches_reference():
    assert fu.BLOCK_SIZE == 128  # ForUtil.kt:121


def test_pack_roundtrip_widths():
    rng = np.random.default_rng(1)
    for w in range(0, 33):
        vals = rng.integers(0, 2**w if w else 1, size=300, dtype=np.int64)
        assert np.array_equal(fu.unpack_ints(fu.pack_ints(vals, w), 300, w), vals)


def test_encode_blocks_roundtrip_sizes():
    rng = np.random.default_rng(2)
    for n in [0, 1, 127, 128, 129, 255, 256, 1000, 5000]:
        vals = rng.integers(0, 10**6, size=n, dtype=np.int64)
        assert np.array_equal(fu.decode_blocks(fu.encode_blocks(vals), n), vals)


def test_delta_roundtrip_docids():
    rng = np.random.default_rng(3)
    docs = np.sort(rng.choice(10**7, size=4096, replace=False))
    d = fu.delta_encode(docs)
    assert (d[1:] >= 1).all()  # strictly increasing docIDs → gaps >= 1
    assert np.array_equal(fu.delta_decode(d), docs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=400))
def test_encode_blocks_property(vals):
    v = np.array(vals, dtype=np.int64)
    assert np.array_equal(fu.decode_blocks(fu.encode_blocks(v), len(v)), v)


# ------------------------------- PFor ------------------------------------
def test_pfor_roundtrip_outliers():
    import numpy as np
    from lucene_kmp_ray.util.forutil import (decode_blocks,
                                             encode_blocks,
                                             encode_blocks_pfor)
    rng = np.random.default_rng(7)
    # mostly-small values with rare huge outliers: PFor's home turf
    v = rng.integers(0, 4, size=1000)
    out_pos = rng.choice(1000, size=20, replace=False)
    v[out_pos] = rng.integers(100, 900, size=20)
    enc = encode_blocks_pfor(v)
    assert decode_blocks(enc, len(v)).tolist() == v.tolist()
    assert len(enc) < len(encode_blocks(v)), "patching must pay here"


def test_pfor_roundtrip_edges():
    import numpy as np
    from lucene_kmp_ray.util.forutil import decode_blocks, encode_blocks_pfor
    cases = [
        np.array([], dtype=np.int64),
        np.zeros(5, dtype=np.int64),
        np.array([7]),
        np.arange(128),                       # exactly one full block
        np.arange(129),                       # full + 1-tail
        np.full(300, 2**40),                  # huge uniform (no patching)
        np.r_[np.zeros(127, np.int64), 2**33],  # single outlier, w=0 base
    ]
    for v in cases:
        enc = encode_blocks_pfor(v)
        assert decode_blocks(enc, len(v)).tolist() == v.tolist(), v[:8]


def test_pfor_property_random():
    import numpy as np
    from lucene_kmp_ray.util.forutil import decode_blocks, encode_blocks_pfor
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 700))
        base = rng.integers(0, int(rng.integers(2, 50)), size=n)
        k = int(rng.integers(0, min(20, n)))
        if k:
            base[rng.choice(n, size=k, replace=False)] += \
                rng.integers(1, 2**int(rng.integers(4, 30)), size=k)
        enc = encode_blocks_pfor(base)
        assert decode_blocks(enc, n).tolist() == base.tolist()


def test_decode_blocks_masked_equivalence():
    import numpy as np
    from _ref_codec import decode_blocks_masked

    from lucene_kmp_ray.util.forutil import (BLOCK_SIZE, decode_blocks,
                                             encode_blocks_pfor)
    rng = np.random.default_rng(11)
    v = rng.integers(0, 50, size=1000)
    v[rng.choice(1000, 12, replace=False)] += 5000  # force patched blocks
    enc = encode_blocks_pfor(v)
    full = decode_blocks(enc, len(v))
    nblocks = (len(v) + BLOCK_SIZE - 1) // BLOCK_SIZE
    for trial in range(5):
        mask = rng.random(nblocks) < 0.5
        out = decode_blocks_masked(enc, len(v), mask)
        for b in range(nblocks):
            lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, len(v))
            if mask[b]:
                assert out[lo:hi].tolist() == full[lo:hi].tolist()
            else:
                assert not out[lo:hi].any()


def test_codec_roundtrip_hypothesis():
    """Property-based round-trips of the FOR/PFor codecs (hypothesis):
    arbitrary non-negative int lists survive encode->decode for both
    block codecs."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from lucene_kmp_ray.util import forutil as fu

    vals_strategy = st.lists(
        st.integers(min_value=0, max_value=(1 << 50) - 1),
        min_size=0, max_size=600)

    @settings(max_examples=60, deadline=None)
    @given(vals_strategy)
    def roundtrip(vals):
        v = np.array(vals, dtype=np.int64)
        assert np.array_equal(
            fu.decode_blocks(fu.encode_blocks(v), len(v)), v)
        assert np.array_equal(
            fu.decode_blocks(fu.encode_blocks_pfor(v), len(v)), v)

    roundtrip()

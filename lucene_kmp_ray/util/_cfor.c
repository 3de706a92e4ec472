/* Fused positional skip-read: masked FOR/PFor block decode + per-entry
 * position gather for positions_for_entries (index/reader.py).
 *
 * Semantics are EXACTLY the numpy path's (which remains the fallback and
 * the reference, fuzz-asserted by tests/test_cfor.py):
 *   1. decode only the 128-value blocks the caller's mask selects
 *      (little-endian bit-packed width-w values, PFor exceptions as
 *      (pos_u8, high_u8) pairs OR-ed in at << width);
 *   2. per selected entry [s,e), cumulative-sum its delta slice into
 *      absolute positions, concatenated in entry order.
 *
 * meta rows are block_stream_meta()'s (payload_start, width, n_exc,
 * payload_bytes, total_bytes).
 */
#include <stdint.h>
#include <string.h>

#define BLOCK_SIZE 128

static void decode_block(const uint8_t *mv, int64_t mvlen,
                         const int64_t *m /* meta row */, int64_t cnt,
                         int64_t *out) {
    int64_t pstart = m[0], w = m[1], ne = m[2], pbytes = m[3];
    if (w == 0) {
        memset(out, 0, (size_t)cnt * sizeof(int64_t));
    } else {
        const uint8_t *p = mv + pstart;
        /* values whose 8-byte little-endian window stays inside the
         * buffer decode via one unaligned load; the stream tail (and any
         * width > 57) falls back to byte assembly */
        int64_t L = mvlen - pstart - 8;  /* last byte offset with a full
                                            8-byte window in-buffer */
        int64_t safe;
        if (w > 57 || L < 0) {
            safe = 0;
        } else {
            safe = (8 * L + 7) / w + 1;  /* max i with (i*w)>>3 <= L, +1 */
            if (safe > cnt) safe = cnt;
        }
        uint64_t mask = (w >= 64) ? ~0ULL : ((1ULL << w) - 1);
        for (int64_t i = 0; i < safe; i++) {
            int64_t bito = i * w;
            uint64_t win;
            memcpy(&win, p + (bito >> 3), 8); /* little-endian host */
            out[i] = (int64_t)((win >> (bito & 7)) & mask);
        }
        for (int64_t i = safe; i < cnt; i++) {
            int64_t bito = i * w;
            int64_t byo = bito >> 3;
            int shift = (int)(bito & 7);
            /* up to 9 bytes may carry a 64-bit value at a bit offset */
            uint64_t win = 0;
            uint64_t hi9 = 0;
            int64_t avail = mvlen - (pstart + byo);
            int need = (int)((w + shift + 7) >> 3);
            if (need > (int)avail) need = (int)avail;
            for (int b = 0; b < need && b < 8; b++)
                win |= (uint64_t)p[byo + b] << (8 * b);
            if (need > 8) hi9 = (uint64_t)p[byo + 8];
            uint64_t v = win >> shift;
            if (shift && need > 8) v |= hi9 << (64 - shift);
            out[i] = (int64_t)(v & mask);
        }
    }
    const uint8_t *exc = mv + pstart + pbytes;
    for (int64_t k = 0; k < ne; k++) {
        int64_t pos = exc[2 * k];
        if (pos < cnt)
            out[pos] |= (int64_t)exc[2 * k + 1] << m[1];
    }
}

/* mask: uint8 per block (nonzero = decode).  scratch: caller-allocated
 * n-value workspace (unselected regions are never read).  out_flat:
 * sum(e-s) values.  Returns the number of values written. */
int64_t positions_select(const uint8_t *mv, int64_t mvlen,
                         const int64_t *meta, int64_t nblocks, int64_t n,
                         const uint8_t *mask,
                         const int64_t *s, const int64_t *e, int64_t nsel,
                         int64_t *scratch, int64_t *out_flat) {
    for (int64_t b = 0; b < nblocks; b++) {
        if (!mask[b]) continue;
        int64_t blk_lo = b * BLOCK_SIZE;
        int64_t cnt = (b == nblocks - 1) ? n - blk_lo : BLOCK_SIZE;
        decode_block(mv, mvlen, meta + 5 * b, cnt, scratch + blk_lo);
    }
    int64_t j = 0;
    for (int64_t k = 0; k < nsel; k++) {
        int64_t acc = 0;
        for (int64_t i = s[k]; i < e[k]; i++) {
            acc += scratch[i];
            out_flat[j++] = acc;
        }
    }
    return j;
}

/* ---- bulk block ENCODE (for_blocks_matrix / pfor_blocks_matrix core) ----
 *
 * The numpy encoders in util/forutil.py remain the fallback and the
 * semantic reference (tests/test_cfor.py fuzzes byte-identity).  Width and
 * exception selection reproduce pfor_blocks_matrix exactly:
 *   cand_w[e] = (e+1)-th largest bit length in the row (multiplicity kept),
 *   nexc[e]   = count(bl > cand_w[e]) over all 128 columns,
 *   valid     = (max_bl - cand_w[e]) <= 8 && nexc[e] <= 7,
 *   cost      = (cnt*w + 7)/8 + (nexc ? 1 + 2*nexc : 0),  first minimum wins.
 */

static inline int bitlen_u64(uint64_t v) {
    return v ? 64 - __builtin_clzll(v) : 0;
}

/* pass 1: per-row width + exception count.  pfor=0 -> plain FOR. */
void encode_meta(const uint64_t *resh, int64_t R, int pfor,
                 const int64_t *counts, int64_t *widths, int64_t *nexc) {
    for (int64_t r = 0; r < R; r++) {
        const uint64_t *row = resh + r * BLOCK_SIZE;
        int hist[65];
        int maxw = 0;
        if (pfor) memset(hist, 0, sizeof hist);
        for (int i = 0; i < BLOCK_SIZE; i++) {
            int b = bitlen_u64(row[i]);
            if (b > maxw) maxw = b;
            if (pfor) hist[b]++;
        }
        if (!pfor) { widths[r] = maxw; nexc[r] = 0; continue; }
        /* top-8 bit lengths descending, with multiplicity */
        int cand[8], k = 0;
        for (int w = 64; w >= 0 && k < 8; w--)
            for (int c = hist[w]; c > 0 && k < 8; c--)
                cand[k++] = w;
        while (k < 8) cand[k++] = 0;   /* BLOCK_SIZE >= 8, never hit */
        /* suffix counts: gt[w] = #values with bl > w */
        int gt[66];
        gt[64] = 0;
        for (int w = 63; w >= 0; w--) gt[w] = gt[w + 1] + hist[w + 1];
        int64_t cnt = counts[r];
        int64_t best_cost = -1; int best_w = maxw, best_ne = 0;
        for (int e = 0; e < 8; e++) {
            int w = cand[e];
            int ne = gt[w];
            if (maxw - w > 8 || ne > 7) continue;
            int64_t cost = (cnt * w + 7) / 8 + (ne ? 1 + 2 * ne : 0);
            if (best_cost < 0 || cost < best_cost) {
                best_cost = cost; best_w = w; best_ne = ne;
            }
        }
        widths[r] = best_w; nexc[r] = best_ne;
    }
}

/* pass 2: write headers, packed payloads and exception pairs at the
 * caller-computed per-row starts (out must be zero-initialised). */
void encode_pack(const uint64_t *resh, int64_t R, const int64_t *counts,
                 const int64_t *widths, const int64_t *nexc,
                 const int64_t *starts, uint8_t *out) {
    for (int64_t r = 0; r < R; r++) {
        const uint64_t *row = resh + r * BLOCK_SIZE;
        int64_t w = widths[r], ne = nexc[r], cnt = counts[r];
        uint8_t *h = out + starts[r];
        uint8_t *p;
        if (ne) { h[0] = (uint8_t)(0x80 | w); h[1] = (uint8_t)ne; p = h + 2; }
        else    { h[0] = (uint8_t)w;          p = h + 1; }
        int64_t paybytes = (cnt * w + 7) / 8;
        uint64_t mask = (w >= 64) ? ~0ULL : ((1ULL << w) - 1);
        if (w) {
            for (int64_t i = 0; i < cnt; i++) {
                uint64_t v = row[i] & mask;
                if (!v) continue;
                int64_t bito = i * w;
                int64_t byo = bito >> 3;
                int sh = (int)(bito & 7);
                uint64_t lo = v << sh;
                int64_t lim = paybytes - byo;
                for (int b = 0; b < 8 && b < lim; b++)
                    p[byo + b] |= (uint8_t)(lo >> (8 * b));
                if (sh && w + sh > 64 && lim > 8)
                    p[byo + 8] |= (uint8_t)(v >> (64 - sh));
            }
        }
        if (ne) {
            uint8_t *exc = p + paybytes;
            int64_t j = 0;
            for (int i = 0; i < BLOCK_SIZE && j < ne; i++) {
                if (bitlen_u64(row[i]) > w) {
                    exc[2 * j] = (uint8_t)i;
                    exc[2 * j + 1] = (uint8_t)(row[i] >> w);
                    j++;
                }
            }
        }
    }
}

/* ---- CSR encode variants: row r's values are vals[row_ptr[r] ..
 * row_ptr[r+1]) (0 <= count <= 128), no padded matrix needed.  Width /
 * exception selection is identical to encode_meta: the numpy reference
 * pads rows with zeros, which contribute bit length 0 and can never be
 * exceptions, so top-8 slots beyond the row's values are 0 — reproduced
 * here by padding the candidate list with zeros. */

void encode_meta_csr(const int64_t *vals, const int64_t *row_ptr,
                     int64_t R, int pfor, int64_t *widths, int64_t *nexc) {
    for (int64_t r = 0; r < R; r++) {
        const int64_t *v = vals + row_ptr[r];
        int64_t cnt = row_ptr[r + 1] - row_ptr[r];
        int hist[65];
        int maxw = 0;
        if (pfor) memset(hist, 0, sizeof hist);
        for (int64_t i = 0; i < cnt; i++) {
            int b = bitlen_u64((uint64_t)v[i]);
            if (b > maxw) maxw = b;
            if (pfor) hist[b]++;
        }
        if (!pfor) { widths[r] = maxw; nexc[r] = 0; continue; }
        int cand[8], k = 0;
        for (int w = 64; w >= 0 && k < 8; w--)
            for (int c = hist[w]; c > 0 && k < 8; c--)
                cand[k++] = w;
        while (k < 8) cand[k++] = 0;   /* zero-padding's bit lengths */
        int gt[66];
        gt[64] = 0;
        for (int w = 63; w >= 0; w--) gt[w] = gt[w + 1] + hist[w + 1];
        int64_t best_cost = -1; int best_w = maxw, best_ne = 0;
        for (int e = 0; e < 8; e++) {
            int w = cand[e];
            int ne = gt[w];
            if (maxw - w > 8 || ne > 7) continue;
            int64_t cost = (cnt * w + 7) / 8 + (ne ? 1 + 2 * ne : 0);
            if (best_cost < 0 || cost < best_cost) {
                best_cost = cost; best_w = w; best_ne = ne;
            }
        }
        widths[r] = best_w; nexc[r] = best_ne;
    }
}

void encode_pack_csr(const int64_t *vals, const int64_t *row_ptr,
                     int64_t R, const int64_t *widths, const int64_t *nexc,
                     const int64_t *starts, uint8_t *out) {
    for (int64_t r = 0; r < R; r++) {
        const int64_t *row = vals + row_ptr[r];
        int64_t cnt = row_ptr[r + 1] - row_ptr[r];
        int64_t w = widths[r], ne = nexc[r];
        uint8_t *h = out + starts[r];
        uint8_t *p;
        if (ne) { h[0] = (uint8_t)(0x80 | w); h[1] = (uint8_t)ne; p = h + 2; }
        else    { h[0] = (uint8_t)w;          p = h + 1; }
        int64_t paybytes = (cnt * w + 7) / 8;
        uint64_t mask = (w >= 64) ? ~0ULL : ((1ULL << w) - 1);
        if (w) {
            for (int64_t i = 0; i < cnt; i++) {
                uint64_t x = (uint64_t)row[i] & mask;
                if (!x) continue;
                int64_t bito = i * w;
                int64_t byo = bito >> 3;
                int sh = (int)(bito & 7);
                uint64_t lo = x << sh;
                int64_t lim = paybytes - byo;
                for (int b = 0; b < 8 && b < lim; b++)
                    p[byo + b] |= (uint8_t)(lo >> (8 * b));
                if (sh && w + sh > 64 && lim > 8)
                    p[byo + 8] |= (uint8_t)(((uint64_t)row[i] & mask)
                                            >> (64 - sh));
            }
        }
        if (ne) {
            uint8_t *exc = p + paybytes;
            int64_t j = 0;
            for (int64_t i = 0; i < cnt && j < ne; i++) {
                if (bitlen_u64((uint64_t)row[i]) > w) {
                    exc[2 * j] = (uint8_t)i;
                    exc[2 * j + 1] = (uint8_t)((uint64_t)row[i] >> w);
                    j++;
                }
            }
        }
    }
}

/* ---- bulk stream decode: many independent FOR/PFor streams in one call
 * (the k-way merge reads every source posting list; per-term Python
 * decode_blocks calls dominated merge profile).  Stream s's bytes start
 * at buf + sstarts[s] and hold counts[s] values in self-describing
 * 128-value blocks; decoded values land at out + out_offs[s].  The
 * 8-byte fast window may read past a stream's end into the next stream's
 * bytes — those bits are masked off, matching decode_block's contract
 * (only reads past BUFLEN fall back to byte assembly). */
void decode_streams(const uint8_t *buf, int64_t buflen,
                    const int64_t *sstarts, const int64_t *counts,
                    int64_t ns, const int64_t *out_offs, int64_t *out) {
    for (int64_t s = 0; s < ns; s++) {
        const uint8_t *mv = buf + sstarts[s];
        int64_t mvlen = buflen - sstarts[s];
        int64_t n = counts[s];
        int64_t *o = out + out_offs[s];
        int64_t nblocks = (n + BLOCK_SIZE - 1) / BLOCK_SIZE;
        int64_t pos = 0;
        for (int64_t b = 0; b < nblocks; b++) {
            int64_t cnt = (b == nblocks - 1) ? n - b * BLOCK_SIZE
                                             : BLOCK_SIZE;
            int64_t h = mv[pos];
            int64_t meta[5];
            if (h & 0x80) {
                meta[1] = h & 0x7F;          /* width */
                meta[2] = mv[pos + 1];       /* n_exc */
                meta[0] = pos + 2;           /* payload start */
            } else {
                meta[1] = h; meta[2] = 0; meta[0] = pos + 1;
            }
            meta[3] = (cnt * meta[1] + 7) / 8;   /* payload bytes */
            decode_block(mv, mvlen, meta, cnt, o + b * BLOCK_SIZE);
            pos = meta[0] + meta[3] + 2 * meta[2];
        }
    }
}

/* ---- term dictionary search: byte-wise binary search over rows [lo, hi)
 * of a sorted Arrow string array (offsets int32, or int64 when wide; data
 * the values buffer).  UTF-8 byte order is code-point order, so this is
 * the order the dictionary was sorted in.
 *   mode 0: the row equal to key, or -1;
 *   mode 1: lower bound — the first row >= key (hi if none);
 *   mode 2: prefix end — the first row that is > key and does not start
 *           with key (hi if none), so rows [lower bound, prefix end) are
 *           exactly the rows that start with key.
 * A row r is "before" the answer iff cmp(r) < 0, where for modes 0/1 r
 * sorts below key and for mode 2 r's first len(key) bytes are <= key. */
int64_t term_search(const void *offsets, int wide, const uint8_t *data,
                    int64_t lo, int64_t hi, const uint8_t *key,
                    int64_t klen, int mode) {
    const int32_t *o32 = (const int32_t *)offsets;
    const int64_t *o64 = (const int64_t *)offsets;
    int64_t a = lo, b = hi;
    while (a < b) {
        int64_t mid = a + ((b - a) >> 1);
        int64_t s = wide ? o64[mid] : o32[mid];
        int64_t e = wide ? o64[mid + 1] : o32[mid + 1];
        int64_t rlen = e - s;
        int64_t n = rlen < klen ? rlen : klen;
        int c = n ? memcmp(data + s, key, (size_t)n) : 0;
        int before = (mode == 2) ? (c <= 0)
                                 : (c < 0 || (c == 0 && rlen < klen));
        if (before) a = mid + 1;
        else b = mid;
    }
    if (mode != 0) return a;
    if (a < hi) {
        int64_t s = wide ? o64[a] : o32[a];
        int64_t e = wide ? o64[a + 1] : o32[a + 1];
        if (e - s == klen &&
            (klen == 0 || memcmp(data + s, key, (size_t)klen) == 0))
            return a;
    }
    return -1;
}

/* C kernels of util/cfor.py: the block codec (fused positional skip-read,
 * bulk encode, checked stream and .doc record decode), the term
 * dictionary search, and the per-segment conjunction and BM25 bulk
 * scorer of search/searcher.py.
 *
 * Fused positional skip-read: masked FOR/PFor block decode + per-entry
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
#include <stdlib.h>
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

/* Row r's values are vals[row_ptr[r] .. row_ptr[r+1]) (0 <= count <=
 * 128).  The numpy reference encodes zero-padded 128-value rows; padding
 * has bit length 0 and is never an exception, so the top-8 candidates past
 * a short row's values are 0, as the zero fill of cand below makes them.
 * Pass 1: per-row width + exception count.  pfor=0 -> plain FOR. */
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
        while (k < 8) cand[k++] = 0;   /* the padding's bit lengths */
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

/* Pass 2: write headers, packed payloads and exception pairs at the
 * caller-computed per-row starts (out must be zero-initialised). */
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

/* Decode the n-value stream at buf[pos]; returns the offset just past it,
 * or -1 when a header, payload or exception lies past buflen or a block
 * header is impossible (width > 64, or 64 with exceptions).  The 8-byte
 * fast window may read past the stream into later bytes of buf: those
 * bits are masked off. */
static int64_t decode_stream_checked(const uint8_t *buf, int64_t buflen,
                                     int64_t pos, int64_t n, int64_t *out) {
    for (int64_t done = 0; done < n; done += BLOCK_SIZE) {
        int64_t cnt = n - done < BLOCK_SIZE ? n - done : BLOCK_SIZE;
        int64_t meta[5];
        if (pos >= buflen) return -1;
        int64_t h = buf[pos];
        if (h & 0x80) {
            if (pos + 1 >= buflen) return -1;
            meta[1] = h & 0x7F; meta[2] = buf[pos + 1]; meta[0] = pos + 2;
        } else {
            meta[1] = h; meta[2] = 0; meta[0] = pos + 1;
        }
        if (meta[1] > 64 || (meta[1] == 64 && meta[2])) return -1;
        meta[3] = (cnt * meta[1] + 7) / 8;
        int64_t end = meta[0] + meta[3] + 2 * meta[2];
        if (end > buflen) return -1;
        decode_block(buf, buflen, meta, cnt, out + done);
        pos = end;
    }
    return pos;
}

/* ---- bulk stream decode: many independent FOR/PFor streams in one call
 * (the k-way merge reads every source posting list; per-term Python
 * decode_blocks calls dominated merge profile).  Stream s's bytes start
 * at buf + sstarts[s] and hold counts[s] values in self-describing
 * 128-value blocks; decoded values land at out + out_offs[s].  Returns
 * 0, or -1 when a stream runs past buflen. */
int64_t decode_streams(const uint8_t *buf, int64_t buflen,
                       const int64_t *sstarts, const int64_t *counts,
                       int64_t ns, const int64_t *out_offs, int64_t *out) {
    for (int64_t s = 0; s < ns; s++)
        if (decode_stream_checked(buf, buflen, sstarts[s], counts[s],
                                  out + out_offs[s]) < 0)
            return -1;
    return 0;
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

/* ---- one .doc record (index/postings.py layout): the docs stream
 * (deltas), then the freqs stream unless every freq is 1, then block
 * metadata, which the caller leaves out of reclen.  Writes absolute docs
 * and freqs (ones without a freqs stream); returns the docs stream's byte
 * length, or -1 when a read would leave the record.  The numpy decode of
 * the split streams stays the fallback and the reference. */
int64_t decode_record(const uint8_t *rec, int64_t reclen, int64_t df,
                      int has_freqs, int64_t *docs, int64_t *freqs) {
    int64_t dl = decode_stream_checked(rec, reclen, 0, df, docs);
    if (dl < 0) return -1;
    uint64_t acc = 0;   /* wraps like numpy's int64 cumsum */
    for (int64_t i = 0; i < df; i++) {
        acc += (uint64_t)docs[i];
        docs[i] = (int64_t)acc;
    }
    if (has_freqs) {
        if (decode_stream_checked(rec, reclen, dl, df, freqs) < 0) return -1;
    } else {
        for (int64_t i = 0; i < df; i++) freqs[i] = 1;
    }
    return dl;
}

/* ---- conjunctions and the bulk BM25 scorer ---- */

/* The first index >= i of ascending a[0..n) whose value is >= target:
 * gallop, then binary search (ConjunctionDISI's advance). */
static inline int64_t advance(const int64_t *a, int64_t n, int64_t i,
                              int64_t target) {
    if (i >= n || a[i] >= target) return i;
    int64_t lo = i, hi = i + 1, step = 1;
    while (hi < n && a[hi] < target) {
        lo = hi;
        step <<= 1;
        hi = lo + step;
    }
    if (hi > n) hi = n;
    lo++;   /* a[lo - 1] < target; the answer lies in [lo, hi] */
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] < target) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* The index of the shortest of k >= 1 lists: it leads a conjunction. */
static int64_t shortest(int64_t k, const int64_t *n) {
    int64_t lead = 0;
    for (int64_t j = 1; j < k; j++)
        if (n[j] < n[lead]) lead = j;
    return lead;
}

/* Leapfrog (ConjunctionDISI): move the cursors p of the k ascending
 * lists to the next doc all of them hold, from the lead's cursor on.
 * Returns 1 with every cursor on that doc, 0 once a list runs out. */
static int next_common(int64_t k, const int64_t *const *l,
                       const int64_t *n, int64_t *p, int64_t lead) {
    while (p[lead] < n[lead]) {
        int64_t doc = l[lead][p[lead]];
        int64_t j = 0;
        for (; j < k; j++) {
            if (j == lead) continue;
            p[j] = advance(l[j], n[j], p[j], doc);
            if (p[j] == n[j]) return 0;
            if (l[j][p[j]] != doc) break;
        }
        if (j == k) return 1;
        p[lead] = advance(l[lead], n[lead], p[lead], l[j][p[j]]);
    }
    return 0;
}

/* The docs common to k >= 1 ascending lists (their addresses in ptrs),
 * at most cap, into out, and the entry of out[c] in list j into
 * idx[j * cap + c]: the phrase matchers' doc conjunction.  Returns the
 * count. */
int64_t conjoin(int64_t k, const int64_t *ptrs, const int64_t *lens,
                int64_t *out, int64_t *idx, int64_t cap) {
    const int64_t *const *l = (const int64_t *const *)ptrs;
    int64_t *p = (int64_t *)calloc((size_t)k, sizeof(int64_t));
    if (!p) return -3;
    int64_t lead = shortest(k, lens), c = 0;
    while (c < cap && next_common(k, l, lens, p, lead)) {
        out[c] = l[lead][p[lead]];
        for (int64_t j = 0; j < k; j++) idx[j * cap + c] = p[j];
        c++;
        p[lead]++;
    }
    free(p);
    return c;
}

typedef struct {
    const int64_t *docs, *freqs;
    int64_t n, pos;
    const void *cache;       /* the scorer's 256-entry norm cache, dt */
    double weight;           /* the scorer's weight, exact in dt */
    const uint8_t *norms;
    int64_t nnorms;
} clause_t;

/* BM25Scorer.score of entry i, in the scorer's dtype and operation
 * order: weight - weight / (1 + freq * cache[norm]).  A doc past the
 * field's norms sets *bad (numpy's norms[docs] raises there). */
static inline double entry_score(const clause_t *c, int64_t i, int f32,
                                 int *bad) {
    int64_t doc = c->docs[i];
    if (doc < 0 || doc >= c->nnorms) { *bad = 1; return 0.0; }
    uint8_t nb = c->norms[doc];
    if (f32) {
        float w = (float)c->weight;
        float inv = ((const float *)c->cache)[nb];
        return (double)(w - w / (1.0f + (float)c->freqs[i] * inv));
    }
    double w = c->weight;
    double inv = ((const double *)c->cache)[nb];
    return w - w / (1.0 + (double)c->freqs[i] * inv);
}

static inline double add_dt(double a, double b, int f32) {
    return f32 ? (double)((float)a + (float)b) : a + b;
}

static inline void emit(int64_t doc, double s, int f32, int64_t c,
                        int64_t *out_docs, void *out_scores) {
    out_docs[c] = doc;
    if (f32) ((float *)out_scores)[c] = (float)s;
    else ((double *)out_scores)[c] = s;
}

/* Is doc in one of the excluded lists (advancing their cursors)? */
static inline int excluded(int64_t nx, const int64_t *const *xl,
                           const int64_t *xn, int64_t *xp, int64_t doc) {
    for (int64_t j = 0; j < nx; j++) {
        xp[j] = advance(xl[j], xn[j], xp[j], doc);
        if (xp[j] < xn[j] && xl[j][xp[j]] == doc) return 1;
    }
    return 0;
}

#define CL_NCOL 8   /* rec, reclen, df, has_freqs, must, cache, norms,
                       nnorms */

/* Match and score one segment for a term query (one MUST clause) or a
 * flat boolean query over term clauses, exactly as the numpy path does:
 * MUST scores summed in dt in clause order from 0, the SHOULD scores of a
 * doc summed in float64 in clause order and cast to dt, then added in dt.
 * (The numpy path adds no 0 where a doc has no SHOULD score or the query
 * is one term; x + 0 is x bit for bit, since a BM25 score is never -0.)
 * FILTER lists (req) must hold the doc, MUST_NOT lists (excl) must not;
 * msm is minimum_should_match.  Clause rows of cl are CL_NCOL int64s,
 * req and excl hold list addresses.  Writes ascending docs and dt scores
 * (at most cap); returns their count, -1 for a corrupt record, -2 for a
 * doc past its field's norms, -3 when out of memory. */
int64_t bulk_score(int64_t nc, const int64_t *cl, const double *weights,
                   int64_t nreq, const int64_t *req, const int64_t *req_n,
                   int64_t nexcl, const int64_t *excl,
                   const int64_t *excl_n, int64_t msm, int f32,
                   int64_t cap, int64_t *out_docs,
                   void *out_scores) {
    int64_t total = 0;
    for (int64_t j = 0; j < nc; j++) total += cl[j * CL_NCOL + 2];
    int64_t nl = nc + nreq + 1;
    int64_t *buf = (int64_t *)malloc(sizeof(int64_t) *
                                     (size_t)(2 * total + 1));
    clause_t *c = (clause_t *)malloc(sizeof(clause_t) * (size_t)(nc + 1));
    /* required lists (MUST docs, then FILTERs) with their lengths and
     * cursors, the clause of each MUST, the SHOULD clauses, and the
     * cursors of the excluded lists */
    const int64_t **rl = (const int64_t **)malloc(sizeof(int64_t *) *
                                                  (size_t)nl);
    int64_t *rn = (int64_t *)malloc(sizeof(int64_t) *
                                    (size_t)(2 * nl + 2 * nc + nexcl + 2));
    int64_t *rp = rn + nl, *mustc = rp + nl, *should = mustc + nc + 1;
    int64_t *xp = should + nc + 1;
    int64_t got = 0, nr = 0, ns = 0;
    int bad = 0;
    if (!buf || !c || !rl || !rn) { got = -3; goto done; }
    int64_t off = 0;
    for (int64_t j = 0; j < nc; j++) {
        const int64_t *r = cl + j * CL_NCOL;
        clause_t *x = &c[j];
        x->docs = buf + off;
        x->freqs = buf + total + off;
        x->n = r[2];
        x->pos = 0;
        x->cache = (const void *)(intptr_t)r[5];
        x->weight = weights[j];
        x->norms = (const uint8_t *)(intptr_t)r[6];
        x->nnorms = r[7];
        if (decode_record((const uint8_t *)(intptr_t)r[0], r[1], r[2],
                          (int)r[3], buf + off, buf + total + off) < 0) {
            got = -1;
            goto done;
        }
        off += r[2];
        if (r[4]) {
            mustc[nr] = j;
            rl[nr] = x->docs;
            rn[nr++] = x->n;
        } else {
            should[ns++] = j;
        }
    }
    int64_t nmust = nr;
    for (int64_t j = 0; j < nreq; j++) {
        rl[nr] = (const int64_t *)(intptr_t)req[j];
        rn[nr++] = req_n[j];
    }
    const int64_t *const *xl = (const int64_t *const *)excl;
    for (int64_t j = 0; j < nexcl; j++) xp[j] = 0;

    if (nr > 0) {
        /* at a common doc every cursor rp[j] is on it, so a MUST
         * clause's entry is rp[j] */
        int64_t lead = shortest(nr, rn);
        for (int64_t j = 0; j < nr; j++) rp[j] = 0;
        while (got < cap && next_common(nr, rl, rn, rp, lead)) {
            int64_t doc = rl[lead][rp[lead]++];
            int64_t cnt = 0;
            double ssum = 0.0;
            for (int64_t q = 0; q < ns; q++) {
                clause_t *x = &c[should[q]];
                x->pos = advance(x->docs, x->n, x->pos, doc);
                if (x->pos < x->n && x->docs[x->pos] == doc) {
                    cnt++;
                    ssum += entry_score(x, x->pos, f32, &bad);
                }
            }
            if (cnt < msm || excluded(nexcl, xl, excl_n, xp, doc))
                continue;
            double s = 0.0;
            for (int64_t j = 0; j < nmust; j++)
                s = add_dt(s, entry_score(&c[mustc[j]], rp[j] - (lead == j),
                                          f32, &bad), f32);
            if (cnt)
                s = add_dt(s, f32 ? (double)(float)ssum : ssum, f32);
            emit(doc, s, f32, got++, out_docs, out_scores);
        }
    } else {
        /* disjunction: the lowest unread doc of the SHOULD clauses, then
         * each clause on it, in clause order */
        int64_t need = msm > 1 ? msm : 1;
        while (got < cap) {
            int64_t doc = INT64_MAX;
            int any = 0;
            for (int64_t q = 0; q < ns; q++) {
                clause_t *x = &c[should[q]];
                if (x->pos < x->n && x->docs[x->pos] <= doc) {
                    doc = x->docs[x->pos];
                    any = 1;
                }
            }
            if (!any) break;
            int64_t cnt = 0;
            double ssum = 0.0;
            for (int64_t q = 0; q < ns; q++) {
                clause_t *x = &c[should[q]];
                if (x->pos < x->n && x->docs[x->pos] == doc) {
                    cnt++;
                    ssum += entry_score(x, x->pos++, f32, &bad);
                }
            }
            if (cnt >= need && !excluded(nexcl, xl, excl_n, xp, doc))
                emit(doc, f32 ? (double)(float)ssum : ssum, f32, got++,
                     out_docs, out_scores);
        }
    }
    if (bad) got = -2;
done:
    free(buf);
    free(c);
    free(rl);
    free(rn);
    return got;
}

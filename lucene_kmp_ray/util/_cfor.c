/* C kernels of util/cfor.py: the block codec (stream encode, checked
 * stream and .doc record decode, the fused positional skip-read), the
 * term dictionary search, the conjunction and BM25 bulk scorer of
 * search/searcher.py, and the postings writer that the flush
 * (index/format.py) and the record-to-record merge (index/merge.py)
 * share.  They are the engine's only implementation; the numpy
 * references the tests hold them to live in tests/_ref_*.py.
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

/* The fused positional skip-read of positions_for_entries
 * (index/reader.py): decode the blocks mask selects (uint8 per block;
 * meta rows are block_stream_meta()'s payload_start, width, n_exc,
 * payload_bytes, total_bytes) into scratch (n values, unselected regions
 * never read), then cumulative-sum each entry [s,e)'s deltas into
 * absolute positions in out_flat, in entry order.  Returns the number of
 * values written. */
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

/* ---- block ENCODE ----
 *
 * The numpy matrix encoders of tests/_ref_codec.py are the semantic
 * reference (tests/test_cfor.py fuzzes byte-identity).  Width and exception
 * selection reproduce them exactly:
 *   cand_w[e] = (e+1)-th largest bit length in the row (multiplicity kept),
 *   nexc[e]   = count(bl > cand_w[e]) over all 128 columns,
 *   valid     = (max_bl - cand_w[e]) <= 8 && nexc[e] <= 7,
 *   cost      = (cnt*w + 7)/8 + (nexc ? 1 + 2*nexc : 0),  first minimum wins.
 */

static inline int bitlen_u64(uint64_t v) {
    return v ? 64 - __builtin_clzll(v) : 0;
}

/* Width and exception count of the block v[0..cnt) (cnt <= 128).  The
 * numpy reference encodes zero-padded 128-value rows; padding has bit
 * length 0 and is never an exception, so the candidates past a short
 * row's values are 0, as the zero fill of top makes them.  Only the 8
 * largest bit lengths can be candidates, and every value longer than
 * top[e] is one of top[0..e), so top, kept by insertion, replaces a
 * histogram of all 65 lengths.  pfor=0 -> plain FOR. */
static void block_width(const int64_t *v, int64_t cnt, int pfor,
                        int64_t *width, int64_t *nexc) {
    int top[8] = {0};
    if (!pfor) {
        for (int64_t i = 0; i < cnt; i++) {
            int b = bitlen_u64((uint64_t)v[i]);
            if (b > top[0]) top[0] = b;
        }
        *width = top[0];
        *nexc = 0;
        return;
    }
    for (int64_t i = 0; i < cnt; i++) {
        int b = bitlen_u64((uint64_t)v[i]);
        if (b <= top[7]) continue;
        int j = 7;
        for (; j > 0 && top[j - 1] < b; j--) top[j] = top[j - 1];
        top[j] = b;
    }
    int maxw = top[0];
    int64_t best_cost = -1;
    int best_w = maxw, best_ne = 0;
    for (int e = 0; e < 8; e++) {
        int w = top[e], ne = 0;
        while (ne < e && top[ne] > w) ne++;
        if (maxw - w > 8 || ne > 7) continue;
        int64_t cost = (cnt * w + 7) / 8 + (ne ? 1 + 2 * ne : 0);
        if (best_cost < 0 || cost < best_cost) {
            best_cost = cost; best_w = w; best_ne = ne;
        }
    }
    *width = best_w;
    *nexc = best_ne;
}

/* Write the block row[0..cnt) with width w and ne exceptions at h: the
 * header, the packed payload, then the exception pairs.  Returns the
 * bytes written: 1 + (ne ? 1 + 2 * ne : 0) + (cnt * w + 7) / 8. */
static int64_t block_pack(const int64_t *row, int64_t cnt, int64_t w,
                          int64_t ne, uint8_t *h) {
    uint8_t *p;
    if (ne) { h[0] = (uint8_t)(0x80 | w); h[1] = (uint8_t)ne; p = h + 2; }
    else    { h[0] = (uint8_t)w;          p = h + 1; }
    int64_t paybytes = (cnt * w + 7) / 8;
    memset(p, 0, (size_t)paybytes);
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
                p[byo + 8] |= (uint8_t)(x >> (64 - sh));
        }
    }
    uint8_t *exc = p + paybytes;
    for (int64_t i = 0, j = 0; i < cnt && j < ne; i++) {
        if (bitlen_u64((uint64_t)row[i]) > w) {
            exc[2 * j] = (uint8_t)i;
            exc[2 * j + 1] = (uint8_t)((uint64_t)row[i] >> w);
            j++;
        }
    }
    return (p - h) + paybytes + 2 * ne;
}

/* Encode the n-value stream v at out (pfor=0 -> plain FOR): one block
 * per 128 values.  Returns the bytes written, at most nblocks + 8 * n. */
int64_t encode_stream(const int64_t *v, int64_t n, int pfor, uint8_t *out) {
    int64_t at = 0;
    for (int64_t done = 0; done < n; done += BLOCK_SIZE) {
        int64_t cnt = n - done < BLOCK_SIZE ? n - done : BLOCK_SIZE;
        int64_t w, ne;
        block_width(v + done, cnt, pfor, &w, &ne);
        at += block_pack(v + done, cnt, w, ne, out + at);
    }
    return at;
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
 * (the records of a range of terms, index/postings.py).  Stream s's
 * bytes start at buf + sstarts[s] and hold counts[s] values in
 * self-describing 128-value blocks; decoded values land at out +
 * out_offs[s].  Returns 0, or -1 when a stream runs past buflen. */
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
 * the split streams (tests/_ref_codec.py) is the reference. */
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

/* ---- the merge's vocabulary: the sorted union of k sorted term runs ----
 *
 * Source s's run is rows [lo[s], hi[s]) of the Arrow string array whose
 * int32 (int64 when wide[s]) offsets are at offs[s] and values at
 * data[s]; terms compare as bytes (UTF-8 byte order == code-point order,
 * the order the runs are sorted in, as in term_search).  Row lo[s] + i
 * gets its merged code in codes[base[s] + i], and the merged code c's
 * first holder (lowest source) is row first[c] of the runs concatenated
 * in source order.  Returns the number of codes, or -3 when out of
 * memory. */

typedef struct { const uint8_t *p; int64_t len; } term_t;

static inline term_t term_at(int64_t offs, int64_t wide, int64_t data,
                             int64_t row) {
    const int32_t *o32 = (const int32_t *)(intptr_t)offs;
    const int64_t *o64 = (const int64_t *)(intptr_t)offs;
    int64_t s = wide ? o64[row] : o32[row];
    int64_t e = wide ? o64[row + 1] : o32[row + 1];
    term_t t = {(const uint8_t *)(intptr_t)data + s, e - s};
    return t;
}

static inline int term_cmp(term_t a, term_t b) {
    int64_t n = a.len < b.len ? a.len : b.len;
    int c = n ? memcmp(a.p, b.p, (size_t)n) : 0;
    if (c) return c;
    return (a.len > b.len) - (a.len < b.len);
}

int64_t merge_terms(int64_t k, const int64_t *offs, const int64_t *wide,
                    const int64_t *data, const int64_t *lo,
                    const int64_t *hi, const int64_t *base, int64_t *codes,
                    int64_t *first) {
    int64_t *cur = (int64_t *)malloc(sizeof(int64_t) * (size_t)(k + 1));
    term_t *head = (term_t *)malloc(sizeof(term_t) * (size_t)(k + 1));
    if (!cur || !head) { free(cur); free(head); return -3; }
    for (int64_t s = 0; s < k; s++) {
        cur[s] = lo[s];
        if (cur[s] < hi[s]) head[s] = term_at(offs[s], wide[s], data[s],
                                              cur[s]);
    }
    int64_t n = 0;
    for (;;) {
        int64_t m = -1;
        for (int64_t s = 0; s < k; s++)
            if (cur[s] < hi[s] && (m < 0 || term_cmp(head[s], head[m]) < 0))
                m = s;
        if (m < 0) break;
        term_t t = head[m];
        first[n] = base[m] + cur[m] - lo[m];
        for (int64_t s = m; s < k; s++) {
            if (cur[s] >= hi[s] || (s != m && term_cmp(head[s], t) != 0))
                continue;
            codes[base[s] + cur[s] - lo[s]] = n;
            if (++cur[s] < hi[s])
                head[s] = term_at(offs[s], wide[s], data[s], cur[s]);
        }
        n++;
    }
    free(cur);
    free(head);
    return n;
}

/* ---- the postings writer of the flush (write_postings) and the merge
 * (merge_postings); tests/_ref_postings.py and tests/_ref_merge.py hold
 * their numpy references, file for file. ---- */

/* Write the record (index/postings.py) of a term with n ascending docs,
 * their freqs and their np position deltas pv: FOR doc deltas; PFor
 * freqs unless np == n; for more than one block, block_last_doc,
 * block_max_freq and block_min_norm (over norms) as int32 LE; PFor pv
 * into .pos.  io holds (doc bytes used, doc capacity, pos bytes used,
 * pos capacity); the record goes in at the used counts, which advance.
 * dd: n int64s of scratch.  Returns 0, -2 for a doc past the norms, -4
 * when an output buffer is too small. */
static int64_t write_record(const int64_t *docs, const int64_t *freqs,
                            int64_t n, const int64_t *pv, int64_t np,
                            const uint8_t *norms, int64_t nnorms,
                            int64_t *dd, uint8_t *out_doc, uint8_t *out_pos,
                            int64_t *io) {
    int64_t nb = (n + BLOCK_SIZE - 1) / BLOCK_SIZE;
    int64_t nbp = (np + BLOCK_SIZE - 1) / BLOCK_SIZE;
    /* a block takes at most 1 + 8 * cnt bytes (PFor never costs more
     * than FOR at the widest width) */
    if (io[1] - io[0] < 2 * (nb + 8 * n) + 12 * nb ||
        io[3] - io[2] < nbp + 8 * np)
        return -4;
    for (int64_t i = 0; i < n; i++) {
        if (docs[i] < 0 || docs[i] >= nnorms) return -2;
        dd[i] = i ? docs[i] - docs[i - 1] : docs[i];
    }
    uint8_t *o = out_doc + io[0];
    o += encode_stream(dd, n, 0, o);
    if (np > n) o += encode_stream(freqs, n, 1, o);
    if (nb > 1) {
        int32_t *meta = (int32_t *)dd;   /* 3 * nb <= n int32s */
        for (int64_t b = 0; b < nb; b++) {
            int64_t lo = b * BLOCK_SIZE;
            int64_t hi = lo + BLOCK_SIZE < n ? lo + BLOCK_SIZE : n;
            int64_t mf = 0, mn = 256;
            for (int64_t i = lo; i < hi; i++) {
                if (freqs[i] > mf) mf = freqs[i];
                if (norms[docs[i]] < mn) mn = norms[docs[i]];
            }
            meta[b] = (int32_t)docs[hi - 1];
            meta[nb + b] = (int32_t)mf;
            meta[2 * nb + b] = (int32_t)mn;
        }
        memcpy(o, meta, sizeof(int32_t) * (size_t)(3 * nb));
        o += 12 * nb;
    }
    io[0] = o - out_doc;
    io[2] += encode_stream(pv, np, 1, out_pos + io[2]);
    return 0;
}

/* The flush: one field's records from the inverter's entry arrays.  Term
 * t holds entries [tb[t], tb[t+1]) of docs / freqs, and its position
 * deltas follow the previous term's in posd.  df, ttf, doc_ptr and
 * pos_ptr get each term's values; dd holds the largest df, io and the
 * returns are write_record's. */
int64_t write_postings(int64_t nterms, const int64_t *tb, const int64_t *docs,
                       const int64_t *freqs, const int64_t *posd,
                       const uint8_t *norms, int64_t nnorms, int64_t *dd,
                       uint8_t *out_doc, uint8_t *out_pos, int64_t *io,
                       int64_t *df, int64_t *ttf, int64_t *doc_ptr,
                       int64_t *pos_ptr) {
    int64_t got = 0, p = 0;
    for (int64_t t = 0; t < nterms && !got; t++) {
        int64_t lo = tb[t], n = tb[t + 1] - lo, np = 0;
        for (int64_t i = lo; i < lo + n; i++) np += freqs[i];
        df[t] = n, ttf[t] = np, doc_ptr[t] = io[0], pos_ptr[t] = io[2];
        got = write_record(docs + lo, freqs + lo, n, posd + p, np, norms,
                           nnorms, dd, out_doc, out_pos, io);
        p += np;
    }
    return got;
}

/* ---- the merge's postings: one field's records, source to merged ----
 *
 * Source s is the row src + s * SRC_NCOL of int64s: its whole .doc and
 * .pos buffers and their lengths; its nrows rows' doc_ptr and pos_ptr
 * (nrows + 1 each: the last is the record end), df, ttf and merged codes
 * (ascending); and its doc map inv (ninv entries: old local doc -> new
 * doc, -1 when reclaimed).  For each code c < ncodes, in order: decode
 * every holding source's record with the checked decoder, map its docs
 * and drop the reclaimed ones with their position runs, sort the entries
 * by new doc if their concatenation is not ascending (interleaved doc
 * ranges, an index sort), and write the merged record with write_record
 * (over the merged field's norms; io as there).  df, ttf, doc_ptr and
 * pos_ptr get each code's values (df 0 for a term whose postings were
 * all reclaimed).  Returns 0; -1 when a read would leave a record or its
 * buffer or a record disagrees with its df / ttf, -2 for a doc past its
 * source's doc map or past the norms, -3 when out of memory, -4 when an
 * output buffer is too small. */

#define SRC_NCOL 13   /* doc, doc_len, pos, pos_len, doc_ptr, pos_ptr, df,
                         ttf, codes, nrows, inv, ninv, (cursor) */

typedef struct { int64_t doc, idx; } doc_idx_t;

static int by_doc(const void *a, const void *b) {
    int64_t x = ((const doc_idx_t *)a)->doc, y = ((const doc_idx_t *)b)->doc;
    return (x > y) - (x < y);
}

/* Append source row r's surviving entries at docs/freqs + *n and their
 * position runs at pos + *np; *last tracks the last doc written, *asc
 * drops to 0 on a descent (merge_postings has checked that the row's
 * records lie inside their buffers).  Returns 0 or a merge_postings
 * error. */
static int64_t read_source(const int64_t *S, int64_t r, int64_t *docs,
                           int64_t *freqs, int64_t *pos, int64_t *n,
                           int64_t *np, int64_t *last, int *asc) {
    const uint8_t *doc = (const uint8_t *)(intptr_t)S[0];
    const uint8_t *pbuf = (const uint8_t *)(intptr_t)S[2];
    const int64_t *dp = (const int64_t *)(intptr_t)S[4];
    const int64_t *pp = (const int64_t *)(intptr_t)S[5];
    int64_t df = ((const int64_t *)(intptr_t)S[6])[r];
    int64_t ttf = ((const int64_t *)(intptr_t)S[7])[r];
    const int64_t *inv = (const int64_t *)(intptr_t)S[10];
    int64_t ninv = S[11];
    int64_t nb = (df + BLOCK_SIZE - 1) / BLOCK_SIZE;
    int64_t payload = dp[r + 1] - dp[r] - (nb > 1 ? 12 * nb : 0);
    const uint8_t *rec = doc + dp[r];
    int64_t *d = docs + *n, *f = freqs + *n, *p = pos + *np;
    int64_t dl = decode_stream_checked(rec, payload, 0, df, d);
    if (dl < 0) return -1;
    if (ttf > df) {
        if (decode_stream_checked(rec, payload, dl, df, f) < 0) return -1;
    } else {
        for (int64_t i = 0; i < df; i++) f[i] = 1;
    }
    int64_t sum = 0;   /* the freqs must add up to ttf: the positions */
    for (int64_t i = 0; i < df; i++) {    /* scratch holds ttf values */
        if (f[i] < 0 || f[i] > ttf - sum) return -1;
        sum += f[i];
    }
    if (sum != ttf) return -1;
    if (decode_stream_checked(pbuf + pp[r], pp[r + 1] - pp[r], 0, ttf, p)
            < 0)
        return -1;
    uint64_t acc = 0;
    int64_t w = 0, rp = 0, wp = 0;
    for (int64_t i = 0; i < df; i++) {
        acc += (uint64_t)d[i];
        int64_t old = (int64_t)acc, fi = f[i];
        if (old < 0 || old >= ninv) return -2;
        int64_t nd = inv[old];
        if (nd >= 0) {
            if (nd <= *last) *asc = 0;
            *last = nd;
            d[w] = nd;
            f[w] = fi;
            if (wp != rp) memmove(p + wp, p + rp, sizeof(int64_t) * fi);
            wp += fi;
            w++;
        }
        rp += fi;
    }
    *n += w;
    *np += wp;
    return 0;
}

int64_t merge_postings(int64_t k, int64_t *src, int64_t ncodes,
                       const uint8_t *norms, int64_t nnorms,
                       uint8_t *out_doc, uint8_t *out_pos, int64_t *io,
                       int64_t *df, int64_t *ttf, int64_t *doc_ptr,
                       int64_t *pos_ptr) {
    /* the largest merged term sizes the scratch: sum each code's df and
     * ttf over its holders into df / ttf first */
    for (int64_t c = 0; c < ncodes; c++) df[c] = ttf[c] = 0;
    for (int64_t s = 0; s < k; s++) {
        int64_t *S = src + s * SRC_NCOL;
        const int64_t *sc = (const int64_t *)(intptr_t)S[8];
        const int64_t *sdf = (const int64_t *)(intptr_t)S[6];
        const int64_t *sttf = (const int64_t *)(intptr_t)S[7];
        const int64_t *dp = (const int64_t *)(intptr_t)S[4];
        const int64_t *pp = (const int64_t *)(intptr_t)S[5];
        for (int64_t r = 0; r < S[9]; r++) {
            if (sc[r] < 0 || sc[r] >= ncodes || sdf[r] < 1 ||
                sttf[r] < sdf[r] || (r && sc[r] <= sc[r - 1]))
                return -1;
            /* a record inside its buffer, and no more values than its
             * bytes can hold (a width-0 block: 128 values in one byte),
             * so df and ttf bound the scratch before any malloc */
            if (dp[r] < 0 || dp[r] > dp[r + 1] || dp[r + 1] > S[1] ||
                pp[r] < 0 || pp[r] > pp[r + 1] || pp[r + 1] > S[3] ||
                sdf[r] > BLOCK_SIZE * (dp[r + 1] - dp[r]) ||
                sttf[r] > BLOCK_SIZE * (pp[r + 1] - pp[r]))
                return -1;
            df[sc[r]] += sdf[r];
            ttf[sc[r]] += sttf[r];
        }
        S[12] = 0;
    }
    int64_t max_df = 1, max_ttf = 1;
    for (int64_t c = 0; c < ncodes; c++) {
        if (df[c] > max_df) max_df = df[c];
        if (ttf[c] > max_ttf) max_ttf = ttf[c];
    }
    int64_t *ent = (int64_t *)malloc(sizeof(int64_t) * (size_t)(5 * max_df));
    int64_t *pos = (int64_t *)malloc(sizeof(int64_t) * (size_t)(2 * max_ttf));
    doc_idx_t *order = (doc_idx_t *)malloc(sizeof(doc_idx_t) *
                                           (size_t)max_df);
    int64_t got = 0;
    if (!ent || !pos || !order) { got = -3; goto done; }
    for (int64_t c = 0; c < ncodes; c++) {
        int64_t *docs = ent, *freqs = ent + max_df, *ps = ent + 2 * max_df;
        int64_t *pv = pos;
        int64_t n = 0, np = 0, last = -1;
        int asc = 1;
        for (int64_t s = 0; s < k; s++) {
            int64_t *S = src + s * SRC_NCOL;
            int64_t r = S[12];
            if (r >= S[9] || ((const int64_t *)(intptr_t)S[8])[r] != c)
                continue;
            S[12]++;
            got = read_source(S, r, docs, freqs, pv, &n, &np, &last, &asc);
            if (got < 0) goto done;
        }
        if (!asc) {
            /* entries by new doc, each carrying its position run */
            int64_t *d2 = ent + 3 * max_df, *f2 = ent + 4 * max_df;
            int64_t *p2 = pos + max_ttf;
            for (int64_t i = 0, at = 0; i < n; i++) {
                order[i].doc = docs[i];
                order[i].idx = i;
                ps[i] = at;
                at += freqs[i];
            }
            qsort(order, (size_t)n, sizeof(doc_idx_t), by_doc);
            for (int64_t i = 0, at = 0; i < n; i++) {
                int64_t j = order[i].idx;
                d2[i] = order[i].doc;
                f2[i] = freqs[j];
                memcpy(p2 + at, pv + ps[j], sizeof(int64_t) * freqs[j]);
                at += freqs[j];
            }
            docs = d2;
            freqs = f2;
            pv = p2;
        }
        df[c] = n, ttf[c] = np, doc_ptr[c] = io[0], pos_ptr[c] = io[2];
        /* ps is free once the entries are in order */
        got = write_record(docs, freqs, n, pv, np, norms, nnorms, ps,
                           out_doc, out_pos, io);
        if (got < 0) goto done;
    }
done:
    free(ent);
    free(pos);
    free(order);
    return got;
}

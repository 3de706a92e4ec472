/* Batched 2-distinct-term sloppy-phrase walk.
 *
 * walk2() is the exact SloppyPhraseMatcher.kt:139-173 greedy
 * minimal-window state machine specialized to two slots (the Python
 * transcription it mirrors is tests/_ref_search.py sloppy_freq_2): two
 * pointers, one live min,
 * freq accumulated in IEEE single precision exactly like the reference's
 * float arithmetic (x86-64 SSE scalar math == numpy float32 semantics).
 *
 * sloppy2_batch() runs the walk over every screened candidate doc in one
 * call, replacing ~10us/doc of Python interpreter dispatch with ~0.1us of
 * C per doc.  Exact equivalence with the Python matchers is asserted by
 * tests/test_csloppy.py.
 */
#include <stdint.h>

static float walk2(const int64_t *a, int64_t na,
                   const int64_t *b, int64_t nb, int64_t slop) {
    int64_t ia = 0, ib = 0;
    int64_t pa = a[0], pb = b[0];
    int64_t end = pa > pb ? pa : pb;
    float freq = 0.0f;
    for (;;) {
        /* pop the lesser (tie: lower offset = a); matchLength = end-popped */
        int64_t ml, nxt;
        int adv_a;
        if (pa <= pb) { ml = end - pa; nxt = pb; adv_a = 1; }
        else          { ml = end - pb; nxt = pa; adv_a = 0; }
        int matched = 0;
        int64_t matched_ml = 0;
        for (;;) {
            int64_t cur;
            if (adv_a) {
                if (++ia >= na) break;
                pa = a[ia];
                if (pa > end) end = pa;
                cur = pa;
            } else {
                if (++ib >= nb) break;
                pb = b[ib];
                if (pb > end) end = pb;
                cur = pb;
            }
            if (cur > nxt) {
                if (ml <= slop) { matched = 1; matched_ml = ml; }
                /* pop the new lesser */
                if (pa <= pb) { ml = end - pa; nxt = pb; adv_a = 1; }
                else          { ml = end - pb; nxt = pa; adv_a = 0; }
                if (matched) break;
            } else {
                int64_t ml2 = end - cur;
                if (ml2 < ml) ml = ml2;
            }
        }
        if (matched) {
            freq += 1.0f / (1.0f + (float)matched_ml);
            continue;
        }
        /* one stream exhausted */
        if (ml <= slop) freq += 1.0f / (1.0f + (float)ml);
        return freq;
    }
}

/* out_freq[w] = walk2 over candidate walk_idx[w]'s position runs.
 * a_*: term-0 runs normalized by offset 0; b_*: term-1 runs normalized by
 * offset 1 (caller pre-subtracts).  All arrays are C-contiguous int64. */
int64_t sloppy2_batch(const int64_t *a_flat, const int64_t *a_starts,
                      const int64_t *a_cnt,
                      const int64_t *b_flat, const int64_t *b_starts,
                      const int64_t *b_cnt,
                      const int64_t *walk_idx, int64_t n_walk, int64_t slop,
                      double *out_freq) {
    for (int64_t w = 0; w < n_walk; w++) {
        int64_t j = walk_idx[w];
        out_freq[w] = (double)walk2(a_flat + a_starts[j], a_cnt[j],
                                    b_flat + b_starts[j], b_cnt[j], slop);
    }
    return n_walk;
}

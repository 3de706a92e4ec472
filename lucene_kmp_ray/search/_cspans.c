/* Batched span-near walk for the all-SpanTermQuery clause shape.
 *
 * Transcribes spans._ordered_matches (NearSpansOrdered.kt stretchToOrder)
 * and spans._unordered_matches (NearSpansUnordered.kt spanWindow) for the
 * case where every sub-span is a TermSpans (start, start+1, width 0) —
 * the common user query — and runs the per-doc walk over every candidate
 * doc in one call.  freq accumulates in IEEE single precision exactly
 * like spans.span_freqs (SpanScorer.kt:82).  The Python matchers remain
 * the semantic reference (nested/non-term shapes always take them);
 * equivalence is fuzz-asserted by tests/test_cspans.py.
 *
 * Per sub i: flats[i] = absolute positions (doc runs concatenated in
 * candidate order), starts[i]/cnts[i] = per-candidate run offsets/length.
 * With term spans every span has length 1, so the unordered window's
 * totalSpanLength is the constant n_subs and the heap tie-break
 * (start, end, sub) reduces to (start, sub) — a strict < min-scan keeps
 * the lowest sub index on ties exactly like the Python tuple heap.
 */
#include <stdint.h>

#define MAX_SUBS 32

int64_t span_near_batch(const int64_t **flats, const int64_t **starts,
                        const int64_t **cnts, int64_t n_subs,
                        int64_t n_docs, int64_t slop, int32_t ordered,
                        double *out_freqs) {
    if (n_subs < 1 || n_subs > MAX_SUBS)
        return -1;
    const int n = (int)n_subs;
    for (int64_t d = 0; d < n_docs; d++) {
        const int64_t *f[MAX_SUBS];
        int64_t len[MAX_SUBS], idx[MAX_SUBS];
        int empty = 0;
        for (int i = 0; i < n; i++) {
            f[i] = flats[i] + starts[i][d];
            len[i] = cnts[i][d];
            idx[i] = 0;
            if (len[i] == 0) empty = 1;
        }
        float freq = 0.0f;
        if (empty) {
            out_freqs[d] = 0.0;
            continue;
        }
        if (ordered) {
            while (idx[0] < len[0]) {
                int64_t s0 = f[0][idx[0]++];
                int64_t prev_end = s0 + 1;
                int64_t width = 0;
                int exhausted = 0;
                for (int i = 1; i < n; i++) {
                    while (idx[i] < len[i] && f[i][idx[i]] < prev_end)
                        idx[i]++;
                    if (idx[i] >= len[i]) { exhausted = 1; break; }
                    int64_t s = f[i][idx[i]];
                    width += s - prev_end;
                    prev_end = s + 1;
                }
                if (exhausted) break;
                if (width <= slop)
                    freq += 1.0f / (1.0f + (float)width);
            }
        } else {
            int64_t curs[MAX_SUBS];
            int64_t max_end = 0;
            for (int i = 0; i < n; i++) {
                curs[i] = f[i][0];
                if (curs[i] + 1 > max_end) max_end = curs[i] + 1;
            }
            int t = 0;
            for (int i = 1; i < n; i++)
                if (curs[i] < curs[t]) t = i;
            int dead = 0;
            /* advance until the first window match */
            while (max_end - curs[t] - n > slop) {
                if (++idx[t] >= len[t]) { dead = 1; break; }
                curs[t] = f[t][idx[t]];
                if (curs[t] + 1 > max_end) max_end = curs[t] + 1;
                t = 0;
                for (int i = 1; i < n; i++)
                    if (curs[i] < curs[t]) t = i;
            }
            if (!dead) {
                freq += 1.0f / (1.0f + (float)(max_end - curs[t]));
                for (;;) {
                    if (++idx[t] >= len[t]) break;
                    curs[t] = f[t][idx[t]];
                    if (curs[t] + 1 > max_end) max_end = curs[t] + 1;
                    t = 0;
                    for (int i = 1; i < n; i++)
                        if (curs[i] < curs[t]) t = i;
                    if (max_end - curs[t] - n <= slop)
                        freq += 1.0f / (1.0f + (float)(max_end - curs[t]));
                }
            }
        }
        out_freqs[d] = (double)freq;
    }
    return n_docs;
}

/* Kuromoji-style lattice tokenizer core — C mirror of the pure-Python
 * implementation in japanese.py (_tokenize_lattice / _add / _backtrace /
 * _prune_and_rescore) for the no-user-dictionary configuration.
 * [ref: ja/KuromojiViterbiNBest.kt, morph/Viterbi.kt — same dictionary
 * scan, unknown-word grouping, relaxation, search-mode decompound
 * second pass, and tie-breaking (strict <, first-added arc wins).]
 *
 * The caller (cviterbi.py) flattens the lexicon into a static trie
 * (per-node sorted child arrays + word-id lists) once per process and
 * passes per-text codepoint/char-class/punctuation/kanji arrays; this
 * file does the full forward scan: trie walk for dictionary matches,
 * unknown-word grouping with the same-(class,punct) run rule, Viterbi
 * relaxation, then the backtrace with the search-mode decompound
 * rescore.  Output is the chosen arc sequence in document order; token
 * shaping (punctuation discard, base forms, extended-mode unigrams)
 * stays in Python.
 *
 * Compiled on demand as the "viterbi" unit of util/native.py; a failed
 * compile raises.  The Python lattice runs only with a user dictionary.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SEARCH_MODE_KANJI_LENGTH 2
#define SEARCH_MODE_OTHER_LENGTH 7
#define SEARCH_MODE_KANJI_PENALTY 3000
#define SEARCH_MODE_OTHER_PENALTY 1700
#define MAX_UNKNOWN_WORD_LENGTH 1024
#define INF_COST ((int64_t)1 << 62)
#define TYPE_KNOWN 0
#define TYPE_UNKNOWN 1

typedef struct {
    int32_t count, cap;
    int64_t *costs;
    int32_t *lastRightID, *backPos, *backIndex, *backID, *backType;
    int32_t *backLeftID, *backRightID, *backWcost;
    int32_t fcount, fcap;
    int32_t *fPos, *fID, *fType, *fLeft, *fRight, *fWcost;
} Pos;

static int pos_reserve(Pos *p) {
    if (p->count < p->cap) return 0;
    int32_t cap = p->cap ? p->cap * 2 : 8;
    void *m;
#define GROW(field, type) \
    m = realloc(p->field, cap * sizeof(type)); \
    if (!m) return -1; \
    p->field = (type *)m;
    GROW(costs, int64_t)
    GROW(lastRightID, int32_t) GROW(backPos, int32_t)
    GROW(backIndex, int32_t) GROW(backID, int32_t) GROW(backType, int32_t)
    GROW(backLeftID, int32_t) GROW(backRightID, int32_t)
    GROW(backWcost, int32_t)
#undef GROW
    p->cap = cap;
    return 0;
}

static int pos_freserve(Pos *p) {
    if (p->fcount < p->fcap) return 0;
    int32_t cap = p->fcap ? p->fcap * 2 : 8;
    void *m;
#define GROW(field, type) \
    m = realloc(p->field, cap * sizeof(type)); \
    if (!m) return -1; \
    p->field = (type *)m;
    GROW(fPos, int32_t) GROW(fID, int32_t) GROW(fType, int32_t)
    GROW(fLeft, int32_t) GROW(fRight, int32_t) GROW(fWcost, int32_t)
#undef GROW
    p->fcap = cap;
    return 0;
}

/* _Position.add mirror */
static int pos_add(Pos *p, int64_t cost, int32_t lastRightID,
                   int32_t backPos, int32_t backIndex, int32_t backID,
                   int32_t backType, int32_t leftID, int32_t rightID,
                   int32_t wcost) {
    if (pos_reserve(p)) return -1;
    int32_t i = p->count;
    p->costs[i] = cost;
    p->lastRightID[i] = lastRightID;
    p->backPos[i] = backPos;
    p->backIndex[i] = backIndex;
    p->backID[i] = backID;
    p->backType[i] = backType;
    p->backLeftID[i] = leftID;
    p->backRightID[i] = rightID;
    p->backWcost[i] = wcost;
    p->count++;
    return 0;
}

static int pos_add_forward(Pos *p, int32_t fPos, int32_t fID, int32_t fType,
                           int32_t fLeft, int32_t fRight, int32_t fWcost) {
    if (pos_freserve(p)) return -1;
    int32_t i = p->fcount;
    p->fPos[i] = fPos;
    p->fID[i] = fID;
    p->fType[i] = fType;
    p->fLeft[i] = fLeft;
    p->fRight[i] = fRight;
    p->fWcost[i] = fWcost;
    p->fcount++;
    return 0;
}

typedef struct {
    const int16_t *conn;
    int32_t dim;
    const uint8_t *kanji;
    Pos *P;
    int32_t n;
} Ctx;

static inline int32_t conn_at(const Ctx *c, int32_t left, int32_t right) {
    return (int32_t)c->conn[(size_t)left * c->dim + right];
}

/* _compute_penalty mirror (search-mode) */
static int64_t penalty(const Ctx *c, int32_t pos, int32_t length) {
    if (length > SEARCH_MODE_KANJI_LENGTH) {
        int all_kanji = 1;
        for (int32_t p = pos; p < pos + length; p++)
            if (!c->kanji[p]) { all_kanji = 0; break; }
        if (all_kanji)
            return (int64_t)(length - SEARCH_MODE_KANJI_LENGTH)
                   * SEARCH_MODE_KANJI_PENALTY;
        if (length > SEARCH_MODE_OTHER_LENGTH)
            return (int64_t)(length - SEARCH_MODE_OTHER_LENGTH)
                   * SEARCH_MODE_OTHER_PENALTY;
    }
    return 0;
}

/* _add mirror: relax one candidate arc from `from` into P[end] */
static int relax(Ctx *c, Pos *from, int32_t from_pos, int32_t end,
                 int32_t wid, int32_t typ, int32_t leftID, int32_t rightID,
                 int32_t wcost, int add_penalty) {
    int64_t least = INF_COST;
    int32_t least_idx = -1;
    const int16_t *row = c->conn + (size_t)leftID * c->dim;
    for (int32_t i = 0; i < from->count; i++) {
        int64_t cc = from->costs[i] + row[from->lastRightID[i]];
        if (cc < least) { least = cc; least_idx = i; }
    }
    least += wcost;
    if (add_penalty)
        least += penalty(c, from_pos, end - from_pos);
    return pos_add(&c->P[end], least, rightID, from_pos, least_idx,
                   wid, typ, leftID, rightID, wcost);
}

/* _prune_and_rescore mirror */
static int prune_and_rescore(Ctx *c, int32_t start_pos, int32_t end_pos,
                             int32_t best_start_idx) {
    for (int32_t pos = end_pos; pos > start_pos; pos--) {
        Pos *pd = &c->P[pos];
        for (int32_t arc = 0; arc < pd->count; arc++) {
            int32_t back_pos = pd->backPos[arc];
            if (back_pos >= start_pos) {
                if (pos_add_forward(&c->P[back_pos], pos, pd->backID[arc],
                                    pd->backType[arc], pd->backLeftID[arc],
                                    pd->backRightID[arc], pd->backWcost[arc]))
                    return -1;
            }
        }
        pd->count = 0;
    }
    for (int32_t pos2 = start_pos; pos2 < end_pos; pos2++) {
        Pos *pd = &c->P[pos2];
        if (pd->count == 0) { pd->fcount = 0; continue; }
        if (pos2 == start_pos) {
            int32_t right_id = (start_pos == 0)
                ? 0 : pd->backRightID[best_start_idx];
            int64_t path_cost = pd->costs[best_start_idx];
            for (int32_t f = 0; f < pd->fcount; f++) {
                int32_t to_pos = pd->fPos[f];
                int64_t new_cost = path_cost + pd->fWcost[f]
                    + conn_at(c, pd->fLeft[f], right_id)
                    + penalty(c, pos2, to_pos - pos2);
                if (pos_add(&c->P[to_pos], new_cost, pd->fRight[f], pos2,
                            best_start_idx, pd->fID[f], pd->fType[f],
                            pd->fLeft[f], pd->fRight[f], pd->fWcost[f]))
                    return -1;
            }
        } else {
            for (int32_t f = 0; f < pd->fcount; f++) {
                if (relax(c, pd, pos2, pd->fPos[f], pd->fID[f], pd->fType[f],
                          pd->fLeft[f], pd->fRight[f], pd->fWcost[f], 1))
                    return -1;
            }
        }
        pd->fcount = 0;
    }
    return 0;
}

/* Static lexicon trie + attribute tables, shared across texts. */
typedef struct {
    const int32_t *child_start, *child_count;
    const uint32_t *child_char;
    const int32_t *child_node;
    const int32_t *wids_start, *wids_count;
    const int32_t *wid_list;
    const int32_t *lex_left, *lex_right, *lex_cost;
    const int32_t *unk_off, *unk_left, *unk_cost;
    const uint8_t *invoke, *group;
} Dict;

static inline int32_t trie_child(const Dict *d, int32_t node, uint32_t ch) {
    int32_t lo = d->child_start[node];
    int32_t hi = lo + d->child_count[node] - 1;
    while (lo <= hi) {
        int32_t mid = (lo + hi) >> 1;
        uint32_t c = d->child_char[mid];
        if (c == ch) return d->child_node[mid];
        if (c < ch) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* Main entry.  Returns the number of chosen arcs written to out_* in
 * document order; 0 = no path / empty; -1 = allocation failure.
 * Mirrors JapaneseTokenizer.tokenize for user_dict=None; search_mode=0
 * reproduces the normal-mode unknown_word_end gating. */
int64_t viterbi_analyze(
    int32_t n, const uint32_t *cp, const uint8_t *cls,
    const uint8_t *punct, const uint8_t *kanji,
    const int32_t *child_start, const int32_t *child_count,
    const uint32_t *child_char, const int32_t *child_node,
    const int32_t *wids_start, const int32_t *wids_count,
    const int32_t *wid_list,
    const int32_t *lex_left, const int32_t *lex_right,
    const int32_t *lex_cost,
    const int32_t *unk_off, const int32_t *unk_left,
    const int32_t *unk_cost,
    const uint8_t *invoke, const uint8_t *group,
    const int16_t *conn, int32_t conn_dim,
    int32_t search_mode,
    int32_t *out_start, int32_t *out_end,
    int32_t *out_wid, int8_t *out_typ)
{
    Dict d = { child_start, child_count, child_char, child_node,
               wids_start, wids_count, wid_list,
               lex_left, lex_right, lex_cost,
               unk_off, unk_left, unk_cost, invoke, group };
    Ctx c;
    c.conn = conn; c.dim = conn_dim; c.kanji = kanji; c.n = n;
    c.P = (Pos *)calloc((size_t)n + 1, sizeof(Pos));
    if (!c.P) return -1;
    /* maximal same-(class,punct) run length per position (the group
     * scan in the Python code re-walks this per position) */
    int32_t *run = (int32_t *)malloc((size_t)(n > 0 ? n : 1)
                                     * sizeof(int32_t));
    int64_t rc = 0;
    if (!run) { rc = -1; goto done; }
    if (n > 0) {
        run[n - 1] = 1;
        for (int32_t i = n - 2; i >= 0; i--)
            run[i] = (cls[i] == cls[i + 1] && punct[i] == punct[i + 1])
                ? run[i + 1] + 1 : 1;
    }

    /* BOS */
    if (pos_add(&c.P[0], 0, 0, -1, -1, -1, -1, 0, 0, 0)) { rc = -1; goto done; }

    /* forward pass [tokenize() main loop] */
    int32_t unknown_word_end = -1;
    for (int32_t pos = 0; pos < n; pos++) {
        Pos *from = &c.P[pos];
        if (from->count == 0) continue;

        /* dictionary scan via trie walk */
        int any_matches = 0;
        int32_t node = 0;
        for (int32_t end = pos; end < n; end++) {
            node = trie_child(&d, node, cp[end]);
            if (node < 0) break;
            int32_t ws = d.wids_start[node], wc = d.wids_count[node];
            for (int32_t k = 0; k < wc; k++) {
                int32_t wid = d.wid_list[ws + k];
                if (relax(&c, from, pos, end + 1, wid, TYPE_KNOWN,
                          d.lex_left[wid], d.lex_right[wid],
                          d.lex_cost[wid], 0)) { rc = -1; goto done; }
                any_matches = 1;
            }
        }

        /* unknown word */
        if (search_mode || unknown_word_end <= pos) {
            uint8_t kls = cls[pos];
            if (!any_matches || d.invoke[kls]) {
                int32_t ulen = 1;
                if (d.group[kls]) {
                    ulen = run[pos];
                    if (ulen > MAX_UNKNOWN_WORD_LENGTH)
                        ulen = MAX_UNKNOWN_WORD_LENGTH;
                }
                for (int32_t wid = d.unk_off[kls];
                     wid < d.unk_off[kls + 1]; wid++) {
                    int32_t lid = d.unk_left[wid];
                    if (relax(&c, from, pos, pos + ulen, wid, TYPE_UNKNOWN,
                              lid, lid, d.unk_cost[wid], 0)) {
                        rc = -1; goto done;
                    }
                }
                unknown_word_end = pos + ulen;
            }
        }
    }

    /* EOS */
    {
        Pos *eos = &c.P[n];
        if (eos->count == 0) { rc = 0; goto done; }
        int64_t least = INF_COST;
        int32_t best_idx = -1;
        for (int32_t i = 0; i < eos->count; i++) {
            int64_t cc = eos->costs[i] + conn_at(&c, 0, eos->lastRightID[i]);
            if (cc < least) { least = cc; best_idx = i; }
        }

        /* backtrace (with search-mode decompound) — arcs in reverse,
         * then reversed in place to document order */
        int64_t ntok = 0;
        int32_t pos = n;
        int32_t alt_token_start = -1;  /* -1 = None */
        int32_t last_left_word_id = -1;
        while (pos > 0) {
            Pos *pd = &c.P[pos];
            int32_t back_pos = pd->backPos[best_idx];
            int32_t length = pos - back_pos;
            int32_t back_type = pd->backType[best_idx];
            int32_t back_id = pd->backID[best_idx];
            /* snapshot the arc's left/right ids — Python derives them
             * from (back_id, back_type), which stays valid even after
             * prune_and_rescore rebuilds this position's arc arrays */
            int32_t back_left = pd->backLeftID[best_idx];
            int32_t back_right = pd->backRightID[best_idx];
            int32_t next_best_idx = pd->backIndex[best_idx];

            if (search_mode && alt_token_start < 0) {
                int64_t pen = penalty(&c, back_pos, length);
                if (pen > 0) {
                    int64_t max_cost = pd->costs[best_idx] + pen;
                    if (last_left_word_id != -1)
                        max_cost += conn_at(&c, last_left_word_id,
                                            back_right);
                    if (prune_and_rescore(&c, back_pos, pos,
                                          pd->backIndex[best_idx])) {
                        rc = -1; goto done;
                    }
                    int64_t lc = INF_COST;
                    int32_t li = -1;
                    for (int32_t i = 0; i < pd->count; i++) {
                        int64_t cc = pd->costs[i];
                        if (last_left_word_id != -1)
                            cc += conn_at(&c, last_left_word_id,
                                          pd->backRightID[i]);
                        if (cc < lc) { lc = cc; li = i; }
                    }
                    if (li != -1 && lc <= max_cost
                            && pd->backPos[li] != back_pos) {
                        alt_token_start = back_pos;
                        best_idx = li;
                        next_best_idx = pd->backIndex[best_idx];
                        back_pos = pd->backPos[best_idx];
                        length = pos - back_pos;
                        back_type = pd->backType[best_idx];
                        back_id = pd->backID[best_idx];
                        back_left = pd->backLeftID[best_idx];
                        back_right = pd->backRightID[best_idx];
                    }
                }
            }
            if (alt_token_start >= 0 && alt_token_start >= back_pos)
                alt_token_start = -1;

            out_start[ntok] = back_pos;
            out_end[ntok] = pos;
            out_wid[ntok] = back_id;
            out_typ[ntok] = (int8_t)back_type;
            ntok++;
            (void)length;

            last_left_word_id = back_left;
            pos = back_pos;
            best_idx = next_best_idx;
        }
        /* reverse to document order */
        for (int64_t i = 0, j = ntok - 1; i < j; i++, j--) {
            int32_t t;
            int8_t t8;
            t = out_start[i]; out_start[i] = out_start[j]; out_start[j] = t;
            t = out_end[i]; out_end[i] = out_end[j]; out_end[j] = t;
            t = out_wid[i]; out_wid[i] = out_wid[j]; out_wid[j] = t;
            t8 = out_typ[i]; out_typ[i] = out_typ[j]; out_typ[j] = t8;
        }
        rc = ntok;
    }

done:
    free(run);
    for (int32_t i = 0; i <= n; i++) {
        Pos *p = &c.P[i];
        free(p->costs); free(p->lastRightID); free(p->backPos);
        free(p->backIndex); free(p->backID); free(p->backType);
        free(p->backLeftID); free(p->backRightID); free(p->backWcost);
        free(p->fPos); free(p->fID); free(p->fType);
        free(p->fLeft); free(p->fRight); free(p->fWcost);
    }
    free(c.P);
    return rc;
}

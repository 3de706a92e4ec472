"""DuckDB oracle SQL — the ANSI-SQL mirror of every engine pipeline.

Each SQL string reproduces the corresponding Ray pipeline *bit-for-bit*
(float64 arithmetic written with the exact same IEEE op order the engine's
float64 mode uses; tokenization via the identical RE2 regex; SmallFloat
lossy norms via an inline 256-entry decode table; md5-based hashes). The
driver runs these against views named after the parquet tables.

The BM25 formulas come straight from the reference
(``BM25Similarity.kt:48-55,161-198``):
  idf   = ln(1 + (docCount - df + 0.5)/(df + 0.5))
  avgdl = sumTotalTermFreq / docCount
  score = idf - idf/(1 + freq * 1/(k1*((1-b) + b*decoded_len/avgdl)))
with k1=1.2, b=0.75, decoded_len = byte4ToInt(intToByte4(len)).
"""

from __future__ import annotations

from .analysis.standard import sql_tokens_expr
from .pipelines.dedup import (LSH_BANDS, LSH_ROWS, MAX_LSH_BUCKET,
                              MAX_SHINGLE_BUCKET, MINHASH_PERMS, N_SHINGLE)
from .pipelines.textstats import LANG_STOPWORDS
from .sources.corpus import CORPUS_SQL
from .util.smallfloat import LENGTH_TABLE_INT


def _lt_values() -> str:
    return ", ".join(f"({b}, {int(v)})"
                     for b, v in enumerate(LENGTH_TABLE_INT.tolist()))


# Shared CTE preamble: corpus → tokens → postings → doc lengths → lossy
# norms → collection stats → term stats. Every oracle query starts here.
def preamble(corpus_where: str = "") -> str:
    """``corpus_where`` restricts the statistics corpus — the
    merged-index view after deletions RECLAIM (reclaimed docs leave the
    stats; un-reclaimed tombstones/soft-deletes do not)."""
    corpus = CORPUS_SQL if not corpus_where else \
        f"SELECT * FROM ({CORPUS_SQL}) WHERE {corpus_where}"
    return f"""
WITH corpus AS ({corpus}),
toksrc AS (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
tokens AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(generate_series(1, len(toks))) - 1 AS pos
  FROM toksrc
),
postings AS (
  SELECT doc_id, term, count(*) AS freq FROM tokens GROUP BY doc_id, term
),
doclen AS (SELECT doc_id, len(toks) AS dl FROM toksrc),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats),
-- title field (fielded documents): same chain over the title column;
-- docCount counts docs with >= 1 title term (Terms.getDocCount)
ttoksrc AS (
  SELECT doc_id, {sql_tokens_expr('title')} AS toks FROM corpus
),
ttokens AS (
  SELECT doc_id, unnest(toks) AS term FROM ttoksrc
),
tpostings AS (
  SELECT doc_id, term, count(*) AS freq FROM ttokens GROUP BY doc_id, term
),
tdoclen AS (SELECT doc_id, len(toks) AS dl FROM ttoksrc),
tnormd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM tdoclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
tfstats AS (SELECT count(*) FILTER (WHERE dl > 0) AS doc_count,
                   sum(dl) AS sum_ttf FROM tdoclen),
ttstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM tpostings GROUP BY term
),
tav AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM tfstats)
"""


def idf_sql(df_expr: str, dc: str = "(SELECT doc_count FROM stats)") -> str:
    return f"ln(1 + ({dc} - {df_expr} + 0.5)/({df_expr} + 0.5))"


def score_sql(freq_expr: str, dln_expr: str, idf_expr: str,
              av: str = "av") -> str:
    """weight - weight/(1 + freq * cache[norm]) in the engine's exact
    float64 op order (see similarity/bm25.py BM25Scorer). ``av`` names the
    avgdl CTE of the scored field ('av' = text, 'tav' = title)."""
    inv = (f"(1.0/(1.2*((1-0.75) + 0.75*{dln_expr}/"
           f"(SELECT avgdl FROM {av}))))")
    return f"({idf_expr} - {idf_expr}/(1 + {freq_expr}*{inv}))"


def term_scored_cte(term_literal: str) -> str:
    """CTE body scoring one term over all matching docs (float64)."""
    idf = idf_sql(f"(SELECT df FROM tstats WHERE term = {term_literal})")
    score = score_sql("p.freq", "n.dln", idf)
    return f"""
  SELECT p.doc_id, {score} AS score
  FROM postings p JOIN normd n USING (doc_id)
  WHERE p.term = {term_literal}
"""


def title_scored_cte(term_literal: str) -> str:
    """CTE body scoring one TITLE term over all matching docs — the
    title-field BM25 (per-field stats: doc_count/avgdl from tfstats/tav)."""
    idf = idf_sql(f"(SELECT df FROM ttstats WHERE term = {term_literal})",
                  dc="(SELECT doc_count FROM tfstats)")
    score = score_sql("p.freq", "n.dln", idf, av="tav")
    return f"""
  SELECT p.doc_id, {score} AS score
  FROM tpostings p JOIN tnormd n USING (doc_id)
  WHERE p.term = {term_literal}
"""


def bm25_title_topk(term: str, k: int = 10) -> str:
    lit = f"'{term}'"
    return preamble() + f""",
scored AS ({title_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def bm25_multifield_topk(term: str, k: int = 10) -> str:
    """SHOULD(text:term) + SHOULD(title:term): per-doc sum of the two
    field scores (MultiFieldQueryParser's per-field SHOULD expansion,
    queryparser/classic/MultiFieldQueryParser.kt)."""
    lit = f"'{term}'"
    return preamble() + f""",
sc0 AS ({term_scored_cte(lit)}),
sc1 AS ({title_scored_cte(lit)}),
docs AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM sc1)
SELECT d.doc_id, c.url,
       ((0 + COALESCE(sc0.score, 0)) + COALESCE(sc1.score, 0)) AS score
FROM docs d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
            LEFT JOIN sc1 ON sc1.doc_id = d.doc_id
            JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY score DESC, d.doc_id LIMIT {k}
"""


def field_stats() -> str:
    """Per-field CollectionStatistics (docCount = docs with ≥1 term of the
    field; sum casts to BIGINT — DuckDB HUGEINT→float64 otherwise)."""
    return preamble() + """
SELECT * FROM (
  SELECT 'text' AS field,
         (SELECT count(*) FROM doclen WHERE dl > 0) AS doc_count,
         (SELECT CAST(sum(dl) AS BIGINT) FROM doclen) AS sum_total_term_freq,
         (SELECT count(*) FROM postings) AS sum_doc_freq
  UNION ALL
  SELECT 'title',
         (SELECT count(*) FROM tdoclen WHERE dl > 0),
         (SELECT CAST(sum(dl) AS BIGINT) FROM tdoclen),
         (SELECT count(*) FROM tpostings)
) ORDER BY field
"""


def term_stats_fields() -> str:
    return preamble() + """
SELECT * FROM (
  SELECT 'text' AS field, term, CAST(df AS BIGINT) AS df,
         CAST(ttf AS BIGINT) AS ttf FROM tstats
  UNION ALL
  SELECT 'title', term, CAST(df AS BIGINT), CAST(ttf AS BIGINT) FROM ttstats
) ORDER BY field, term
"""


def bm25_term_topk(term: str, k: int = 10) -> str:
    lit = f"'{term}'"
    return preamble() + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def bm25_term_page(term: str, k: int = 10, offset: int = 10) -> str:
    """searchAfter mirror: page at OFFSET of the same total order."""
    lit = f"'{term}'"
    return preamble() + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k} OFFSET {offset}
"""


def bm25_or_topk(terms: list[str], k: int = 10) -> str:
    """SHOULD-disjunction: per-doc sum of term scores in sorted-term order
    (the engine sums clause-order; callers pass terms sorted)."""
    terms = list(terms)
    ctes = ",\n".join(
        f"sc{i} AS ({term_scored_cte(repr(t))})" for i, t in enumerate(terms))
    # left-fold: ((0 + s0) + s1) + ... matches np.add.at accumulation order
    ids = " UNION ".join(f"SELECT doc_id FROM sc{i}"
                         for i in range(len(terms)))
    total = "0"
    joins = ""
    for i in range(len(terms)):
        total = f"({total} + COALESCE(sc{i}.score, 0))"
        joins += f" LEFT JOIN sc{i} ON sc{i}.doc_id = d.doc_id"
    return preamble() + f""",
{ctes},
docs AS ({ids})
SELECT d.doc_id, c.url, {total} AS score
FROM docs d{joins} JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY score DESC, d.doc_id LIMIT {k}
"""


def bm25_and_topk(terms: list[str], k: int = 10) -> str:
    """MUST-conjunction: docs containing every term, summed scores."""
    ctes = ",\n".join(
        f"sc{i} AS ({term_scored_cte(repr(t))})" for i, t in enumerate(terms))
    total = "0"
    joins = "sc0"
    for i in range(len(terms)):
        total = f"({total} + sc{i}.score)"
        if i > 0:
            joins += f" JOIN sc{i} USING (doc_id)"
    return preamble() + f""",
{ctes}
SELECT sc0.doc_id, c.url, {total} AS score
FROM {joins} JOIN corpus c USING (doc_id)
ORDER BY score DESC, sc0.doc_id LIMIT {k}
"""


def bool_not_all(must_term: str, not_term: str) -> str:
    """MUST t1, MUST_NOT t2 — full match set (order-insensitive check)."""
    return preamble() + f""",
scored AS ({term_scored_cte(repr(must_term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
WHERE s.doc_id NOT IN (SELECT doc_id FROM postings WHERE term = '{not_term}')
ORDER BY s.doc_id
"""


def phrase_counts(terms: list[str]) -> str:
    """Exact-phrase match docs + phrase frequency (count of start positions)."""
    conds = " AND ".join(
        f"t{i}.term = '{t}' AND t{i}.doc_id = t0.doc_id AND "
        f"t{i}.pos = t0.pos + {i}" for i, t in enumerate(terms) if i > 0)
    tables = ", ".join(f"tokens t{i}" for i in range(len(terms)))
    return preamble() + f"""
SELECT t0.doc_id, count(*) AS freq
FROM {tables}
WHERE t0.term = '{terms[0]}' {"AND " + conds if conds else ""}
GROUP BY t0.doc_id
"""


def phrase_topk(terms: list[str], k: int = 10) -> str:
    """Scored exact phrase: freq = phrase starts, idf = sum of per-term idfs
    in phrase order (BM25Similarity idfExplain sum, kt:138-146)."""
    idf_sum = " + ".join(
        idf_sql(f"(SELECT df FROM tstats WHERE term = {t!r})") for t in terms)
    score = score_sql("p.freq", "n.dln", f"({idf_sum})")
    return preamble() + f""",
pfreq AS (
SELECT t0.doc_id, count(*) AS freq
FROM {", ".join(f"tokens t{i}" for i in range(len(terms)))}
WHERE t0.term = '{terms[0]}' {"AND " + " AND ".join(
        f"t{i}.term = '{t}' AND t{i}.doc_id = t0.doc_id AND t{i}.pos = t0.pos + {i}"
        for i, t in enumerate(terms) if i > 0) if len(terms) > 1 else ""}
GROUP BY t0.doc_id
)
SELECT p.doc_id, c.url, {score} AS score
FROM pfreq p JOIN normd n USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY score DESC, p.doc_id LIMIT {k}
"""


def explain_term_components(term: str, k: int = 10) -> str:
    """Flattened ``Weight.explain`` tree (searcher.py Searcher.explain;
    BM25Similarity.kt:161-198 explain shape) for the top-k docs of a
    TermQuery: the score plus every leaf value of the explanation —
    idf, raw freq, lossy-decoded field length (SmallFloat norm byte
    round-trip) and avgdl — each recomputed independently from the
    corpus."""
    lit = f"'{term}'"
    idf = idf_sql(f"(SELECT df FROM tstats WHERE term = {lit})")
    return preamble() + f""",
scored AS ({term_scored_cte(lit)}),
top AS (SELECT doc_id, score FROM scored
        ORDER BY score DESC, doc_id LIMIT {k})
SELECT t.doc_id, t.score, {idf} AS idf,
       CAST(p.freq AS BIGINT) AS freq,
       CAST(n.dln AS BIGINT) AS dl,
       (SELECT avgdl FROM av) AS avgdl
FROM top t
JOIN postings p ON p.doc_id = t.doc_id AND p.term = {lit}
JOIN normd n ON n.doc_id = t.doc_id
ORDER BY t.doc_id
"""


def queryparser_topk(must_term: str, or_term: str, phrase: list[str],
                     not_term: str, k: int = 10) -> str:
    """Mirror of the classic-QueryParser entry: the parsed tree of
    ``{must} AND ({or} OR "{phrase}") NOT {not}`` is
    MUST(term) + MUST(SHOULD(term) SHOULD(phrase)) + MUST_NOT(term);
    score = must score + sum of the matching SHOULD scores (engine
    clause order: or_term then phrase), docs matching the NOT term
    excluded."""
    s_must = term_scored_cte(repr(must_term))
    s_or = term_scored_cte(repr(or_term))
    idf_sum = " + ".join(
        idf_sql(f"(SELECT df FROM tstats WHERE term = {t!r})")
        for t in phrase)
    pscore = score_sql("p.freq", "n.dln", f"({idf_sum})")
    conds = " AND ".join(
        f"t{i}.term = '{t}' AND t{i}.doc_id = t0.doc_id AND "
        f"t{i}.pos = t0.pos + {i}" for i, t in enumerate(phrase) if i > 0)
    tables = ", ".join(f"tokens t{i}" for i in range(len(phrase)))
    return preamble() + f""",
sm AS ({s_must}),
so AS ({s_or}),
pfreq AS (
  SELECT t0.doc_id, count(*) AS freq
  FROM {tables}
  WHERE t0.term = '{phrase[0]}' {"AND " + conds if conds else ""}
  GROUP BY t0.doc_id
),
sp AS (
  SELECT p.doc_id, {pscore} AS score
  FROM pfreq p JOIN normd n USING (doc_id)
)
SELECT sm.doc_id, c.url,
       (sm.score + (coalesce(so.score, 0) + coalesce(sp.score, 0)))
           AS score
FROM sm
LEFT JOIN so USING (doc_id)
LEFT JOIN sp USING (doc_id)
JOIN corpus c ON c.doc_id = sm.doc_id
WHERE (so.doc_id IS NOT NULL OR sp.doc_id IS NOT NULL)
  AND sm.doc_id NOT IN (SELECT doc_id FROM postings
                        WHERE term = '{not_term}')
ORDER BY score DESC, sm.doc_id LIMIT {k}
"""


def term_match_all(term: str) -> str:
    """Full scored match set of one term over the ORIGINAL corpus — the
    point-in-time view a snapshot-retained commit must reproduce after
    later merges and deletes (index/commits.py SnapshotDeletionPolicy +
    IndexReader(commit=...))."""
    return preamble() + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.doc_id
"""


def check_index_stats(segment_size: int) -> str:
    """CheckIndex global row: the engine re-derives every segment's
    postings/norms/stats and cross-checks the manifest (index/check.py);
    ok=1 / n_errors=0 iff nothing disagrees. doc_count and the segment
    count (docID-range sharding: seg = doc_id // segment_size) are
    recomputed here from the corpus."""
    return f"""
WITH corpus AS ({CORPUS_SQL})
SELECT 1 AS ok, count(*) AS doc_count,
       count(DISTINCT doc_id // {segment_size}) AS n_segments,
       0 AS n_errors
FROM corpus
"""


def corpus_summary() -> str:
    return preamble() + """
SELECT doc_id, url, warc_ts, lang, length(text) AS text_len,
       octet_length(html) AS html_len
FROM corpus
"""


def term_stats() -> str:
    # CAST: DuckDB sum() yields HUGEINT → float64 in pandas; the engine's
    # parquet column is int64. ORDER BY: engine returns term-sorted rows.
    return preamble() + ("SELECT term, CAST(df AS BIGINT) AS df, "
                         "CAST(ttf AS BIGINT) AS ttf FROM tstats "
                         "ORDER BY term")


def doc_norms() -> str:
    return preamble() + \
        "SELECT doc_id, dl AS length, norm_byte, dln AS decoded_length FROM normd"


def count_term(term: str) -> str:
    return preamble() + \
        f"SELECT count(*) AS n FROM postings WHERE term = '{term}'"


def bloom_term_counts(terms: tuple[str, ...]) -> str:
    """Per-probe-term document frequency (the bloom-gated point-lookup
    entry): absent probes must come back 0, present probes must match
    the corpus tokenization exactly (no bloom false negatives)."""
    values = ", ".join("('{}')".format(t.replace("'", "''"))
                       for t in terms)
    return preamble() + f"""
SELECT t.term,
       (SELECT count(*) FROM postings p WHERE p.term = t.term) AS n
FROM (VALUES {values}) t(term)
ORDER BY t.term
"""


def synonym_map_counts(
        vectors: list[tuple[str, str, list[str]]]) -> str:
    """Global (cfg, term, cnt) over the Solr/WordNet synonym parsers +
    multi-word SynonymFilter applied to a synthesized per-doc phrase.
    Expectations are the REFERENCE's own TestSolrSynonymParser.kt /
    TestWordnetSynonymParser.kt vectors."""
    k = len(vectors)
    rows = []
    for i, (cfg, _, toks) in enumerate(vectors):
        for t in toks:
            rows.append("({}, '{}', '{}')".format(
                i, cfg, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, cfg, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.cfg, e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.cfg, e.term ORDER BY e.cfg, e.term
"""


# CustomAnalyzer-chain counts share the vector-expansion shape: the
# expectations are the reference's TestCustomAnalyzer.kt outputs.
custom_analyzer_counts = synonym_map_counts


def term_ords_seek(probes: tuple[str, ...]) -> str:
    """seekCeil over the GLOBAL merged term dictionary with ordinals
    (index/ords.py TermsOrdEnum + OrdinalMap; the BlockTreeOrds codec /
    OrdinalMap roles). Global ord = rank of the term in the merged
    distinct vocabulary; END probes report ord = |vocab| and term ''."""
    values = ", ".join("('{}')".format(p.replace("'", "''"))
                       for p in probes)
    return preamble() + f""",
ordv AS (SELECT term,
                row_number() OVER (ORDER BY term) - 1 AS ord
         FROM tstats),
probes(probe) AS (VALUES {values}),
ceilt AS (SELECT p.probe, min(v.term) AS term
          FROM probes p LEFT JOIN ordv v ON v.term >= p.probe
          GROUP BY p.probe)
SELECT c.probe,
       CASE WHEN c.term IS NULL THEN 'END'
            WHEN c.term = c.probe THEN 'FOUND'
            ELSE 'NOT_FOUND' END AS status,
       CAST(COALESCE(o.ord, (SELECT count(*) FROM ordv)) AS BIGINT)
           AS ord,
       COALESCE(c.term, '') AS term
FROM ceilt c LEFT JOIN ordv o ON o.term = c.term
ORDER BY c.probe
"""


def collection_stats() -> str:
    return preamble() + """
SELECT doc_count, CAST(sum_ttf AS BIGINT) AS sum_total_term_freq,
       (SELECT count(*) FROM postings) AS sum_doc_freq,
       (SELECT count(*) FROM tstats) AS unique_terms
FROM stats
"""


# ------------------------- training-data ops ------------------------------
def token_counts_cjk() -> str:
    """CJK segmentation oracle: the same deterministic per-doc CJK text
    synthesized in SQL (chr() arithmetic mirrors _synth_cjk_text), then
    the shared tokenizer expression — per-char Han/Hiragana, Katakana
    runs."""
    from .analysis.standard import sql_tokens_expr
    t = ("array_to_string(list_transform(generate_series(0, doc_id % 5 + 2), "
         "i -> chr(CAST(19968 + (doc_id * 7 + i) % 512 AS INTEGER))), '') "
         "|| ' ' || "
         "array_to_string(list_transform(generate_series(0, 3), "
         "i -> chr(CAST(12450 + (doc_id + i) % 20 AS INTEGER))), '') "
         "|| ' doc ' || chr(CAST(12354 + doc_id % 10 AS INTEGER))")
    return f"""
WITH cjk AS (SELECT doc_id, {t} AS t FROM documents),
toks AS (SELECT doc_id, {sql_tokens_expr('t')} AS tk FROM cjk)
SELECT doc_id, len(tk) AS n_tokens,
       len(list_distinct(tk)) AS n_unique_tokens
FROM toks
"""


def token_counts() -> str:
    return preamble() + """
SELECT t.doc_id, len(t.toks) AS n_tokens,
       len(list_distinct(t.toks)) AS n_unique_tokens
FROM toksrc t
"""


def quality() -> str:
    stop = ", ".join(repr(s) for s in LANG_STOPWORDS["en"])
    return preamble() + f""",
q AS (
  SELECT c.doc_id,
         length(c.text) AS n_chars,
         length(regexp_replace(c.text, '[^\\pL\\pN\\s]', '', 'g')) AS n_alnum,
         len(t.toks) AS n_tokens,
         len(list_filter(t.toks, x -> list_contains([{stop}], x))) AS n_stop,
         len(list_distinct(t.toks)) AS n_uniq,
         len(array_to_string(t.toks, '')) AS tok_chars
  FROM corpus c JOIN toksrc t USING (doc_id)
)
SELECT doc_id, n_chars, n_tokens,
       n_alnum / CAST(GREATEST(n_chars, 1) AS DOUBLE) AS alnum_ratio,
       n_stop / CAST(GREATEST(n_tokens, 1) AS DOUBLE) AS stopword_ratio,
       n_uniq / CAST(GREATEST(n_tokens, 1) AS DOUBLE) AS unique_ratio,
       tok_chars / CAST(GREATEST(n_tokens, 1) AS DOUBLE) AS mean_token_len
FROM q
"""


def langid() -> str:
    langs = sorted(LANG_STOPWORDS)
    cols = ",\n".join(
        "         len(list_filter(t.toks, x -> list_contains([{}], x))) AS c_{}"
        .format(", ".join(repr(s) for s in LANG_STOPWORDS[l]), l)
        for l in langs)
    g = "GREATEST({})".format(", ".join(f"c_{l}" for l in langs))
    cases = " ".join(f"WHEN c_{l} = g THEN '{l}'" for l in langs)
    return preamble() + f""",
hits AS (
  SELECT t.doc_id,
{cols}
  FROM toksrc t
),
hg AS (SELECT *, {g} AS g FROM hits)
SELECT doc_id,
       CASE WHEN g = 0 THEN 'und' {cases} END AS pred_lang,
       g AS stopword_hits
FROM hg
"""


def fingerprints() -> str:
    return preamble() + """
SELECT doc_id, md5(array_to_string(toks, ' ')) AS fingerprint
FROM toksrc
"""


def contamination_screen() -> str:
    """Decontamination mirror: probe = distinct shingles of docs 0..4;
    per doc the distinct-shingle count and how many fall in the probe."""
    return preamble() + "," + _shingle_cte() + """,
probe AS (SELECT DISTINCT shingle FROM shrow WHERE doc_id < 5),
per AS (
  SELECT r.doc_id, count(*) AS n, count(p.shingle) AS k
  FROM shrow r LEFT JOIN probe p ON p.shingle = r.shingle
  GROUP BY r.doc_id
)
SELECT c.doc_id,
       COALESCE(per.n, 0) AS n_shingles,
       COALESCE(per.k, 0) AS n_contaminated,
       round(COALESCE(per.k, 0) /
             CAST(GREATEST(COALESCE(per.n, 0), 1) AS DOUBLE), 6)
         AS contamination_r
FROM corpus c LEFT JOIN per USING (doc_id)
"""


def stratified_sample() -> str:
    """Deterministic hash sampling mirror: keep iff the first 8 md5 hex
    chars of the doc_id string sort under the language's threshold (hex
    string order == numeric order at fixed width)."""
    from .pipelines.textstats import SAMPLE_RATES
    whens = " ".join(
        f"WHEN lang = '{lg}' THEN '{int(r * 2**32):08x}'"
        for lg, r in sorted(SAMPLE_RATES.items()))
    return f"""
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
      (CASE {whens} ELSE '00000000' END)
"""


def quality_filter() -> str:
    """Quality-gate mirror: same signals, same threshold precedence
    (too_short > no_lang > low_alnum > low_unique — the engine's
    overwrite order reversed into CASE order)."""
    from .pipelines.textstats import (QF_MIN_ALNUM, QF_MIN_TOKENS,
                                      QF_MIN_UNIQUE)
    langs = sorted(LANG_STOPWORDS)
    cols = ",\n".join(
        "         len(list_filter(t.toks, x -> list_contains([{}], x))) AS c_{}"
        .format(", ".join(repr(s) for s in LANG_STOPWORDS[lg]), lg)
        for lg in langs)
    g = "GREATEST({})".format(", ".join(f"c_{lg}" for lg in langs))
    return preamble() + f""",
q AS (
  SELECT c.doc_id,
         length(c.text) AS n_chars,
         length(regexp_replace(c.text, '[^\\pL\\pN\\s]', '', 'g')) AS n_alnum,
         len(t.toks) AS n_tokens,
         len(list_distinct(t.toks)) AS n_uniq,
{cols}
  FROM corpus c JOIN toksrc t USING (doc_id)
),
r AS (
  SELECT doc_id,
    CASE
      WHEN n_tokens < {QF_MIN_TOKENS} THEN 'too_short'
      WHEN {g} = 0 THEN 'no_lang'
      WHEN n_alnum / CAST(GREATEST(n_chars, 1) AS DOUBLE) < {QF_MIN_ALNUM}
        THEN 'low_alnum'
      WHEN n_uniq / CAST(GREATEST(n_tokens, 1) AS DOUBLE) < {QF_MIN_UNIQUE}
        THEN 'low_unique'
      ELSE ''
    END AS reject_reason
  FROM q
)
SELECT doc_id, (reject_reason = '') AS kept, reject_reason FROM r
"""


def dedup_exact_fingerprint() -> str:
    return preamble() + """,
fp AS (SELECT doc_id, md5(array_to_string(toks, ' ')) AS fingerprint
       FROM toksrc)
SELECT fingerprint, min(doc_id) AS doc_id FROM fp GROUP BY fingerprint
"""


# shingles CTE shared by jaccard/minhash (token 3-grams, distinct per doc)
def _shingle_cte() -> str:
    n = N_SHINGLE
    return f"""
sh AS (
  SELECT doc_id,
    list_distinct(CASE
      WHEN len(toks) = 0 THEN []
      WHEN len(toks) < {n} THEN [array_to_string(toks, ' ')]
      ELSE list_transform(generate_series(1, len(toks) - {n - 1}),
                          i -> array_to_string(toks[i:i + {n - 1}], ' '))
    END) AS shingles
  FROM toksrc
),
shrow AS (SELECT doc_id, unnest(shingles) AS shingle FROM sh)
"""


def jaccard_pairs(threshold: float = 0.5) -> str:
    """Mirror of pipelines.dedup.jaccard_pairs incl. the head-bucket cap:
    shingles shared by more than MAX_SHINGLE_BUCKET docs generate no
    candidates (and are excluded from the intersection count, exactly like
    the engine's per-bucket pair emission); sizes stay full distinct
    counts. The cap does not bind at sf scale (max bucket ≈ 9)."""
    return preamble() + "," + _shingle_cte() + f""",
sizes AS (SELECT doc_id, count(*) AS n FROM shrow GROUP BY doc_id),
bucketok AS (SELECT shingle FROM shrow GROUP BY shingle
             HAVING count(*) <= {MAX_SHINGLE_BUCKET}),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS i
  FROM shrow a JOIN shrow b
    ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  JOIN bucketok k ON k.shingle = a.shingle
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.a, i.b, i.i / CAST(sa.n + sb.n - i.i AS DOUBLE) AS jaccard
FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
WHERE i.i / CAST(sa.n + sb.n - i.i AS DOUBLE) >= {threshold}
"""


def minhash_bands() -> str:
    """(doc_id, band, band_hash) — identical to pipelines.dedup.minhash_batch."""
    perms = MINHASH_PERMS
    sig_cols = ",\n".join(
        f"    (SELECT min(substr(md5(shingle), {1 + 2 * p}, 8)) "
        f"FROM shrow s WHERE s.doc_id = d.doc_id) AS m{p}"
        for p in range(perms))
    bands = []
    for b in range(LSH_BANDS):
        parts = [f"m{b * LSH_ROWS + r}" for r in range(LSH_ROWS)]
        expr = " || '-' || ".join(f"COALESCE({p}, '')" for p in parts)
        bands.append(f"SELECT doc_id, {b} AS band, {expr} AS band_hash FROM sig")
    return preamble() + "," + _shingle_cte() + f""",
sig AS (
  SELECT d.doc_id,
{sig_cols}
  FROM (SELECT DISTINCT doc_id FROM shrow) d
)
{" UNION ALL ".join(bands)}
"""


def minhash_pairs() -> str:
    """Candidate near-dup pairs sharing any LSH band bucket."""
    perms = MINHASH_PERMS
    sig_cols = ",\n".join(
        f"    (SELECT min(substr(md5(shingle), {1 + 2 * p}, 8)) "
        f"FROM shrow s WHERE s.doc_id = d.doc_id) AS m{p}"
        for p in range(perms))
    bands = []
    for b in range(LSH_BANDS):
        parts = [f"m{b * LSH_ROWS + r}" for r in range(LSH_ROWS)]
        expr = " || '-' || ".join(f"COALESCE({p}, '')" for p in parts)
        bands.append(f"SELECT doc_id, {b} AS band, {expr} AS band_hash FROM sig")
    return preamble() + "," + _shingle_cte() + f""",
sig AS (
  SELECT d.doc_id,
{sig_cols}
  FROM (SELECT DISTINCT doc_id FROM shrow) d
),
bandrows AS ({" UNION ALL ".join(bands)}),
bok AS (SELECT band, band_hash FROM bandrows GROUP BY band, band_hash
        HAVING count(DISTINCT doc_id) <= {MAX_LSH_BUCKET})
SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
FROM bandrows a JOIN bandrows b
  ON a.band = b.band AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
JOIN bok k ON k.band = a.band AND k.band_hash = a.band_hash
"""


def ann_cosine_topk(n_queries: int = 5, k: int = 10) -> str:
    """Brute cosine top-k, scores rounded to 6dp (summation-order-tolerant)."""
    return f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding
  FROM embeddings ORDER BY vec_id LIMIT {n_queries}
),
sims AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                CAST(e.embedding AS DOUBLE[])) AS cos
  FROM q CROSS JOIN embeddings e
),
ranked AS (
  SELECT query_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, vec_id) AS rank
  FROM sims
)
SELECT query_id, rank, vec_id, round(cos, 6) AS score_r
FROM ranked WHERE rank <= {k}
"""


# --------------------- multi-term / synonym / dismax / sort ---------------
def _multiterm_all(term_pred: str) -> str:
    """Constant-score expansion: docs containing any term matching the
    predicate (MultiTermQuery CONSTANT_SCORE rewrite)."""
    return preamble() + f"""
SELECT DISTINCT p.doc_id, c.url, CAST(1.0 AS DOUBLE) AS score
FROM postings p JOIN corpus c USING (doc_id)
WHERE {term_pred}
ORDER BY p.doc_id
"""


def prefix_all(prefix: str) -> str:
    return _multiterm_all(f"p.term LIKE '{prefix}%'")


def wildcard_all(regex: str) -> str:
    return _multiterm_all(f"regexp_full_match(p.term, '{regex}')")


def term_range_all(lo: str, hi: str) -> str:
    return _multiterm_all(f"p.term >= '{lo}' AND p.term <= '{hi}'")


def term_in_set_all(terms: tuple[str, ...]) -> str:
    in_list = ", ".join(repr(t) for t in sorted(set(terms)))
    return _multiterm_all(f"p.term IN ({in_list})")


def fuzzy_all(term: str, max_edits: int) -> str:
    return _multiterm_all(f"levenshtein(p.term, '{term}') <= {max_edits}")


def synonym_topk(terms: tuple[str, ...], k: int = 10) -> str:
    """SynonymQuery: freq = Σ term freqs per doc, df = max of term dfs
    (SynonymQuery.kt:182-202)."""
    in_list = ", ".join(repr(t) for t in terms)
    df = (f"(SELECT max(df) FROM tstats WHERE term IN ({in_list}))")
    score = score_sql("f.freq", "n.dln", idf_sql(df))
    return preamble() + f""",
syn AS (
  SELECT doc_id, sum(freq) AS freq FROM postings
  WHERE term IN ({in_list}) GROUP BY doc_id
)
SELECT f.doc_id, c.url, {score} AS score
FROM syn f JOIN normd n USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY score DESC, f.doc_id LIMIT {k}
"""


def dismax_topk(terms: tuple[str, ...], tie_breaker: float,
                k: int = 10) -> str:
    """DisjunctionMaxQuery: max + tie_breaker × (sum - max)."""
    ctes = ",\n".join(
        f"sc{i} AS ({term_scored_cte(repr(t))})" for i, t in enumerate(terms))
    ids = " UNION ".join(f"SELECT doc_id FROM sc{i}"
                         for i in range(len(terms)))
    joins = "".join(f" LEFT JOIN sc{i} ON sc{i}.doc_id = d.doc_id"
                    for i in range(len(terms)))
    vals = ", ".join(f"COALESCE(sc{i}.score, NULL)"
                     for i in range(len(terms)))
    mx = f"GREATEST({vals})"
    total = " + ".join(f"COALESCE(sc{i}.score, 0)"
                       for i in range(len(terms)))
    return preamble() + f""",
{ctes},
docs AS ({ids})
SELECT d.doc_id, c.url,
       round({mx} + {tie_breaker} * (({total}) - {mx}), 6) AS score_r
FROM docs d{joins} JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY score_r DESC, d.doc_id LIMIT {k}
"""


def delete_by_url_search(term: str) -> str:
    """Matches of ``term`` excluding tombstoned docs (doc_id %% 10 == 0
    deleted by url). Scores use FULL-corpus stats: deletions do not touch
    statistics until a merge reclaims them (Lucene liveDocs semantics)."""
    return preamble() + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
WHERE s.doc_id % 10 != 0
ORDER BY s.doc_id
"""


def soft_delete_search(term: str, mod: int = 9) -> str:
    """Matches of ``term`` through the soft-deletes wrapper: docs with
    doc_id %% mod == 0 soft-deleted (a value in the soft-deletes DV
    field) read as deleted, but statistics stay FULL-corpus until a
    merge reclaims — identical stats semantics to hard tombstones
    (SoftDeletesDirectoryReaderWrapper.kt + PendingSoftDeletes.kt)."""
    return preamble() + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
WHERE s.doc_id % {mod} != 0
ORDER BY s.doc_id
"""


def soft_retention_merge_search(term: str, mod: int = 9) -> str:
    """After a retention merge (SoftDeletesRetentionMergePolicy.kt):
    soft-deleted docs (doc_id %% mod == 0) whose retention predicate
    fails (doc_id %% (2*mod) != 0) are RECLAIMED — they leave the
    statistics corpus; retained ones stay in stats but remain hidden
    from the wrapped reader. Scores therefore use the reclaimed-corpus
    stats while the match set excludes every soft-deleted doc."""
    reclaim = f"(doc_id % {mod} = 0 AND doc_id % {2 * mod} != 0)"
    return preamble(corpus_where=f"NOT {reclaim}") + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
WHERE s.doc_id % {mod} != 0
ORDER BY s.doc_id
"""


def range_filter_all(term: str, lo: int, hi: int) -> str:
    """MUST(term) ∧ FILTER(doc length in [lo, hi]) — full match set; the
    filter restricts matches but never changes the score."""
    return preamble() + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
WHERE d.dl BETWEEN {lo} AND {hi}
ORDER BY s.doc_id
"""


def sorted_page2(term: str, k: int = 20) -> str:
    """searchAfter + Sort mirror: with a deterministic total order
    (length desc, doc_id), strictly-after page 2 == OFFSET k; the rank
    column restarts per page."""
    return preamble() + f""",
m AS (
  SELECT p.doc_id, c.url, d.dl AS length
  FROM postings p JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
  WHERE p.term = '{term}'
  ORDER BY d.dl DESC, p.doc_id LIMIT {k} OFFSET {k}
)
SELECT row_number() OVER (ORDER BY length DESC, doc_id) AS rank,
       doc_id, url, length
FROM m ORDER BY length DESC, doc_id
"""


def sorted_by_length(term: str, k: int = 20) -> str:
    """TopFieldCollector: matches of ``term`` ordered by doc length desc,
    tie-break doc_id asc."""
    return preamble() + f"""
SELECT row_number() OVER (ORDER BY d.dl DESC, p.doc_id) AS rank,
       p.doc_id, c.url, d.dl AS length
FROM postings p JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
WHERE p.term = '{term}'
ORDER BY d.dl DESC, p.doc_id LIMIT {k}
"""


def knn_vector_topk(k: int = 10) -> str:
    """Index-integrated exact KNN mirror: cosine of every doc's vector
    (embeddings joined vec_id == doc_id) against vector 0, top-k by
    (similarity desc, doc_id)."""
    return preamble() + f""",
qv AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
             CAST((SELECT embedding FROM qv) AS DOUBLE[])) AS cos
  FROM embeddings e
)
SELECT s.doc_id, c.url, round(s.cos, 6) AS score_r
FROM sims s JOIN corpus c USING (doc_id)
ORDER BY s.cos DESC, s.doc_id LIMIT {k}
"""


_QUANTIZE_CTES = """
bounds AS (
  SELECT min(c) AS lo, max(c) AS hi
  FROM (SELECT unnest(CAST(embedding AS DOUBLE[])) AS c FROM embeddings)
),
params AS (SELECT lo, hi, 127.0 / (hi - lo) AS scale FROM bounds),
qb AS (
  SELECT list_transform(CAST(e.embedding AS DOUBLE[]),
           x -> floor((least(greatest(x, p.lo), p.hi) - p.lo) * p.scale
                      + 0.5)) AS q
  FROM embeddings e, params p WHERE e.vec_id = 0
),
db AS (
  SELECT e.vec_id AS doc_id,
         list_transform(CAST(e.embedding AS DOUBLE[]),
           x -> floor((least(greatest(x, p.lo), p.hi) - p.lo) * p.scale
                      + 0.5)) AS b
  FROM embeddings e, params p
),
bsims AS (
  SELECT d.doc_id,
         0.5 + list_inner_product(d.b, (SELECT q FROM qb))
             / (len(d.b) * 32768.0) AS s
  FROM db d
)"""


def knn_filtered_topk(term: str, k: int = 10) -> str:
    """Pre-filtered KNN mirror: cosine of every doc's vector vs vector 0,
    restricted to docs containing ``term``, top-k by (cos desc, doc)."""
    return preamble() + f""",
qv AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
             CAST((SELECT embedding FROM qv) AS DOUBLE[])) AS cos
  FROM embeddings e
),
accepted AS (SELECT DISTINCT doc_id FROM postings WHERE term = '{term}')
SELECT s.doc_id, c.url, round(s.cos, 6) AS score_r
FROM sims s JOIN accepted USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY s.cos DESC, s.doc_id LIMIT {k}
"""


def rescore_topk(first_term: str, second_term: str, weight: float = 2.0,
                 first_k: int = 50, k: int = 10) -> str:
    """QueryRescorer mirror: first-pass BM25 top-first_k by (score desc,
    doc), then combined = first + weight × second-query score when it
    matches (COALESCE 0 adds exactly nothing in float64), top-k by
    (combined desc, doc)."""
    return preamble() + f""",
sc1 AS ({term_scored_cte(repr(first_term))}),
firstp AS (SELECT doc_id, score FROM sc1
           ORDER BY score DESC, doc_id LIMIT {first_k}),
sc2 AS ({term_scored_cte(repr(second_term))})
SELECT f.doc_id, c.url,
       round(f.score + {weight} * COALESCE(s.score, 0), 6) AS score_r
FROM firstp f LEFT JOIN sc2 s USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY (f.score + {weight} * COALESCE(s.score, 0)) DESC, f.doc_id
LIMIT {k}
"""


def match_positions_phrase(t1: str, t2: str) -> str:
    """Matches-API mirror: every adjacent (t1, t2) token pair —
    (doc_id, start_pos, end_pos) per occurrence."""
    return preamble() + f"""
SELECT a.doc_id, a.pos AS start_pos, b.pos AS end_pos
FROM tokens a JOIN tokens b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
WHERE a.term = '{t1}' AND b.term = '{t2}'
ORDER BY a.doc_id, a.pos
"""


# the synthetic generator's fixed vocabulary (TESTDATA.md) — phrase-prefix
# oracles enumerate prefix candidates statically from it so the idf chain
# can stay deterministically ordered (float64 sums are order-sensitive)
_GEN_VOCAB = ("a", "agg", "batch", "big", "column", "customer", "data",
              "dup", "fast", "filter", "group", "hash", "join", "key",
              "line", "merge", "order", "part", "query", "row", "scan",
              "slow", "small", "sort", "spark", "stream", "table", "the",
              "value", "vector", "window")


def phrase_prefix_topk(t0: str, prefix: str, k: int = 10) -> str:
    """MultiPhraseQuery phrase-prefix mirror (TestPhrasePrefixQuery.kt
    pattern over MultiPhraseQuery.kt): slot0 = t0 exactly, slot1 = any
    index term starting with `prefix`; freq = aligned start positions;
    idf sums over all PRESENT terms of both slots. The candidate set is
    static (fixed generator vocabulary) and sorted, matching the
    engine's sorted expand_prefix; COALESCE(+0.0) reproduces the skip of
    index-absent terms and the explicit left-assoc chain reproduces
    idf_sum's sequential float64 adds (BM25Similarity.kt:138-146)."""
    cands = sorted(t for t in _GEN_VOCAB if t.startswith(prefix))
    in_list = ", ".join(f"'{t}'" for t in cands)
    chain = " + ".join(
        ["0"] +
        [f"COALESCE({idf_sql(f'(SELECT df FROM tstats WHERE term = {t!r})')}, 0)"
         for t in [t0] + cands])
    score = score_sql("p.freq", "n.dln", f"({chain})")
    return preamble() + f""",
pfreq AS (
SELECT t0.doc_id, count(*) AS freq
FROM tokens t0 JOIN tokens t1
  ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1
WHERE t0.term = '{t0}' AND t1.term IN ({in_list})
GROUP BY t0.doc_id
)
SELECT p.doc_id, c.url, {score} AS score
FROM pfreq p JOIN normd n USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY score DESC, p.doc_id LIMIT {k}
"""


def elevated_topk(term: str, elevated_doc_ids: tuple, k: int = 10) -> str:
    """Query-elevation mirror (TestElevationComparator.kt): elevated
    doc_ids first in listing-priority order, remainder by BM25 score
    desc with docID tie-break; elevated non-matches carry score 0 (the
    zero-boost SHOULD union)."""
    prio = " ".join(f"WHEN i.doc_id = {d} THEN {len(elevated_doc_ids) - j}"
                    for j, d in enumerate(elevated_doc_ids))
    id_list = ", ".join(str(d) for d in elevated_doc_ids)
    return preamble() + f""",
sc AS ({term_scored_cte(repr(term))}),
ids AS (SELECT doc_id FROM sc
        UNION SELECT doc_id FROM corpus WHERE doc_id IN ({id_list}))
SELECT i.doc_id, c.url, round(COALESCE(sc.score, 0), 6) AS score_r
FROM ids i LEFT JOIN sc USING (doc_id) JOIN corpus c ON c.doc_id = i.doc_id
ORDER BY (CASE {prio} ELSE 0 END) DESC,
         COALESCE(sc.score, 0) DESC, i.doc_id LIMIT {k}
"""


def span_near_match_set(t1: str, t2: str, slop: int) -> str:
    """SpanNearQuery ordered MATCH SET mirror (NearSpansOrdered.kt): for
    two single-term clauses the greedy stretchToOrder chain is
    width-minimal, so a doc matches iff ∃ p1 < p2 with
    p2 − p1 − 1 ≤ slop. Constant score, ORDER BY doc_id — the scored
    entry stays rows-only (freq = Σ 1/(1+width) is traversal-paired),
    but the MATCH SET is exactly SQL-expressible."""
    return preamble() + f"""
SELECT DISTINCT a.doc_id, c.url, CAST(1.0 AS DOUBLE) AS score
FROM tokens a JOIN tokens b
  ON b.doc_id = a.doc_id AND b.pos > a.pos
 AND b.pos - a.pos - 1 <= {slop}
JOIN corpus c ON c.doc_id = a.doc_id
WHERE a.term = '{t1}' AND b.term = '{t2}'
ORDER BY a.doc_id
"""


def sloppy_pair_match_set(t1: str, t2: str, slop: int) -> str:
    """Two-term sloppy-phrase MATCH SET mirror (SloppyPhraseMatcher):
    with expected offsets 0,1 the per-pair distance is |p2 − p1 − 1|
    (covers the out-of-order transposition), so a doc matches iff some
    pair satisfies it ≤ slop. Constant score, ORDER BY doc_id — the
    3-term scored entry stays rows-only (traversal-paired freqs), but
    the pair MATCH SET is exactly SQL-expressible."""
    return preamble() + f"""
SELECT DISTINCT a.doc_id, c.url, CAST(1.0 AS DOUBLE) AS score
FROM tokens a JOIN tokens b
  ON b.doc_id = a.doc_id AND abs(b.pos - a.pos - 1) <= {slop}
JOIN corpus c ON c.doc_id = a.doc_id
WHERE a.term = '{t1}' AND b.term = '{t2}'
ORDER BY a.doc_id
"""


def rescore_sort_topk(term: str, first_k: int = 50, k: int = 10) -> str:
    """SortRescorer mirror: first-pass BM25 top-first_k by (score desc,
    doc), re-ORDERED by token length descending with docID tiebreak;
    scores stay the first-pass scores (SortRescorer.kt:77-84)."""
    return preamble() + f""",
sc1 AS ({term_scored_cte(repr(term))}),
firstp AS (SELECT doc_id, score FROM sc1
           ORDER BY score DESC, doc_id LIMIT {first_k})
SELECT f.doc_id, c.url, round(f.score, 6) AS score_r
FROM firstp f JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY d.dl DESC, f.doc_id LIMIT {k}
"""


def index_sort_range_all(lower: int = 200, upper: int = 400) -> str:
    """IndexSortSortedNumericDocValuesRangeQuery mirror: the engine
    binary-searches the n_chars-sorted segments; the relation is a plain
    BETWEEN over length(text) (n_chars == codepoint count on both
    sides). Constant score, deterministic ORDER BY doc_id."""
    return preamble() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM corpus WHERE length(text) BETWEEN {lower} AND {upper}
ORDER BY doc_id
"""


def knn_int8_topk(k: int = 10) -> str:
    """KnnByteVectorQuery mirror: the engine's flush-time scalar
    quantization (util/quantize.ScalarQuantizer, ScalarQuantizer.kt:92-115
    with confidenceInterval = 1.0 → exact global min/max bounds) is
    recomputed in SQL — floor(+0.5) bucketing into [0,127] — then the
    byte DOT_PRODUCT score 0.5 + dot/(dim * 2^15)
    (VectorUtil.kt:281-285), top-k by (score desc, doc_id)."""
    return preamble() + "," + _QUANTIZE_CTES + f"""
SELECT s.doc_id, c.url, round(s.s, 6) AS score_r
FROM bsims s JOIN corpus c USING (doc_id)
ORDER BY s.s DESC, s.doc_id LIMIT {k}
"""


def byte_vector_similarity_all() -> str:
    """ByteVectorSimilarityQuery mirror: every doc whose byte DOT_PRODUCT
    score meets the threshold — the threshold is itself the byte score of
    vector 1 against the query (vector 0), so it is data-derived and
    exact at every scale. Deterministic ORDER BY doc_id."""
    return preamble() + "," + _QUANTIZE_CTES + """
SELECT s.doc_id, c.url, round(s.s, 6) AS score_r
FROM bsims s JOIN corpus c USING (doc_id)
WHERE s.s >= (SELECT s FROM bsims WHERE doc_id = 1)
ORDER BY s.doc_id
"""


def hybrid_bm25_knn_topk(term: str, k: int = 10, knn_k: int = 50) -> str:
    """Hybrid retrieval: SHOULD(text term BM25) + SHOULD(global top-knn_k
    cosine) — scores sum per doc in the engine's float64 clause order."""
    return preamble() + f""",
qv AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
             CAST((SELECT embedding FROM qv) AS DOUBLE[])) AS cos
  FROM embeddings e
),
knn AS (SELECT doc_id, cos FROM sims ORDER BY cos DESC, doc_id
        LIMIT {knn_k}),
sc0 AS ({term_scored_cte(repr(term))}),
ids AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM knn)
SELECT d.doc_id, c.url,
       round((0 + COALESCE(sc0.score, 0)) + COALESCE(knn.cos, 0), 6)
         AS score_r
FROM ids d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
           LEFT JOIN knn ON knn.doc_id = d.doc_id
           JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY ((0 + COALESCE(sc0.score, 0)) + COALESCE(knn.cos, 0)) DESC,
         d.doc_id LIMIT {k}
"""


def feature_blend_topk(term: str, k: int = 10, weight: float = 0.5,
                       scaling: float = 100.0) -> str:
    """FeatureQuery blend mirror: SHOULD(BM25 term) + SHOULD(weight *
    ln(1 + length/scaling)) — per-doc float64 sum in clause order."""
    return preamble() + f""",
sc0 AS ({term_scored_cte(repr(term))}),
feat AS (
  SELECT doc_id, {weight} * ln(1 + dl / {scaling}) AS score
  FROM doclen WHERE dl > 0
),
ids AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM feat)
SELECT d.doc_id, c.url,
       round((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0), 6)
         AS score_r
FROM ids d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
           LEFT JOIN feat ON feat.doc_id = d.doc_id
           JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY ((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0)) DESC,
         d.doc_id LIMIT {k}
"""


def rrf_hybrid_topk(term: str, k: int = 10, list_k: int = 50,
                    rrf_k: int = 60) -> str:
    """TopDocs.rrf mirror (TopDocs.kt:339-392): fuse the BM25 top-list_k
    of `term` and the exact-cosine top-list_k of query vector 0 by
    summing 1/(rrf_k + rank) per doc_id. Both per-list rank orders are
    (score desc, doc_id asc) — the engine's (score, seg, doc) tie-break,
    since doc_id is monotone in (seg, local doc). The fused double sum is
    cast to REAL to reproduce the reference's `toFloat()` (TopDocs.kt:385),
    then rounded; final order (score desc, doc asc) = TopDocs.kt:372-375."""
    return preamble() + f""",
sc0 AS ({term_scored_cte(repr(term))}),
bm AS (SELECT doc_id, rnk FROM (
         SELECT doc_id,
                ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rnk
         FROM sc0) WHERE rnk <= {list_k}),
qv AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
             CAST((SELECT embedding FROM qv) AS DOUBLE[])) AS cos
  FROM embeddings e
),
knn AS (SELECT doc_id, rnk FROM (
          SELECT doc_id,
                 ROW_NUMBER() OVER (ORDER BY cos DESC, doc_id) AS rnk
          FROM sims) WHERE rnk <= {list_k}),
fused AS (
  SELECT doc_id,
         CAST(SUM(1.0 / ({rrf_k} + rnk)) AS REAL) AS score
  FROM (SELECT * FROM bm UNION ALL SELECT * FROM knn)
  GROUP BY doc_id)
SELECT f.doc_id, c.url, round(CAST(f.score AS DOUBLE), 6) AS score_r
FROM fused f JOIN corpus c USING (doc_id)
ORDER BY f.score DESC, f.doc_id LIMIT {k}
"""


def rawtf_term_topk(term: str, k: int = 10) -> str:
    """RawTFSimilarity mirror (RawTFSimilarity.kt: score = boost·freq,
    norm ignored; boost 1)."""
    return preamble() + f""",
scored AS (
  SELECT doc_id, CAST(freq AS DOUBLE) AS score
  FROM postings WHERE term = '{term}'
)
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def perfield_similarity_topk(term: str, k: int = 10) -> str:
    """PerFieldSimilarityWrapper mirror: SHOULD(text:term) under BM25 +
    SHOULD(title:term) under ClassicSimilarity (TF-IDF), per-doc clause
    sum in engine clause order — one query, two similarities keyed by
    field (PerFieldSimilarityWrapper.kt get(field))."""
    lit = f"'{term}'"
    classic_idf = (f"(ln((CAST((SELECT doc_count FROM tfstats) AS DOUBLE)"
                   f" + 1) / ((SELECT df FROM ttstats WHERE term = {lit})"
                   f" + 1)) + 1.0)")
    return preamble() + f""",
sc0 AS ({term_scored_cte(lit)}),
sc1 AS (
  SELECT p.doc_id,
         (sqrt(CAST(p.freq AS DOUBLE)) * {classic_idf}) *
         (1.0/sqrt(n.dln)) AS score
  FROM tpostings p JOIN tnormd n USING (doc_id)
  WHERE p.term = {lit}
),
docs AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM sc1),
summed AS (
  SELECT d.doc_id,
         ((0 + COALESCE(sc0.score, 0)) + COALESCE(sc1.score, 0)) AS score
  FROM docs d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
              LEFT JOIN sc1 ON sc1.doc_id = d.doc_id
)
SELECT s.doc_id, c.url, round(s.score, 6) AS score_r
FROM summed s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def classic_term_topk(term: str, k: int = 10) -> str:
    """ClassicSimilarity (TF-IDF) mirror: idf = ln((N+1)/(df+1)) + 1,
    score = (sqrt(freq) * idf) * (1/sqrt(decoded_length)) — the exact
    TFIDFScorer op order in float64."""
    idf = (f"(ln((CAST((SELECT doc_count FROM stats) AS DOUBLE) + 1) / "
           f"((SELECT df FROM tstats WHERE term = '{term}') + 1)) + 1.0)")
    return preamble() + f""",
scored AS (
  SELECT p.doc_id,
         (sqrt(CAST(p.freq AS DOUBLE)) * {idf}) * (1.0/sqrt(n.dln)) AS score
  FROM postings p JOIN normd n USING (doc_id)
  WHERE p.term = '{term}'
)
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def lm_dirichlet_term_topk(term: str, mu: float = 2000.0,
                           k: int = 10) -> str:
    """LMDirichletSimilarity mirror (LMDirichletSimilarity.kt:51-61):
    P = (ttf+1)/(sum_ttf+1), score = ln(1 + freq/(mu*P)) +
    ln(mu/(dln+mu)) clipped at 0, float64, boost 1."""
    p = (f"((CAST((SELECT ttf FROM tstats WHERE term = '{term}') "
         f"AS DOUBLE) + 1.0) / "
         f"(CAST((SELECT sum_ttf FROM stats) AS DOUBLE) + 1.0))")
    return preamble() + f""",
scored AS (
  SELECT p2.doc_id,
         greatest(ln(1.0 + CAST(p2.freq AS DOUBLE) / ({mu!r} * {p})) +
                  ln({mu!r} / (CAST(n.dln AS DOUBLE) + {mu!r})),
                  0.0) AS score
  FROM postings p2 JOIN normd n USING (doc_id)
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def lm_jelinek_mercer_term_topk(term: str, lam: float = 0.1,
                                k: int = 10) -> str:
    """LMJelinekMercerSimilarity mirror
    (LMJelinekMercerSimilarity.kt:44-46): score = ln(1 +
    ((1-lambda)*freq/dln) / (lambda*P)), float64, boost 1."""
    p = (f"((CAST((SELECT ttf FROM tstats WHERE term = '{term}') "
         f"AS DOUBLE) + 1.0) / "
         f"(CAST((SELECT sum_ttf FROM stats) AS DOUBLE) + 1.0))")
    return preamble() + f""",
scored AS (
  SELECT p2.doc_id,
         ln(1.0 + ({1.0 - lam!r} * CAST(p2.freq AS DOUBLE) /
                   CAST(n.dln AS DOUBLE)) / ({lam!r} * {p})) AS score
  FROM postings p2 JOIN normd n USING (doc_id)
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def dfr_ineb2_term_topk(term: str, k: int = 10) -> str:
    """DFRSimilarity(Ine, B, H2) mirror (BasicModelIne.kt:32-44,
    AfterEffectB.kt:31-35, NormalizationH2.kt:52-54), float64, 6dp:
    tfn = freq·log2(1+avgdl/dln), ae = (F+2)/(n+1),
    ne = N·(1-((N-1)/N)^F), score = log2((N+1)/(ne+0.5))·ae·
    (1 - 1/(1+tfn))."""
    return preamble() + f""",
consts AS (
  SELECT t.term, t.df, t.ttf,
         CAST((SELECT doc_count FROM stats) AS DOUBLE) AS N,
         (SELECT sum_ttf FROM stats) /
           CAST((SELECT doc_count FROM stats) AS DOUBLE) AS avgdl
  FROM tstats t WHERE t.term = '{term}'
),
scored AS (
  SELECT p2.doc_id,
         (ln((c.N + 1.0) /
             (c.N * (1.0 - pow((c.N - 1.0) / c.N, CAST(c.ttf AS DOUBLE)))
              + 0.5)) / ln(2.0))
         * ((c.ttf + 2.0) / (c.df + 1.0))
         * (1.0 - 1.0 / (1.0 + CAST(p2.freq AS DOUBLE) *
            (ln(1.0 + c.avgdl / CAST(n.dln AS DOUBLE)) / ln(2.0))))
           AS score
  FROM postings p2 JOIN normd n USING (doc_id), consts c
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c2.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c2 USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def ib_spl_term_topk(term: str, k: int = 10) -> str:
    """IBSimilarity(SPL, LambdaDF, H2) mirror (DistributionSPL.kt:20-43,
    LambdaDF.kt:13-19 float32 lambda), float64, 6dp: q = 1-1/(tfn+1),
    score = -ln((lambda^q - lambda)/(1 - lambda))."""
    lam = ("CAST(CAST((c.df + 1.0) / (c.N + 1.0) AS REAL) AS DOUBLE)")
    tfn = ("CAST(p2.freq AS DOUBLE) * "
           "(ln(1.0 + c.avgdl / CAST(n.dln AS DOUBLE)) / ln(2.0))")
    return preamble() + f""",
consts AS (
  SELECT t.term, t.df,
         CAST((SELECT doc_count FROM stats) AS DOUBLE) AS N,
         (SELECT sum_ttf FROM stats) /
           CAST((SELECT doc_count FROM stats) AS DOUBLE) AS avgdl
  FROM tstats t WHERE t.term = '{term}'
),
scored AS (
  SELECT p2.doc_id,
         -ln((pow({lam}, 1.0 - 1.0 / ({tfn} + 1.0)) - {lam})
             / (1.0 - {lam})) AS score
  FROM postings p2 JOIN normd n USING (doc_id), consts c
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c2.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c2 USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def dfi_chisq_term_topk(term: str, k: int = 10) -> str:
    """DFISimilarity(ChiSquared) mirror (DFISimilarity.kt:31-41,
    IndependenceChiSquared.kt:13-15), float64, 6dp: expected =
    (F+1)·dln/(T+1); 0 at/below expected else
    log2((freq-expected)²/expected + 1)."""
    exp = ("((CAST((SELECT ttf FROM tstats WHERE term = '" + term +
           "') AS DOUBLE) + 1.0) * CAST(n.dln AS DOUBLE) / "
           "(CAST((SELECT sum_ttf FROM stats) AS DOUBLE) + 1.0))")
    return preamble() + f""",
scored AS (
  SELECT p2.doc_id,
         CASE WHEN CAST(p2.freq AS DOUBLE) <= {exp} THEN 0.0
              ELSE ln((CAST(p2.freq AS DOUBLE) - {exp}) *
                      (CAST(p2.freq AS DOUBLE) - {exp}) / {exp} + 1.0)
                   / ln(2.0) END AS score
  FROM postings p2 JOIN normd n USING (doc_id)
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c2.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c2 USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def axiomatic_f2exp_term_topk(term: str, k: int = 10) -> str:
    """AxiomaticF2EXP mirror (AxiomaticF2EXP.kt: tf=1, ln=1,
    tfln=freq/(freq+s+s·dl/avgdl), idf=((N+1)/df)^k, gamma=0;
    defaults s=0.25, k=float32(0.35)), float64, 6dp."""
    import numpy as np
    s = float(np.float32(0.25))
    kk = float(np.float32(0.35))
    return preamble() + f""",
consts AS (
  SELECT t.df,
         CAST((SELECT doc_count FROM stats) AS DOUBLE) AS N,
         (SELECT sum_ttf FROM stats) /
           CAST((SELECT doc_count FROM stats) AS DOUBLE) AS avgdl
  FROM tstats t WHERE t.term = '{term}'
),
scored AS (
  SELECT p2.doc_id,
         greatest(0.0,
           (CAST(p2.freq AS DOUBLE) /
            (CAST(p2.freq AS DOUBLE) + {s!r} +
             {s!r} * CAST(n.dln AS DOUBLE) / c.avgdl))
           * pow((c.N + 1.0) / c.df, {kk!r})) AS score
  FROM postings p2 JOIN normd n USING (doc_id), consts c
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c2.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c2 USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def indri_dirichlet_term_topk(term: str, mu: float = 2000.0,
                              k: int = 10) -> str:
    """IndriDirichletSimilarity mirror
    (IndriDirichletSimilarity.kt:51-60): ln((freq + mu·ttf/sum_ttf) /
    (dln + mu)) — negative log-probabilities ranked descending,
    float64, 6dp."""
    p = (f"(CAST((SELECT ttf FROM tstats WHERE term = '{term}') "
         f"AS DOUBLE) / CAST((SELECT sum_ttf FROM stats) AS DOUBLE))")
    return preamble() + f""",
scored AS (
  SELECT p2.doc_id,
         ln((CAST(p2.freq AS DOUBLE) + {mu!r} * {p}) /
            (CAST(n.dln AS DOUBLE) + {mu!r})) AS score
  FROM postings p2 JOIN normd n USING (doc_id)
  WHERE p2.term = '{term}'
)
SELECT s.doc_id, c2.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c2 USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def combined_field_topk(term: str, w_text: float = 1.0,
                        w_title: float = 2.0, k: int = 10) -> str:
    """CombinedFieldQuery (BM25F) mirror (CombinedFieldQuery.kt +
    MultiNormsLeafSimScorer.kt): pseudo stats dc = max, sttf =
    Σ trunc(w·sttf_f), df = max over fields, per-doc freq =
    Σ w_f·freq_f, combined norm = encode(floor(Σ w_f·dln_f + 0.5))
    via the lt VALUES table, then the exact BM25 float64 kernel."""
    lit = f"'{term}'"
    idf = idf_sql("(SELECT df FROM pdf)", dc="(SELECT dc FROM pstats)")
    score = score_sql("m.freq", "m.dln", idf, av="pav")
    return preamble() + f""",
pstats AS (
  SELECT greatest((SELECT doc_count FROM stats),
                  (SELECT doc_count FROM tfstats)) AS dc,
         CAST(trunc({w_text!r} * (SELECT sum_ttf FROM stats)) AS BIGINT)
         + CAST(trunc({w_title!r} * (SELECT sum_ttf FROM tfstats))
                AS BIGINT) AS sttf
),
pav AS (SELECT sttf / CAST(dc AS DOUBLE) AS avgdl FROM pstats),
pdf AS (
  SELECT greatest(
    COALESCE((SELECT df FROM tstats WHERE term = {lit}), 0),
    COALESCE((SELECT df FROM ttstats WHERE term = {lit}), 0)) AS df
),
mergedf AS (
  SELECT doc_id,
         {w_text!r} * COALESCE(a.freq, 0) +
         {w_title!r} * COALESCE(b.freq, 0) AS freq
  FROM (SELECT doc_id, freq FROM postings WHERE term = {lit}) a
  FULL OUTER JOIN
       (SELECT doc_id, freq FROM tpostings WHERE term = {lit}) b
  USING (doc_id)
),
m AS (
  SELECT mf.doc_id, mf.freq,
         (SELECT max(v) FROM lt l2
          WHERE l2.v <= floor({w_text!r} * n1.dln +
                              {w_title!r} * n2.dln + 0.5)) AS dln
  FROM mergedf mf JOIN normd n1 USING (doc_id)
       JOIN tnormd n2 USING (doc_id)
)
SELECT m.doc_id, c.url, {score} AS score
FROM m JOIN corpus c USING (doc_id)
ORDER BY score DESC, m.doc_id LIMIT {k}
"""


def blended_term_topk(term: str, tie: float = 0.01, k: int = 10) -> str:
    """BlendedTermQuery mirror (BlendedTermQuery.kt:214-236 + :273):
    per-field BM25 with the ARTIFICIAL blended df (max over fields;
    BM25 ignores ttf), dismax-combined with the 0.01 tie breaker."""
    lit = f"'{term}'"
    dfb = ("greatest(COALESCE((SELECT df FROM tstats WHERE term = "
           f"{lit}), 0), COALESCE((SELECT df FROM ttstats WHERE term = "
           f"{lit}), 0))")
    s_text = score_sql("a.freq", "n1.dln", idf_sql(dfb))
    s_title = score_sql("b.freq", "n2.dln",
                        idf_sql(dfb, dc="(SELECT doc_count FROM tfstats)"),
                        av="tav")
    return preamble() + f""",
sct AS (
  SELECT a.doc_id, {s_text} AS s
  FROM (SELECT doc_id, freq FROM postings WHERE term = {lit}) a
  JOIN normd n1 USING (doc_id)
),
scti AS (
  SELECT b.doc_id, {s_title} AS s
  FROM (SELECT doc_id, freq FROM tpostings WHERE term = {lit}) b
  JOIN tnormd n2 USING (doc_id)
),
merged AS (
  SELECT doc_id, COALESCE(t.s, 0.0) AS st, COALESCE(i.s, 0.0) AS si
  FROM sct t FULL OUTER JOIN scti i USING (doc_id)
),
dm AS (
  SELECT doc_id,
         greatest(st, si) + {tie!r} * (st + si - greatest(st, si))
           AS score
  FROM merged
)
SELECT d.doc_id, c.url, d.score
FROM dm d JOIN corpus c USING (doc_id)
ORDER BY d.score DESC, d.doc_id LIMIT {k}
"""


def indri_and_topk(t1: str, t2: str, mu: float = 2000.0,
                   k: int = 10) -> str:
    """IndriAndQuery + IndriDirichlet mirror (IndriAndScorer.kt:21-46):
    union of matches; per clause score ln((freq + mu·ttf_t/sum_ttf) /
    (dln + mu)) with freq = 0 for the non-matching clause (the
    smoothing score); final = mean over the two equal-boost clauses."""
    def sterm(t, fr):
        p = (f"(CAST((SELECT ttf FROM tstats WHERE term = '{t}') "
             f"AS DOUBLE) / CAST((SELECT sum_ttf FROM stats) AS DOUBLE))")
        return (f"ln((CAST({fr} AS DOUBLE) + {mu!r} * {p}) / "
                f"(CAST(n.dln AS DOUBLE) + {mu!r}))")
    return preamble() + f""",
uni AS (
  SELECT doc_id, COALESCE(a.freq, 0) AS f1, COALESCE(b.freq, 0) AS f2
  FROM (SELECT doc_id, freq FROM postings WHERE term = '{t1}') a
  FULL OUTER JOIN
       (SELECT doc_id, freq FROM postings WHERE term = '{t2}') b
  USING (doc_id)
),
scored AS (
  SELECT u.doc_id,
         ({sterm(t1, 'u.f1')} + {sterm(t2, 'u.f2')}) / 2.0 AS score
  FROM uni u JOIN normd n USING (doc_id)
)
SELECT s.doc_id, c.url, round(s.score, 6) AS score_r
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def box2d_all(q1: tuple, q2: tuple, relation: str) -> str:
    """Multi-dim RangeFieldQuery mirror (RangeFieldQuery.kt QueryType,
    numDims=2): per-doc box [rlo,rhi]×[slo,shi] from the entry's
    derivation; intersects/within/contains AND across dims, crosses =
    whole-box intersects ∧ ¬within."""
    (lo1, hi1), (lo2, hi2) = q1, q2
    inter = (f"(rlo <= {hi1} AND rhi >= {lo1} AND "
             f"slo <= {hi2} AND shi >= {lo2})")
    within = (f"(rlo >= {lo1} AND rhi <= {hi1} AND "
              f"slo >= {lo2} AND shi <= {hi2})")
    contains = (f"(rlo <= {lo1} AND rhi >= {hi1} AND "
                f"slo <= {lo2} AND shi >= {hi2})")
    preds = {"intersects": inter, "within": within, "contains": contains,
             "crosses": f"{inter} AND NOT {within}"}
    return f"""
WITH corpus AS ({CORPUS_SQL}),
boxes AS (
  SELECT doc_id, url,
         doc_id * 17 % 1000 AS rlo,
         doc_id * 17 % 1000 + doc_id * 7 % 120 AS rhi,
         doc_id * 19 % 500 AS slo,
         doc_id * 19 % 500 + doc_id * 3 % 80 AS shi
  FROM corpus
)
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM boxes
WHERE {preds[relation]}
ORDER BY doc_id
"""


def range_field_all(lo: int, hi: int, relation: str) -> str:
    """RangeFieldQuery mirror over the synthetic [rlo, rhi] interval
    (same doc_id derivation as the engine's geo index):
    intersects / within / contains / crosses per
    document/RangeFieldQuery.kt QueryType (crosses = intersects ∧
    ¬within)."""
    preds = {
        "intersects": f"(rlo <= {hi} AND rhi >= {lo})",
        "within": f"(rlo >= {lo} AND rhi <= {hi})",
        "contains": f"(rlo <= {lo} AND rhi >= {hi})",
        "crosses": (f"(rlo <= {hi} AND rhi >= {lo}) AND NOT "
                    f"(rlo >= {lo} AND rhi <= {hi})"),
    }
    return f"""
WITH corpus AS ({CORPUS_SQL}),
ranges AS (
  SELECT doc_id, url,
         doc_id * 17 % 1000 AS rlo,
         doc_id * 17 % 1000 + doc_id * 7 % 120 AS rhi
  FROM corpus
)
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM ranges
WHERE {preds[relation]}
ORDER BY doc_id
"""


def point_in_set_all(term: str, values: tuple) -> str:
    """PointInSetQuery mirror: MUST(term) ∧ FILTER(doc length ∈ set)."""
    vals = ", ".join(str(int(v)) for v in values)
    return preamble() + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
WHERE d.dl IN ({vals})
ORDER BY s.doc_id
"""


def vector_similarity_all(threshold: float) -> str:
    """FloatVectorSimilarityQuery mirror: every vector with cosine >=
    threshold against query vector 0, score = cosine at 6dp."""
    return preamble() + f""",
qv AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
sims AS (
  SELECT e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
             CAST((SELECT embedding FROM qv) AS DOUBLE[])) AS cos
  FROM embeddings e
)
SELECT s.doc_id, c.url, round(s.cos, 6) AS score_r
FROM sims s JOIN corpus c USING (doc_id)
WHERE s.cos >= {threshold!r}
ORDER BY s.doc_id
"""


def sorted_by_url(term: str, k: int = 20) -> str:
    """STRING-typed field sort: url descending, doc_id tiebreak."""
    return preamble() + f"""
SELECT row_number() OVER (ORDER BY c.url DESC, p.doc_id) AS rank,
       p.doc_id, c.url
FROM postings p JOIN corpus c USING (doc_id)
WHERE p.term = '{term}'
ORDER BY c.url DESC, p.doc_id LIMIT {k}
"""


def sorted_multi_key(term: str, k: int = 20) -> str:
    """Compound sort (length asc, url desc, doc_id asc)."""
    return preamble() + f"""
SELECT row_number() OVER (ORDER BY d.dl, c.url DESC, p.doc_id) AS rank,
       p.doc_id, c.url, d.dl AS length
FROM postings p JOIN doclen d USING (doc_id) JOIN corpus c USING (doc_id)
WHERE p.term = '{term}'
ORDER BY d.dl, c.url DESC, p.doc_id LIMIT {k}
"""


def sorted_numeric_max(term: str, k: int = 20) -> str:
    """SortedNumericSortField MAX mirror: the multi-valued int field is
    the deterministic derivation the entry indexes (count = doc_id % 4,
    value_j = (doc_id·31 + j·57) % 1000); sort by its max DESC NULLS
    LAST, docID tiebreak."""
    sel = ("list_aggregate(list_transform("
           "generate_series(0, CAST(p.doc_id % 4 AS INT) - 1), "
           "j -> (p.doc_id*31 + j*57) % 1000), 'max')")
    return preamble() + f""",
m AS (
  SELECT p.doc_id, c.url, {sel} AS vals
  FROM postings p JOIN corpus c USING (doc_id)
  WHERE p.term = '{term}'
)
SELECT row_number() OVER (ORDER BY vals DESC NULLS LAST, doc_id) AS rank,
       doc_id, url, vals
FROM m ORDER BY vals DESC NULLS LAST, doc_id LIMIT {k}
"""


def sorted_set_middle(term: str, k: int = 20) -> str:
    """SortedSetSortField MIDDLE_MIN mirror: tags count = doc_id % 5,
    tag_j = 't' || (doc_id·7 + j·11) % 3; the selector indexes the
    SORTED DISTINCT set at (n-1)//2 (SortedSetSelector.kt
    MiddleMinValue), ASC NULLS LAST, docID tiebreak."""
    mk = ("list_sort(list_distinct(list_transform("
          "generate_series(0, CAST(p.doc_id % 5 AS INT) - 1), "
          "j -> 't' || CAST((p.doc_id*7 + j*11) % 3 AS VARCHAR))))")
    return preamble() + f""",
m AS (
  SELECT p.doc_id, c.url,
         (SELECT l[(len(l)-1)//2 + 1] FROM (SELECT {mk} AS l)) AS tags
  FROM postings p JOIN corpus c USING (doc_id)
  WHERE p.term = '{term}'
)
SELECT row_number() OVER (ORDER BY tags ASC NULLS LAST, doc_id) AS rank,
       doc_id, url, tags
FROM m ORDER BY tags ASC NULLS LAST, doc_id LIMIT {k}
"""


# ------------------------------ events ------------------------------------
def tumbling_counts(window_minutes: int = 60) -> str:
    w_us = window_minutes * 60 * 1_000_000
    return f"""
SELECT event_type,
       (epoch_us(ts) // {w_us}) * {w_us} AS window_us,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value_r,
       round(sum(value)/count(*), 6) AS mean_value_r
FROM events GROUP BY event_type, window_us
"""


def sessionize(gap_minutes: int = 30) -> str:
    gap_us = gap_minutes * 60 * 1_000_000
    return f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS ts_us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY epoch_us(ts))
           AS prev_us
  FROM events
),
marked AS (
  SELECT user_id, ts_us,
         CASE WHEN prev_us IS NULL OR ts_us - prev_us > {gap_us}
              THEN 1 ELSE 0 END AS brk
  FROM e
),
sess AS (
  SELECT user_id, ts_us,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM marked
)
SELECT user_id, min(ts_us) AS session_start_us, count(*) AS n_events,
       max(ts_us) - min(ts_us) AS duration_us
FROM sess GROUP BY user_id, sid
"""


def extract_invariant() -> str:
    """html→text extraction invariant: the full engine transform mirrored —
    script/style/comment removal, tag strip, entity decode (non-amp
    entities first, &amp; last: sequential replace() then matches the
    engine's single-pass alternation on nested cases like '&amp;lt;')."""
    stripped = """regexp_replace(regexp_replace(regexp_replace(regexp_replace(
        regexp_replace(
        CAST(html AS VARCHAR),
        '(?is)<script\\b.*?</script\\s*>', '', 'g'),
        '(?is)<style\\b.*?</style\\s*>', '', 'g'),
        '(?is)<head\\b.*?</head\\s*>', '', 'g'),
        '(?s)<!--.*?-->', '', 'g'),
        '(?s)<[^>]*>', '', 'g')"""
    ent = stripped
    # SQL literal escapes: '' is one quote inside '...'; a double-quote
    # char needs no escaping in a single-quoted literal
    title_raw = ("regexp_extract(CAST(html AS VARCHAR), "
                 "'(?is)<title[^>]*>(.*?)</title\\s*>', 1)")
    tent = title_raw
    for k, v in (("&lt;", "<"), ("&gt;", ">"), ('&quot;', '"'),
                 ("&apos;", "''"), ("&#39;", "''"), ("&nbsp;", " "),
                 ("&amp;", "&")):
        ent = f"replace({ent}, '{k}', '{v}')"
        tent = f"replace({tent}, '{k}', '{v}')"
    return preamble() + f"""
SELECT doc_id, ({ent} = text) AS match,
       ({tent} = title) AS title_match, length(text) AS text_len
FROM corpus
"""


def dedup_url_latest() -> str:
    """updateDocument-by-url upsert: two crawls (second = doc_id+N,
    warc_ts+1 day), keep the latest row per url."""
    return preamble() + """,
n AS (SELECT count(*) AS n FROM documents),
crawls AS (
  SELECT doc_id, url, warc_ts FROM corpus
  UNION ALL
  SELECT doc_id + (SELECT n FROM n), url,
         warc_ts + INTERVAL 1 DAY FROM corpus
)
SELECT url, doc_id FROM (
  SELECT url, doc_id,
         row_number() OVER (PARTITION BY url ORDER BY warc_ts DESC) AS rn
  FROM crawls
) WHERE rn = 1
"""


def hopping_counts(window_minutes: int = 60, hop_minutes: int = 15) -> str:
    w_us = window_minutes * 60 * 1_000_000
    h_us = hop_minutes * 60 * 1_000_000
    k = -(-w_us // h_us)  # ceil, like the engine
    return f"""
WITH hops AS (
  SELECT e.event_type, e.value,
         (epoch_us(e.ts) // {h_us}) * {h_us} - g.i * {h_us} AS window_us
  FROM events e CROSS JOIN (SELECT unnest(generate_series(0, {k - 1})) AS i) g
  WHERE epoch_us(e.ts) < (epoch_us(e.ts) // {h_us}) * {h_us}
        - g.i * {h_us} + {w_us}
)
SELECT event_type, window_us, count(*) AS n_events,
       round(sum(value), 6) AS sum_value_r
FROM hops GROUP BY event_type, window_us
"""


def near_dup_clusters() -> str:
    """Connected components over the LSH candidate pairs: cluster_id = min
    doc_id reachable through undirected pair edges (recursive closure)."""
    perms = MINHASH_PERMS
    sig_cols = ",\n".join(
        f"    (SELECT min(substr(md5(shingle), {1 + 2 * p}, 8)) "
        f"FROM shrow s WHERE s.doc_id = d.doc_id) AS m{p}"
        for p in range(perms))
    bands = []
    for b in range(LSH_BANDS):
        parts = [f"m{b * LSH_ROWS + r}" for r in range(LSH_ROWS)]
        expr = " || '-' || ".join(f"COALESCE({p}, '')" for p in parts)
        bands.append(f"SELECT doc_id, {b} AS band, {expr} AS band_hash FROM sig")
    pre = preamble().replace("\nWITH ", "\nWITH RECURSIVE ", 1)
    return pre + "," + _shingle_cte() + f""",
sig AS (
  SELECT d.doc_id,
{sig_cols}
  FROM (SELECT DISTINCT doc_id FROM shrow) d
),
bandrows AS ({" UNION ALL ".join(bands)}),
bok AS (SELECT band, band_hash FROM bandrows GROUP BY band, band_hash
        HAVING count(DISTINCT doc_id) <= {MAX_LSH_BUCKET}),
pairs AS (
  SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
  FROM bandrows a JOIN bandrows b
    ON a.band = b.band AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
  JOIN bok k ON k.band = a.band AND k.band_hash = a.band_hash
),
edges AS (SELECT a, b FROM pairs UNION ALL SELECT b AS a, a AS b FROM pairs),
nodes AS (SELECT DISTINCT a AS n FROM edges),
reach AS (
  SELECT n AS src, n AS dst FROM nodes
  UNION
  SELECT r.src, e.b AS dst FROM reach r JOIN edges e ON e.a = r.dst
)
SELECT src AS doc_id, min(dst) AS cluster_id
FROM reach GROUP BY src ORDER BY doc_id
"""


def embedding_dup_pairs(threshold: float = 0.95) -> str:
    """Embedding-cosine near-dup pairs (a < b, cosine >= threshold)."""
    return f"""
SELECT x.vec_id AS a, y.vec_id AS b,
       round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                    CAST(y.embedding AS DOUBLE[])), 6)
         AS cos_r
FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                             CAST(y.embedding AS DOUBLE[])) >= {threshold}
"""


# ------------------------------------------------------- corpus scrub -----
def c4_span_scrub(window: int = 10) -> str:
    """Mirror of pipelines.scrub.c4_span_scrub: non-overlapping
    ``window``-token spans, global first occurrence (min (doc_id,
    win_id)) kept, every other occurrence of a repeated span scrubbed;
    per-doc (n_spans, n_scrubbed) report. Same md5-16 span keys."""
    w = window
    return preamble() + f""",
winsrc AS (
  SELECT doc_id, CAST(floor(len(toks) / {w}) AS BIGINT) AS n_spans, toks
  FROM toksrc),
sprow AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, CAST(n_spans AS INT) - 1)) AS win_id
  FROM winsrc WHERE n_spans > 0),
spans AS (
  SELECT doc_id, win_id,
         substr(md5(array_to_string(
             toks[(CAST(win_id AS INT) * {w} + 1):
                  (CAST(win_id AS INT) * {w} + {w})], ' ')), 1, 16) AS span
  FROM sprow),
ranked AS (
  SELECT doc_id, span,
         row_number() OVER (PARTITION BY span
                            ORDER BY doc_id, win_id) AS rn
  FROM spans),
scrub AS (SELECT doc_id, count(*) AS n_scrubbed
          FROM ranked WHERE rn > 1 GROUP BY doc_id)
SELECT w.doc_id, w.n_spans,
       CAST(COALESCE(s.n_scrubbed, 0) AS BIGINT) AS n_scrubbed
FROM winsrc w LEFT JOIN scrub s USING (doc_id)
ORDER BY w.doc_id
"""


def chunk_documents(chunk: int = 64, stride: int = 48) -> str:
    """Mirror of pipelines.scrub.chunk_documents: chunk starts at 0,
    stride, 2·stride, …; last chunk ragged; a zero-token doc yields one
    empty chunk (md5 of '')."""
    c, s = chunk, stride
    return preamble() + f""",
nch AS (
  SELECT doc_id, toks, len(toks) AS n,
         CASE WHEN len(toks) <= {c} THEN 1
              ELSE 1 + CAST(ceil((len(toks) - {c}) / {s}.0) AS BIGINT)
         END AS n_chunks
  FROM toksrc),
ch AS (
  SELECT doc_id, toks, n,
         unnest(generate_series(0, CAST(n_chunks AS INT) - 1)) AS chunk_id
  FROM nch)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CAST(least(n - chunk_id * {s}, {c}) AS BIGINT) AS n_tokens,
       md5(array_to_string(
           toks[(CAST(chunk_id AS INT) * {s} + 1):
                (CAST(chunk_id AS INT) * {s} +
                 CAST(least(n - chunk_id * {s}, {c}) AS INT))], ' '))
         AS chunk_md5
FROM ch ORDER BY doc_id, chunk_id
"""


def semdedup_pairs(threshold: float = 0.4, n_planes: int = 4,
                   max_bucket: int = 4096) -> str:
    """Mirror of pipelines.scrub.semdedup_pairs: signed-random-projection
    buckets from the SAME fixed-seed planes (seed 42, first ``n_planes``
    rows, dim 64 per TESTDATA.md), within-bucket duplicate = some smaller
    vec_id at cosine ≥ threshold, representative = min such id; buckets
    over ``max_bucket`` vectors generate nothing (cap never binds at sf
    scale)."""
    from .pipelines.ann import _planes
    planes = _planes(64)[:n_planes]
    bucket_terms = " + ".join(
        f"(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]), "
        f"[{', '.join(repr(float(x)) for x in planes[p])}]) > 0 "
        f"THEN {1 << p} ELSE 0 END)"
        for p in range(n_planes))
    return f"""
WITH b AS (
  SELECT vec_id, embedding, CAST({bucket_terms} AS BIGINT) AS bucket
  FROM embeddings
),
bok AS (SELECT bucket FROM b GROUP BY bucket
        HAVING count(*) <= {max_bucket}),
dups AS (
  SELECT y.vec_id AS vec_id, y.bucket AS bucket, min(x.vec_id) AS dup_of
  FROM b x
  JOIN b y ON x.bucket = y.bucket AND x.vec_id < y.vec_id
  JOIN bok k ON k.bucket = y.bucket
  WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                               CAST(y.embedding AS DOUBLE[]))
        >= {threshold}
  GROUP BY y.vec_id, y.bucket
)
SELECT vec_id, bucket, dup_of FROM dups ORDER BY vec_id
"""


def bpe_token_counts() -> str:
    """Mirror of pipelines.textstats.bpe_token_counts: the RE2-compatible
    GPT-2-ish pre-tokenizer over the raw page text, global counts."""
    from .pipelines.textstats import BPE_PRETOKEN_PATTERN
    pat = BPE_PRETOKEN_PATTERN.replace("'", "''")
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toks AS (
  SELECT unnest(regexp_extract_all(text, '{pat}')) AS token FROM corpus)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM toks GROUP BY token ORDER BY token
"""


def url_dedup() -> str:
    """Mirror of pipelines.dedup.url_dedup: the same deterministic messy
    URL synthesis (scheme flip, www./case noise, trailing slash, utm
    query over a shared doc_id % 397 base) and the same RE2
    canonicalization chain, then keep-min-doc_id per canonical URL."""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
raw AS (
  SELECT doc_id,
    (CASE WHEN doc_id % 2 = 1 THEN 'http' ELSE 'https' END) || '://' ||
    (CASE WHEN doc_id % 3 = 0 THEN 'www.example.com'
          WHEN doc_id % 11 = 0 THEN 'EXAMPLE.com'
          ELSE 'example.com' END) ||
    '/doc/' || CAST(doc_id % 397 AS VARCHAR) ||
    (CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END) ||
    (CASE WHEN doc_id % 7 = 0 THEN '?utm_source=feed' ELSE '' END)
      AS url_raw
  FROM corpus),
canon AS (
  SELECT doc_id,
    regexp_replace(regexp_replace(regexp_replace(regexp_replace(
      lower(url_raw),
      '^http://', 'https://'),
      '^https://www\\.', 'https://'),
      '\\?utm_[a-z_]+=[^&#]*$', ''),
      '/$', '') AS url_canon
  FROM raw)
SELECT url_canon, min(doc_id) AS keep_doc_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM canon GROUP BY url_canon ORDER BY url_canon
"""


# ----------------------------------------------------------- simhash ------
def _shingle_tf_cte() -> str:
    """Shingle rows WITH term frequency (the simhash weight) — the
    non-distinct sibling of ``_shingle_cte``."""
    n = N_SHINGLE
    return f"""
shall AS (
  SELECT doc_id, shingle, count(*) AS tf FROM (
    SELECT doc_id, unnest(CASE
      WHEN len(toks) = 0 THEN []
      WHEN len(toks) < {n} THEN [array_to_string(toks, ' ')]
      ELSE list_transform(generate_series(1, len(toks) - {n - 1}),
                          i -> array_to_string(toks[i:i + {n - 1}], ' '))
    END) AS shingle FROM toksrc) GROUP BY doc_id, shingle
)"""


def _simhash_sig_ctes() -> str:
    """doc_id → 64-bit SimHash signature, mirroring simhash_batch exactly:
    h = first 16 md5 hex chars as uint64, bit i of the signature set iff
    Σ_shingles tf·(2·bit_i(h)−1) > 0."""
    return _shingle_tf_cte() + """,
hsh AS (
  SELECT doc_id, tf,
         ('0x' || substr(md5(shingle), 1, 16))::UBIGINT AS h
  FROM shall
),
bitsum AS (
  SELECT doc_id, bb.b,
         sum(CASE WHEN (h >> bb.b) & 1 = 1 THEN tf ELSE -tf END) AS s
  FROM hsh, (SELECT unnest(generate_series(0, 63)) AS b) bb
  GROUP BY doc_id, bb.b
),
sig0 AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN s > 0 THEN
             CAST((1::HUGEINT << b) % 18446744073709551616::HUGEINT
                  AS UBIGINT)
             ELSE 0::UBIGINT END) AS UBIGINT) AS sig
  FROM bitsum GROUP BY doc_id
),
sigs AS (
  SELECT c.doc_id, COALESCE(s.sig, 0::UBIGINT) AS sig
  FROM corpus c LEFT JOIN sig0 s USING (doc_id)
)"""


def simhash_signatures() -> str:
    """Mirror of pipelines.dedup.simhash_signatures (bit-twiddling in
    DuckDB: hex-cast md5 head, shift/mask bit extraction)."""
    return preamble() + "," + _simhash_sig_ctes() + """
SELECT doc_id, sig AS simhash FROM sigs
"""


def simhash_pairs(max_bucket: int = MAX_LSH_BUCKET) -> str:
    """Mirror of pipelines.dedup.simhash_candidate_pairs: 4×16-bit band
    buckets (pigeonhole for Hamming ≤ 3), over-cap buckets dropped, true
    Hamming via bit_count(xor), distinct pairs."""
    return preamble() + "," + _simhash_sig_ctes() + f""",
bandrow AS (
  SELECT doc_id, sig, bb.b AS band,
         CAST((sig >> (16 * bb.b)) & 65535 AS BIGINT) AS band_bits
  FROM sigs, (SELECT unnest([0, 1, 2, 3]) AS b) bb
),
bucketok AS (
  SELECT band, band_bits FROM bandrow
  GROUP BY band, band_bits HAVING count(*) <= {max_bucket}
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b,
         CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT) AS hamming
  FROM bandrow x
  JOIN bandrow y ON x.band = y.band AND x.band_bits = y.band_bits
                 AND x.doc_id < y.doc_id
  JOIN bucketok k ON k.band = x.band AND k.band_bits = x.band_bits
)
SELECT a, b, hamming FROM cand WHERE hamming <= 3
"""


# ------------------------------------------------------- LSH multi-probe --
def ann_lsh_topk(n_queries: int = 5, k: int = 10, radius: int = 2) -> str:
    """Mirror of pipelines.ann.ann_lsh_topk: signed-random-projection
    buckets from the SAME deterministic planes (seed 42, embedded as SQL
    literals — dim 64 per TESTDATA.md), multi-probe = all vectors whose
    bucket is within Hamming ``radius`` of the query's, cosine top-k."""
    import numpy as np

    from .pipelines.ann import N_PLANES, _planes
    planes = _planes(64)
    bucket_terms = " + ".join(
        f"(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]), "
        f"[{', '.join(repr(float(x)) for x in planes[p])}]) > 0 "
        f"THEN {1 << p} ELSE 0 END)"
        for p in range(N_PLANES))
    return f"""
WITH b AS (
  SELECT vec_id, embedding, CAST({bucket_terms} AS UBIGINT) AS bucket
  FROM embeddings
),
q AS (
  SELECT vec_id AS query_id, embedding AS qe, bucket AS qb
  FROM b WHERE vec_id < {n_queries}
),
sims AS (
  SELECT q.query_id, v.vec_id,
         list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                CAST(v.embedding AS DOUBLE[])) AS cos
  FROM q JOIN b v ON bit_count(xor(q.qb, v.bucket)) <= {radius}
),
ranked AS (
  SELECT query_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, vec_id) AS rank
  FROM sims
)
SELECT query_id, rank, vec_id, round(cos, 6) AS score_r
FROM ranked WHERE rank <= {k}
"""


# ------------------------------------------------------ German analyzer ---
def _german_stop_list_sql() -> str:
    from .analysis.german import GERMAN_STOP_WORDS
    return ", ".join(f"'{w}'" for w in sorted(GERMAN_STOP_WORDS))


def german_preamble() -> str:
    """BM25 CTEs over GERMAN-analyzed text (mirror of GermanAnalyzer:
    stop → normalization → light stem). The normalization state machine
    reduces to two sequential global regex replaces — deletions only ever
    expose 'a'/'o' (already in the excluded context class), so the
    left-to-right pass and the sequential replaces agree on every input
    (proof sketch in analysis/german.py; vectors in tests)."""
    stops = _german_stop_list_sql()
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
gtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
gkept AS (SELECT doc_id, t0 FROM gtok WHERE t0 NOT IN ({stops})),
gx AS (
  SELECT doc_id, translate(
    regexp_replace(
      regexp_replace(replace(t0, 'ß', 'ss'), '([ao])e', '\\1', 'g'),
      '(^|[^aoueiqyäöü])ue', '\\1u', 'g'),
    'äàáâöòóôïìíîüùúû', 'aaaaooooiiiiuuuu') AS t1
  FROM gkept
),
gs1 AS (
  SELECT doc_id, CASE
    WHEN length(t1) > 5 AND t1 LIKE '%ern' THEN substr(t1, 1, length(t1)-3)
    WHEN length(t1) > 4 AND regexp_matches(t1, 'e[mnrs]$')
      THEN substr(t1, 1, length(t1)-2)
    WHEN length(t1) > 3 AND t1 LIKE '%e' THEN substr(t1, 1, length(t1)-1)
    WHEN length(t1) > 3 AND regexp_matches(t1, '[bdfghklmnt]s$')
      THEN substr(t1, 1, length(t1)-1)
    ELSE t1 END AS t2
  FROM gx
),
gterms AS (
  SELECT doc_id, CASE
    WHEN length(t2) > 5 AND t2 LIKE '%est' THEN substr(t2, 1, length(t2)-3)
    WHEN length(t2) > 4 AND regexp_matches(t2, 'e[rn]$')
      THEN substr(t2, 1, length(t2)-2)
    WHEN length(t2) > 4 AND regexp_matches(t2, '[bdfghklmnt]st$')
      THEN substr(t2, 1, length(t2)-2)
    ELSE t2 END AS term
  FROM gs1
),
postings AS (
  SELECT doc_id, term, count(*) AS freq FROM gterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM gkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_german_topk(stemmed_term: str, k: int = 10) -> str:
    """BM25 top-k over the German-analyzed index; ``stemmed_term`` is the
    query term AFTER the same analysis chain (QueryBuilder symmetry)."""
    lit = f"'{stemmed_term}'"
    return german_preamble() + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def _stop_list_sql(words) -> str:
    return ", ".join("'" + w.replace("'", "''") + "'" for w in sorted(words))


_ROMANCE_FOLD = ("'àáâäòóôöèéêëùúûüìíîï'", "'aaaaooooeeeeuuuuiiii'")


def _spanish_stem_sql(col: str) -> str:
    """Exact SQL mirror of romance.spanish_light_stem."""
    t1 = f"translate({col}, {_ROMANCE_FOLD[0]}, {_ROMANCE_FOLD[1]})"
    return f"""CASE WHEN length({col}) < 5 THEN {col} ELSE (
    CASE
      WHEN regexp_matches({t1}, '[oae]$')
        THEN substr({t1}, 1, length({t1}) - 1)
      WHEN {t1} LIKE '%eses' THEN substr({t1}, 1, length({t1}) - 2)
      WHEN {t1} LIKE '%ces'
        THEN substr({t1}, 1, length({t1}) - 3) || 'z'
      WHEN regexp_matches({t1}, '[oae]s$')
        THEN substr({t1}, 1, length({t1}) - 2)
      ELSE {t1} END) END"""


def _italian_stem_sql(col: str) -> str:
    """Exact SQL mirror of romance.italian_light_stem."""
    t1 = f"translate({col}, {_ROMANCE_FOLD[0]}, {_ROMANCE_FOLD[1]})"
    return f"""CASE WHEN length({col}) < 6 THEN {col} ELSE (
    CASE
      WHEN regexp_matches({t1}, '([ih]e|[hi]i|i[ao])$')
        THEN substr({t1}, 1, length({t1}) - 2)
      WHEN regexp_matches({t1}, '[eiao]$')
        THEN substr({t1}, 1, length({t1}) - 1)
      ELSE {t1} END) END"""


_IT_ELISION_RE = ("^(dall|dell|nell|sull|coll|pell|dagl|degl|negl|sugl|"
                  "agl|all|gl|un|c|l|m|t|s|v|d)[''’](.+)$")


def _pt_stages_sql() -> tuple[str, str, str, str]:
    """The four PortugueseLightStemmer stages as column expressions over
    (t0 → p1 → p2 → p3 → term); mirror of romance.portuguese_light_stem
    (suffix removal, feminine norm, final-vowel strip, fold LAST)."""
    p1 = """CASE WHEN length(t0) < 4 THEN t0
    WHEN length(t0) > 4 AND regexp_matches(t0, '[rslz]es$')
      THEN substr(t0, 1, length(t0) - 2)
    WHEN length(t0) > 3 AND t0 LIKE '%ns'
      THEN substr(t0, 1, length(t0) - 2) || 'm'
    WHEN length(t0) > 4 AND (t0 LIKE '%eis' OR t0 LIKE '%éis')
      THEN substr(t0, 1, length(t0) - 3) || 'el'
    WHEN length(t0) > 4 AND t0 LIKE '%ais'
      THEN substr(t0, 1, length(t0) - 3) || 'al'
    WHEN length(t0) > 4 AND t0 LIKE '%óis'
      THEN substr(t0, 1, length(t0) - 3) || 'ol'
    WHEN length(t0) > 4 AND t0 LIKE '%is'
      THEN substr(t0, 1, length(t0) - 1) || 'l'
    WHEN length(t0) > 3 AND (t0 LIKE '%ões' OR t0 LIKE '%ães')
      THEN substr(t0, 1, length(t0) - 3) || 'ão'
    WHEN length(t0) > 6 AND t0 LIKE '%mente'
      THEN substr(t0, 1, length(t0) - 5)
    WHEN length(t0) > 3 AND t0 LIKE '%s'
      THEN substr(t0, 1, length(t0) - 1)
    ELSE t0 END"""
    p2 = """CASE WHEN length(t0) < 4 OR length(p1) <= 3 OR p1 NOT LIKE '%a'
         THEN p1
    WHEN length(p1) > 7 AND (p1 LIKE '%inha' OR p1 LIKE '%iaca'
                             OR p1 LIKE '%eira')
      THEN substr(p1, 1, length(p1) - 1) || 'o'
    WHEN length(p1) > 6 AND (p1 LIKE '%osa' OR p1 LIKE '%ica'
      OR p1 LIKE '%ida' OR p1 LIKE '%ada' OR p1 LIKE '%iva'
      OR p1 LIKE '%ama')
      THEN substr(p1, 1, length(p1) - 1) || 'o'
    WHEN length(p1) > 6 AND p1 LIKE '%ona'
      THEN substr(p1, 1, length(p1) - 3) || 'ão'
    WHEN length(p1) > 6 AND p1 LIKE '%ora'
      THEN substr(p1, 1, length(p1) - 1)
    WHEN length(p1) > 6 AND p1 LIKE '%esa'
      THEN substr(p1, 1, length(p1) - 3) || 'ês'
    WHEN length(p1) > 6 AND p1 LIKE '%na'
      THEN substr(p1, 1, length(p1) - 1) || 'o'
    ELSE p1 END"""
    p3 = """CASE WHEN length(t0) >= 4 AND length(p2) > 4
              AND regexp_matches(p2, '[eao]$')
         THEN substr(p2, 1, length(p2) - 1) ELSE p2 END"""
    fold = ("translate(p3, 'àáâäãòóôöõèéêëùúûüìíîïç', "
            "'aaaaaoooooeeeeuuuuiiiic')")
    return p1, p2, p3, fold


def romance_preamble(lang: str) -> str:
    """BM25 CTEs over SPANISH / ITALIAN / PORTUGUESE-analyzed text —
    mirrors of the romance.py chains ([elision →] stop → light stem)."""
    from .analysis.romance import (ITALIAN_STOP_WORDS, PORTUGUESE_STOP_WORDS,
                                   SPANISH_STOP_WORDS)
    if lang == "spanish":
        stops = _stop_list_sql(SPANISH_STOP_WORDS)
        pre_tok = "t0"
        stem_ctes = f"rterms AS (SELECT doc_id, {_spanish_stem_sql('t0')} AS term FROM rkept)"
    elif lang == "italian":
        stops = _stop_list_sql(ITALIAN_STOP_WORDS)
        pre_tok = (f"regexp_replace(t0, '{_IT_ELISION_RE}', '\\2')")
        stem_ctes = f"rterms AS (SELECT doc_id, {_italian_stem_sql('t0')} AS term FROM rkept)"
    elif lang == "portuguese":
        stops = _stop_list_sql(PORTUGUESE_STOP_WORDS)
        pre_tok = "t0"
        p1, p2, p3, fold = _pt_stages_sql()
        stem_ctes = f"""rp1 AS (SELECT doc_id, t0, {p1} AS p1 FROM rkept),
rp2 AS (SELECT doc_id, t0, p1, {p2} AS p2 FROM rp1),
rp3 AS (SELECT doc_id, t0, {p3} AS p3 FROM rp2),
rterms AS (SELECT doc_id, {fold} AS term FROM rp3)"""
    else:
        raise ValueError(lang)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {pre_tok.replace('t0', 'traw')} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{stem_ctes},
postings AS (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_romance_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    lit = f"'{stemmed_term}'"
    return romance_preamble(lang) + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# --------------------------------------------- Scandinavian snowball ------
def _snowball_suffix_case(col: str, table, action_fn) -> str:
    """Longest-match Snowball ``among`` as an ordered CASE cascade: the
    table is sorted longest-first, every WHEN requires the suffix to lie
    wholly inside R1 (start index >= p1), and the first structural match
    decides — conditional actions no-op inside their THEN, exactly like a
    failed among action in Snowball."""
    lines = ["CASE"]
    for s, a in table:
        lines.append(
            f"    WHEN {col} LIKE '%{s}' AND length({col}) - {len(s)} >= p1"
            f" THEN {action_fn(s, a, col)}")
    lines.append(f"    ELSE {col} END")
    return "\n".join(lines)


def _snowball_pair_case(col: str, pairs) -> str:
    plist = ", ".join(f"'{p}'" for p in pairs)
    return (f"CASE WHEN right({col}, 2) IN ({plist}) AND "
            f"length({col}) - 2 >= p1 "
            f"THEN left({col}, length({col}) - 1) ELSE {col} END")


def _char_at_from_end(col: str, back: int) -> str:
    """1-based substr of the char `back` positions before the end
    (back=1 → second-to-last char)."""
    return f"substr({col}, length({col}) - {back}, 1)"


def _nordic_stem_ctes(lang: str) -> str:
    """CTE chain rkept(doc_id, t0) → rterms(doc_id, term) implementing the
    Snowball Danish/Norwegian/Swedish stemmer — GENERATED from the same
    suffix tables analysis/nordic.py runs, so Ray and SQL agree by
    construction."""
    from .analysis import nordic as nd

    def cset(chars):
        return ", ".join(f"'{c}'" for c in sorted(chars))

    if lang == "danish":
        vowels, main, pairs = nd.DA_VOWELS, nd.DA_MAIN, nd.DA_PAIRS

        def main_act(s, a, col):
            if a == 1:
                return f"left({col}, length({col}) - {len(s)})"
            prev = _char_at_from_end(col, 1)
            return (f"CASE WHEN length({col}) >= 2 AND {prev} IN "
                    f"({cset(nd.DA_S_ENDINGS)}) "
                    f"THEN left({col}, length({col}) - 1) ELSE {col} END")

        o_len = "CASE\n" + "\n".join(
            f"    WHEN w2 LIKE '%{s}' AND length(w2) - {len(s)} >= p1"
            f" THEN {len(s)}" for s, _ in nd.DA_OTHER) + "\n    ELSE 0 END"
        o_act = "CASE\n" + "\n".join(
            f"    WHEN w2 LIKE '%{s}' AND length(w2) - {len(s)} >= p1"
            f" THEN {a}" for s, a in nd.DA_OTHER) + "\n    ELSE 0 END"
        last = "right(w, 1)"
        prev = _char_at_from_end("w", 1)
        undouble = (f"CASE WHEN length(w) >= 2 AND length(w) - 1 >= p1 "
                    f"AND {last} IN ({cset(nd.DA_DOUBLE_C)}) "
                    f"AND {prev} = {last} "
                    f"THEN left(w, length(w) - 1) ELSE w END")
        return f"""rp AS MATERIALIZED (
  SELECT doc_id, t0,
    CASE WHEN m = '' THEN length(t0) ELSE greatest(3, length(m)) END AS p1
  FROM (SELECT doc_id, t0,
          regexp_extract(t0, '^[^{''.join(sorted(vowels))}]*[{''.join(sorted(vowels))}]+[^{''.join(sorted(vowels))}]') AS m
        FROM rkept)
),
rm AS MATERIALIZED (SELECT doc_id, p1, {_snowball_suffix_case('t0', main, main_act)} AS w FROM rp),
rc AS MATERIALIZED (SELECT doc_id, p1, {_snowball_pair_case('w', pairs)} AS w FROM rm),
ri AS MATERIALIZED (SELECT doc_id, p1,
         CASE WHEN w LIKE '%igst' THEN left(w, length(w) - 2) ELSE w END AS w2
       FROM rc),
ro AS MATERIALIZED (SELECT doc_id, p1, w2, {o_len} AS o_len, {o_act} AS o_act FROM ri),
ro2 AS MATERIALIZED (SELECT doc_id, p1, o_act,
          CASE WHEN o_act = 1 THEN left(w2, length(w2) - o_len)
               WHEN o_act = 2 THEN left(w2, length(w2) - 1)
               ELSE w2 END AS w
        FROM ro),
ro3 AS MATERIALIZED (SELECT doc_id, p1,
          CASE WHEN o_act = 1 THEN {_snowball_pair_case('w', pairs)} ELSE w END AS w
        FROM ro2),
rterms AS MATERIALIZED (SELECT doc_id, {undouble} AS term FROM ro3)"""

    if lang == "norwegian":
        vowels, main, pairs = nd.NO_VOWELS, nd.NO_MAIN, nd.NO_PAIRS

        def main_act(s, a, col):
            if a == 1:
                return f"left({col}, length({col}) - {len(s)})"
            if a == 3:
                return f"left({col}, length({col}) - {len(s)}) || 'er'"
            prev = _char_at_from_end(col, 1)
            prev2 = _char_at_from_end(col, 2)
            return (f"CASE WHEN length({col}) >= 2 AND {prev} IN "
                    f"({cset(nd.NO_S_ENDINGS)}) "
                    f"THEN left({col}, length({col}) - 1) "
                    f"WHEN length({col}) >= 3 AND {prev} = 'k' AND "
                    f"{prev2} NOT IN ({cset(vowels)}) "
                    f"THEN left({col}, length({col}) - 1) "
                    f"ELSE {col} END")

        def other_act(s, a, col):
            return f"left({col}, length({col}) - {len(s)})"

        return f"""rp AS MATERIALIZED (
  SELECT doc_id, t0,
    CASE WHEN m = '' THEN length(t0) ELSE greatest(3, length(m)) END AS p1
  FROM (SELECT doc_id, t0,
          regexp_extract(t0, '^[^{''.join(sorted(vowels))}]*[{''.join(sorted(vowels))}]+[^{''.join(sorted(vowels))}]') AS m
        FROM rkept)
),
rm AS MATERIALIZED (SELECT doc_id, p1, {_snowball_suffix_case('t0', main, main_act)} AS w FROM rp),
rc AS MATERIALIZED (SELECT doc_id, p1, {_snowball_pair_case('w', pairs)} AS w FROM rm),
rterms AS MATERIALIZED (SELECT doc_id, {_snowball_suffix_case('w', nd.NO_OTHER, other_act)} AS term FROM rc)"""

    if lang == "swedish":
        vowels, main, pairs = nd.SV_VOWELS, nd.SV_MAIN, nd.SV_PAIRS

        def main_act(s, a, col):
            if a == 1:
                return f"left({col}, length({col}) - {len(s)})"
            prev = _char_at_from_end(col, 1)
            return (f"CASE WHEN length({col}) >= 2 AND {prev} IN "
                    f"({cset(nd.SV_S_ENDINGS)}) "
                    f"THEN left({col}, length({col}) - 1) ELSE {col} END")

        def other_act(s, a, col):
            if a == 1:
                return f"left({col}, length({col}) - {len(s)})"
            if a == 3:  # fullt → full
                return f"left({col}, length({col}) - 1)"
            prev3 = _char_at_from_end(col, 3)
            return (f"CASE WHEN length({col}) >= 4 AND {prev3} IN "
                    f"({cset(nd.SV_OST_ENDINGS)}) "
                    f"THEN left({col}, length({col}) - 1) ELSE {col} END")

        return f"""rp AS MATERIALIZED (
  SELECT doc_id, t0,
    CASE WHEN m = '' THEN length(t0) ELSE greatest(3, length(m)) END AS p1
  FROM (SELECT doc_id, t0,
          regexp_extract(t0, '^[^{''.join(sorted(vowels))}]*[{''.join(sorted(vowels))}]+[^{''.join(sorted(vowels))}]') AS m
        FROM rkept)
),
rm AS MATERIALIZED (SELECT doc_id, p1, {_snowball_suffix_case('t0', main, main_act)} AS w FROM rp),
rc AS MATERIALIZED (SELECT doc_id, p1, {_snowball_pair_case('w', pairs)} AS w FROM rm),
rterms AS MATERIALIZED (SELECT doc_id, {_snowball_suffix_case('w', nd.SV_OTHER, other_act)} AS term FROM rc)"""

    raise ValueError(lang)


def nordic_preamble(lang: str) -> str:
    """BM25 CTEs over DANISH / NORWEGIAN / SWEDISH-analyzed text —
    generated mirror of the analysis/nordic.py snowball chains."""
    from .analysis.nordic import (DANISH_STOP_WORDS, NORWEGIAN_STOP_WORDS,
                                  SWEDISH_STOP_WORDS)
    stops = _stop_list_sql({"danish": DANISH_STOP_WORDS,
                            "norwegian": NORWEGIAN_STOP_WORDS,
                            "swedish": SWEDISH_STOP_WORDS}[lang])
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_nordic_stem_ctes(lang)},
postings AS (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_nordic_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    lit = f"'{stemmed_term}'"
    return nordic_preamble(lang) + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Russian snowball --
def _ru_len_case(col: str, table, bound: str = "pv", ay: bool = False,
                 guard: str = "") -> str:
    """Deletion-length CASE for a Snowball among: longest entry first,
    suffix wholly inside the bound region; ay=True makes action-1 entries
    conditional on a preceding а/я inside RV (returning 0 = the whole
    step fails, Snowball-style, with no fallback to shorter entries)."""
    lines = ["CASE"]
    if guard:
        lines.append(f"    WHEN {guard} THEN 0")
    for s, a in table:
        cond = (f"{col} LIKE '%{s}' AND length({col}) - {len(s)} "
                f">= {bound}")
        if ay and a == 1:
            prev = f"substr({col}, length({col}) - {len(s)}, 1)"
            inner = (f"CASE WHEN length({col}) - {len(s)} - 1 >= pv "
                     f"AND {prev} IN ('а', 'я') THEN {len(s)} ELSE 0 END")
            lines.append(f"    WHEN {cond} THEN {inner}")
        else:
            lines.append(f"    WHEN {cond} THEN {len(s)}")
    lines.append("    ELSE 0 END")
    return "\n".join(lines)


def _russian_stem_ctes() -> str:
    """CTE chain rkept(doc_id, t0) → rterms(doc_id, term) implementing
    the Snowball Russian stemmer — GENERATED from the same tables
    analysis/russian.py runs, so Ray and SQL agree by construction."""
    from .analysis import russian as ru
    v = "".join(sorted(ru.RU_VOWELS))
    pg = _ru_len_case("w", ru.RU_PERF_GERUND, ay=True)
    refl = _ru_len_case("w", ru.RU_REFLEXIVE, guard="done")
    adj = _ru_len_case("w", ru.RU_ADJECTIVE, guard="done")
    part = _ru_len_case("w", ru.RU_PARTICIPLE, ay=True,
                        guard="done OR NOT adj")
    verb = _ru_len_case("w", ru.RU_VERB, ay=True, guard="done OR adj")
    noun = _ru_len_case("w", ru.RU_NOUN, guard="done OR adj OR verbed")
    deriv = _ru_len_case("w", ru.RU_DERIVATIONAL, bound="p2")
    t_act = "CASE\n" + "\n".join(
        f"    WHEN w LIKE '%{s}' AND length(w) - {len(s)} >= pv THEN {a}"
        for s, a in ru.RU_TIDY) + "\n    ELSE 0 END"
    t_len = ("CASE WHEN t_act IN (1, 3) THEN "
             "CASE WHEN t_act = 1 THEN "
             "CASE WHEN w LIKE '%ейше' THEN 4 ELSE 3 END ELSE 1 END "
             "WHEN t_act = 2 AND length(w) >= 2 "
             "AND substr(w, length(w) - 1, 1) = 'н' "
             "AND length(w) - 2 >= pv THEN 1 ELSE 0 END")
    return f"""rp AS MATERIALIZED (
  SELECT doc_id, replace(t0, 'ё', 'е') AS w FROM rkept
),
rr AS MATERIALIZED (
  SELECT doc_id, w,
    CASE WHEN pvm = '' THEN length(w) ELSE length(pvm) END AS pv,
    CASE WHEN p2m = '' THEN length(w) ELSE length(p2m) END AS p2
  FROM (SELECT doc_id, w,
          regexp_extract(w, '^[^{v}]*[{v}]') AS pvm,
          regexp_extract(w, '^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]') AS p2m
        FROM rp)
),
spg AS MATERIALIZED (SELECT doc_id, pv, p2, w, {pg} AS pgl FROM rr),
spg2 AS MATERIALIZED (SELECT doc_id, pv, p2, pgl > 0 AS done,
           left(w, length(w) - pgl) AS w FROM spg),
srefl AS MATERIALIZED (SELECT doc_id, pv, p2, done,
            left(w, length(w) - ({refl})) AS w FROM spg2),
sadj AS MATERIALIZED (SELECT doc_id, pv, p2, done, w, {adj} AS al FROM srefl),
sadj2 AS MATERIALIZED (SELECT doc_id, pv, p2, done, al > 0 AS adj,
            left(w, length(w) - al) AS w FROM sadj),
spart AS MATERIALIZED (SELECT doc_id, pv, p2, done, adj,
            left(w, length(w) - ({part})) AS w FROM sadj2),
sverb AS MATERIALIZED (SELECT doc_id, pv, p2, done, adj, w, {verb} AS vl FROM spart),
sverb2 AS MATERIALIZED (SELECT doc_id, pv, p2, done, adj, vl > 0 AS verbed,
             left(w, length(w) - vl) AS w FROM sverb),
snoun AS MATERIALIZED (SELECT doc_id, pv, p2,
            left(w, length(w) - ({noun})) AS w FROM sverb2),
si AS MATERIALIZED (SELECT doc_id, pv, p2,
         CASE WHEN w LIKE '%и' AND length(w) - 1 >= pv
              THEN left(w, length(w) - 1) ELSE w END AS w FROM snoun),
sder AS MATERIALIZED (SELECT doc_id, pv,
           left(w, length(w) - ({deriv})) AS w FROM si),
sta AS MATERIALIZED (SELECT doc_id, pv, w, {t_act} AS t_act FROM sder),
stb AS MATERIALIZED (SELECT doc_id, pv, t_act,
          left(w, length(w) - ({t_len})) AS w FROM sta),
rterms AS MATERIALIZED (
  SELECT doc_id,
    CASE WHEN t_act = 1 AND w LIKE '%нн' AND length(w) - 2 >= pv
         THEN left(w, length(w) - 1) ELSE w END AS term
  FROM stb)"""


def russian_preamble() -> str:
    """BM25 CTEs over RUSSIAN-analyzed text — generated mirror of the
    analysis/russian.py snowball chain."""
    from .analysis.russian import RUSSIAN_STOP_WORDS
    stops = _stop_list_sql(RUSSIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_russian_stem_ctes()},
postings AS (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_russian_topk(stemmed_term: str, k: int = 10) -> str:
    lit = f"'{stemmed_term}'"
    return russian_preamble() + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Dutch snowball ----
_NL_V = "aeiouyè"


def _nl_in(expr: str, chars: str) -> str:
    lst = ", ".join(f"'{c}'" for c in sorted(chars))
    return f"{expr} IN ({lst})"


def _nl_und_trunc(w: str, k: int) -> str:
    """Delete the last k chars of {w} then snowball-undouble (dd/kk/tt
    lose a letter).  Safe at any length: a position clipped to 0 yields
    '' which never matches the pair list."""
    return (f"CASE WHEN length({w}) - {k} >= 2 AND "
            f"substr({w}, length({w}) - {k} - 1, 2) IN ('dd','kk','tt') "
            f"THEN left({w}, length({w}) - {k} - 1) "
            f"ELSE left({w}, length({w}) - {k}) END")


def _nl_en_cond(w: str, k: int) -> str:
    """Valid en-ending for a k-char suffix of {w}: start in R1, preceded
    by a non-vowel, stem not ending in 'gem'."""
    return (f"(length({w}) - {k} >= p1 AND length({w}) - {k} >= 1"
            f" AND NOT {_nl_in(f'substr({w}, length({w}) - {k}, 1)', _NL_V)}"
            f" AND NOT left({w}, length({w}) - {k}) LIKE '%gem')")


def _nl_stem_ctes() -> str:
    """CTE chain rkept(doc_id, t0) → rterms(doc_id, term) implementing
    the snowball Dutch stemmer — GENERATED from the same rules
    analysis/dutch.py runs (prelude Y/I scan as a recursive CTE over
    DISTINCT tokens, suffix steps as staged CASE columns, stem-override
    dict applied first), so Ray and SQL agree by construction."""
    from .analysis.dutch import DUTCH_STEM_DICT

    v = _NL_V
    re1 = f"^[^{v}]*[{v}]+[^{v}]"
    re2 = f"^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]"
    vI = sorted(set(v) | {"I"})
    vJ = sorted(set(v) | {"j"})

    # step 1 — among {heden, ene, se, en, s}, longest structural match
    s1 = f"""CASE
    WHEN pw LIKE '%heden' THEN
      CASE WHEN length(pw) - 5 >= p1
           THEN left(pw, length(pw) - 5) || 'heid' ELSE pw END
    WHEN pw LIKE '%ene' THEN
      CASE WHEN {_nl_en_cond('pw', 3)} THEN {_nl_und_trunc('pw', 3)}
           ELSE pw END
    WHEN pw LIKE '%se' THEN
      CASE WHEN length(pw) - 2 >= p1 AND length(pw) >= 3
                AND NOT {_nl_in('substr(pw, length(pw) - 2, 1)', ''.join(vJ))}
           THEN left(pw, length(pw) - 2) ELSE pw END
    WHEN pw LIKE '%en' THEN
      CASE WHEN {_nl_en_cond('pw', 2)} THEN {_nl_und_trunc('pw', 2)}
           ELSE pw END
    WHEN pw LIKE '%s' THEN
      CASE WHEN length(pw) - 1 >= p1 AND length(pw) >= 2
                AND NOT {_nl_in('substr(pw, length(pw) - 1, 1)', ''.join(vJ))}
           THEN left(pw, length(pw) - 1) ELSE pw END
    ELSE pw END"""

    # step 2 — e-ending (also exported as the e_found flag `ef`)
    cond_e = (f"(s1 LIKE '%e' AND length(s1) - 1 >= p1 AND length(s1) >= 2"
              f" AND NOT {_nl_in('substr(s1, length(s1) - 1, 1)', v)})")
    s2 = f"CASE WHEN {cond_e} THEN {_nl_und_trunc('s1', 1)} ELSE s1 END"

    # step 3a — heid (R2, not after c), then a trailing en
    en_after_heid = (
        f"(length(s2) - 6 >= p1 AND length(s2) - 6 >= 1"
        f" AND NOT {_nl_in('substr(s2, length(s2) - 6, 1)', v)}"
        f" AND NOT left(s2, length(s2) - 6) LIKE '%gem')")
    s3a = f"""CASE
    WHEN s2 LIKE '%heid' AND length(s2) - 4 >= p2
         AND substr(s2, length(s2) - 4, 1) <> 'c' THEN
      CASE WHEN s2 LIKE '%enheid' AND {en_after_heid} THEN
        CASE WHEN length(s2) - 6 >= 2 AND
                  substr(s2, length(s2) - 7, 2) IN ('dd','kk','tt')
             THEN left(s2, length(s2) - 7)
             ELSE left(s2, length(s2) - 6) END
      ELSE left(s2, length(s2) - 4) END
    ELSE s2 END"""

    # step 3b — among {lijk, baar, end, ing, bar, ig}
    lijk_e = (f"(s3a LIKE '%elijk' AND length(s3a) - 5 >= p1"
              f" AND length(s3a) >= 6"
              f" AND NOT {_nl_in('substr(s3a, length(s3a) - 5, 1)', v)})")
    s3b = f"""CASE
    WHEN s3a LIKE '%lijk' THEN
      CASE WHEN length(s3a) - 4 >= p2 THEN
        CASE WHEN {lijk_e} THEN
          CASE WHEN substr(s3a, length(s3a) - 6, 2) IN ('dd','kk','tt')
               THEN left(s3a, length(s3a) - 6)
               ELSE left(s3a, length(s3a) - 5) END
        ELSE left(s3a, length(s3a) - 4) END
      ELSE s3a END
    WHEN s3a LIKE '%baar' THEN
      CASE WHEN length(s3a) - 4 >= p2 THEN left(s3a, length(s3a) - 4)
           ELSE s3a END
    WHEN s3a LIKE '%end' OR s3a LIKE '%ing' THEN
      CASE WHEN length(s3a) - 3 >= p2 THEN
        CASE WHEN substr(s3a, length(s3a) - 4, 2) = 'ig'
                  AND length(s3a) - 5 >= p2
                  AND substr(s3a, length(s3a) - 5, 1) <> 'e'
             THEN left(s3a, length(s3a) - 5)
             WHEN substr(s3a, length(s3a) - 4, 2) IN ('dd','kk','tt')
             THEN left(s3a, length(s3a) - 4)
             ELSE left(s3a, length(s3a) - 3) END
      ELSE s3a END
    WHEN s3a LIKE '%bar' THEN
      CASE WHEN length(s3a) - 3 >= p2 AND ef
           THEN left(s3a, length(s3a) - 3) ELSE s3a END
    WHEN s3a LIKE '%ig' THEN
      CASE WHEN length(s3a) - 2 >= p2
                AND substr(s3a, length(s3a) - 2, 1) <> 'e'
           THEN left(s3a, length(s3a) - 2) ELSE s3a END
    ELSE s3a END"""

    # step 4 — undouble vowel: C V V D with D ∉ v∪{I}, C ∉ v
    s4 = f"""CASE
    WHEN length(s3b) >= 4
         AND NOT {_nl_in('right(s3b, 1)', ''.join(vI))}
         AND substr(s3b, length(s3b) - 2, 2) IN ('aa','ee','oo','uu')
         AND NOT {_nl_in('substr(s3b, length(s3b) - 3, 1)', v)}
    THEN left(s3b, length(s3b) - 2) || right(s3b, 1) ELSE s3b END"""

    overrides = " ".join(
        f"WHEN k.t0 = '{src}' THEN '{dst}'"
        for src, dst in DUTCH_STEM_DICT.items())

    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
praw AS (SELECT t0, translate(t0, 'áäéëíïóöúü', 'aaeeiioouu') AS raw
         FROM uniq),
nlscan(t0, raw, pos, acc) AS (
  SELECT t0, raw, 1, '' FROM praw
  UNION ALL
  SELECT t0, raw, pos + 1,
    acc || CASE
      WHEN substr(raw, pos, 1) = 'y'
           AND (pos = 1 OR {_nl_in('right(acc, 1)', v)}) THEN 'Y'
      WHEN substr(raw, pos, 1) = 'i' AND pos > 1
           AND {_nl_in('right(acc, 1)', v)}
           AND {_nl_in('substr(raw, pos + 1, 1)', v)} THEN 'I'
      ELSE substr(raw, pos, 1) END
  FROM nlscan WHERE pos <= length(raw)
),
pre AS (SELECT t0, acc AS pw FROM nlscan WHERE pos = length(raw) + 1),
reg AS (
  SELECT t0, pw,
    CASE WHEN regexp_extract(pw, '{re1}') = '' THEN length(pw)
         ELSE greatest(length(regexp_extract(pw, '{re1}')), 3) END AS p1,
    CASE WHEN regexp_extract(pw, '{re2}') = '' THEN length(pw)
         ELSE length(regexp_extract(pw, '{re2}')) END AS p2
  FROM pre
),
st1 AS (SELECT t0, p1, p2, {s1} AS s1 FROM reg),
st2 AS (SELECT t0, p1, p2, {cond_e} AS ef, {s2} AS s2 FROM st1),
st3a AS (SELECT t0, p1, p2, ef, {s3a} AS s3a FROM st2),
st3b AS (SELECT t0, p1, p2, {s3b} AS s3b FROM st3a),
stems AS (SELECT t0, translate({s4}, 'YI', 'yi') AS stem FROM st3b),
rterms AS (
  SELECT k.doc_id,
         CASE {overrides} ELSE s.stem END AS term
  FROM rkept k JOIN stems s ON s.t0 = k.t0
)"""


def dutch_preamble() -> str:
    """BM25 CTEs over DUTCH-analyzed text — generated mirror of the
    analysis/dutch.py snowball chain (stop → override dict → stem)."""
    from .analysis.dutch import DUTCH_STOP_WORDS
    stops = _stop_list_sql(DUTCH_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_nl_stem_ctes()},
postings AS MATERIALIZED (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_dutch_topk(stemmed_term: str, k: int = 10) -> str:
    lit = f"'{stemmed_term}'"
    return dutch_preamble() + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# --------------------------------------- Czech / Bulgarian / Latvian ------
def _cz_stem_sql() -> str:
    """Czech light stemmer as staged CASE columns (cz1 case-removal →
    cz2 possessives → term normalization) GENERATED from
    analysis/eastern.py's CZ_CASE_TIERS."""
    from .analysis.eastern import CZ_CASE_TIERS, CZ_FINAL_VOWELS

    tiers = []
    for min_len, cut, suffixes in CZ_CASE_TIERS:
        k = len(suffixes[0])
        lst = ", ".join(f"'{s}'" for s in suffixes)
        tiers.append(
            f"    WHEN length(t0) > {min_len} AND right(t0, {k}) IN ({lst})"
            f" THEN left(t0, length(t0) - {cut})")
    vlist = ", ".join(f"'{c}'" for c in CZ_FINAL_VOWELS)
    cz1 = ("CASE\n" + "\n".join(tiers) + f"""
    WHEN length(t0) > 3 AND right(t0, 1) IN ({vlist})
         THEN left(t0, length(t0) - 1)
    ELSE t0 END""")
    cz2 = ("CASE WHEN length(cz1) > 5 AND right(cz1, 2) IN "
           "('ov','in','ův') THEN left(cz1, length(cz1) - 2) "
           "ELSE cz1 END")
    cz3 = """CASE
    WHEN cz2 LIKE '%čt' THEN left(cz2, length(cz2) - 2) || 'ck'
    WHEN cz2 LIKE '%št' THEN left(cz2, length(cz2) - 2) || 'sk'
    WHEN right(cz2, 1) IN ('c','č') THEN left(cz2, length(cz2) - 1) || 'k'
    WHEN right(cz2, 1) IN ('z','ž') THEN left(cz2, length(cz2) - 1) || 'h'
    WHEN length(cz2) > 1 AND substr(cz2, length(cz2) - 1, 1) = 'e'
         THEN left(cz2, length(cz2) - 2) || right(cz2, 1)
    WHEN length(cz2) > 2 AND substr(cz2, length(cz2) - 1, 1) = 'ů'
         THEN left(cz2, length(cz2) - 2) || 'o' || right(cz2, 1)
    ELSE cz2 END"""
    return f"""rcz1 AS (SELECT doc_id, {cz1} AS cz1 FROM rkept),
rcz2 AS (SELECT doc_id, {cz2} AS cz2 FROM rcz1),
rterms AS MATERIALIZED (SELECT doc_id, {cz3} AS term FROM rcz2)"""


def _bg_stem_sql() -> str:
    """Bulgarian light stemmer as staged CASE columns mirroring
    analysis/eastern.py's bulgarian_stem (done-flag for the <4 /
    'ища' fast paths, then article → plural → я/а-о-е strip → ен→н →
    ъN→N)."""
    art = """CASE
    WHEN length(t0) > 6 AND t0 LIKE '%ият' THEN left(t0, length(t0) - 3)
    WHEN length(t0) > 5 AND right(t0, 2) IN ('ът','то','те','та','ия')
         THEN left(t0, length(t0) - 2)
    WHEN length(t0) > 4 AND t0 LIKE '%ят' THEN left(t0, length(t0) - 2)
    ELSE t0 END"""
    plu = """CASE
    WHEN length(ba) > 6 AND ba LIKE '%овци' THEN left(ba, length(ba) - 3)
    WHEN length(ba) > 6 AND ba LIKE '%ове' THEN left(ba, length(ba) - 3)
    WHEN length(ba) > 6 AND ba LIKE '%еве'
         THEN left(ba, length(ba) - 3) || 'й'
    WHEN length(ba) > 5 AND ba LIKE '%ища' THEN left(ba, length(ba) - 3)
    WHEN length(ba) > 5 AND ba LIKE '%та' THEN left(ba, length(ba) - 2)
    WHEN length(ba) > 5 AND ba LIKE '%ци'
         THEN left(ba, length(ba) - 2) || 'к'
    WHEN length(ba) > 5 AND ba LIKE '%зи'
         THEN left(ba, length(ba) - 2) || 'г'
    WHEN length(ba) > 5 AND substr(ba, length(ba) - 2, 1) = 'е'
         AND right(ba, 1) = 'и'
         THEN left(ba, length(ba) - 3) || 'я' || substr(ba, length(ba) - 1, 1)
    WHEN length(ba) > 4 AND ba LIKE '%си'
         THEN left(ba, length(ba) - 2) || 'х'
    WHEN length(ba) > 4 AND ba LIKE '%и' THEN left(ba, length(ba) - 1)
    ELSE ba END"""
    # both strips share the ONE pre-strip length guard (reference quirk)
    bs1 = ("CASE WHEN length(bp) > 3 AND bp LIKE '%я' "
           "THEN left(bp, length(bp) - 1) ELSE bp END")
    bs2 = ("CASE WHEN length(bp) > 3 AND right(bs1, 1) IN ('а','о','е') "
           "THEN left(bs1, length(bs1) - 1) ELSE bs1 END")
    ben = ("CASE WHEN length(bs2) > 4 AND bs2 LIKE '%ен' "
           "THEN left(bs2, length(bs2) - 2) || 'н' ELSE bs2 END")
    bhard = ("CASE WHEN length(ben) > 5 AND "
             "substr(ben, length(ben) - 1, 1) = 'ъ' "
             "THEN left(ben, length(ben) - 2) || right(ben, 1) "
             "ELSE ben END")
    return f"""rbg0 AS (
  SELECT doc_id, t0,
         (length(t0) < 4 OR (length(t0) > 5 AND t0 LIKE '%ища')) AS done,
         CASE WHEN length(t0) > 5 AND t0 LIKE '%ища'
              THEN left(t0, length(t0) - 3) ELSE t0 END AS early
  FROM rkept),
rba AS (SELECT doc_id, t0, done, early, {art} AS ba FROM rbg0),
rbp AS (SELECT doc_id, done, early, {plu} AS bp FROM rba),
rbs AS (SELECT doc_id, done, early, bp, {bs1} AS bs1 FROM rbp),
rbs2 AS (SELECT doc_id, done, early, {bs2} AS bs2 FROM rbs),
rben AS (SELECT doc_id, done, early, {ben} AS ben FROM rbs2),
rterms AS MATERIALIZED (
  SELECT doc_id, CASE WHEN done THEN early ELSE {bhard} END AS term
  FROM rben)"""


def _lv_stem_sql() -> str:
    """Latvian light stemmer as one ordered CASE cascade GENERATED from
    analysis/eastern.py's LV_AFFIXES (first match wins), with the
    unpalatalization rewrites inlined per palatalizing affix."""
    from .analysis.eastern import LV_AFFIXES

    def unpal(stem: str, u_initial: bool) -> str:
        lines = ["CASE"]
        if u_initial:
            lines.append(f"      WHEN {stem} LIKE '%kš' THEN "
                         f"left({stem}, length({stem}) - 1) || 'st'")
            lines.append(f"      WHEN {stem} LIKE '%ņņ' THEN "
                         f"left({stem}, length({stem}) - 2) || 'nn'")
        lines.append(f"      WHEN right({stem}, 2) IN "
                     f"('pj','bj','mj','vj') THEN "
                     f"left({stem}, length({stem}) - 1)")
        for pat, rep in (("šņ", "sn"), ("žņ", "zn"), ("šļ", "sl"),
                         ("žļ", "zl"), ("ļņ", "ln"), ("ļļ", "ll")):
            lines.append(f"      WHEN {stem} LIKE '%{pat}' THEN "
                         f"left({stem}, length({stem}) - 2) || '{rep}'")
        for pat, rep in (("č", "c"), ("ļ", "l"), ("ņ", "n")):
            lines.append(f"      WHEN right({stem}, 1) = '{pat}' THEN "
                         f"left({stem}, length({stem}) - 1) || '{rep}'")
        lines.append(f"      ELSE {stem} END")
        return "\n".join(lines)

    branches = []
    for sfx, vc, pal in LV_AFFIXES:
        k = len(sfx)
        stem = f"left(t0, length(t0) - {k})"
        expr = unpal(stem, sfx[0] == "u") if pal else stem
        branches.append(
            f"    WHEN nv > {vc} AND length(t0) >= {k + 3} AND "
            f"t0 LIKE '%{sfx}' THEN {expr}")
    case = "CASE\n" + "\n".join(branches) + "\n    ELSE t0 END"
    return f"""rlv AS (
  SELECT doc_id, t0,
         length(t0) - length(translate(t0, 'aeiouāīēū', '')) AS nv
  FROM rkept),
rterms AS MATERIALIZED (SELECT doc_id, {case} AS term FROM rlv)"""


def eastern_preamble(lang: str) -> str:
    """BM25 CTEs over CZECH / BULGARIAN / LATVIAN-analyzed text —
    generated mirrors of the analysis/eastern.py light-stemmer chains."""
    from .analysis.eastern import (BULGARIAN_STOP_WORDS, CZECH_STOP_WORDS,
                                   LATVIAN_STOP_WORDS)
    stops, ctes = {
        "czech": (CZECH_STOP_WORDS, _cz_stem_sql),
        "bulgarian": (BULGARIAN_STOP_WORDS, _bg_stem_sql),
        "latvian": (LATVIAN_STOP_WORDS, _lv_stem_sql),
    }[lang]
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 NOT IN ({_stop_list_sql(stops)})),
{ctes()},
postings AS MATERIALIZED (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES {_lt_values()}),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_eastern_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    lit = f"'{stemmed_term}'"
    return eastern_preamble(lang) + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------- Arabic / Persian / Hindi -----------
# DecimalDigitFilter mirror for the digit scripts that could plausibly
# appear with these analyzers (Arabic-Indic, Extended Arabic-Indic,
# Devanagari); the Python side folds every Unicode Nd.
def _digit_fold_tables() -> tuple[str, str]:
    """All BMP Nd digits → ASCII (generated from unicodedata, the same
    source as analysis.arabic.fold_digits)."""
    import unicodedata
    frm, to = [], []
    for cp in range(0x10000):
        c = chr(cp)
        if c.isascii():
            continue
        if unicodedata.category(c) == "Nd":
            frm.append(c)
            to.append(chr(48 + unicodedata.decimal(c)))
    return "".join(frm), "".join(to)


_DF_FROM, _DF_TO = _digit_fold_tables()
_SQL_DIGIT_FOLD = "translate({col}, '" + _DF_FROM + "', '" + _DF_TO + "')"


def _ar_norm_sql(col: str) -> str:
    """ArabicNormalizer as one translate (maps + deletions)."""
    from .analysis.arabic import AR_NORM_DELETE, AR_NORM_MAP
    frm = "".join(AR_NORM_MAP) + AR_NORM_DELETE
    to = "".join(AR_NORM_MAP.values())
    return f"translate({col}, '{frm}', '{to}')"


def _fa_norm_sql(col: str) -> str:
    from .analysis.arabic import FA_NORM_DELETE, FA_NORM_MAP
    frm = "".join(FA_NORM_MAP) + FA_NORM_DELETE
    to = "".join(FA_NORM_MAP.values())
    return f"translate({col}, '{frm}', '{to}')"


def _suffix_stage_ctes(src_cte: str, first: str, suffixes,
                       prefix: str) -> tuple[str, str]:
    """Cumulative suffix stripping (each suffix requires >= 2 chars to
    remain) as one chained CTE per suffix — NOT lateral aliases, whose
    textual inlining grows 4^n.  Returns (cte_sql, final_cte_name); the
    final CTE exposes (doc_id, term)."""
    ctes = []
    prev_cte, prev_col = src_cte, first
    for i, sfx in enumerate(suffixes):
        k = len(sfx)
        name = f"{prefix}{i}"
        col = "term" if i == len(suffixes) - 1 else f"s{i}"
        ctes.append(
            f"{name} AS (SELECT doc_id, "
            f"CASE WHEN length({prev_col}) >= {k + 2} AND "
            f"{prev_col} LIKE '%{sfx}' "
            f"THEN left({prev_col}, length({prev_col}) - {k}) "
            f"ELSE {prev_col} END AS {col} FROM {prev_cte})")
        prev_cte, prev_col = name, col
    return ",\n".join(ctes), prev_cte


def _ar_stem_ctes() -> str:
    """ArabicAnalyzer tail: normalize → one prefix strip (table order)
    → cumulative suffix strips — GENERATED from analysis/arabic.py."""
    from .analysis.arabic import AR_PREFIXES, AR_SUFFIXES

    pref_branches = []
    for p in AR_PREFIXES:
        k = len(p)
        min_len = 4 if k == 1 else k + 2
        pref_branches.append(
            f"    WHEN length(an) >= {min_len} AND an LIKE '{p}%'"
            f" THEN substr(an, {k + 1})")
    pref = "CASE\n" + "\n".join(pref_branches) + "\n    ELSE an END"
    stages, last = _suffix_stage_ctes("rpref", "ap", AR_SUFFIXES, "rsfa")
    return f"""rnorm AS (
  SELECT doc_id, {_ar_norm_sql(_SQL_DIGIT_FOLD.format(col='t0'))} AS an
  FROM rkept),
rpref AS (SELECT doc_id, {pref} AS ap FROM rnorm),
{stages},
rterms AS MATERIALIZED (SELECT doc_id, term FROM {last})"""


def _fa_stem_ctes() -> str:
    """PersianAnalyzer: normalization happens BEFORE the stop filter
    (handled in rkept by the preamble), so only the suffix strip
    remains here."""
    from .analysis.arabic import FA_SUFFIXES
    stages, last = _suffix_stage_ctes("rkept", "t0", FA_SUFFIXES, "rsff")
    return f"""{stages},
rterms AS MATERIALIZED (SELECT doc_id, term FROM {last})"""


def _indic_compose_sql(col: str) -> str:
    """IndicNormalizer compose table as a replace() chain in table
    order (one literal per (row, script) pair) — GENERATED from
    analysis/indic.py's INDIC_DECOMP."""
    from .analysis.indic import INDIC_DECOMP, _BLOCKS
    expr = col
    for d0, d1, d2, res, flags in INDIC_DECOMP:
        for base, _end, flag in _BLOCKS:
            if not (flags & flag):
                continue
            pat = chr(base + d0) + chr(base + d1)
            if d2 == 0xFF:
                pat += "‍"
            elif d2 >= 0:
                pat += chr(base + d2)
            expr = f"replace({expr}, '{pat}', '{chr(base + res)}')"
    return expr


def _hi_norm_sql(col: str) -> str:
    """HindiNormalizer: dead-n pair rewrite, then the per-char
    folds/deletions as one translate."""
    from .analysis.indic import HI_NORM_DELETE, HI_NORM_MAP
    frm = "".join(HI_NORM_MAP) + "".join(sorted(HI_NORM_DELETE))
    to = "".join(HI_NORM_MAP.values())
    return (f"translate(replace({col}, 'न्', 'ं'), "
            f"'{frm}', '{to}')")


def _hi_stem_sql() -> str:
    from .analysis.indic import HI_STEM_TIERS
    branches = []
    for min_len, suffixes in HI_STEM_TIERS:
        k = len(suffixes[0])
        lst = ", ".join(f"'{s}'" for s in suffixes)
        branches.append(
            f"    WHEN length(t0) > {min_len} AND right(t0, {k}) IN ({lst})"
            f" THEN left(t0, length(t0) - {k})")
    case = "CASE\n" + "\n".join(branches) + "\n    ELSE t0 END"
    return (f"rterms AS MATERIALIZED "
            f"(SELECT doc_id, {case} AS term FROM rkept)")


def arabic_preamble() -> str:
    """BM25 CTEs over ARABIC-analyzed text.  Chain order mirrors the
    reference: stop on RAW lowercased tokens, then normalize + stem."""
    from .analysis.arabic import ARABIC_STOP_WORDS
    stops = _stop_list_sql(ARABIC_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_ar_stem_ctes()},
{_BM25_TAIL}"""


def persian_preamble() -> str:
    """BM25 CTEs over PERSIAN-analyzed text.  Normalization runs before
    the (already-normalized) stop list, then the suffix strip."""
    from .analysis.arabic import PERSIAN_STOP_WORDS
    stops = _stop_list_sql(PERSIAN_STOP_WORDS)
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    norm = _fa_norm_sql(_ar_norm_sql(digit))
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_fa_stem_ctes()},
{_BM25_TAIL}"""


def hindi_preamble() -> str:
    """BM25 CTEs over HINDI-analyzed text (digit fold → indic compose
    chain → hindi normalize → stop → stem)."""
    from .analysis.indic import HINDI_STOP_WORDS
    stops = _stop_list_sql(HINDI_STOP_WORDS)
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    norm = _hi_norm_sql(_indic_compose_sql(digit))
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_hi_stem_sql()},
{_BM25_TAIL}"""


_BM25_TAIL = """postings AS MATERIALIZED (
  SELECT doc_id, term, count(*) AS freq FROM rterms GROUP BY doc_id, term
),
doclen AS (
  SELECT c.doc_id,
         (SELECT count(*) FROM rkept k WHERE k.doc_id = c.doc_id) AS dl
  FROM corpus c
),
lt(b, v) AS (VALUES __LT_VALUES__),
normd AS (
  SELECT d.doc_id, d.dl, l.b AS norm_byte, l.v AS dln
  FROM doclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
stats AS (SELECT count(*) AS doc_count, sum(dl) AS sum_ttf FROM doclen),
tstats AS (
  SELECT term, count(*) AS df, sum(freq) AS ttf FROM postings GROUP BY term
),
av AS (SELECT sum_ttf / CAST(doc_count AS DOUBLE) AS avgdl FROM stats)
"""


def bm25_mideast_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    pre = {"arabic": arabic_preamble, "persian": persian_preamble,
           "hindi": hindi_preamble}[lang]()
    pre = pre.replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ----------------------------------------------- Sorani Kurdish -----------
def _ckb_cf_class() -> str:
    """RE2 char class of every Unicode Cf char except ZWNJ (handled by
    its own rule), as compact \\x{..} ranges — GENERATED from
    analysis/kurdish.SORANI_CF."""
    from .analysis.kurdish import SORANI_CF
    cps = sorted(ord(c) for c in SORANI_CF if c != "‌")
    ranges, start, prev = [], cps[0], cps[0]
    for c in cps[1:]:
        if c == prev + 1:
            prev = c
            continue
        ranges.append((start, prev))
        start = prev = c
    ranges.append((start, prev))
    parts = [f"\\x{{{a:04X}}}" if a == b
             else f"\\x{{{a:04X}}}-\\x{{{b:04X}}}" for a, b in ranges]
    return "[" + "".join(parts) + "]"


def _ckb_norm_sql(col: str) -> str:
    """SoraniNormalizer as staged rewrites that reproduce the scan
    order: original-final HEH first (any original char after a HEH
    blocks the rule, deletable or not), then the per-char maps, then
    deletions, then the HEH+ZWNJ join, then leftover-ZWNJ delete, then
    the word-initial REH (after leading deletions)."""
    from .analysis.kurdish import SORANI_DELETE, _SIMPLE_MAP
    e = f"regexp_replace({col}, 'ه$', 'ە')"
    frm = "".join(_SIMPLE_MAP)
    to = "".join(_SIMPLE_MAP.values())
    e = f"translate({e}, '{frm}', '{to}')"
    e = (f"regexp_replace({e}, '[{SORANI_DELETE}]|{_ckb_cf_class()}',"
         f" '', 'g')")
    e = f"replace({e}, 'ه‌', 'ە')"
    e = f"replace({e}, '‌', '')"
    return f"regexp_replace({e}, '^ر', 'ڕ')"


def _ckb_stem_ctes() -> str:
    """SoraniStemmer: two cumulative first-match strips, then a
    first-match cascade — GENERATED from analysis/kurdish.py."""
    from .analysis.kurdish import (CKB_CASCADE, CKB_POSSESSIVE,
                                   CKB_POSTPOSITION)

    def case_of(rules, col):
        branches = [
            f"    WHEN length({col}) > {min_len} AND {col} LIKE '%{sfx}' "
            f"THEN left({col}, length({col}) - {drop})"
            for sfx, min_len, drop in rules]
        return "CASE\n" + "\n".join(branches) + f"\n    ELSE {col} END"

    return f"""rpost AS (SELECT doc_id, {case_of(CKB_POSTPOSITION, 't0')} AS p0 FROM rkept),
rposs AS (SELECT doc_id, {case_of(CKB_POSSESSIVE, 'p0')} AS p1 FROM rpost),
rterms AS MATERIALIZED (SELECT doc_id, {case_of(CKB_CASCADE, 'p1')} AS term FROM rposs)"""


def sorani_preamble() -> str:
    """BM25 CTEs over SORANI-analyzed text: normalize + digit fold →
    stop (normalized list) → stem."""
    from .analysis.kurdish import SORANI_STOP_WORDS
    stops = _stop_list_sql(SORANI_STOP_WORDS)
    norm = _SQL_DIGIT_FOLD.format(col=_ckb_norm_sql("traw"))
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_ckb_stem_ctes()},
{_BM25_TAIL}"""


def bm25_sorani_topk(stemmed_term: str, k: int = 10) -> str:
    pre = sorani_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------------------------- Greek ---------------
def _el_like_any(col: str, suffixes) -> str:
    return "(" + " OR ".join(f"{col} LIKE '%{x}'" for x in suffixes) + ")"


def _el_in(col: str, words) -> str:
    return f"{col} IN (" + ", ".join(f"'{w}'" for w in words) + ")"


def _el_strip(col: str, k: int) -> str:
    return f"left({col}, length({col}) - {k})"


_EL_VOWEL = "right({col}, 1) IN ('α','ε','η','ι','ο','υ','ω')"
_EL_VOWEL_NO_Y = "right({col}, 1) IN ('α','ε','η','ι','ο','ω')"


def _el_stem_ctes() -> str:
    """GreekStemmer as ~30 chained CTE stages — GENERATED from the
    analysis/greek.py tables, including the upstream precedence quirks
    in rules 0 and 8 (length guard binds only to the first suffix)."""
    from .analysis import greek as g

    ctes = []
    prev = "rkept"
    col = "t0"
    n = [0]

    def stage(expr_fn, carry=""):
        """Append one CTE computing expr_fn(col) as the next column;
        carries tin (pre-stem token) and n0 (its length).  `carry`
        optionally forwards an extra aliased expression (e.g. the
        pre-rule value) for the NEXT stage to reference."""
        name = f"el{n[0]}"
        new_col = f"e{n[0]}"
        n[0] += 1
        extra = f", {carry}" if carry else ""
        ctes.append(
            f"{name} AS (SELECT doc_id, tin, n0, "
            f"{expr_fn} AS {new_col}{extra} FROM {prev})")
        return name, new_col

    def strip_addback(c, suffixes, min_len, addback, cond_fn):
        """CASE: strip first-listed-length suffix when over min_len,
        add back `addback` when cond_fn(stripped) holds."""
        k = len(suffixes[0])
        st = _el_strip(c, k)
        return (f"CASE WHEN length({c}) > {min_len} AND "
                f"{_el_like_any(c, suffixes)} THEN "
                f"(CASE WHEN {cond_fn(st)} THEN {st} || '{addback}' "
                f"ELSE {st} END) ELSE {c} END")

    # rule 0: first-match cascade (with the quirk branch)
    r0_branches = [
        (9, ("καθεστωτοσ", "καθεστωτων"), 4),
        (8, ("γεγονοτοσ", "γεγονοτων"), 4),
        (8, ("καθεστωτα",), 3),
        (7, ("τατογιου", "τατογιων"), 4),
        (7, ("γεγονοτα",), 3),
        (7, ("καθεστωσ",), 2),
        None,  # quirk branch
        (6, ("τατογια",), 3),
        (6, ("γεγονοσ",), 2),
        (5, ("φαγιου", "φαγιων", "σογιου", "σογιων"), 4),
        (5, ("σκαγια", "ολογια", "κρεατα", "περατα",
             "τερατα"), 3),
        (4, ("φαγια", "σογια", "φωτοσ", "φωτων"), 3),
        (4, ("κρεασ", "περασ", "τερασ"), 2),
        (3, ("φωτα",), 2),
        (2, ("φωσ",), 1),
    ]
    parts = []
    for b in r0_branches:
        if b is None:
            quirk = ("((length({c}) > 6 AND {c} LIKE '%σκαγιου') OR "
                     + _el_like_any("{c}", (
                         "σκαγιων", "ολογιου", "ολογιων",
                         "κρεατοσ", "κρεατων", "περατοσ",
                         "περατων", "τερατοσ", "τερατων"))[1:])
            parts.append(f"WHEN {quirk.format(c=col)} "
                         f"THEN {_el_strip(col, 4)}")
            continue
        min_len, sfx, drop = b
        parts.append(f"WHEN length({col}) > {min_len} AND "
                     f"{_el_like_any(col, sfx)} "
                     f"THEN {_el_strip(col, drop)}")
    prev, col = stage("CASE " + " ".join(parts) + f" ELSE {col} END")

    # rules 1-3 (prefix-exception add-backs; rule1 adds when NOT hit)
    for (sfx, exc, add), min_len, invert in (
            (g.EL_R1, 4, False), (g.EL_R2, 4, True), (g.EL_R3, 5, True)):
        def cond(st, exc=exc, invert=invert):
            hit = _el_like_any(st, exc)
            return hit if invert else f"NOT {hit}"
        prev, col = stage(strip_addback(col, sfx, min_len, add, cond))

    # rule 4
    prev, col = stage(strip_addback(
        col, ("εωσ", "εων"), 3, "ε",
        lambda st: _el_in(st, g.EL_EXC4)))

    # rule 5: two alternatives, vowel add-back
    st2, st3 = _el_strip(col, 2), _el_strip(col, 3)
    prev, col = stage(
        f"CASE WHEN length({col}) > 2 AND {col} LIKE '%ια' THEN "
        f"(CASE WHEN {_EL_VOWEL.format(col=st2)} THEN {st2} || 'ι' "
        f"ELSE {st2} END) "
        f"WHEN length({col}) > 3 AND "
        f"{_el_like_any(col, ('ιου', 'ιων'))} THEN "
        f"(CASE WHEN {_EL_VOWEL.format(col=st3)} THEN {st3} || 'ι' "
        f"ELSE {st3} END) ELSE {col} END")

    # rule 6
    st3, st4 = _el_strip(col, 3), _el_strip(col, 4)

    def r6_add(st):
        return (f"(CASE WHEN {_EL_VOWEL.format(col=st)} OR "
                f"{_el_in(st, g.EL_EXC6)} THEN {st} || 'ικ' "
                f"ELSE {st} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 3 AND "
        f"{_el_like_any(col, ('ικα', 'ικο'))} THEN {r6_add(st3)} "
        f"WHEN length({col}) > 4 AND "
        f"{_el_like_any(col, ('ικου', 'ικων'))} THEN {r6_add(st4)} "
        f"ELSE {col} END")

    # rule 7: the len==5 'αγαμε' early return yields 'αγαμ', which can
    # never match the second phase's '%αμε', so no marker is needed
    prev, col = stage(
        f"CASE WHEN length({col}) = 5 AND {col} LIKE '%αγαμε' "
        f"THEN {_el_strip(col, 1)} "
        f"WHEN length({col}) > 7 AND {col} LIKE '%ηθηκαμε' "
        f"THEN {_el_strip(col, 7)} "
        f"WHEN length({col}) > 6 AND {col} LIKE '%ουσαμε' "
        f"THEN {_el_strip(col, 6)} "
        f"WHEN length({col}) > 5 AND "
        f"{_el_like_any(col, ('αγαμε', 'ησαμε', 'ηκαμε'))} "
        f"THEN {_el_strip(col, 5)} ELSE {col} END")
    st3 = _el_strip(col, 3)
    prev, col = stage(
        f"CASE WHEN length({col}) > 3 AND {col} LIKE '%αμε' THEN "
        f"(CASE WHEN {_el_in(st3, g.EL_EXC7)} THEN {st3} || 'αμ' "
        f"ELSE {st3} END) ELSE {col} END")

    # rule 8: quirky strip chains + exc8a 'αγαν' + 'ανε' phase; the
    # first stage carries the unstripped value (pv8) so the NULL
    # removed-marker can fall back to it
    pv8 = col
    prev, col = stage(
        f"CASE WHEN length({col}) > 8 AND {col} LIKE '%ιουντανε' "
        f"THEN {_el_strip(col, 8)} "
        f"WHEN (length({col}) > 7 AND {col} LIKE '%ιοντανε') OR "
        f"{col} LIKE '%ουντανε' OR {col} LIKE '%ηθηκανε' "
        f"THEN {_el_strip(col, 7)} "
        f"WHEN (length({col}) > 6 AND {col} LIKE '%ιοτανε') OR "
        f"{col} LIKE '%οντανε' OR {col} LIKE '%ουσανε' "
        f"THEN {_el_strip(col, 6)} "
        f"WHEN (length({col}) > 5 AND {col} LIKE '%αγανε') OR "
        f"{col} LIKE '%ησανε' OR {col} LIKE '%οτανε' OR "
        f"{col} LIKE '%ηκανε' "
        f"THEN {_el_strip(col, 5)} ELSE NULL END",
        carry=f"{pv8} AS pv8")
    rem8 = col
    prev, col = stage(
        f"CASE WHEN {rem8} IS NOT NULL AND "
        f"{_el_in(rem8, g.EL_EXC8A)} THEN {rem8} || 'αγαν' "
        f"WHEN {rem8} IS NOT NULL THEN {rem8} ELSE pv8 END")
    st3 = _el_strip(col, 3)
    prev, col = stage(
        f"CASE WHEN length({col}) > 3 AND {col} LIKE '%ανε' THEN "
        f"(CASE WHEN {_EL_VOWEL_NO_Y.format(col=st3)} OR "
        f"{_el_in(st3, g.EL_EXC8B)} THEN {st3} || 'αν' ELSE {st3} END) "
        f"ELSE {col} END")

    # rule 9: optional 'ησετε' strip then 'ετε'
    prev, col = stage(
        f"CASE WHEN length({col}) > 5 AND {col} LIKE '%ησετε' "
        f"THEN {_el_strip(col, 5)} ELSE {col} END")
    st3 = _el_strip(col, 3)
    prev, col = stage(
        f"CASE WHEN length({col}) > 3 AND {col} LIKE '%ετε' THEN "
        f"(CASE WHEN {_el_in(st3, g.EL_EXC9)} OR "
        f"{_EL_VOWEL_NO_Y.format(col=st3)} OR "
        f"{_el_like_any(st3, g.EL_EXC9_SFX)} THEN {st3} || 'ετ' "
        f"ELSE {st3} END) ELSE {col} END")

    # rule 10
    st5 = _el_strip(col, 5)
    inner = (f"(CASE WHEN length({st5}) = 3 AND {st5} LIKE '%αρχ' "
             f"THEN {st5} || 'οντ' ELSE {st5} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 5 AND "
        f"{_el_like_any(col, ('οντασ', 'ωντασ'))} THEN "
        f"(CASE WHEN {inner} LIKE '%κρε' THEN {inner} || 'ωντ' "
        f"ELSE {inner} END) ELSE {col} END")

    # rule 11
    st6, st7 = _el_strip(col, 6), _el_strip(col, 7)
    prev, col = stage(
        f"CASE WHEN length({col}) > 6 AND {col} LIKE '%ομαστε' THEN "
        f"(CASE WHEN {st6} = 'ον' THEN {st6} || 'ομαστ' "
        f"ELSE {st6} END) "
        f"WHEN length({col}) > 7 AND {col} LIKE '%ιομαστε' THEN "
        f"(CASE WHEN {st7} = 'ον' THEN {st7} || 'ομαστ' "
        f"ELSE {st7} END) ELSE {col} END")

    # rule 12 (two sequential strips)
    prev, col = stage(strip_addback(
        col, ("ιεστε",), 5, "ιεστ",
        lambda st: _el_in(st, g.EL_EXC12A)))
    prev, col = stage(strip_addback(
        col, ("εστε",), 4, "εστ",
        lambda st: _el_in(st, g.EL_EXC12B)))

    # rule 13
    prev, col = stage(
        f"CASE WHEN length({col}) > 6 AND {col} LIKE '%ηθηκεσ' "
        f"THEN {_el_strip(col, 6)} "
        f"WHEN length({col}) > 5 AND "
        f"{_el_like_any(col, ('ηθηκα', 'ηθηκε'))} "
        f"THEN {_el_strip(col, 5)} ELSE {col} END")
    st4, st3 = _el_strip(col, 4), _el_strip(col, 3)

    def r13_add(st):
        return (f"(CASE WHEN {_el_in(st, g.EL_EXC13)} OR "
                f"{_el_like_any(st, g.EL_EXC13_SFX)} THEN {st} || 'ηκ' "
                f"ELSE {st} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 4 AND {col} LIKE '%ηκεσ' "
        f"THEN {r13_add(st4)} "
        f"WHEN length({col}) > 3 AND "
        f"{_el_like_any(col, ('ηκα', 'ηκε'))} THEN {r13_add(st3)} "
        f"ELSE {col} END")

    # rule 14
    st5, st4 = _el_strip(col, 5), _el_strip(col, 4)

    def r14_add(st):
        return (f"(CASE WHEN {_el_in(st, g.EL_EXC14)} OR "
                f"{_EL_VOWEL.format(col=st)} OR "
                f"{_el_like_any(st, g.EL_EXC14_SFX)} "
                f"THEN {st} || 'ουσ' ELSE {st} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 5 AND {col} LIKE '%ουσεσ' "
        f"THEN {r14_add(st5)} "
        f"WHEN length({col}) > 4 AND "
        f"{_el_like_any(col, ('ουσα', 'ουσε'))} THEN {r14_add(st4)} "
        f"ELSE {col} END")

    # rule 15 (cond1 AND NOT cond2)
    st4, st3 = _el_strip(col, 4), _el_strip(col, 3)

    def r15_add(st):
        c1 = (f"({_el_in(st, g.EL_EXC15A)} OR "
              f"{_el_like_any(st, g.EL_EXC15A_SFX)})")
        c2 = (f"({_el_in(st, g.EL_EXC15B)} OR {st} LIKE '%κολλ')")
        return (f"(CASE WHEN {c1} AND NOT {c2} THEN {st} || 'αγ' "
                f"ELSE {st} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 4 AND {col} LIKE '%αγεσ' "
        f"THEN {r15_add(st4)} "
        f"WHEN length({col}) > 3 AND "
        f"{_el_like_any(col, ('αγα', 'αγε'))} THEN {r15_add(st3)} "
        f"ELSE {col} END")

    # rule 16
    st4, st3 = _el_strip(col, 4), _el_strip(col, 3)

    def r16_add(st):
        return (f"(CASE WHEN {_el_in(st, g.EL_EXC16)} THEN {st} || 'ησ' "
                f"ELSE {st} END)")
    prev, col = stage(
        f"CASE WHEN length({col}) > 4 AND {col} LIKE '%ησου' "
        f"THEN {r16_add(st4)} "
        f"WHEN length({col}) > 3 AND "
        f"{_el_like_any(col, ('ησε', 'ησα'))} THEN {r16_add(st3)} "
        f"ELSE {col} END")

    # rule 17
    prev, col = stage(strip_addback(
        col, ("ηστε",), 4, "ηστ",
        lambda st: _el_in(st, g.EL_EXC17)))

    # rules 18/19
    for long_sfx, short_sfx, add, exc in (
            (("ησουνε", "ηθουνε"), "ουνε", "ουν", g.EL_EXC18),
            (("ησουμε", "ηθουμε"), "ουμε", "ουμ", g.EL_EXC19)):
        st6, st4 = _el_strip(col, 6), _el_strip(col, 4)

        def r18_add(st, exc=exc, add=add):
            return (f"(CASE WHEN {_el_in(st, exc)} THEN {st} || '{add}' "
                    f"ELSE {st} END)")
        prev, col = stage(
            f"CASE WHEN length({col}) > 6 AND "
            f"{_el_like_any(col, long_sfx)} THEN {r18_add(st6)} "
            f"WHEN length({col}) > 4 AND {col} LIKE '%{short_sfx}' "
            f"THEN {r18_add(st4)} ELSE {col} END")

    # rule 20
    prev, col = stage(
        f"CASE WHEN length({col}) > 5 AND "
        f"{_el_like_any(col, ('ματων', 'ματοσ'))} "
        f"THEN {_el_strip(col, 3)} "
        f"WHEN length({col}) > 4 AND {col} LIKE '%ματα' "
        f"THEN {_el_strip(col, 2)} ELSE {col} END")

    # rule 21 (only when rules 0-20 left the length unchanged)
    parts = []
    for min_len, sfx, drop in g.EL_R21:
        parts.append(f"WHEN length({col}) > {min_len} AND "
                     f"{_el_like_any(col, sfx)} "
                     f"THEN {_el_strip(col, drop)}")
    parts.append(f"WHEN length({col}) > 1 AND "
                 f"{_EL_VOWEL.format(col=col)} "
                 f"THEN {_el_strip(col, 1)}")
    r21 = "CASE " + " ".join(parts) + f" ELSE {col} END"
    prev, col = stage(
        f"CASE WHEN length({col}) = n0 THEN {r21} ELSE {col} END")

    # rule 22 (always)
    prev, col = stage(
        f"CASE WHEN {_el_like_any(col, g.EL_R22_5)} "
        f"THEN {_el_strip(col, 5)} "
        f"WHEN {_el_like_any(col, g.EL_R22_4)} "
        f"THEN {_el_strip(col, 4)} ELSE {col} END")

    body = ",\n".join(ctes)
    return (f"""elin AS (SELECT doc_id, t0 AS tin, length(t0) AS n0,
  t0 FROM rkept),
{body.replace('FROM rkept', 'FROM elin', 1)},
rterms AS MATERIALIZED (
  SELECT doc_id, CASE WHEN length(tin) < 4 THEN tin ELSE {col} END
  AS term FROM {prev})""")


def greek_preamble() -> str:
    """BM25 CTEs over GREEK-analyzed text (fold → stop → Ntais stem)."""
    from .analysis.greek import GREEK_FOLD, GREEK_STOP_WORDS
    stops = _stop_list_sql(GREEK_STOP_WORDS)
    frm = "".join(GREEK_FOLD)
    to = "".join(GREEK_FOLD.values())
    fold = f"translate(traw, '{frm}', '{to}')"
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {fold} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_el_stem_ctes()},
{_BM25_TAIL}"""


def bm25_greek_topk(stemmed_term: str, k: int = 10) -> str:
    pre = greek_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------------------------- Irish ---------------
def _ga_among_sql(col: str, table) -> tuple[str, str]:
    """Two parallel CASEs (longest-first): matched-suffix length and its
    1-based rule index — snowball find_among_b commits to the longest
    match before checking its region condition."""
    klen = "CASE " + " ".join(
        f"WHEN {col} LIKE '%{sfx}' THEN {len(sfx)}"
        for sfx, _, _ in table) + " ELSE 0 END"
    ridx = "CASE " + " ".join(
        f"WHEN {col} LIKE '%{sfx}' THEN {i + 1}"
        for i, (sfx, _, _) in enumerate(table)) + " ELSE 0 END"
    return klen, ridx


def _ga_step_sql(col: str, table, prefix: str) -> str:
    """One suffix step as two CTE stages (match, then apply)."""
    klen, ridx = _ga_among_sql(col, table)
    bounds = {"rv": "pv", "r1": "p1", "r2": "p2", None: "0"}
    apply_branches = []
    for i, (sfx, region, repl) in enumerate(table):
        cond = (f"length({col}) - {len(sfx)} >= {bounds[region]}"
                if region else "TRUE")
        rep = f" || '{repl}'" if repl else ""
        apply_branches.append(
            f"WHEN ridx_{prefix} = {i + 1} AND {cond} "
            f"THEN left({col}, length({col}) - {len(sfx)}){rep}")
    return f"""{prefix}m AS (SELECT doc_id, pv, p1, p2, {col},
    {klen} AS klen_{prefix}, {ridx} AS ridx_{prefix} FROM __PREV__),
{prefix}a AS (SELECT doc_id, pv, p1, p2,
    CASE {' '.join(apply_branches)} ELSE {col} END AS __OUT__ FROM {prefix}m)"""


def _ga_stem_ctes() -> str:
    """IrishStemmer: prefix morph → region marks → noun/deriv/verb
    suffix steps — GENERATED from analysis/irish.py tables."""
    from .analysis.irish import (GA_DERIV, GA_NOUN_SFX, GA_PREFIXES,
                                 GA_VERB_SFX, GA_VOWELS)
    v = GA_VOWELS
    pfx = "CASE " + " ".join(
        f"WHEN t0 LIKE '{p.replace(chr(39), chr(39) * 2)}%' THEN " +
        (f"'{r}' || substr(t0, {len(p) + 1})" if r
         else f"substr(t0, {len(p) + 1})")
        for p, r in GA_PREFIXES) + " ELSE t0 END"
    noun = _ga_step_sql("w0", GA_NOUN_SFX, "gn") \
        .replace("__PREV__", "gr").replace("__OUT__", "w1")
    deriv = _ga_step_sql("w1", GA_DERIV, "gd") \
        .replace("__PREV__", "gna").replace("__OUT__", "w2")
    verb = _ga_step_sql("w2", GA_VERB_SFX, "gv") \
        .replace("__PREV__", "gda").replace("__OUT__", "term")
    return f"""gp AS (SELECT doc_id, {pfx} AS w0 FROM rkept),
gr AS (SELECT doc_id, w0,
    CASE WHEN pvm = '' THEN length(w0) ELSE length(pvm) END AS pv,
    CASE WHEN p1m = '' THEN length(w0) ELSE length(p1m) END AS p1,
    CASE WHEN p2m = '' THEN length(w0) ELSE length(p2m) END AS p2
  FROM (SELECT doc_id, w0,
          regexp_extract(w0, '^[^{v}]*[{v}]') AS pvm,
          regexp_extract(w0, '^[^{v}]*[{v}]+[^{v}]') AS p1m,
          regexp_extract(w0, '^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]') AS p2m
        FROM gp)),
{noun},
{deriv},
{verb},
rterms AS MATERIALIZED (SELECT doc_id, term FROM gva)"""


def irish_preamble() -> str:
    """BM25 CTEs over IRISH-analyzed text: RAW-case tokens →
    hyphenation stop → elision → Irish lowercase → stop → stem."""
    from .analysis.irish import IRISH_STOP_WORDS
    from .analysis.standard import sql_tokens_expr_raw
    stops = _stop_list_sql(IRISH_STOP_WORDS)
    # (.+) keeps bare "b'"/"d'"/"m'" un-elided (they are stop words)
    elide = "regexp_replace(traw, '^[dDmMbB][''’](.+)$', '\\1')"
    ga_lower = (f"lower(CASE WHEN length({elide}) > 1 AND "
                f"substr({elide}, 1, 1) IN ('n', 't') AND "
                f"substr({elide}, 2, 1) IN "
                f"('A','E','I','O','U','Á','É','Í','Ó','Ú') "
                f"THEN substr({elide}, 1, 1) || '-' || substr({elide}, 2) "
                f"ELSE {elide} END)")
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr_raw('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok1 AS (SELECT doc_id, traw FROM rtok0
          WHERE lower(traw) NOT IN ('h', 'n', 't')),
rtok AS (SELECT doc_id, {ga_lower} AS t0 FROM rtok1),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_ga_stem_ctes()},
{_BM25_TAIL}"""


def bm25_irish_topk(stemmed_term: str, k: int = 10) -> str:
    pre = irish_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------------------------------- Galician --------------
def _gl_esc(s: str) -> str:
    return s.replace("'", "''")


def _gl_step_case(col: str, step) -> str:
    """One RSLP step as a CASE cascade (file-order first-match; a rule
    blocked by its exceptions falls through to the NEXT rule, exactly
    the engine's scan) — GENERATED from the parsed galician.rslp."""
    branches = []
    for r in step.rules:
        k = len(r.suffix)
        conds = [f"length({col}) - {k} >= {r.min}",
                 f"{col} LIKE '%{_gl_esc(r.suffix)}'"]
        if r.exc_words:
            lst = ", ".join(f"'{_gl_esc(w)}'" for w in sorted(r.exc_words))
            conds.append(f"{col} NOT IN ({lst})")
        if r.exc_suffixes:
            ors = " OR ".join(f"{col} LIKE '%{_gl_esc(e)}'"
                              for e in r.exc_suffixes)
            conds.append(f"NOT ({ors})")
        rep = f" || '{_gl_esc(r.replacement)}'" if r.replacement else ""
        branches.append(f"WHEN {' AND '.join(conds)} "
                        f"THEN left({col}, length({col}) - {k}){rep}")
    inner = "CASE " + " ".join(branches) + f" ELSE {col} END"
    guards = [f"length({col}) >= {step.min_word_size}"]
    if step.cond_suffixes:
        ors = " OR ".join(f"{col} LIKE '%{_gl_esc(s)}'"
                          for s in step.cond_suffixes)
        guards.append(f"({ors})")
    return (f"CASE WHEN {' AND '.join(guards)} THEN {inner} "
            f"ELSE {col} END")


def _gl_stem_ctes() -> str:
    """GalicianStemmer over DISTINCT tokens: staged plural/unification/
    adverb, augmentative as a recursive do-while (loop while the LENGTH
    changes), noun-else-verb on length compare, vowel, accent fold."""
    from .analysis.rslp import _gl_steps
    s = _gl_steps()
    aug = _gl_step_case("w", s["Augmentative"])
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
glp AS (SELECT t0, {_gl_step_case('t0', s['Plural'])} AS w FROM uniq),
glu AS (SELECT t0, {_gl_step_case('w', s['Unification'])} AS w FROM glp),
gla AS (SELECT t0, {_gl_step_case('w', s['Adverb'])} AS w FROM glu),
gaug(t0, w, moved) AS (
  SELECT t0, w, TRUE FROM gla
  UNION ALL
  SELECT t0, w2, length(w2) <> length(w)
  FROM (SELECT t0, w, {aug} AS w2 FROM gaug WHERE moved)
),
gfix AS (SELECT t0, w FROM gaug WHERE NOT moved),
gn AS (SELECT t0, w, {_gl_step_case('w', s['Noun'])} AS wn FROM gfix),
gv AS (SELECT t0, CASE WHEN length(wn) <> length(w) THEN wn
                       ELSE {_gl_step_case('w', s['Verb'])} END AS w
       FROM gn),
gw AS (SELECT t0, {_gl_step_case('w', s['Vowel'])} AS w FROM gv),
stems AS (SELECT t0, translate(w, 'áéêíóú', 'aeeiou') AS stem
          FROM gw),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def galician_preamble() -> str:
    """BM25 CTEs over GALICIAN-analyzed text (stop → full RSLP stem)."""
    from .analysis.rslp import GALICIAN_STOP_WORDS
    stops = _stop_list_sql(GALICIAN_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_gl_stem_ctes()},
{_BM25_TAIL}"""


def bm25_galician_topk(stemmed_term: str, k: int = 10) -> str:
    pre = galician_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# --------------------------------------------------- Finnish --------------
def _fi_in(chars) -> str:
    return "(" + ", ".join(f"'{c}'" for c in sorted(chars)) + ")"


def _fi_stem_ctes() -> str:
    """FinnishStemmer as staged CTEs over DISTINCT tokens — GENERATED
    from the analysis/finnish.py tables; every among search bounds the
    suffix start to R1/R2 and a committed match with a failed condition
    leaves the word unchanged (snowball semantics)."""
    from .analysis import finnish as f

    V1 = _fi_in(f.FI_V1)
    V2 = _fi_in(f.FI_V2)
    C = _fi_in(f.FI_C)
    AEI = _fi_in(f.FI_AEI)
    PEND = _fi_in(f.FI_PARTICLE_END)
    LONG = "(" + ", ".join(f"'{x}'" for x in f.FI_LONG) + ")"

    def strip(col, k, extra=0):
        return f"left({col}, length({col}) - {k + extra})"

    # particle_etc
    parts = []
    for sfx, act in f.FI_PARTICLES:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        if act == 1:
            cond = (f"length(w) - {k} >= 1 AND "
                    f"substr(w, length(w) - {k}, 1) IN {PEND}")
        else:
            cond = f"length(w) - {k} >= p2"
        parts.append(f"WHEN {m} THEN (CASE WHEN {cond} "
                     f"THEN {strip('w', k)} ELSE w END)")
    particle = "CASE " + " ".join(parts) + " ELSE w END"

    # possessive
    parts = []
    for sfx, act in f.FI_POSS:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = strip("w", k)
        if act == 1:
            inner = (f"CASE WHEN length(w) - {k} >= 1 AND "
                     f"substr(w, length(w) - {k}, 1) = 'k' "
                     f"THEN w ELSE {st} END")
        elif act == 2:
            inner = (f"CASE WHEN {st} LIKE '%kse' "
                     f"THEN left(w, length(w) - {k + 3}) || 'ksi' "
                     f"ELSE {st} END")
        elif act == 3:
            inner = st
        else:
            pre = {4: f.FI_CASE_A1, 5: f.FI_CASE_A2,
                   6: f.FI_CASE_A3}[act]
            ors = " OR ".join(f"{st} LIKE '%{x}'" for x in pre)
            inner = f"CASE WHEN {ors} THEN {st} ELSE w END"
        parts.append(f"WHEN {m} THEN ({inner})")
    poss = "CASE " + " ".join(parts) + " ELSE w END"

    # case_ending: emit (new word, removed flag) — conditions shared
    w_parts, r_parts = [], []
    harmony = {1: "a", 2: "e", 3: "i", 4: "o", 5: "ä", 6: "ö"}
    for sfx, act in f.FI_CASE:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = strip("w", k)
        if act in harmony:
            cond = f"{st} LIKE '%{harmony[act]}'"
            new = st
        elif act == 7:
            cond = "TRUE"
            new = (f"CASE WHEN (right({st}, 2) IN {LONG} OR "
                   f"{st} LIKE '%ie') AND length(w) - {k} >= 1 "
                   f"THEN {strip('w', k, 1)} ELSE {st} END")
        elif act == 8:
            cond = (f"length(w) - {k} >= 2 AND "
                    f"substr(w, length(w) - {k}, 1) IN {V1} AND "
                    f"substr(w, length(w) - {k} - 1, 1) IN {C}")
            new = st
        elif act == 9:
            cond = (f"{st} LIKE '%i' AND length(w) - {k} >= 2 AND "
                    f"substr(w, length(w) - {k} - 1, 1) IN {V2}")
            new = st
        elif act == 10:
            cond = f"right({st}, 2) IN {LONG}"
            new = st
        else:
            cond = "TRUE"
            new = st
        w_parts.append(f"WHEN {m} THEN (CASE WHEN {cond} THEN {new} "
                       f"ELSE w END)")
        r_parts.append(f"WHEN {m} THEN ({cond})")
    case_w = "CASE " + " ".join(w_parts) + " ELSE w END"
    case_r = "CASE " + " ".join(r_parts) + " ELSE FALSE END"

    # other_endings (R2)
    parts = []
    for sfx, act in f.FI_OTHER:
        k = len(sfx)
        m = f"length(w) - {k} >= p2 AND w LIKE '%{sfx}'"
        st = strip("w", k)
        if act == 1:
            parts.append(f"WHEN {m} THEN (CASE WHEN {st} LIKE '%po' "
                         f"THEN w ELSE {st} END)")
        else:
            parts.append(f"WHEN {m} THEN {st}")
    other = "CASE " + " ".join(parts) + " ELSE w END"

    # i_plural / t_plural fused on the removed flag; tw = word after
    # the t strip (the a_9 search then runs against the ORIGINAL p2)
    tw = "left(w, length(w) - 1)"
    tp_mma = (f"CASE WHEN length({tw}) - 4 >= p2 AND {tw} LIKE '%imma' "
              f"THEN left({tw}, length({tw}) - 4) "
              f"WHEN length({tw}) - 3 >= p2 AND {tw} LIKE '%mma' THEN "
              f"(CASE WHEN left({tw}, length({tw}) - 3) LIKE '%po' "
              f"THEN {tw} "
              f"ELSE left({tw}, length({tw}) - 3) END) ELSE {tw} END")
    plural = f"""CASE
      WHEN rem THEN (CASE WHEN length(w) - 1 >= p1 AND
        (w LIKE '%i' OR w LIKE '%j') THEN left(w, length(w) - 1)
        ELSE w END)
      WHEN length(w) - 1 >= p1 AND w LIKE '%t' AND
           length(w) - 2 >= p1 AND
           substr(w, length(w) - 1, 1) IN {V1}
        THEN ({tp_mma})
      ELSE w END"""

    # tidy stages
    t1 = (f"CASE WHEN length(w) - 2 >= p1 AND right(w, 2) IN {LONG} "
          f"THEN left(w, length(w) - 1) ELSE w END")
    t2 = (f"CASE WHEN length(w) - 2 >= p1 AND right(w, 1) IN {AEI} "
          f"AND substr(w, length(w) - 1, 1) IN {C} "
          f"THEN left(w, length(w) - 1) ELSE w END")
    t3 = (f"CASE WHEN length(w) - 2 >= p1 AND "
          f"(w LIKE '%oj' OR w LIKE '%uj') "
          f"THEN left(w, length(w) - 1) ELSE w END")
    t4 = (f"CASE WHEN length(w) - 2 >= p1 AND w LIKE '%jo' "
          f"THEN left(w, length(w) - 1) ELSE w END")
    vclass = "".join(sorted(f.FI_V1))
    undouble = f"""CASE WHEN ci > 0 AND substr(w, ci, 1) IN {C}
           AND ci >= 2 AND substr(w, ci - 1, 1) = substr(w, ci, 1)
      THEN left(w, ci - 1) || substr(w, ci + 1) ELSE w END"""

    v = vclass
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
fr AS (SELECT t0, t0 AS w,
    CASE WHEN p1m = '' THEN length(t0) ELSE length(p1m) END AS p1,
    CASE WHEN p2m = '' THEN length(t0) ELSE length(p2m) END AS p2
  FROM (SELECT t0,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]') AS p1m,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]') AS p2m
        FROM uniq)),
fpa AS (SELECT t0, p1, p2, {particle} AS w FROM fr),
fpo AS (SELECT t0, p1, p2, {poss} AS w FROM fpa),
fce AS (SELECT t0, p1, p2, {case_w} AS w, {case_r} AS rem FROM fpo),
fot AS (SELECT t0, p1, p2, rem, {other} AS w FROM fce),
fpl AS (SELECT t0, p1, p2, {plural} AS w FROM fot),
ft1 AS (SELECT t0, p1, {t1} AS w FROM fpl),
ft2 AS (SELECT t0, p1, {t2} AS w FROM ft1),
ft3 AS (SELECT t0, p1, {t3} AS w FROM ft2),
ft4 AS (SELECT t0, p1, {t4} AS w FROM ft3),
ftu AS (SELECT t0, w,
    length(w) - length(regexp_extract(w, '[{vclass}]*$')) AS ci
  FROM ft4),
stems AS (SELECT t0, {undouble} AS stem FROM ftu),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def finnish_preamble() -> str:
    """BM25 CTEs over FINNISH-analyzed text (stop → snowball stem)."""
    from .analysis.finnish import FINNISH_STOP_WORDS
    stops = _stop_list_sql(FINNISH_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_fi_stem_ctes()},
{_BM25_TAIL}"""


def bm25_finnish_topk(stemmed_term: str, k: int = 10) -> str:
    pre = finnish_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------------------------------- Armenian --------------
def _snowdel_case(col: str, table, bound: str,
                  extra_bound: str | None = None) -> str:
    """Longest-suffix-delete CASE: suffixes longest-first, each bounded
    to start >= `bound`; with `extra_bound`, a committed match whose
    start is below it deletes nothing (nested CASE, no fallback)."""
    parts = []
    for sfx in table:
        k = len(sfx)
        m = f"length({col}) - {k} >= {bound} AND {col} LIKE '%{sfx}'"
        st = f"left({col}, length({col}) - {k})"
        if extra_bound:
            st = (f"(CASE WHEN length({col}) - {k} >= {extra_bound} "
                  f"THEN {st} ELSE {col} END)")
        parts.append(f"WHEN {m} THEN {st}")
    return "CASE " + " ".join(parts) + f" ELSE {col} END"


def _hy_stem_ctes() -> str:
    """ArmenianStemmer: pV/R2 marks, then ending(R2)/verb/adjective/
    noun bounded deletes — GENERATED from analysis/armenian.py."""
    from .analysis.armenian import (HY_ADJECTIVE, HY_ENDING, HY_NOUN,
                                    HY_VERB, HY_VOWELS)
    v = "".join(sorted(HY_VOWELS))
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
hr AS (SELECT t0, t0 AS w,
    CASE WHEN pvm = '' THEN length(t0) ELSE length(pvm) END AS pv,
    CASE WHEN p2m = '' THEN length(t0) ELSE length(p2m) END AS p2
  FROM (SELECT t0,
          regexp_extract(t0, '^[^{v}]*[{v}]') AS pvm,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]') AS p2m
        FROM uniq)),
he AS (SELECT t0, pv, {_snowdel_case('w', HY_ENDING, 'pv', 'p2')} AS w
       FROM hr),
hv AS (SELECT t0, pv, {_snowdel_case('w', HY_VERB, 'pv')} AS w FROM he),
ha AS (SELECT t0, pv, {_snowdel_case('w', HY_ADJECTIVE, 'pv')} AS w
       FROM hv),
stems AS (SELECT t0, {_snowdel_case('w', HY_NOUN, 'pv')} AS stem
          FROM ha),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def armenian_preamble() -> str:
    from .analysis.armenian import ARMENIAN_STOP_WORDS
    stops = _stop_list_sql(ARMENIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_hy_stem_ctes()},
{_BM25_TAIL}"""


def bm25_armenian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = armenian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------ Lithuanian --------------
def _lt_stem_ctes() -> str:
    """LithuanianStemmer: conditional-offset R1, fix_conflicts rewrite,
    one step1 delete, fix_chdz, REPEATED step2 deletes (recursive CTE),
    fix_chdz, fix_gd — GENERATED from analysis/lithuanian.py."""
    from .analysis.lithuanian import (LT_CONFLICTS, LT_STEP1, LT_STEP2,
                                      LT_VOWELS)
    v = "".join(sorted(LT_VOWELS))
    conf = "CASE " + " ".join(
        f"WHEN w LIKE '%{sfx}' THEN left(w, length(w) - {len(sfx)}) "
        f"|| '{repl}'" for sfx, repl in LT_CONFLICTS) + " ELSE w END"
    step1 = _snowdel_case("w", LT_STEP1, "p1")
    step2_or_null = "CASE " + " ".join(
        f"WHEN length(w) - {len(sfx)} >= p1 AND w LIKE '%{sfx}' "
        f"THEN left(w, length(w) - {len(sfx)})"
        for sfx in LT_STEP2) + " ELSE NULL END"
    chdz = ("CASE WHEN w LIKE '%dž' "
            "THEN left(w, length(w) - 2) || 'd' "
            "WHEN w LIKE '%č' THEN left(w, length(w) - 1) || 't' "
            "ELSE w END")
    gd = ("CASE WHEN w LIKE '%gd' THEN left(w, length(w) - 2) || 'g' "
          "ELSE w END")
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
ltr AS (SELECT t0,
    CASE WHEN m = '' THEN length(t0) ELSE base + length(m) END AS p1
  FROM (SELECT t0, base,
          regexp_extract(substr(t0, base + 1),
                         '^[^{v}]*[{v}]+[^{v}]') AS m
        FROM (SELECT t0,
                CASE WHEN t0 LIKE 'a%' AND length(t0) > 6
                     THEN 1 ELSE 0 END AS base
              FROM uniq))),
ltc AS (SELECT t0, p1, {conf} AS w
        FROM (SELECT t0, p1, t0 AS w FROM ltr)),
lt1 AS (SELECT t0, p1, {step1} AS w FROM ltc),
ltz1 AS (SELECT t0, p1, {chdz} AS w FROM lt1),
lt2(t0, p1, w, moved) AS (
  SELECT t0, p1, w, TRUE FROM ltz1
  UNION ALL
  SELECT t0, p1, coalesce(d, w), d IS NOT NULL
  FROM (SELECT t0, p1, w, {step2_or_null} AS d
        FROM lt2 WHERE moved)
),
ltf AS (SELECT t0, p1, w FROM lt2 WHERE NOT moved),
ltz2 AS (SELECT t0, {chdz} AS w FROM ltf),
stems AS (SELECT t0, {gd} AS stem FROM ltz2),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def lithuanian_preamble() -> str:
    from .analysis.lithuanian import LITHUANIAN_STOP_WORDS
    stops = _stop_list_sql(LITHUANIAN_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_lt_stem_ctes()},
{_BM25_TAIL}"""


def bm25_lithuanian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = lithuanian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------------------------- Basque --------------
def _eu_match_cols(table) -> tuple[str, str, str]:
    """Longest-suffix-of-w[:c] match as three parallel CASEs:
    (matched length, region tag, replacement)."""
    conds = [(f"c >= {len(s)} AND "
              f"substr(w, c - {len(s) - 1}, {len(s)}) = '{s}'", s, r, p)
             for s, r, p in table]
    mlen = "CASE " + " ".join(f"WHEN {c} THEN {len(s)}"
                              for c, s, r, p in conds) + " ELSE 0 END"
    mreg = "CASE " + " ".join(f"WHEN {c} THEN '{r}'"
                              for c, s, r, p in conds) + " ELSE '' END"
    mrep = "CASE " + " ".join(f"WHEN {c} THEN '{p}'"
                              for c, s, r, p in conds) + " ELSE '' END"
    return mlen, mrep, mreg


def _eu_loop_cte(name: str, src: str, table) -> str:
    """snowball `repeat` over a cursor-carrying among table: each
    iteration matches a suffix ENDING at cursor c, edits [s, c) and
    moves c to s; a miss or failed region check stops the loop."""
    mlen, mrep, mreg = _eu_match_cols(table)
    return f"""{name}(t0, pv, p1, p2, w, c, moved) AS (
  SELECT t0, pv, p1, p2, w, c, TRUE FROM {src}
  UNION ALL
  SELECT t0, pv, p1, p2,
    CASE WHEN ok THEN left(w, c - mlen) || mrep || substr(w, c + 1)
         ELSE w END,
    CASE WHEN ok THEN c - mlen ELSE c END,
    ok
  FROM (SELECT t0, pv, p1, p2, w, c, mlen, mrep,
          mlen > 0 AND (mreg = '' OR c - mlen >=
            CASE mreg WHEN 'rv' THEN pv WHEN 'r1' THEN p1
                      ELSE p2 END) AS ok
        FROM (SELECT t0, pv, p1, p2, w, c, {mlen} AS mlen,
                {mrep} AS mrep, {mreg} AS mreg
              FROM {name} WHERE moved))
),
{name}f AS (SELECT t0, pv, p1, p2, w, c FROM {name} WHERE NOT moved)"""


def _eu_stem_ctes() -> str:
    """BasqueStemmer: RV/R1/R2 marks, aditzak + izenak repeat loops,
    adjetiboak once — GENERATED from analysis/basque.py."""
    from .analysis.basque import (EU_ADITZAK, EU_ADJETIBOAK, EU_IZENAK,
                                  EU_VOWELS)
    v = "".join(sorted(EU_VOWELS))
    vin = "(" + ", ".join(f"'{c}'" for c in sorted(EU_VOWELS)) + ")"
    mlen, mrep, mreg = _eu_match_cols(EU_ADJETIBOAK)
    adj = f"""CASE WHEN mlen > 0 AND (mreg = '' OR c - mlen >=
      CASE mreg WHEN 'rv' THEN pv WHEN 'r1' THEN p1 ELSE p2 END)
    THEN left(w, c - mlen) || mrep || substr(w, c + 1) ELSE w END"""
    tail = "substr(t0, 3)"
    pv_expr = f"""CASE
    WHEN length(t0) < 2 THEN length(t0)
    WHEN substr(t0, 1, 1) IN {vin} AND substr(t0, 2, 1) NOT IN {vin}
      THEN CASE WHEN regexp_extract({tail}, '^[^{v}]*[{v}]') = ''
                THEN length(t0)
                ELSE 2 + length(regexp_extract({tail}, '^[^{v}]*[{v}]'))
           END
    WHEN substr(t0, 1, 1) IN {vin}
      THEN CASE WHEN regexp_extract({tail}, '^[{v}]*[^{v}]') = ''
                THEN length(t0)
                ELSE 2 + length(regexp_extract({tail}, '^[{v}]*[^{v}]'))
           END
    WHEN substr(t0, 2, 1) NOT IN {vin}
      THEN CASE WHEN regexp_extract({tail}, '^[^{v}]*[{v}]') = ''
                THEN length(t0)
                ELSE 2 + length(regexp_extract({tail}, '^[^{v}]*[{v}]'))
           END
    ELSE CASE WHEN length(t0) > 2 THEN 3 ELSE length(t0) END END"""
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
eur AS (SELECT t0, {pv_expr} AS pv,
    CASE WHEN p1m = '' THEN length(t0) ELSE length(p1m) END AS p1,
    CASE WHEN p2m = '' THEN length(t0) ELSE length(p2m) END AS p2,
    t0 AS w, length(t0) AS c
  FROM (SELECT t0,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]') AS p1m,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]') AS p2m
        FROM uniq)),
{_eu_loop_cte('eua', 'eur', EU_ADITZAK)},
{_eu_loop_cte('eui', 'euaf', EU_IZENAK)},
stems AS (SELECT t0, {adj} AS stem
  FROM (SELECT t0, pv, p1, p2, w, c, {mlen} AS mlen, {mrep} AS mrep,
          {mreg} AS mreg FROM euif)),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def basque_preamble() -> str:
    from .analysis.basque import BASQUE_STOP_WORDS
    stops = _stop_list_sql(BASQUE_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_eu_stem_ctes()},
{_BM25_TAIL}"""


def bm25_basque_topk(stemmed_term: str, k: int = 10) -> str:
    pre = basque_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# --------------------------------------------------- Estonian -------------
def _et_stem_ctes() -> str:
    """EstonianStemmer: verb-exception dict, emphasis, verb-else-
    substantive pipeline, kk/pp/tt undouble — GENERATED from
    analysis/estonian.py."""
    from .analysis import estonian as e

    def inset(chars):
        return "(" + ", ".join(f"'{c}'" for c in sorted(chars)) + ")"

    V1, RV = inset(e.ET_V1), inset(e.ET_RV)
    KI, GI = inset(e.ET_KI), inset(e.ET_GI)
    LONG = "(" + ", ".join(f"'{x}'" for x in e.ET_LONGV) + ")"

    def longv_at(col, off):
        """two chars ending at length-off form a long vowel"""
        return (f"(length({col}) - {off} >= 2 AND "
                f"substr({col}, length({col}) - {off + 1}, 2) IN {LONG})")

    exc = "CASE " + " ".join(
        f"WHEN t0 = '{w}' THEN '{s}'"
        for w, s in sorted(e.ET_VERB_EXCEPTIONS.items())) + " ELSE NULL END"

    emph = f"""CASE
      WHEN length(w) - 2 >= p1 AND w LIKE '%gi' THEN
        (CASE WHEN length(w) - 2 >= 4 AND
          substr(w, length(w) - 2, 1) IN {GI} AND
          NOT {longv_at('w', 2)}
          THEN left(w, length(w) - 2) ELSE w END)
      WHEN length(w) - 2 >= p1 AND w LIKE '%ki' THEN
        (CASE WHEN length(w) - 2 >= 4 AND
          substr(w, length(w) - 2, 1) IN {KI}
          THEN left(w, length(w) - 2) ELSE w END)
      ELSE w END"""

    vparts_w, vparts_f = [], []
    for sfx, act in e.ET_VERB:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = f"left(w, length(w) - {k})"
        if act == 1:
            new, flag = st, "TRUE"
        elif act == 2:
            new, flag = f"{st} || 'a'", "TRUE"
        else:
            cond = (f"length(w) - {k} >= 1 AND "
                    f"substr(w, length(w) - {k}, 1) IN {V1}")
            new = f"(CASE WHEN {cond} THEN {st} ELSE w END)"
            flag = f"({cond})"
        vparts_w.append(f"WHEN {m} THEN {new}")
        vparts_f.append(f"WHEN {m} THEN {flag}")
    verb_w = "CASE " + " ".join(vparts_w) + " ELSE w END"
    verb_f = "CASE " + " ".join(vparts_f) + " ELSE FALSE END"

    special = "CASE " + " ".join(
        f"WHEN length(w) - {len(s)} >= p1 AND w LIKE '%{s}' "
        f"THEN left(w, length(w) - {len(s)}) || '{r}'"
        for s, r in e.ET_SPECIAL) + " ELSE w END"

    cparts = []
    for sfx, act in e.ET_CASE:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = f"left(w, length(w) - {k})"
        if act == 1:
            cond = (f"(length(w) - {k} >= 1 AND "
                    f"substr(w, length(w) - {k}, 1) IN {RV}) OR "
                    f"{longv_at('w', k)}")
        else:
            cond = f"length(w) - {k} >= 4"
        cparts.append(f"WHEN {m} THEN (CASE WHEN {cond} THEN {st} "
                      f"ELSE w END)")
    case_e = "CASE " + " ".join(cparts) + " ELSE w END"

    pparts = []
    for sfx, act in e.ET_PLURAL:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = f"left(w, length(w) - {k})"
        if act == 1:
            new = f"{st} || 'iku'"
        elif act == 2:
            new = (f"(CASE WHEN {longv_at('w', k)} THEN w "
                   f"ELSE {st} END)")
        elif act == 3:
            new = (f"(CASE WHEN length(w) - {k} >= 4 THEN "
                   f"(CASE WHEN {st} LIKE '%las' OR {st} LIKE '%lis' "
                   f"OR {st} LIKE '%mis' THEN {st} || 'e' "
                   f"WHEN {st} LIKE '%t' THEN w ELSE {st} END) "
                   f"ELSE {st} || 't' END)")
        else:
            cond = (f"(length(w) - {k} >= 1 AND "
                    f"substr(w, length(w) - {k}, 1) IN {RV}) OR "
                    f"{longv_at('w', k)}")
            new = f"(CASE WHEN {cond} THEN {st} ELSE w END)"
        pparts.append(f"WHEN {m} THEN {new}")
    plural = "CASE " + " ".join(pparts) + " ELSE w END"

    dparts = []
    for sfx, act in e.ET_DEGREES:
        k = len(sfx)
        m = f"length(w) - {k} >= p1 AND w LIKE '%{sfx}'"
        st = f"left(w, length(w) - {k})"
        if act == 1:
            cond = (f"length(w) - {k} >= 1 AND "
                    f"substr(w, length(w) - {k}, 1) IN {RV}")
            dparts.append(f"WHEN {m} THEN (CASE WHEN {cond} THEN {st} "
                          f"ELSE w END)")
        else:
            dparts.append(f"WHEN {m} THEN {st}")
    degrees = "CASE " + " ".join(dparts) + " ELSE w END"

    ipl = (f"CASE WHEN length(w) - 1 >= p1 AND w LIKE '%i' AND "
           f"length(w) >= 2 AND substr(w, length(w) - 1, 1) IN {RV} "
           f"THEN left(w, length(w) - 1) ELSE w END")
    nu = "CASE " + " ".join(
        f"WHEN length(w) - 2 >= p1 AND w LIKE '%{s}' "
        f"THEN left(w, length(w) - 2)" for s in e.ET_NU) + " ELSE w END"
    undouble = f"""CASE WHEN length(w) >= 1 AND right(w, 1) IN {V1}
      AND p1 <= length(w) - 1 AND length(w) >= 3 AND
      substr(w, length(w) - 2, 2) IN ('kk', 'pp', 'tt')
    THEN left(w, length(w) - 3) ||
         substr(w, length(w) - 2, 1) || right(w, 1)
    ELSE w END"""

    v = "".join(sorted(e.ET_V1))
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
etx AS (SELECT t0, {exc} AS exc,
    CASE WHEN m = '' THEN length(t0) ELSE length(m) END AS p1
  FROM (SELECT t0,
          regexp_extract(t0, '^[^{v}]*[{v}]+[^{v}]') AS m
        FROM uniq)),
ete AS (SELECT t0, exc, p1, {emph} AS w
        FROM (SELECT t0, exc, p1, t0 AS w FROM etx)),
etv AS (SELECT t0, exc, p1, {verb_w} AS wv, {verb_f} AS verbed, w
        FROM ete),
ets1 AS (SELECT t0, exc, p1, wv, verbed,
         CASE WHEN verbed THEN w ELSE {special} END AS w FROM etv),
ets2 AS (SELECT t0, exc, p1, wv, verbed,
         CASE WHEN verbed THEN w ELSE {case_e} END AS w FROM ets1),
ets3 AS (SELECT t0, exc, p1, wv, verbed,
         CASE WHEN verbed THEN w ELSE {plural} END AS w FROM ets2),
ets4 AS (SELECT t0, exc, p1, wv, verbed,
         CASE WHEN verbed THEN w ELSE {degrees} END AS w FROM ets3),
ets5 AS (SELECT t0, exc, p1, wv, verbed,
         CASE WHEN verbed THEN w ELSE {ipl} END AS w FROM ets4),
ets6 AS (SELECT t0, exc, p1,
         CASE WHEN verbed THEN wv ELSE {nu} END AS w FROM ets5),
stems AS (SELECT t0, coalesce(exc, {undouble}) AS stem FROM ets6),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def estonian_preamble() -> str:
    from .analysis.estonian import ESTONIAN_STOP_WORDS
    stops = _stop_list_sql(ESTONIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_et_stem_ctes()},
{_BM25_TAIL}"""


def bm25_estonian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = estonian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------------------------------- Brazilian -------------
def _br_stem_ctes() -> str:
    """BrazilianStemmer: fold → suffix-string regions (computed on the
    PRE-step ct; steps 3-5 test the ORIGINAL RV tail while editing the
    evolving ct) → step1-else-step2 → step3-else-step4 → step5 —
    GENERATED from analysis/brazilian.py."""
    from .analysis.brazilian import BR_STEP1, BR_STEP2

    v = "aeiou"
    fold = "translate(t0, 'áâãéêíóôõúüçñ', 'aaaeeiooouucn')"
    punct = "('\"', '''', '-', ',', ';', '.', '?', '!')"
    strip1 = (f"CASE WHEN length({fold}) >= 2 AND "
              f"substr({fold}, 1, 1) IN {punct} "
              f"THEN substr({fold}, 2) ELSE {fold} END")
    ct0 = (f"CASE WHEN length({strip1}) >= 2 AND "
           f"right({strip1}, 1) IN {punct} "
           f"THEN left({strip1}, length({strip1}) - 1) "
           f"ELSE {strip1} END")

    # getR1 as a length: the vowel→non-vowel boundary must sit before
    # the last char
    def r1len_of(col):
        m = f"regexp_extract({col}, '^[^{v}]*[{v}]+[^{v}]')"
        return (f"CASE WHEN {m} <> '' AND length({m}) <= "
                f"length({col}) - 1 THEN length({col}) - length({m}) "
                f"ELSE NULL END")

    rv_b1m = f"regexp_extract(substr(ct0, 3), '^[^{v}]*[{v}]')"
    rv_b2m = f"regexp_extract(substr(ct0, 3), '^[{v}]*[^{v}]')"
    rvlen = f"""CASE
      WHEN length(ct0) >= 2 AND substr(ct0, 2, 1) NOT IN
           ('a','e','i','o','u') THEN
        CASE WHEN {rv_b1m} <> '' AND 2 + length({rv_b1m}) <=
               length(ct0) - 1
             THEN length(ct0) - 2 - length({rv_b1m})
             WHEN length(ct0) > 3 THEN length(ct0) - 3
             ELSE NULL END
      WHEN length(ct0) >= 3 AND substr(ct0, 1, 1) IN
           ('a','e','i','o','u') AND substr(ct0, 2, 1) IN
           ('a','e','i','o','u') THEN
        CASE WHEN {rv_b2m} <> '' AND 2 + length({rv_b2m}) <=
               length(ct0) - 1
             THEN length(ct0) - 2 - length({rv_b2m})
             WHEN length(ct0) > 3 THEN length(ct0) - 3
             ELSE NULL END
      WHEN length(ct0) > 3 THEN length(ct0) - 3
      ELSE NULL END"""

    # step1: two parallel CASEs (result, fired) over shared conditions
    w_parts, f_parts = [], []
    for sfx, reg, preceded, act, repl in BR_STEP1:
        k = len(sfx)
        rcol = {"r1": "r1len", "r2": "r2len", "rv": "rvlen"}[reg]
        cond = (f"ct0 LIKE '%{sfx}' AND {rcol} IS NOT NULL AND "
                f"{rcol} >= {k}")
        if preceded:
            cond += (f" AND left(ct0, length(ct0) - {k}) "
                     f"LIKE '%{preceded}'")
        if act == "remove":
            new = f"left(ct0, length(ct0) - {k})"
        elif act == "replace":
            new = f"left(ct0, length(ct0) - {k}) || '{repl}'"
        else:            # discard: altered but unchanged
            new = "ct0"
        w_parts.append(f"WHEN {cond} THEN {new}")
        f_parts.append(f"WHEN {cond} THEN TRUE")
    s1_w = "CASE " + " ".join(w_parts) + " ELSE ct0 END"
    s1_f = "CASE " + " ".join(f_parts) + " ELSE FALSE END"

    w_parts, f_parts = [], []
    for sfx in BR_STEP2:
        k = len(sfx)
        cond = (f"ct0 LIKE '%{sfx}' AND rvlen IS NOT NULL AND "
                f"rvlen >= {k}")
        w_parts.append(f"WHEN {cond} THEN left(w, length(w) - {k})")
        f_parts.append(f"WHEN {cond} THEN TRUE")
    s2_w = "CASE " + " ".join(w_parts) + " ELSE w END"
    s2_f = "CASE " + " ".join(f_parts) + " ELSE FALSE END"

    s34 = """CASE
      WHEN alt THEN
        (CASE WHEN rvlen IS NOT NULL AND rvlen >= 2 AND
              ct0 LIKE '%ci' AND w LIKE '%i'
         THEN left(w, length(w) - 1) ELSE w END)
      WHEN rvlen IS NULL THEN w
      WHEN rvlen >= 2 AND ct0 LIKE '%os' THEN
        (CASE WHEN w LIKE '%os' THEN left(w, length(w) - 2) ELSE w END)
      WHEN rvlen >= 1 AND ct0 LIKE '%a' THEN
        (CASE WHEN w LIKE '%a' THEN left(w, length(w) - 1) ELSE w END)
      WHEN rvlen >= 1 AND ct0 LIKE '%i' THEN
        (CASE WHEN w LIKE '%i' THEN left(w, length(w) - 1) ELSE w END)
      WHEN rvlen >= 1 AND ct0 LIKE '%o' THEN
        (CASE WHEN w LIKE '%o' THEN left(w, length(w) - 1) ELSE w END)
      ELSE w END"""

    e1 = "CASE WHEN w LIKE '%e' THEN left(w, length(w) - 1) ELSE w END"
    s5 = f"""CASE
      WHEN rvlen IS NULL OR rvlen < 1 OR ct0 NOT LIKE '%e' THEN w
      WHEN rvlen >= 3 AND ct0 LIKE '%gue' THEN
        (CASE WHEN ({e1}) LIKE '%u'
              THEN left(({e1}), length(({e1})) - 1) ELSE ({e1}) END)
      WHEN rvlen >= 3 AND ct0 LIKE '%cie' THEN
        (CASE WHEN ({e1}) LIKE '%i'
              THEN left(({e1}), length(({e1})) - 1) ELSE ({e1}) END)
      ELSE ({e1}) END"""

    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
brc AS (SELECT t0, ct0,
    length(ct0) > 2 AND length(ct0) < 30 AS idx,
    regexp_full_match(ct0, '\\pL+') AS alpha
  FROM (SELECT t0, {ct0} AS ct0 FROM uniq)),
brr AS (SELECT t0, ct0, idx, alpha,
    {r1len_of('ct0')} AS r1len, {rvlen} AS rvlen
  FROM brc),
brr2 AS (SELECT t0, ct0, idx, alpha, rvlen,
    r1len,
    CASE WHEN r1len IS NULL THEN NULL
         ELSE {r1len_of('right(ct0, r1len)')} END AS r2len
  FROM brr),
br1 AS (SELECT t0, ct0, idx, alpha, rvlen,
    {s1_w} AS w, {s1_f} AS alt1 FROM brr2),
br2 AS (SELECT t0, ct0, idx, alpha, rvlen,
    CASE WHEN alt1 THEN w ELSE {s2_w} END AS w,
    alt1 OR (NOT alt1 AND ({s2_f})) AS alt FROM br1),
br3 AS (SELECT t0, ct0, idx, alpha, rvlen, {s34} AS w FROM br2),
br5 AS (SELECT t0, ct0, idx, alpha, {s5} AS w FROM br3),
stems AS (SELECT t0,
    CASE WHEN NOT idx THEN t0
         WHEN NOT alpha THEN ct0
         ELSE w END AS stem FROM br5),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def brazilian_preamble() -> str:
    """BM25 CTEs over BRAZILIAN-analyzed text (stop on the raw
    lowercased token, then the full stemmer)."""
    from .analysis.brazilian import BRAZILIAN_STOP_WORDS
    stops = _stop_list_sql(BRAZILIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_br_stem_ctes()},
{_BM25_TAIL}"""


def bm25_brazilian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = brazilian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------- extra-module simple chains ------------
def _map_translate_sql(col: str, mapping: dict) -> str:
    """translate() for a char→char|None fold map (deletes last)."""
    kept = [(k, v) for k, v in mapping.items() if v]
    dels = [k for k, v in mapping.items() if not v]
    frm = "".join(k for k, _ in kept) + "".join(dels)
    to = "".join(v for _, v in kept)
    frm = frm.replace("'", "''")
    to = to.replace("'", "''")
    return f"translate({col}, '{frm}', '{to}')"


def _pfx_case(col: str, prefixes, extra: int) -> str:
    parts = [f"WHEN length({col}) > {len(p) + extra} AND "
             f"{col} LIKE '{p}%' THEN substr({col}, {len(p) + 1})"
             for p in prefixes]
    return "CASE " + " ".join(parts) + f" ELSE {col} END"


def _sfx_case(col: str, suffixes, extra: int) -> str:
    parts = [f"WHEN length({col}) >= {len(s) + extra} AND "
             f"{col} LIKE '%{s}' "
             f"THEN left({col}, length({col}) - {len(s)})"
             for s in suffixes]
    return "CASE " + " ".join(parts) + f" ELSE {col} END"


def _extra_stem_stages(lang: str) -> list[str]:
    """The per-language stem pipeline as CASE expressions over column
    w (already guarded by the ≤3-char skip) — GENERATED from
    analysis/african.py tables."""
    from .analysis import african as af
    if lang == "hausa":
        return [_pfx_case("w", af.HA_PREFIXES, 3),
                _sfx_case("w", af.HA_SUFFIXES, 3)]
    if lang == "swahili":
        return [_pfx_case("w", af.SW_VERB_PREFIXES, 3),
                _pfx_case("w", af.SW_NOUN_PREFIXES, 3),
                _sfx_case("w", af.SW_SUFFIXES, 3),
                _sfx_case("w", af.SW_SUFFIXES, 3)]
    if lang == "yoruba":
        contr = ("CASE WHEN length(w) > 2 AND w LIKE '%''n' "
                 "THEN left(w, length(w) - 2) ELSE w END")
        redup = """CASE WHEN strpos(w, '-') >= 2
       AND strpos(w, '-') <= length(w) - 1
       AND left(w, strpos(w, '-') - 1) = substr(w, strpos(w, '-') + 1)
       AND strpos(w, '-') - 1 >= 3
      THEN left(w, strpos(w, '-') - 1) ELSE w END"""
        vows = "('a','e','i','o','u')"
        pfx = " ".join(
            f"WHEN length(w) > {len(p) + 3} AND w LIKE '{p}%' AND "
            f"substr(w, {len(p) + 1}, 1) BETWEEN 'a' AND 'z' AND "
            f"substr(w, {len(p) + 1}, 1) NOT IN {vows} "
            f"THEN substr(w, {len(p) + 1})"
            for p in af.YO_PREFIXES)
        return [contr, redup, "CASE " + pfx + " ELSE w END"]
    if lang == "igbo":
        vows = "(" + ", ".join(f"'{c}'" for c in sorted(af.IG_VOWELS)) + ")"
        pfx = f"""CASE
      WHEN length(w) > 5 AND w LIKE 'na%' THEN substr(w, 3)
      WHEN length(w) >= 4 AND w LIKE 'ị%' AND
           substr(w, 2, 1) NOT IN {vows} THEN substr(w, 2)
      WHEN length(w) >= 4 AND w LIKE 'i%' AND
           substr(w, 2, 1) NOT IN {vows} THEN substr(w, 2)
      WHEN length(w) >= 5 AND w LIKE 'n%' AND
           substr(w, 2, 1) NOT IN {vows} THEN substr(w, 2)
      WHEN length(w) >= 5 AND w LIKE 'm%' AND
           substr(w, 2, 1) NOT IN {vows} THEN substr(w, 2)
      ELSE w END"""
        return [pfx, _sfx_case("w", af.IG_SUFFIXES, 3)]
    if lang == "tigrinya":
        return [_sfx_case("w", af.TI_SUFFIXES, 3)]
    from .analysis import philippine as ph
    _CONS = ("substr({w}, {i}, 1) BETWEEN 'a' AND 'z' AND "
             "substr({w}, {i}, 1) NOT IN ('a','e','i','o','u')")
    infix = ("""CASE WHEN length(w) <= 4 THEN w
      WHEN w LIKE 'um%' OR w LIKE 'in%' THEN substr(w, 3)
      WHEN """ + _CONS.format(w="w", i=1) +
             """ AND length(w) > 5 AND
           substr(w, 2, 2) IN ('um', 'in')
      THEN left(w, 1) || substr(w, 4) ELSE w END""")
    hyphen_redup = """strpos(w, '-') >= 2
       AND strpos(w, '-') <= length(w) - 1
       AND left(w, strpos(w, '-') - 1) = substr(w, strpos(w, '-') + 1)"""
    cvcv = (_CONS.format(w="w", i=1) +
            " AND substr(w, 2, 1) IN ('a','e','i','o','u') AND "
            "length(w) >= 4 AND substr(w, 1, 1) = substr(w, 3, 1) "
            "AND substr(w, 2, 1) = substr(w, 4, 1)")
    redup = (f"CASE WHEN {hyphen_redup} THEN left(w, strpos(w, '-') - 1) "
             f"WHEN {cvcv} THEN substr(w, 3) ELSE w END")
    if lang == "tagalog":
        contr = ("CASE WHEN length(w) > 2 AND "
                 "(w LIKE '%''t' OR w LIKE '%''y') "
                 "THEN left(w, length(w) - 2) ELSE w END")
        vdup = ("CASE WHEN length(w) > 2 AND "
                "substr(w, 1, 1) = substr(w, 2, 1) AND "
                "substr(w, 1, 1) IN ('a','e','i','o','u') "
                "THEN substr(w, 2) ELSE w END")
        pparts = []
        for p in ph.TL_PREFIXES:
            k = len(p)
            if p in ("ma", "pa", "ka"):
                # conditional branch; a failed condition falls through
                # to LATER prefixes (shorter ones can't match after
                # these, so CASE fall-through is equivalent)
                pparts.append(
                    f"WHEN length(w) > {k + 2} AND w LIKE '{p}%' AND "
                    + _CONS.format(w="w", i=k + 1) +
                    f" AND length(w) > {k + 3} THEN substr(w, {k + 1})")
            else:
                pparts.append(f"WHEN length(w) > {k + 2} AND "
                              f"w LIKE '{p}%' THEN substr(w, {k + 1})")
        pfx = "CASE " + " ".join(pparts) + " ELSE w END"
        tl_infix = ("""CASE WHEN length(w) <= 3 THEN w
      WHEN w LIKE 'um%' AND length(w) > 4 THEN substr(w, 3)
      WHEN w LIKE 'in%' AND length(w) > 4 THEN substr(w, 3)
      WHEN """ + _CONS.format(w="w", i=1) +
                    """ AND length(w) > 4 AND
           substr(w, 2, 2) IN ('um', 'in')
      THEN left(w, 1) || substr(w, 4) ELSE w END""")
        sfx = " ".join(
            f"WHEN length(w) > {len(s) + 2} AND w LIKE '%{s}' "
            f"THEN left(w, length(w) - {len(s)})"
            for s in ph.TL_SUFFIXES)
        return [contr, vdup, pfx, tl_infix, redup,
                "CASE " + sfx + " ELSE w END"]
    if lang == "cebuano":
        contr = ("""CASE WHEN length(w) > 3 AND
      (w LIKE '%''g' OR w LIKE '%''y')
      THEN left(w, length(w) - 2)
      WHEN length(w) > 4 AND w LIKE '%''ng'
      THEN left(w, length(w) - 3) ELSE w END""")
        reg = " ".join(
            f"WHEN length(w) > {len(p) + 3} AND w LIKE '{p}%' "
            f"THEN substr(w, {len(p) + 1})" for p in ph.CEB_PREFIXES)
        pfx = f"""CASE
      WHEN length(w) >= 6 AND (w LIKE 'mang%' OR w LIKE 'pang%')
        THEN substr(w, 5)
      WHEN length(w) >= 5 AND (w LIKE 'man%' OR w LIKE 'pan%')
        THEN 't' || substr(w, 4)
      WHEN length(w) >= 5 AND (w LIKE 'mam%' OR w LIKE 'pam%')
        THEN 'p' || substr(w, 4)
      {reg} ELSE w END"""
        sfx = "CASE " + " ".join(
            f"WHEN length(w) > {len(s) + 3} AND w LIKE '%{s}' "
            f"THEN left(w, length(w) - {len(s)})"
            for s in ph.CEB_SUFFIXES) + " ELSE w END"
        return [contr, pfx, infix, redup, sfx, sfx]
    from .analysis import sea
    nasal = """CASE
      WHEN length(w) >= 5 AND w LIKE 'ny%' THEN 's' || substr(w, 3)
      WHEN length(w) >= 5 AND w LIKE 'ng%' THEN substr(w, 3)
      WHEN length(w) > 4 AND w LIKE 'n%' THEN 't' || substr(w, 2)
      WHEN length(w) > 4 AND w LIKE 'm%' THEN 'p' || substr(w, 2)"""
    if lang == "javanese":
        reg = " ".join(
            f"WHEN length(w) > {len(p) + 3} AND w LIKE '{p}%' "
            f"THEN substr(w, {len(p) + 1})" for p in sea.JV_PREFIXES)
        sfx = _sfx_case("w", sea.JV_SUFFIXES, 3)
        return [f"{nasal} {reg} ELSE w END", sfx, sfx]
    if lang == "sundanese":
        reg = " ".join(
            f"WHEN length(w) > {len(p) + 3} AND w LIKE '{p}%' "
            f"THEN substr(w, {len(p) + 1})" for p in sea.SU_PREFIXES)
        nasal_tail = nasal.split("CASE\n", 1)[1]
        return [f"CASE {reg}\n{nasal_tail} ELSE w END",
                _sfx_case("w", sea.SU_SUFFIXES, 3)]
    if lang == "ilocano":
        pfx = "CASE " + " ".join(
            f"WHEN length(w) >= {len(p) + 3} AND w LIKE '{p}%' "
            f"THEN substr(w, {len(p) + 1})"
            for p in ph.ILO_PREFIXES) + " ELSE w END"
        triple = ("length(w) >= 6 AND substr(w, 1, 3) = "
                  "substr(w, 4, 3)")
        redup3 = (f"CASE WHEN {hyphen_redup} "
                  f"THEN left(w, strpos(w, '-') - 1) "
                  f"WHEN {triple} THEN substr(w, 4) "
                  f"WHEN {cvcv} THEN substr(w, 3) ELSE w END")
        sfx = "CASE " + " ".join(
            f"WHEN length(w) > {len(s) + 3} AND w LIKE '%{s}' "
            f"THEN left(w, length(w) - {len(s)})"
            for s in ph.ILO_SUFFIXES) + " ELSE w END"
        return [pfx, infix, redup3, sfx]
    raise KeyError(lang)


_EXTRA_REGISTRY = {
    "hausa": ("african", "HAUSA_STOP_WORDS", "HAUSA_NORM", 3),
    "swahili": ("african", "SWAHILI_STOP_WORDS", "SWAHILI_NORM", 3),
    "yoruba": ("african", "YORUBA_STOP_WORDS", "YORUBA_NORM", 3),
    "igbo": ("african", "IGBO_STOP_WORDS", "IGBO_NORM", 3),
    "tigrinya": ("african", "TIGRINYA_STOP_WORDS", "TIGRINYA_NORM", 3),
    "tagalog": ("philippine", "TAGALOG_STOP_WORDS", None, 2),
    "cebuano": ("philippine", "CEBUANO_STOP_WORDS", None, 3),
    "ilocano": ("philippine", "ILOCANO_STOP_WORDS", None, 3),
    "javanese": ("sea", "JAVANESE_STOP_WORDS", None, 3),
    "sundanese": ("sea", "SUNDANESE_STOP_WORDS", None, 3),
}


def extra_preamble(lang: str) -> str:
    """BM25 CTEs for an extra-module simple chain: digit fold →
    normalize translate → stop → guarded stem stages."""
    import importlib
    mod_name, stop_name, norm_name, guard = _EXTRA_REGISTRY[lang]
    mod = importlib.import_module(f".analysis.{mod_name}",
                                  package=__package__)
    stops = _stop_list_sql(getattr(mod, stop_name))
    if norm_name is None:
        from .analysis.african import _LATIN_CORE as norm_map
    else:
        norm_map = getattr(mod, norm_name)
    norm = _map_translate_sql(_SQL_DIGIT_FOLD.format(col="traw"),
                              norm_map)
    stages = _extra_stem_stages(lang)
    ctes, prev = [], "rg"
    for i, expr in enumerate(stages):
        name = f"xs{i}"
        ctes.append(f"{name} AS (SELECT t0, g, CASE WHEN g THEN "
                    f"({expr}) ELSE w END AS w FROM {prev})")
        prev = name
    body = ",\n".join(ctes)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0 FROM rkept),
rg AS (SELECT t0, length(t0) > {guard} AS g, t0 AS w FROM uniq),
{body},
stems AS (SELECT t0, w AS stem FROM {prev}),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0)),
{_BM25_TAIL}"""


def bm25_extra_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    pre = extra_preamble(lang).replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------ Indic extra languages ---------------
# per-language: (translate map incl. deletes, colon-visarga block or
# None, stem kind).  The ':' rule is a single-pass regex — exact for
# tokenizer output, whose MidLetter grammar admits only single colons.
_ZWS = {"‌": None, "‍": None}


def _indic_extra_norm_sql(col: str, lang: str) -> str:
    maps = {
        "as": ({"৷": "।", "র": "ৰ"} | _ZWS,
               (0x0980, 0x09FF, "ঃ")),
        "gu": ({"૤": "।", "૥": "॥"},
               (0x0A80, 0x0AFF, "ઃ")),
        "kn": ({"೤": "।", "೥": "॥"} | _ZWS,
               (0x0C80, 0x0CFF, "ಃ")),
        "ml": ({"൤": "।", "൥": "॥"} | _ZWS,
               None),
        "or": ({"୤": "।", "୥": "॥"} | _ZWS,
               (0x0B00, 0x0B7F, "ଃ")),
        "pa": ({"੤": "।", "੥": "॥",
                "ਁ": "ਂ", "੍": None} | _ZWS,
               None),
        "si": ({"෴": "।"} | _ZWS, None),
    }
    mp, colon = maps[lang]
    e = _map_translate_sql(col, mp)
    if colon:
        lo, hi, vis = colon
        e = (f"regexp_replace({e}, "
             f"'([\\x{{{lo:04X}}}-\\x{{{hi:04X}}}]):', "
             f"'\\1{vis}', 'g')")
    return e


def _mr_norm_sql(col: str) -> str:
    """MarathiNormalizer: न्→ं on ORIGINAL adjacency, then the
    nukta/ZW/virama deletes, then the single-char fold table."""
    from .analysis.indic_extra import _MR_TRANS
    mp = {chr(k): v for k, v in _MR_TRANS.items()}
    mp |= {"़": None, "्": None} | _ZWS
    return _map_translate_sql(
        f"replace({col}, 'न्', 'ं')", mp)


def _indic_extra_stem_sql(lang: str) -> str:
    """One guarded CASE over w — GENERATED from indic_extra tables."""
    from .analysis import indic_extra as ie
    if lang == "pa":
        parts = []
        for match, strip, add in ie.PA_RULES:
            res = f"left(w, length(w) - {len(strip)}) || '{add}'" \
                if add else f"left(w, length(w) - {len(strip)})"
            parts.append(
                f"WHEN length(w) > {len(match) + 1} AND "
                f"w LIKE '%{match}' THEN "
                f"(CASE WHEN length({res}) < 2 THEN w ELSE {res} END)")
        case = "CASE " + " ".join(parts) + " ELSE w END"
        return f"CASE WHEN length(w) <= 2 THEN w ELSE ({case}) END"
    if lang == "mr":
        parts = []
        for min_len, suffixes, drop in ie.MR_TIERS:
            ors = " OR ".join(f"w LIKE '%{s}'" for s in suffixes)
            parts.append(f"WHEN length(w) > {min_len} AND ({ors}) "
                         f"THEN left(w, length(w) - {drop})")
        return "CASE " + " ".join(parts) + " ELSE w END"
    table = {"as": ie.AS_SUFFIXES, "gu": ie.GU_SUFFIXES,
             "kn": ie.KN_SUFFIXES, "ml": ie.ML_SUFFIXES,
             "or": ie.OR_SUFFIXES, "si": ie.SI_SUFFIXES}[lang]
    parts = [f"WHEN length(w) >= {len(s) + 2} AND w LIKE '%{s}' "
             f"THEN left(w, length(w) - {len(s)})" for s in table]
    case = "CASE " + " ".join(parts) + " ELSE w END"
    return f"CASE WHEN length(w) <= 2 THEN w ELSE ({case}) END"


_INDIC_EXTRA_STOPS = {
    "as": "ASSAMESE_STOP_WORDS", "gu": "GUJARATI_STOP_WORDS",
    "kn": "KANNADA_STOP_WORDS", "ml": "MALAYALAM_STOP_WORDS",
    "mr": "MARATHI_STOP_WORDS", "or": "ODIA_STOP_WORDS",
    "pa": "PUNJABI_STOP_WORDS", "si": "SINHALA_STOP_WORDS",
}


def indic_extra_preamble(lang: str) -> str:
    from .analysis import indic_extra as ie
    stops = _stop_list_sql(getattr(ie, _INDIC_EXTRA_STOPS[lang]))
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    composed = _indic_compose_sql(digit)
    norm = (_mr_norm_sql(composed) if lang == "mr"
            else _indic_extra_norm_sql(composed, lang))
    stem = _indic_extra_stem_sql(lang)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0 FROM rkept),
stems AS (SELECT t0, {stem} AS stem
          FROM (SELECT t0, t0 AS w FROM uniq)),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0)),
{_BM25_TAIL}"""


def bm25_indic_extra_topk(lang: str, stemmed_term: str,
                          k: int = 10) -> str:
    pre = indic_extra_preamble(lang).replace("__LT_VALUES__",
                                             _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ----------------------------------------------------- Malay --------------
def _ms_stem_ctes() -> str:
    """MalayStemmer: syllable-counted particle/possessive strips, then
    the flag-gated first-order-prefix → suffix → second-order-prefix
    control flow — GENERATED structure mirror of analysis/sea.py."""
    V = "('a','e','i','o','u')"
    KE, PENG, DI, MENG, TER, BER, PE = 1, 2, 4, 8, 16, 32, 64

    fo_rows = [
        ("w LIKE 'meng%'", "substr(w, 5)", MENG),
        (f"w LIKE 'meny%' AND length(w) > 4 AND substr(w, 5, 1) IN {V}",
         "'s' || substr(w, 5)", MENG),
        (f"w LIKE 'men%' AND length(w) > 3 AND substr(w, 4, 1) IN {V}",
         "'t' || substr(w, 4)", MENG),
        ("w LIKE 'men%'", "substr(w, 4)", MENG),
        (f"w LIKE 'mem%' AND length(w) > 3 AND substr(w, 4, 1) IN {V}",
         "'p' || substr(w, 4)", MENG),
        ("w LIKE 'mem%'", "substr(w, 4)", MENG),
        ("w LIKE 'me%'", "substr(w, 3)", MENG),
        ("w LIKE 'peng%'", "substr(w, 5)", PENG),
        (f"w LIKE 'peny%' AND length(w) > 4 AND substr(w, 5, 1) IN {V}",
         "'s' || substr(w, 5)", PENG),
        ("w LIKE 'peny%'", "substr(w, 5)", PENG),
        (f"w LIKE 'pen%' AND length(w) > 3 AND substr(w, 4, 1) IN {V}",
         "'t' || substr(w, 4)", PENG),
        ("w LIKE 'pen%'", "substr(w, 4)", PENG),
        (f"w LIKE 'pem%' AND length(w) > 3 AND substr(w, 4, 1) IN {V}",
         "'p' || substr(w, 4)", PENG),
        ("w LIKE 'pem%'", "substr(w, 4)", PENG),
        ("w LIKE 'di%'", "substr(w, 3)", DI),
        ("w LIKE 'ter%'", "substr(w, 4)", TER),
        ("w LIKE 'ke%'", "substr(w, 3)", KE),
    ]
    fo_w = "CASE " + " ".join(f"WHEN {c} THEN {e}"
                              for c, e, _ in fo_rows) + " ELSE w END"
    fo_f = "CASE " + " ".join(f"WHEN {c} THEN {f}"
                              for c, _, f in fo_rows) + " ELSE 0 END"

    so_rows = [
        ("w LIKE 'ber%'", "substr(w, 4)", BER),
        ("w = 'belajar'", "substr(w, 4)", BER),
        (f"length(w) > 4 AND w LIKE 'be%' AND "
         f"substr(w, 3, 1) NOT IN {V} AND substr(w, 4, 1) = 'e' AND "
         f"substr(w, 5, 1) = 'r'", "substr(w, 3)", BER),
        ("w LIKE 'per%'", "substr(w, 4)", 0),
        ("w = 'pelajar'", "substr(w, 4)", 0),
        ("w LIKE 'pe%'", "substr(w, 3)", PE),
    ]
    so_w = "CASE " + " ".join(f"WHEN {c} THEN {e}"
                              for c, e, _ in so_rows) + " ELSE w END"
    so_f = "CASE " + " ".join(f"WHEN {c} THEN {f}"
                              for c, _, f in so_rows) + " ELSE 0 END"

    def suf_w(fl):
        return f"""CASE
      WHEN w LIKE '%kan' AND ({fl} & {KE | PENG | PE}) = 0
        THEN left(w, length(w) - 3)
      WHEN w LIKE '%an' AND ({fl} & {DI | MENG | TER}) = 0
        THEN left(w, length(w) - 2)
      WHEN w LIKE '%i' AND w NOT LIKE '%si' AND
           ({fl} & {BER | KE | PENG}) = 0
        THEN left(w, length(w) - 1)
      ELSE w END"""

    def suf_hit(fl):
        return f"""((w LIKE '%kan' AND ({fl} & {KE | PENG | PE}) = 0)
      OR (w LIKE '%an' AND ({fl} & {DI | MENG | TER}) = 0)
      OR (w LIKE '%i' AND w NOT LIKE '%si' AND
          ({fl} & {BER | KE | PENG}) = 0))"""

    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
m0 AS (SELECT t0, length(t0) > 3 AS g, t0 AS w,
         length(t0) - length(replace(replace(replace(replace(replace(
           t0, 'a', ''), 'e', ''), 'i', ''), 'o', ''), 'u', '')) AS ns
       FROM uniq),
m1 AS (SELECT t0, g,
    CASE WHEN g AND ns > 2 AND (w LIKE '%kah' OR w LIKE '%lah'
      OR w LIKE '%pun') THEN left(w, length(w) - 3) ELSE w END AS w,
    CASE WHEN g AND ns > 2 AND (w LIKE '%kah' OR w LIKE '%lah'
      OR w LIKE '%pun') THEN ns - 1 ELSE ns END AS ns FROM m0),
m2 AS (SELECT t0, g,
    CASE WHEN g AND ns > 2 AND (w LIKE '%ku' OR w LIKE '%mu')
      THEN left(w, length(w) - 2)
      WHEN g AND ns > 2 AND w LIKE '%nya'
      THEN left(w, length(w) - 3) ELSE w END AS w,
    CASE WHEN g AND ns > 2 AND (w LIKE '%ku' OR w LIKE '%mu'
      OR w LIKE '%nya') THEN ns - 1 ELSE ns END AS ns FROM m1),
m3 AS (SELECT t0, g,
    CASE WHEN g AND ns > 2 THEN {fo_w} ELSE w END AS w,
    CASE WHEN g AND ns > 2 THEN {fo_f} ELSE 0 END AS fl,
    CASE WHEN g AND ns > 2 AND ({fo_f}) <> 0 THEN ns - 1 ELSE ns
    END AS ns,
    g AND ns > 2 AND ({fo_f}) <> 0 AS foch FROM m2),
m4 AS (SELECT t0, g, fl, foch,
    CASE WHEN foch AND ns > 2 THEN {suf_w('fl')}
         WHEN NOT foch AND g AND ns > 2 THEN {so_w}
         ELSE w END AS w,
    CASE WHEN foch AND ns > 2 AND {suf_hit('fl')} THEN ns - 1
         WHEN NOT foch AND g AND ns > 2 AND ({so_f}) <> 0 OR
              (NOT foch AND g AND ns > 2 AND
               (w LIKE 'per%' OR w = 'pelajar')) THEN ns - 1
         ELSE ns END AS ns,
    CASE WHEN foch AND ns > 2 AND {suf_hit('fl')} THEN TRUE
         ELSE FALSE END AS sufch,
    CASE WHEN NOT foch AND g AND ns > 2 THEN fl | ({so_f})
         ELSE fl END AS fl2 FROM m3),
m5 AS (SELECT t0,
    CASE WHEN foch AND sufch AND ns > 2 THEN {so_w}
         WHEN NOT foch AND g AND ns > 2 THEN {suf_w('fl2')}
         ELSE w END AS stem FROM m4),
stems AS (SELECT t0, stem FROM m5),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def malay_preamble() -> str:
    from .analysis.sea import MALAY_STOP_WORDS
    stops = _stop_list_sql(MALAY_STOP_WORDS)
    from .analysis.african import _LATIN_CORE
    norm = _map_translate_sql(_SQL_DIGIT_FOLD.format(col="traw"),
                              _LATIN_CORE)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_ms_stem_ctes()},
{_BM25_TAIL}"""


def bm25_malay_topk(stemmed_term: str, k: int = 10) -> str:
    pre = malay_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------- Belarusian / Haitian / Uzbek / Urdu -----------
def _misc_extra_sql(lang: str) -> tuple[str, str]:
    """(normalize expr over traw, stem expr over w) — GENERATED from
    analysis/extra_misc.py."""
    from .analysis import extra_misc as em
    from .analysis.african import _LATIN_CORE
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    if lang == "be":
        u_breve = "\u0443\u0306"
        e_diaer = "\u0435\u0308"
        e = (f"replace(replace({digit}, '{u_breve}', '\u045e'), "
             f"'{e_diaer}', '\u0451')")
        norm = _map_translate_sql(e, {"и": "і", **{c: "'" for c in "’‘‛ʹʼ`´"},
                                      **{c: "-" for c in "‐‑‒–—―"}})
        parts = [f"WHEN length(w) >= {len(s) + 4} AND w LIKE '%{s}' "
                 f"THEN left(w, length(w) - {len(s)})"
                 for s in em.BE_SUFFIXES]
        stem = ("CASE WHEN length(w) <= 4 THEN w ELSE (CASE "
                + " ".join(parts) + " ELSE w END) END")
        return norm, stem
    if lang == "ht":
        t = _map_translate_sql(digit, dict(_LATIN_CORE))
        # apostrophes in clitics need SQL escaping; build explicitly
        pparts = [f"WHEN length(x) > {len(p) + 1} AND "
                  f"x LIKE '{p.replace(chr(39), chr(39)*2)}%' "
                  f"THEN substr(x, {len(p) + 1})"
                  for p in em.HT_PREFIX_CLITICS]
        sparts = [f"WHEN length(x) > {len(s) + 1} AND "
                  f"x LIKE '%{s.replace(chr(39), chr(39)*2)}' "
                  f"THEN left(x, length(x) - {len(s)})"
                  for s in em.HT_SUFFIX_CLITICS]
        clitic = ("CASE " + " ".join(pparts + sparts) + " ELSE x END") \
            .replace("x", "(" + t + ")")
        stem = ("CASE WHEN length(w) > 6 AND w LIKE '%man' "
                "THEN left(w, length(w) - 3) ELSE w END")
        stem = f"CASE WHEN length(w) <= 4 THEN w ELSE ({stem}) END"
        return clitic, stem
    if lang == "uz":
        norm = _map_translate_sql(digit, em._UZ_MAP)
        one = "CASE " + " ".join(
            f"WHEN length(w) >= {len(s) + 2} AND w LIKE '%{s}' "
            f"THEN left(w, length(w) - {len(s)})"
            for s in em.UZ_SUFFIXES) + " ELSE w END"
        return norm, one   # MAX_STRIPS=3 unrolled in the preamble
    if lang == "ur":
        e = digit
        for pair, res in em.UR_COMBOS.items():
            e = f"replace({e}, '{pair}', '{res}')"
        multi = {v: t for v, t in em.UR_CHAR_MAP.items()
                 if len(t) > 1}
        single = {v: t for v, t in em.UR_CHAR_MAP.items()
                  if len(t) <= 1}
        for v, t in multi.items():
            e = f"replace({e}, '{v}', '{t}')"
        dele = {c: None for c in em.UR_DIACRITICS}
        norm = _map_translate_sql(
            e, {**{k: (v or None) for k, v in single.items()}, **dele})
        pfx = "CASE " + " ".join(
            f"WHEN length(w) > {len(p) + 2} AND w LIKE '{p}%' "
            f"THEN substr(w, {len(p) + 1})"
            for p in em.UR_PREFIXES) + " ELSE w END"
        r3 = "".join(sorted(em.UR_RULE3))
        r2 = "".join(sorted(em.UR_RULE2))
        infix = f"""CASE
      WHEN w LIKE 'ا%' AND length(w) = 5 AND substr(w, 2, 1) = 'ت'
        THEN translate(w, '{r3}', '')
      WHEN w LIKE 'ا%' AND length(w) = 5
        THEN replace(w, 'ا', '')
      WHEN w LIKE 'ا%' AND length(w) > 5
        THEN translate(w, '{r2}', '')
      WHEN length(w) = 5 AND w LIKE 'م%' AND
           substr(w, 4, 1) = 'و'
        THEN replace(replace(w, 'م', ''), 'و', '')
      ELSE w END"""
        sfx = "CASE " + " ".join(
            f"WHEN length(w) > {len(s) + 2} AND w LIKE '%{s}' "
            f"THEN left(w, length(w) - {len(s)})"
            for s in em.UR_SUFFIXES) + " ELSE w END"
        return norm, f"__UR_STAGES__{pfx}|||{infix}|||{sfx}"
    raise KeyError(lang)


def misc_extra_preamble(lang: str) -> str:
    from .analysis import extra_misc as em
    stops_map = {"be": em.BELARUSIAN_STOP_WORDS,
                 "ht": em.HAITIAN_STOP_WORDS,
                 "uz": em.UZBEK_STOP_WORDS,
                 "ur": em.URDU_STOP_WORDS}
    stops = _stop_list_sql(stops_map[lang])
    norm, stem = _misc_extra_sql(lang)
    if lang == "uz":
        stem_ctes = """uniq AS (SELECT DISTINCT t0 FROM rkept),
u0 AS (SELECT t0, CASE WHEN length(t0) <= 2 THEN NULL ELSE t0 END
       AS w FROM uniq),
u1 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE (__ONE__)
       END AS w FROM u0),
u2 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE (__ONE__)
       END AS w FROM u1),
u3 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE (__ONE__)
       END AS w FROM u2),
stems AS (SELECT t0, coalesce(w, t0) AS stem FROM u3)""" \
            .replace("__ONE__", stem)
    elif lang == "ur":
        pfx, infix, sfx = stem.removeprefix("__UR_STAGES__").split("|||")
        stem_ctes = f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
u0 AS (SELECT t0, CASE WHEN length(t0) <= 3 THEN NULL ELSE t0 END
       AS w FROM uniq),
u1 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE ({pfx}) END
       AS w FROM u0),
u2 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE ({infix}) END
       AS w FROM u1),
u3 AS (SELECT t0, CASE WHEN w IS NULL THEN NULL ELSE ({sfx}) END
       AS w FROM u2),
stems AS (SELECT t0, coalesce(w, t0) AS stem FROM u3)"""
    else:
        stem_ctes = f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
stems AS (SELECT t0, {stem} AS stem
          FROM (SELECT t0, t0 AS w FROM uniq))"""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{stem_ctes},
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0)),
{_BM25_TAIL}"""


def bm25_misc_extra_topk(lang: str, stemmed_term: str,
                         k: int = 10) -> str:
    pre = misc_extra_preamble(lang).replace("__LT_VALUES__",
                                            _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# --------------------------------------------------- Burmese --------------
def _my_token_pattern() -> str:
    """BurmeseTokenizer as one RE2 pattern: Myanmar digit runs |
    particles (longest-first) | syllables (ordered alternation
    ``virama+base | base+asat | non-base`` encodes the break rule) |
    letter/digit runs that START outside Myanmar (the reference's
    Latin-absorbs-Myanmar quirk kept by the `\\pL\\p{Nd}*` tail)."""
    from .analysis.burmese import (_MY_BASE, _MY_DIGITS, _MY_RANGES,
                                   BURMESE_PARTICLES)

    def cls(ranges):
        return "".join(f"\\x{{{a:04X}}}-\\x{{{b:04X}}}" if b > a
                       else f"\\x{{{a:04X}}}" for a, b in ranges)

    M, D, B = cls(_MY_RANGES), cls(_MY_DIGITS), cls(_MY_BASE)
    V, A = "\\x{1039}", "\\x{103A}"
    # non-base Myanmar chars: M minus B — enumerate the complement
    base_set = set()
    for a, b in _MY_BASE:
        base_set.update(range(a, b + 1))
    nb_ranges, lo, prev = [], None, None
    for a, b in _MY_RANGES:
        for cp in range(a, b + 1):
            if cp in base_set:
                if lo is not None:
                    nb_ranges.append((lo, prev))
                    lo = None
                continue
            if lo is None:
                lo = cp
            prev = cp
        if lo is not None:
            nb_ranges.append((lo, prev))
            lo = None
    NB = cls(nb_ranges)
    particles = "|".join(sorted(BURMESE_PARTICLES, key=len,
                                reverse=True))
    # head: a virama+base pair counts as "preceded by virama";
    # run-start digit runs are space-isolated by _my_pre_sql so the
    # syllable alternative consumes them whole like the scanner
    syllable = (f"(?:{V}[{B}]|[{M}])(?:{V}[{B}]|[{B}]{A}|[{NB}])*")
    token = (f"{particles}"
             f"|{syllable}"
             f"|[^{M}\\P{{L}}][\\pL\\p{{Nd}}]*"
             f"|\\p{{Nd}}[\\pL\\p{{Nd}}]*")
    return token


def _my_pre_sql(col: str) -> str:
    """Space-isolate Myanmar digit runs that START a Myanmar run (the
    scanner's outer-loop digit branch only fires there)."""
    from .analysis.burmese import _MY_DIGITS, _MY_RANGES

    def cls(ranges):
        return "".join(f"\\x{{{a:04X}}}-\\x{{{b:04X}}}" if b > a
                       else f"\\x{{{a:04X}}}" for a, b in ranges)

    M, D = cls(_MY_RANGES), cls(_MY_DIGITS)
    # a digit-run start is preceded by start-of-text or a char that is
    # neither Myanmar nor letterOrDigit (after an alnum run the scanner
    # absorbs Myanmar; inside a Myanmar run digits join syllables)
    return (f"regexp_replace({col}, "
            f"'(^|[^{M}\\pL\\p{{Nd}}])([{D}]+)', "
            f"'\\1 \\2 ', 'g')")


def burmese_preamble() -> str:
    from .analysis.burmese import (_NORM_MAP, BURMESE_STOP_WORDS,
                                   BURMESE_SUFFIXES)
    stops = _stop_list_sql(BURMESE_STOP_WORDS)
    pat = _my_token_pattern().replace("'", "''")
    toks = (f"list_transform(regexp_extract_all("
            f"{_my_pre_sql('text')}, '{pat}'), t -> lower(t))")
    norm = _map_translate_sql("traw", dict(_NORM_MAP))
    stem = "CASE " + " ".join(
        f"WHEN length(w) > {len(s) + 1} AND w LIKE '%{s}' "
        f"THEN left(w, length(w) - {len(s)})"
        for s in BURMESE_SUFFIXES) + " ELSE w END"
    stem = f"CASE WHEN length(w) <= 1 THEN w ELSE ({stem}) END"
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {toks} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {norm} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0 FROM rkept),
stems AS (SELECT t0, {stem} AS stem
          FROM (SELECT t0, t0 AS w FROM uniq)),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0)),
{_BM25_TAIL}"""


def bm25_burmese_topk(stemmed_term: str, k: int = 10) -> str:
    pre = burmese_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------------------------- Khmer ---------------
def _km_charfilter_sql(col: str) -> str:
    """level-1 NormalizeCharMap as chained replaces (the rule outputs
    never recreate rule inputs, so chained == single-pass
    longest-match — fuzz-asserted in tests)."""
    from .analysis.khmer import KM_CHARFILTER_RULES
    e = col
    for pat, rep in sorted(KM_CHARFILTER_RULES, key=lambda r: -len(r[0])):
        e = f"replace({e}, '{pat}', '{rep}')"
    return e


def _km_token_pattern() -> str:
    D = "\\x{17E0}-\\x{17F9}0-9"
    B = "\\x{1780}-\\x{17B3}"
    C = "\\x{17D2}"
    Ip = ("\\x{17B6}-\\x{17D1}\\x{17D3}\\x{17DD}"
          "\\x{200C}\\x{200D}")
    syllable = f"[{B}](?:[{Ip}]|[{C}]+[{B}{Ip}])*[{C}]*"
    return f"[{D}]+|{syllable}|[{C}{Ip}]+"


def _km_reorder_sql(col: str) -> str:
    """CharReorderFilter: stable category sort via list_sort over
    (cat, index, char) structs, then the published rewrite chain."""
    from .analysis.khmer import (KM_CORRECTIONS, _BNB, _SF, _SNF, _SS,
                                 _VA)
    C = f"substr({col}, p, 1)"
    cat = f"""CASE
      WHEN {C} = '\u17d2' THEN 3
      WHEN {C} BETWEEN '\u1780' AND '\u17b3' THEN
        (CASE WHEN p > 1 AND regexp_matches(left({col}, p - 1),
              '\\x{{17D2}}[\\x{{1780}}-\\x{{17B3}}]*$')
         THEN 3 ELSE 1 END)
      WHEN {C} = '\u17cc' THEN 2
      WHEN {C} IN ('\u200c', '\u200d') THEN 4
      WHEN {C} IN ('\u17c9', '\u17ca') THEN 5
      WHEN {C} BETWEEN '\u17b4' AND '\u17c5' THEN 6
      WHEN {C} = '\u17c6' OR {C} = '\u17cb' OR
           ({C} BETWEEN '\u17cd' AND '\u17d1') OR {C} = '\u17d3'
           OR {C} = '\u17dd' THEN 7
      WHEN {C} IN ('\u17c7', '\u17c8') THEN 8
      ELSE 0 END"""
    sort_expr = f"""array_to_string(list_transform(list_sort(
      list_transform(range(1, length({col}) + 1),
        p -> struct_pack(cat := {cat}, p := p, c := {C}))),
      x -> x.c), '')"""

    def rr(e, pat, rep):
        return f"regexp_replace({e}, '{pat}', '{rep}', 'g')"

    e = sort_expr
    e = rr(e, "([\\x{200C}\\x{200D}])[\\x{200C}\\x{200D}]+",
           "\\1")
    e = rr(e, "\\x{17D2}\\x{17D2}+", "\u17d2")
    e = rr(e, "\u17c1(\u17bb?)\u17b8", "\\1\u17be")
    e = rr(e, "\u17c1(\u17bb?)\u17b6", "\\1\u17c4")
    e = rr(e, "\u17b8(\u17bb?)\u17c1", "\\1\u17be")
    e = rr(e, "\u17b6(\u17bb?)\u17c1", "\\1\u17c4")
    e = rr(e, f"({_VA})(\u17bb)", "\\2\\1")
    tri = (f"({_SF}(?:\u17d2{_BNB}){{0,2}}|{_BNB}(?:\u17d2{_SF}"
           f"(?:\u17d2{_BNB})?|\u17d2{_BNB}\u17d2{_SF}))"
           f"\u17bb({_VA})")
    muu = (f"({_SS}(?:\u17d2{_SNF}){{0,2}}|{_SNF}(?:\u17d2{_SS}"
           f"(?:\u17d2{_SNF})?|\u17d2{_SNF}\u17d2{_SS}))"
           f"\u17bb({_VA})")
    e = rr(e, tri, "\\1\u17ca\\2")
    e = rr(e, muu, "\\1\u17c9\\2")
    e = rr(e, "(\u17d2\u179a)(\u17d2[\u1780-\u17b3])",
           "\\2\\1")
    e = rr(e, "(\u17d2)\u178a", "\\1\u178f")
    for bad, good in KM_CORRECTIONS:
        e = f"replace({e}, '{bad}', '{good}')"
    guard = (f"length({col}) >= 2 AND length({col}) <= 30 AND "
             f"substr({col}, 1, 1) BETWEEN '\u1780' AND '\u17b3'")
    return f"CASE WHEN {guard} THEN ({e}) ELSE {col} END"


def khmer_token_counts(syllables: list[str]) -> str:
    """Global (term, cnt) over the synthesized per-doc Khmer string
    run through the GENERATED char-filter/tokenizer/reorder chain."""
    k = len(syllables)
    arr = "[" + ", ".join(f"'{s}'" for s in syllables) + "]"
    synth = (f"({arr})[(doc_id % {k}) + 1] || ' ' || "
             f"({arr})[((doc_id // 3) % {k}) + 1] || "
             f"({arr})[((doc_id // 2) % {k}) + 1]")
    pat = _km_token_pattern().replace("'", "''")
    toks = (f"regexp_extract_all({_km_charfilter_sql(synth)}, '{pat}')")
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (SELECT doc_id, {toks} AS toks FROM corpus),
rkept AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
uniq AS (SELECT DISTINCT t0 FROM rkept),
stems AS (SELECT t0, {_km_reorder_sql('t0')} AS stem FROM uniq),
rterms AS (SELECT k.doc_id, s.stem AS term
           FROM rkept k JOIN stems s USING (t0))
SELECT term, count(*) AS cnt FROM rterms GROUP BY term ORDER BY term
"""


# ------------------------------------------------- Vietnamese -------------
def vietnamese_token_counts() -> str:
    """Global (term, cnt) over the Vietnamese chain: URL isolation,
    word extraction, greedy non-overlapping bigram pairing (recursive
    CTE over word indexes), stop filter, diacritic fold."""
    from .analysis.vietnamese import VI_FOLD, VIETNAMESE_STOP_WORDS
    stops = _stop_list_sql(VIETNAMESE_STOP_WORDS)
    fold = _map_translate_sql("tok", VI_FOLD)
    url_pat = "(?i)https?://[^\\s]*"
    w_pat = "[\\pL\\p{Nd}]+"
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
-- URL tokens: alnum runs inside each url span (never bigram-merged)
uurl AS (
  SELECT doc_id, lower(unnest(regexp_extract_all(u, '{w_pat}'))) AS tok
  FROM (SELECT doc_id,
          unnest(regexp_extract_all(text, '{url_pat}')) AS u
        FROM corpus)
),
-- word stream with URL spans replaced by a non-whitespace sentinel
vrest AS (
  SELECT doc_id,
    regexp_replace(text, '{url_pat}', chr(1), 'g') AS rest
  FROM corpus
),
vw AS (
  SELECT doc_id,
    list_transform(regexp_extract_all(rest, '{w_pat}'),
                   t -> lower(t)) AS ws,
    string_split_regex(rest, '{w_pat}') AS seps,
    length(regexp_extract_all(rest, '{w_pat}')) AS n
  FROM vrest
),
vr(doc_id, idx) AS (
  SELECT doc_id, 1 FROM vw WHERE n >= 1
  UNION ALL
  SELECT vr.doc_id,
    idx + CASE WHEN idx < n AND seps[idx + 1] <> '' AND
                regexp_matches(seps[idx + 1], '^\\s+$')
          THEN 2 ELSE 1 END
  FROM vr JOIN vw USING (doc_id)
  WHERE idx + CASE WHEN idx < n AND seps[idx + 1] <> '' AND
                    regexp_matches(seps[idx + 1], '^\\s+$')
              THEN 2 ELSE 1 END <= n
),
vtok AS (
  SELECT vr.doc_id,
    CASE WHEN idx < n AND seps[idx + 1] <> '' AND
              regexp_matches(seps[idx + 1], '^\\s+$')
         THEN ws[idx] || ' ' || ws[idx + 1]
         ELSE ws[idx] END AS tok
  FROM vr JOIN vw USING (doc_id)
),
alltok AS (
  SELECT doc_id, tok FROM vtok
  UNION ALL
  SELECT doc_id, tok FROM uurl
),
kept AS (SELECT {fold} AS term FROM alltok
         WHERE tok NOT IN ({stops}))
SELECT term, count(*) AS cnt FROM kept GROUP BY term ORDER BY term
"""


# ------------------------------------- Bengali / Telugu -------------------
def _tier_stem_sql(tiers, col: str = "t0") -> str:
    branches = []
    for min_len, suffixes in tiers:
        k = len(suffixes[0])
        lst = ", ".join(f"'{s}'" for s in suffixes)
        branches.append(
            f"    WHEN length({col}) > {min_len} AND "
            f"right({col}, {k}) IN ({lst}) "
            f"THEN left({col}, length({col}) - {k})")
    return "CASE\n" + "\n".join(branches) + f"\n    ELSE {col} END"


def _bn_scan_exprs() -> tuple[str, str]:
    """Bengali normalizer as a left-to-right fold: (acc_expr, skip_expr)
    over state (raw, pos, acc, skip) — the exact transition system of
    analysis/indic.py's bengali_normalize (the kotlin buffer scan's
    i±k jumps all reduce to continue-with-next-raw-char; buffer length
    at skip==0 equals length(acc) + remaining raw chars)."""
    c = "substr(raw, pos, 1)"
    n1 = "substr(raw, pos + 1, 1)"
    n2 = "substr(raw, pos + 2, 1)"
    la = "length(acc)"
    acc = f"""CASE {c}
  WHEN 'ঁ' THEN acc
  WHEN 'ী' THEN acc || 'ি'
  WHEN 'ূ' THEN acc || 'ু'
  WHEN 'ক' THEN CASE
    WHEN pos + 2 <= length(raw) AND {n1} = '্' AND {n2} = 'ি'
    THEN CASE WHEN {la} = 0 THEN acc || 'খ' ELSE acc || 'কখ' END
    ELSE acc || 'ক' END
  WHEN 'ঙ' THEN acc || 'ং'
  WHEN 'য' THEN CASE
    WHEN {la} = 2 AND right(acc, 1) = '্'
    THEN left(acc, {la} - 1) || 'ে'
    WHEN {la} >= 1 AND right(acc, 1) = '্'
    THEN left(acc, {la} - 1)
    ELSE acc || 'য' END
  WHEN 'ব' THEN CASE
    WHEN {la} = 0 OR right(acc, 1) <> '্' THEN acc || 'ব'
    WHEN {la} = 2 THEN left(acc, {la} - 1)
    WHEN {la} >= 5 AND substr(acc, {la} - 2, 1) = '্'
    THEN left(acc, {la} - 1)
    WHEN {la} >= 2 THEN left(acc, {la} - 1) || substr(acc, {la} - 1, 1)
    ELSE acc || 'ব' END
  WHEN 'ঃ' THEN CASE
    WHEN pos = length(raw)
    THEN CASE WHEN {la} + 1 <= 3 THEN acc || 'হ' ELSE acc END
    ELSE acc || {n1} END
  WHEN 'শ' THEN acc || 'স'
  WHEN 'ষ' THEN acc || 'স'
  WHEN 'ণ' THEN acc || 'ন'
  WHEN 'ড়' THEN acc || 'র'
  WHEN 'ঢ়' THEN acc || 'র'
  WHEN 'ৎ' THEN acc || 'ত'
  ELSE acc || {c} END"""
    skip = f"""CASE
  WHEN {c} = 'ক' AND pos + 2 <= length(raw)
       AND {n1} = '্' AND {n2} = 'ি' THEN 2
  WHEN {c} = 'য' AND {la} = 2 AND right(acc, 1) = '্'
       AND {n1} = 'া' THEN 1
  ELSE 0 END"""
    return acc, skip


def _te_scan_exprs() -> tuple[str, str]:
    """Telugu normalizer fold (no acc edits; lookahead merges skip)."""
    c = "substr(raw, pos, 1)"
    n1 = "substr(raw, pos + 1, 1)"
    acc = f"""CASE {c}
  WHEN 'ఀ' THEN acc || 'ం'
  WHEN 'ఁ' THEN acc || 'ం'
  WHEN 'ః' THEN acc
  WHEN '‍' THEN acc
  WHEN '‌' THEN acc
  WHEN 'ఔ' THEN acc || 'ఓ'
  WHEN 'ఐ' THEN acc || 'ఏ'
  WHEN 'ఆ' THEN acc || 'అ'
  WHEN 'ఈ' THEN acc || 'ఇ'
  WHEN 'ఊ' THEN acc || 'ఉ'
  WHEN 'ీ' THEN acc || 'ి'
  WHEN 'ూ' THEN acc || 'ు'
  WHEN 'ే' THEN acc || 'ె'
  WHEN 'ో' THEN acc || 'ొ'
  WHEN 'ె' THEN CASE WHEN {n1} = 'ౖ' THEN acc || 'ై'
                      ELSE acc || 'ె' END
  WHEN 'ఒ' THEN CASE WHEN {n1} = 'ౕ' THEN acc || 'ఓ'
                      WHEN {n1} = 'ౌ' THEN acc || 'ఔ'
                      ELSE acc || 'ఒ' END
  ELSE acc || {c} END"""
    skip = f"""CASE
  WHEN {c} = 'ె' AND {n1} = 'ౖ' THEN 1
  WHEN {c} = 'ఒ' AND {n1} IN ('ౕ', 'ౌ') THEN 1
  ELSE 0 END"""
    return acc, skip


def _indic_lang_preamble(lang: str) -> str:
    """BM25 CTEs over BENGALI / TELUGU-analyzed text: digit fold →
    indic compose chain → recursive-CTE language normalizer fold
    (exact mirror of the buffer scan) → stop → tier stem."""
    from .analysis.indic import (BENGALI_STOP_WORDS, BN_STEM_TIERS,
                                 TE_STEM_TIERS, TELUGU_STOP_WORDS)
    if lang == "bengali":
        stops = _stop_list_sql(BENGALI_STOP_WORDS)
        acc_e, skip_e = _bn_scan_exprs()
        stem = _tier_stem_sql(BN_STEM_TIERS)
    else:
        stops = _stop_list_sql(TELUGU_STOP_WORDS)
        acc_e, skip_e = _te_scan_exprs()
        stem = _tier_stem_sql(TE_STEM_TIERS)
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    indic = _indic_compose_sql(digit)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
uniqr AS (SELECT DISTINCT traw FROM rtok0),
praw AS (SELECT traw, {indic} AS raw FROM uniqr),
ilscan(traw, raw, pos, acc, skip) AS (
  SELECT traw, raw, 1, '', 0 FROM praw
  UNION ALL
  SELECT traw, raw, pos + 1,
    CASE WHEN skip > 0 THEN acc ELSE ({acc_e}) END,
    CASE WHEN skip > 0 THEN skip - 1 ELSE ({skip_e}) END
  FROM ilscan WHERE pos <= length(raw)
),
normtok AS (SELECT traw, acc AS t0 FROM ilscan
            WHERE pos = length(raw) + 1),
rtok AS (SELECT r.doc_id, n.t0 FROM rtok0 r
         JOIN normtok n USING (traw)),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
rterms AS MATERIALIZED (SELECT doc_id, {stem} AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_indic_topk(lang: str, stemmed_term: str, k: int = 10) -> str:
    pre = _indic_lang_preamble(lang).replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------------------------- Indonesian ------------------
def _id_suffix_case(w: str, ns: str, flags: str) -> str:
    """removeSuffix as one CASE over (word, syllables, flags) columns;
    flag masks: KE|PENG|PE=67, DI|MENG|TER=28, BER|KE|PENG=35."""
    return f"""CASE
    WHEN {ns} > 2 AND right({w}, 3) = 'kan' AND ({flags} & 67) = 0
    THEN left({w}, length({w}) - 3)
    WHEN {ns} > 2 AND right({w}, 2) = 'an' AND ({flags} & 28) = 0
    THEN left({w}, length({w}) - 2)
    WHEN {ns} > 2 AND right({w}, 1) = 'i' AND right({w}, 2) <> 'si'
         AND ({flags} & 35) = 0
    THEN left({w}, length({w}) - 1)
    ELSE {w} END"""


def _id_stem_ctes() -> str:
    """IndonesianStemmer state machine as staged CTE columns — branch
    codes (fo/so) carry which prefix family was removed; the
    derivational ordering (suffix-then-so vs so-then-suffix) follows
    the reference's changed-length branching.  GENERATED against the
    same rules as analysis/indonesian.py."""
    V = "('a','e','i','o','u')"
    fo = f"""CASE
    WHEN ns2 <= 2 THEN 0
    WHEN w2 LIKE 'meng%' THEN 1
    WHEN w2 LIKE 'meny%' AND length(w2) > 4 AND substr(w2, 5, 1) IN {V}
         THEN 2
    WHEN w2 LIKE 'men%' THEN 3
    WHEN w2 LIKE 'mem%' THEN 4
    WHEN w2 LIKE 'me%' THEN 5
    WHEN w2 LIKE 'peng%' THEN 6
    WHEN w2 LIKE 'peny%' AND length(w2) > 4 AND substr(w2, 5, 1) IN {V}
         THEN 7
    WHEN w2 LIKE 'peny%' THEN 8
    WHEN w2 LIKE 'pen%' AND length(w2) > 3 AND substr(w2, 4, 1) IN {V}
         THEN 9
    WHEN w2 LIKE 'pen%' THEN 10
    WHEN w2 LIKE 'pem%' THEN 11
    WHEN w2 LIKE 'di%' THEN 12
    WHEN w2 LIKE 'ter%' THEN 13
    WHEN w2 LIKE 'ke%' THEN 14
    ELSE 0 END"""
    w3 = """CASE fo
    WHEN 0 THEN w2
    WHEN 1 THEN substr(w2, 5)
    WHEN 2 THEN 's' || substr(w2, 5)
    WHEN 3 THEN substr(w2, 4)
    WHEN 4 THEN substr(w2, 4)
    WHEN 5 THEN substr(w2, 3)
    WHEN 6 THEN substr(w2, 5)
    WHEN 7 THEN 's' || substr(w2, 5)
    WHEN 8 THEN substr(w2, 5)
    WHEN 9 THEN 't' || substr(w2, 4)
    WHEN 10 THEN substr(w2, 4)
    WHEN 11 THEN substr(w2, 4)
    WHEN 12 THEN substr(w2, 3)
    WHEN 13 THEN substr(w2, 4)
    WHEN 14 THEN substr(w2, 3)
    END"""
    fflag = ("CASE WHEN fo BETWEEN 1 AND 5 THEN 8 "
             "WHEN fo BETWEEN 6 AND 11 THEN 2 "
             "WHEN fo = 12 THEN 4 WHEN fo = 13 THEN 16 "
             "WHEN fo = 14 THEN 1 ELSE 0 END")

    def so_case(w: str, ns: str) -> str:
        return f"""CASE
    WHEN {ns} <= 2 THEN 0
    WHEN {w} LIKE 'ber%' THEN 1
    WHEN {w} = 'belajar' THEN 2
    WHEN {w} LIKE 'be%' AND length({w}) > 4
         AND substr({w}, 3, 1) NOT IN {V}
         AND substr({w}, 4, 1) = 'e' AND substr({w}, 5, 1) = 'r' THEN 3
    WHEN {w} LIKE 'per%' THEN 4
    WHEN {w} = 'pelajar' THEN 5
    WHEN {w} LIKE 'pe%' THEN 6
    ELSE 0 END"""

    def so_apply(code: str, w: str) -> str:
        return (f"CASE WHEN {code} IN (1, 2, 4, 5) THEN substr({w}, 4) "
                f"WHEN {code} IN (3, 6) THEN substr({w}, 3) ELSE {w} END")

    so_flag = ("CASE WHEN sob IN (1, 2, 3) THEN 32 "
               "WHEN sob = 6 THEN 64 ELSE 0 END")

    return f"""rid0 AS (
  SELECT doc_id, t0,
         length(t0) - length(translate(t0, 'aeiou', '')) AS ns0
  FROM rkept),
rid1 AS (
  SELECT doc_id,
    CASE WHEN ns0 > 2 AND right(t0, 3) IN ('kah','lah','pun')
         THEN left(t0, length(t0) - 3) ELSE t0 END AS w1,
    CASE WHEN ns0 > 2 AND right(t0, 3) IN ('kah','lah','pun')
         THEN ns0 - 1 ELSE ns0 END AS ns1
  FROM rid0),
rid2 AS (
  SELECT doc_id,
    CASE WHEN ns1 > 2 AND right(w1, 2) IN ('ku','mu')
         THEN left(w1, length(w1) - 2)
         WHEN ns1 > 2 AND right(w1, 3) = 'nya'
         THEN left(w1, length(w1) - 3) ELSE w1 END AS w2,
    CASE WHEN ns1 > 2 AND (right(w1, 2) IN ('ku','mu')
                           OR right(w1, 3) = 'nya')
         THEN ns1 - 1 ELSE ns1 END AS ns2
  FROM rid1),
rid3 AS (SELECT doc_id, w2, ns2, {fo} AS fo FROM rid2),
rid4 AS (
  SELECT doc_id, fo, {w3} AS w3,
         CASE WHEN fo = 0 THEN ns2 ELSE ns2 - 1 END AS ns3,
         {fflag} AS fflag
  FROM rid3),
-- both derivational orderings computed in one linear chain;
-- path A = first-order prefix removed (suffix, then second-order
-- prefix only if the suffix changed), path B = no first-order prefix
-- (second-order prefix, then suffix)
rid5 AS (
  SELECT doc_id, fo, w3, ns3, fflag,
         {_id_suffix_case('w3', 'ns3', 'fflag')} AS w4a,
         {so_case('w3', 'ns3')} AS sob
  FROM rid4),
rid6 AS (
  SELECT doc_id, fo, w3, w4a,
         CASE WHEN w4a <> w3 THEN ns3 - 1 ELSE ns3 END AS ns4a,
         {so_apply('sob', 'w3')} AS w4b,
         CASE WHEN sob = 0 THEN ns3 ELSE ns3 - 1 END AS ns4b,
         {so_flag} AS sflagb
  FROM rid5),
rid7 AS (
  SELECT doc_id, fo,
         CASE WHEN w4a <> w3
              THEN {so_apply(so_case('w4a', 'ns4a'), 'w4a')}
              ELSE w4a END AS w5a,
         {_id_suffix_case('w4b', 'ns4b', 'sflagb')} AS w5b
  FROM rid6),
rterms AS MATERIALIZED (
  SELECT doc_id, CASE WHEN fo <> 0 THEN w5a ELSE w5b END AS term
  FROM rid7)"""


def indonesian_preamble() -> str:
    from .analysis.indonesian import INDONESIAN_STOP_WORDS
    stops = _stop_list_sql(INDONESIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_id_stem_ctes()},
{_BM25_TAIL}"""


def bm25_indonesian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = indonesian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# -------------------------------------------- Gopher repetition -----------
def _gopher_ctes() -> str:
    """Per-doc Gopher repetition signals — same definitions as
    pipelines/gopher.py (see its docstring for the occurrence-based
    accounting notes)."""
    from .pipelines.gopher import DUP_NS, TOP_NS
    ng = []
    joins = []
    sel = []
    for n in TOP_NS:
        ng.append(f"""ngv{n} AS (
  SELECT doc_id, g FROM (
    SELECT doc_id, i,
           string_agg(w, ' ') OVER (PARTITION BY doc_id ORDER BY i
             ROWS BETWEEN CURRENT ROW AND {n - 1} FOLLOWING) AS g,
           count(*) OVER (PARTITION BY doc_id) AS nw
    FROM wtab) WHERE i <= nw - {n} + 1),
t{n} AS (
  SELECT doc_id, max(cnt * length(g)) AS prod
  FROM (SELECT doc_id, g, count(*) AS cnt,
               max(count(*)) OVER (PARTITION BY doc_id) AS mx
        FROM ngv{n} GROUP BY doc_id, g)
  WHERE cnt = mx GROUP BY doc_id)""")
        joins.append(f"LEFT JOIN t{n} USING (doc_id)")
        sel.append(f"coalesce(t{n}.prod, 0) * 1.0 / "
                   f"greatest(length(c.text), 1) AS top_{n}gram_char_frac")
    for n in DUP_NS:
        ng.append(f"""ngd{n} AS (
  SELECT doc_id, g FROM (
    SELECT doc_id, i,
           string_agg(w, ' ') OVER (PARTITION BY doc_id ORDER BY i
             ROWS BETWEEN CURRENT ROW AND {n - 1} FOLLOWING) AS g,
           count(*) OVER (PARTITION BY doc_id) AS nw
    FROM wtab) WHERE i <= nw - {n} + 1),
d{n} AS (
  SELECT doc_id, count(*) AS tot, count(DISTINCT g) AS dst
  FROM ngd{n} GROUP BY doc_id)""")
        joins.append(f"LEFT JOIN d{n} USING (doc_id)")
        sel.append(f"CASE WHEN coalesce(d{n}.tot, 0) > 0 "
                   f"THEN 1.0 - d{n}.dst * 1.0 / d{n}.tot ELSE 0.0 END "
                   f"AS dup_{n}gram_frac")
    ng_sql = ",\n".join(ng)
    sel_sql = ",\n    ".join(sel)
    joins_sql = " ".join(joins)
    return f"""lines AS (
  SELECT doc_id, l FROM (
    SELECT doc_id, unnest(string_split(text, chr(10))) AS l FROM corpus)
  WHERE l <> ''),
lgrp AS (
  SELECT doc_id, l, count(*) AS cnt, length(l) AS ln
  FROM lines GROUP BY doc_id, l),
lstat AS (
  SELECT doc_id, sum(cnt) AS tl, count(*) AS dl, sum(cnt * ln) AS lc,
         sum(CASE WHEN cnt > 1 THEN (cnt - 1) * ln ELSE 0 END) AS excess
  FROM lgrp GROUP BY doc_id),
wtab AS (
  SELECT doc_id, w,
         row_number() OVER (PARTITION BY doc_id ORDER BY idx) AS i
  FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS w,
           generate_subscripts(string_split(text, ' '), 1) AS idx
    FROM corpus)
  WHERE w <> ''),
{ng_sql},
signals AS (
  SELECT c.doc_id,
    CASE WHEN coalesce(lstat.tl, 0) > 0
         THEN 1.0 - lstat.dl * 1.0 / lstat.tl ELSE 0.0 END
      AS dup_line_frac,
    coalesce(lstat.excess, 0) * 1.0 / greatest(coalesce(lstat.lc, 0), 1)
      AS dup_line_char_frac,
    {sel_sql}
  FROM corpus c
  LEFT JOIN lstat USING (doc_id)
  {joins_sql})"""


def gopher_repetition() -> str:
    return f"""
WITH corpus AS ({CORPUS_SQL}),
{_gopher_ctes()}
SELECT * FROM signals ORDER BY doc_id
"""


def gopher_gate() -> str:
    from .pipelines.gopher import GOPHER_THRESHOLDS
    conds = " AND ".join(f"{col} <= {thr}"
                         for col, thr in GOPHER_THRESHOLDS.items())
    return f"""
WITH corpus AS ({CORPUS_SQL}),
{_gopher_ctes()}
SELECT doc_id FROM signals WHERE {conds} ORDER BY doc_id
"""


# ------------------------------------------------------ CJK bigrams -------
def cjk_bigram_counts() -> str:
    """Per-doc CJK bigram token counts over the SAME deterministic CJK
    text as token_counts_cjk, segmented per CJKBigramFilter: Han run →
    overlapping bigrams, Katakana run → bigrams, isolated Hiragana →
    unigram, Latin word passes through."""
    return """
WITH base AS (
  SELECT doc_id,
    list_transform(generate_series(0, doc_id % 5 + 2),
                   i -> chr(CAST(19968 + (doc_id * 7 + i) % 512 AS INTEGER))) AS han,
    list_transform(generate_series(0, 3),
                   i -> chr(CAST(12450 + (doc_id + i) % 20 AS INTEGER))) AS kata,
    chr(CAST(12354 + doc_id % 10 AS INTEGER)) AS hira
  FROM documents
),
toks AS (
  SELECT doc_id,
    list_concat(list_concat(list_concat(
      list_transform(generate_series(1, len(han) - 1),
                     i -> han[i] || han[i + 1]),
      list_transform(generate_series(1, len(kata) - 1),
                     i -> kata[i] || kata[i + 1])),
      ['doc']), [hira]) AS tk
  FROM base
)
SELECT doc_id, len(tk) AS n_tokens, len(list_distinct(tk)) AS n_unique_tokens
FROM toks
"""


# --------------------------------------------- filter analyzers -----------
def ascii_fold_tokens() -> str:
    """Mirror of textstats.ascii_fold_tokens: the same embedded accented
    word list, strip_accents == NFKD-strip for combining-mark accents
    (the word list avoids non-decomposable chars by construction)."""
    from .pipelines.textstats import ACCENT_WORDS
    vals = ", ".join(f"({i}, '{w}')" for i, w in enumerate(ACCENT_WORDS))
    n = len(ACCENT_WORDS)
    return f"""
WITH w(i, word) AS (VALUES {vals}),
r AS (
  SELECT doc_id, gs.i AS pos
  FROM documents, (SELECT unnest(generate_series(0, 2)) AS i) gs
)
SELECT r.doc_id, CAST(r.pos AS BIGINT) AS pos,
       strip_accents(w.word) AS term
FROM r JOIN w ON w.i = (r.doc_id + r.pos) % {n}
"""


def word_delimiter_tokens() -> str:
    """Mirror of textstats.word_delimiter_tokens. The default-flag WDGF
    split (no catenation) over ASCII tokens is a regexp cascade:
    possessive strip ('s at subword end after a letter), a space at every
    lower→Upper boundary (UPPER→lower never splits — "ABCDef" stays
    whole, WordDelimiterIterator.isBreak), a space at letter↔digit
    boundaries, then the alnum runs are the parts, lowercased; positions
    are sequential per doc (every part is a generated part for this word
    list, so each token's span == its part count)."""
    from .pipelines.textstats import WDGF_WORDS
    vals = ", ".join(f"({i}, '{w.replace(chr(39), chr(39) * 2)}')"
                     for i, w in enumerate(WDGF_WORDS))
    n = len(WDGF_WORDS)
    return f"""
WITH w(i, word) AS (VALUES {vals}),
r AS (
  SELECT doc_id, gs.i AS j
  FROM documents, (SELECT unnest(generate_series(0, 2)) AS i) gs
),
tok AS (SELECT r.doc_id, r.j, w.word FROM r JOIN w ON w.i = (r.doc_id + r.j) % {n}),
prep AS (
  SELECT doc_id, j,
    regexp_replace(
      regexp_replace(
        regexp_replace(
          regexp_replace(word,
            '([A-Za-z])''[sS]($|[^A-Za-z0-9])', '\\1\\2', 'g'),
          '([a-z])([A-Z])', '\\1 \\2', 'g'),
        '([A-Za-z])([0-9])', '\\1 \\2', 'g'),
      '([0-9])([A-Za-z])', '\\1 \\2', 'g') AS s
  FROM tok
),
parts AS (
  SELECT doc_id, j, generate_subscripts(regexp_extract_all(s, '[A-Za-z0-9]+'), 1) AS k,
         unnest(regexp_extract_all(s, '[A-Za-z0-9]+')) AS part
  FROM prep
)
SELECT doc_id,
       row_number() OVER (PARTITION BY doc_id ORDER BY j, k) - 1 AS pos,
       lower(part) AS term
FROM parts
"""


def shingle_counts() -> str:
    """Mirror of textstats.shingle_counts: unigrams + word 2-shingles."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH toksrc AS (
  SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM documents
),
sh AS (
  SELECT doc_id,
    list_concat(toks,
      CASE WHEN len(toks) < 2 THEN []
           ELSE list_transform(generate_series(1, len(toks) - 1),
                               i -> toks[i] || ' ' || toks[i + 1]) END)
      AS alltoks
  FROM toksrc
)
SELECT doc_id, len(alltoks) AS n_tokens,
       len(list_distinct(alltoks)) AS n_unique_tokens
FROM sh
"""


def common_grams_counts() -> str:
    """Mirror of textstats.common_grams_counts: unigrams plus a
    '_' bigram wherever either neighbor is a common (stop) word."""
    from .analysis.standard import ENGLISH_STOP_WORDS, sql_tokens_expr
    stops = _stop_list_sql(ENGLISH_STOP_WORDS)
    return f"""
WITH toksrc AS (
  SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM documents
),
cg AS (
  SELECT doc_id,
    list_concat(toks,
      CASE WHEN len(toks) < 2 THEN []
           ELSE list_filter(
             list_transform(generate_series(1, len(toks) - 1),
               i -> CASE WHEN toks[i] IN ({stops})
                           OR toks[i + 1] IN ({stops})
                    THEN toks[i] || '_' || toks[i + 1] END),
             g -> g IS NOT NULL) END) AS alltoks
  FROM toksrc
)
SELECT doc_id, len(alltoks) AS n_tokens,
       len(list_distinct(alltoks)) AS n_unique_tokens
FROM cg
"""


def pattern_token_counts() -> str:
    """Mirror of textstats.pattern_token_counts: split on
    non-alphanumerics, drop empties, lowercase."""
    return """
WITH toksrc AS (
  SELECT doc_id,
    list_transform(
      list_filter(string_split_regex(text, '[^0-9A-Za-z]+'),
                  t -> t <> ''),
      t -> lower(t)) AS toks
  FROM documents
)
SELECT doc_id, len(toks) AS n_tokens,
       len(list_distinct(toks)) AS n_unique_tokens
FROM toksrc
"""


def reverse_token_counts() -> str:
    """Mirror of textstats.reverse_token_counts: reverse(term || X01)
    per token; counts + the first reversed term per doc."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH toksrc AS (
  SELECT doc_id,
    list_transform({sql_tokens_expr('text')},
                   t -> reverse(t || chr(1))) AS toks
  FROM documents
)
SELECT doc_id, len(toks) AS n_tokens,
       len(list_distinct(toks)) AS n_unique_tokens,
       CASE WHEN len(toks) = 0 THEN NULL ELSE toks[1] END AS first_term
FROM toksrc
"""


def synonym_quick_topk(src: str = "fast", syn: str = "quick",
                       k: int = 10) -> str:
    """BM25 top-k for the INJECTED synonym term over a SynonymAnalyzer
    index ({src: (syn,)}, keep_orig): since ``syn`` is absent from the
    raw vocabulary, its postings equal ``src``'s, every doc's length
    grows by its ``src`` freq, and sum_ttf grows by ttf(src) — the
    adjusted-stats mirror, exact."""
    return preamble() + f""",
fastp AS (SELECT doc_id, freq FROM postings WHERE term = '{src}'),
fstat AS (SELECT count(*) AS df, COALESCE(sum(freq), 0) AS ttf FROM fastp),
sdoclen AS (
  SELECT d.doc_id, d.dl + COALESCE(f.freq, 0) AS dl
  FROM doclen d LEFT JOIN fastp f USING (doc_id)
),
snormd AS (
  SELECT d.doc_id, d.dl, l.v AS dln
  FROM sdoclen d
  JOIN lt l ON l.v = (SELECT max(v) FROM lt l2 WHERE l2.v <= d.dl)
),
sav AS (
  SELECT ((SELECT sum_ttf FROM stats) + (SELECT ttf FROM fstat))
         / CAST((SELECT doc_count FROM stats) AS DOUBLE) AS avgdl
),
scored AS (
  SELECT p.doc_id,
         {score_sql("p.freq", "n.dln",
                    idf_sql("(SELECT df FROM fstat)"), av="sav")} AS score
  FROM fastp p JOIN snormd n USING (doc_id)
)
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ----------------------------------------------------------------- geo ----
def _geo_coords_cte() -> str:
    """Deterministic doc coordinates — identical integer/float64 ops as
    the engine's _ensure_geo_index derivation."""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
geo AS (
  SELECT doc_id, url,
         (doc_id * 37 % 18000) / 100.0 - 90.0 AS lat,
         (doc_id * 73 % 36000) / 100.0 - 180.0 AS lon
  FROM corpus
)"""


def geo_box_all(min_lat: float, max_lat: float,
                min_lon: float, max_lon: float) -> str:
    """LatLonPoint.newBoxQuery mirror: constant-score box filter."""
    return _geo_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM geo
WHERE lat >= {min_lat} AND lat <= {max_lat}
  AND lon >= {min_lon} AND lon <= {max_lon}
ORDER BY doc_id
"""


def geo_distance_all(lat: float, lon: float, radius_m: float) -> str:
    """LatLonPoint.newDistanceQuery mirror: SloppyMath.haversinMeters
    formula (without the engine's sort-key bit clobber — boundary ULP
    differences cannot flip the comparison at the synthetic grid's
    kilometre-scale distance spacing)."""
    return _geo_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM geo
WHERE 6371008.7714 * 2 * asin(least(1.0, sqrt(
        ((1 - cos(radians(lat - {lat}))) +
         cos(radians(lat)) * cos(radians({lat})) *
         (1 - cos(radians(lon - {lon})))) * 0.5))) <= {radius_m}
ORDER BY doc_id
"""


def geo_nearest_topk(lat: float, lon: float, k: int = 10) -> str:
    """LatLonPoint.nearest mirror (LatLonPoint.kt:417-457): the k docs
    with smallest SloppyMath.haversinMeters distance, docID tie-break
    (NearestNeighbor.kt:37-42). The engine's sort-key bit clobber moves
    distances by ~1e-8 m, so rounding to cm and ranking on the raw
    double cannot diverge at the synthetic grid's km-scale spacing."""
    dist = f"""6371008.7714 * 2 * asin(least(1.0, sqrt(
        ((1 - cos(radians(lat - {lat}))) +
         cos(radians(lat)) * cos(radians({lat})) *
         (1 - cos(radians(lon - {lon})))) * 0.5)))"""
    return _geo_coords_cte() + f"""
SELECT doc_id, url, round({dist}, 2) AS dist_m
FROM geo
ORDER BY {dist} ASC, doc_id LIMIT {k}
"""


def geo_sorted_by_distance_topk(term: str, lat: float, lon: float,
                                k: int = 10) -> str:
    """LatLonPoint.newDistanceSort mirror (LatLonPointSortField): the
    matches of `term` ordered by SloppyMath.haversinMeters ascending,
    docID tie-break; distances rounded to cm (clobber shifts ~1e-8 m)."""
    dist = f"""6371008.7714 * 2 * asin(least(1.0, sqrt(
        ((1 - cos(radians(g.lat - {lat}))) +
         cos(radians(g.lat)) * cos(radians({lat})) *
         (1 - cos(radians(g.lon - {lon})))) * 0.5)))"""
    return preamble() + f""",
geo AS (
  SELECT doc_id,
         (doc_id * 37 % 18000) / 100.0 - 90.0 AS lat,
         (doc_id * 73 % 36000) / 100.0 - 180.0 AS lon
  FROM corpus
),
m AS (SELECT DISTINCT doc_id FROM postings WHERE term = '{term}')
SELECT m.doc_id, c.url, round({dist}, 2) AS dist_m
FROM m JOIN geo g USING (doc_id) JOIN corpus c USING (doc_id)
ORDER BY {dist} ASC, m.doc_id LIMIT {k}
"""


def _xy_coords_cte() -> str:
    """Deterministic cartesian float32 coordinates — identical
    derivation as the engine's _ensure_geo_index (value computed in
    float64, snapped to REAL like XYEncodingUtils' float domain)."""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
xy AS (
  SELECT doc_id, url,
         CAST(CAST((doc_id * 13 % 2000) / 10.0 - 100.0 AS REAL)
              AS DOUBLE) AS x,
         CAST(CAST((doc_id * 29 % 2000) / 10.0 - 100.0 AS REAL)
              AS DOUBLE) AS y
  FROM corpus
)"""


def geo_xy_box_all(min_x: float, max_x: float,
                   min_y: float, max_y: float) -> str:
    """XYPointField.newBoxQuery mirror (geo/XYRectangle.kt): inclusive
    planar box, bounds snapped to float32 on both sides."""
    return _xy_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM xy
WHERE x >= CAST(CAST({min_x} AS REAL) AS DOUBLE)
  AND x <= CAST(CAST({max_x} AS REAL) AS DOUBLE)
  AND y >= CAST(CAST({min_y} AS REAL) AS DOUBLE)
  AND y <= CAST(CAST({max_y} AS REAL) AS DOUBLE)
ORDER BY doc_id
"""


def recency_boost_topk(term: str, origin: int, pivot: int,
                       weight: float, k: int = 10) -> str:
    """LongField.newDistanceFeatureQuery mirror
    (LongDistanceFeatureQuery.kt): SHOULD(BM25 term) + SHOULD(weight ·
    pivot/(pivot + |dl − origin|)) — per-doc float64 clause sum in
    engine clause order; every doc has a length, so the feature clause
    matches all docs."""
    return preamble() + f""",
sc0 AS ({term_scored_cte(repr(term))}),
feat AS (
  SELECT doc_id,
         {weight} * (CAST({pivot} AS DOUBLE) /
                     (CAST({pivot} AS DOUBLE) + abs(dl - {origin}))) AS score
  FROM doclen
),
ids AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM feat)
SELECT d.doc_id, c.url,
       round((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0), 6)
         AS score_r
FROM ids d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
           LEFT JOIN feat ON feat.doc_id = d.doc_id
           JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY ((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0)) DESC,
         d.doc_id LIMIT {k}
"""


def geo_proximity_boost_topk(term: str, lat: float, lon: float,
                             pivot_m: float, weight: float,
                             k: int = 10) -> str:
    """LatLonPoint.newDistanceFeatureQuery mirror
    (LatLonPointDistanceFeatureQuery.kt:113): SHOULD(BM25 term) +
    SHOULD(weight · pivot/(pivot + haversinMeters)) over the entry's
    deterministic lat/lon derivation. The engine's sort-key bit clobber
    shifts the distance ~1e-8 m → score shifts ~1e-14, far inside the
    1e-6 rounding."""
    dist = f"""6371008.7714 * 2 * asin(least(1.0, sqrt(
        ((1 - cos(radians(lat - {lat}))) +
         cos(radians(lat)) * cos(radians({lat})) *
         (1 - cos(radians(lon - {lon})))) * 0.5)))"""
    return preamble() + f""",
geo AS (
  SELECT doc_id,
         (doc_id * 37 % 18000) / 100.0 - 90.0 AS lat,
         (doc_id * 73 % 36000) / 100.0 - 180.0 AS lon
  FROM corpus
),
sc0 AS ({term_scored_cte(repr(term))}),
feat AS (
  SELECT doc_id,
         {weight} * ({pivot_m} / ({pivot_m} + {dist})) AS score
  FROM geo
),
ids AS (SELECT doc_id FROM sc0 UNION SELECT doc_id FROM feat)
SELECT d.doc_id, c.url,
       round((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0), 6)
         AS score_r
FROM ids d LEFT JOIN sc0 ON sc0.doc_id = d.doc_id
           LEFT JOIN feat ON feat.doc_id = d.doc_id
           JOIN corpus c ON c.doc_id = d.doc_id
ORDER BY ((0 + COALESCE(sc0.score, 0)) + COALESCE(feat.score, 0)) DESC,
         d.doc_id LIMIT {k}
"""


def dv_update_search_all(modulus: int = 97) -> str:
    """updateNumericDocValue mirror: after the entry sets length=100000
    for every doc with doc_id % modulus == 0, the ≥100000 range query
    returns exactly those docs (no original length reaches 100000)."""
    return f"""
WITH corpus AS ({CORPUS_SQL})
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM corpus
WHERE doc_id % {modulus} = 0
ORDER BY doc_id
"""


def tags_range_all(lower: str, upper: str) -> str:
    """SortedSetDocValuesField.newSlowRangeQuery mirror over the
    multi-valued tag derivation: ANY tag in [lower, upper] byte range;
    constant score, ORDER BY doc_id."""
    return f"""
WITH corpus AS ({CORPUS_SQL})
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM corpus
WHERE len(list_filter(
        list_transform(generate_series(0, CAST(doc_id % 5 AS INT) - 1),
                       j -> 't' || CAST((doc_id*7 + j*11) % 3 AS VARCHAR)),
        v -> v >= '{lower}' AND v <= '{upper}')) > 0
ORDER BY doc_id
"""


def tags_set_all(tags: tuple) -> str:
    """newSlowSetQuery mirror over the multi-valued string derivation
    (count = doc_id % 5, tag_j = 't' || (doc_id·7 + j·11) % 3): ANY tag
    in the set; constant score, ORDER BY doc_id."""
    tag_list = ", ".join(f"'{t}'" for t in tags)
    return f"""
WITH corpus AS ({CORPUS_SQL})
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM corpus
WHERE len(list_filter(
        list_transform(generate_series(0, CAST(doc_id % 5 AS INT) - 1),
                       j -> 't' || CAST((doc_id*7 + j*11) % 3 AS VARCHAR)),
        v -> v IN ({tag_list}))) > 0
ORDER BY doc_id
"""


def sorted_numeric_range_all(lower: int, upper: int) -> str:
    """SortedNumericDocValuesField.newSlowRangeQuery mirror: ANY value of
    the multi-valued int derivation (count = doc_id % 4,
    value_j = (doc_id·31 + j·57) % 1000 — the entry's indexed field) in
    [lower, upper]; constant score, ORDER BY doc_id."""
    return f"""
WITH corpus AS ({CORPUS_SQL})
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM corpus
WHERE len(list_filter(
        list_transform(generate_series(0, CAST(doc_id % 4 AS INT) - 1),
                       j -> (doc_id*31 + j*57) % 1000),
        v -> v BETWEEN {lower} AND {upper})) > 0
ORDER BY doc_id
"""


def xy_nearest_topk(x: float, y: float, k: int = 10) -> str:
    """XYDocValuesField.newDistanceSort mirror (XYPointSortField /
    TestXYPointDistanceSort.kt): planar euclidean distance ascending
    with docID tie-break, double math over float32-snapped coords —
    the expression tree matches the engine's (dx·dx + dy·dy) → sqrt,
    so the doubles are bit-identical."""
    qx = f"CAST(CAST({x} AS REAL) AS DOUBLE)"
    qy = f"CAST(CAST({y} AS REAL) AS DOUBLE)"
    dist = f"sqrt((x - {qx}) * (x - {qx}) + (y - {qy}) * (y - {qy}))"
    return _xy_coords_cte() + f"""
SELECT doc_id, url, round({dist}, 6) AS dist
FROM xy
ORDER BY {dist} ASC, doc_id LIMIT {k}
"""


def geo_xy_circle_all(cx: float, cy: float, radius: float) -> str:
    """XYPointField.newDistanceQuery mirror (Circle2D.kt:285-300):
    cartesian (x-cx)^2 + (y-cy)^2 <= r^2 in DOUBLE over float32
    values."""
    return _xy_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM xy
WHERE (x - CAST(CAST({cx} AS REAL) AS DOUBLE))
      * (x - CAST(CAST({cx} AS REAL) AS DOUBLE))
    + (y - CAST(CAST({cy} AS REAL) AS DOUBLE))
      * (y - CAST(CAST({cy} AS REAL) AS DOUBLE))
   <= CAST(CAST({radius} AS REAL) AS DOUBLE)
      * CAST(CAST({radius} AS REAL) AS DOUBLE)
ORDER BY doc_id
"""


def geo_xy_polygon_all(polygon: tuple, holes: tuple = ()) -> str:
    """XYPolygon mirror: the lat/lon crossing-number SQL with (x, y)
    mapped onto the ray-cast axes (y = scan axis, x = ray axis) and
    vertices snapped to float32 exactly like the engine
    (searcher._xy_polygon_docs)."""
    import numpy as np

    def snap(ring):
        return tuple((float(np.float32(py)), float(np.float32(px)))
                     for px, py in ring)

    def ring_sql(ring) -> str:
        terms = []
        n = len(ring)
        for i in range(n):
            y1, x1 = ring[i]
            y2, x2 = ring[(i + 1) % n]
            if y1 == y2:
                continue
            terms.append(
                f"(CASE WHEN (({y1!r} > y) <> ({y2!r} > y)) AND "
                f"x < ({x2!r} - ({x1!r})) * (y - ({y1!r})) / "
                f"({y2!r} - ({y1!r})) + ({x1!r}) THEN 1 ELSE 0 END)")
        return "((" + " + ".join(terms) + ") % 2 = 1)"

    cond = ring_sql(snap(polygon))
    for hole in holes:
        cond += f" AND NOT {ring_sql(snap(hole))}"
    return _xy_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM xy
WHERE {cond}
ORDER BY doc_id
"""


def geo_xy_line_all(line: tuple, buffer: float) -> str:
    """XYLine mirror: min over edges of clamped point-to-segment
    squared distance <= buffer^2, same float64 edge constants from
    float32-snapped vertices as searcher._xy_line_docs."""
    import numpy as np

    pts = [(float(np.float32(px)), float(np.float32(py)))
           for px, py in line]
    edges = []
    for i in range(len(pts) - 1):
        x1, y1 = pts[i]
        x2, y2 = pts[i + 1]
        dx, dy = x2 - x1, y2 - y1
        ll = dx * dx + dy * dy
        if ll == 0.0:
            edges.append(f"((x - ({x1!r})) * (x - ({x1!r})) + "
                         f"(y - ({y1!r})) * (y - ({y1!r})))")
            continue
        t = (f"least(1.0, greatest(0.0, "
             f"((x - ({x1!r})) * ({dx!r}) + "
             f"(y - ({y1!r})) * ({dy!r})) / ({ll!r})))")
        edges.append(
            f"((x - (({x1!r}) + {t} * ({dx!r}))) * "
            f"(x - (({x1!r}) + {t} * ({dx!r}))) + "
            f"(y - (({y1!r}) + {t} * ({dy!r}))) * "
            f"(y - (({y1!r}) + {t} * ({dy!r}))))")
    best = "least(" + ", ".join(edges) + ")" if len(edges) > 1 else edges[0]
    r = float(np.float32(buffer))
    return _xy_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM xy
WHERE {best} <= {r * r!r}
ORDER BY doc_id
"""


def date_resolution_counts() -> str:
    """DateTools DAY-resolution buckets (DateTools.kt:53-57
    timeToString prefix = yyyyMMdd): events per bucket."""
    return """
SELECT strftime(ts, '%Y%m%d') AS bucket, COUNT(*) AS n
FROM events GROUP BY bucket ORDER BY bucket
"""


def date_range_day_all(lo: str, hi: str) -> str:
    """Day-string TermRangeQuery role: lexicographic compare over the
    sortable DateTools form IS chronological compare."""
    return f"""
SELECT event_id, strftime(ts, '%Y%m%d') AS day
FROM events
WHERE strftime(ts, '%Y%m%d') >= '{lo}'
  AND strftime(ts, '%Y%m%d') <= '{hi}'
ORDER BY event_id
"""


def _ip_int_sql() -> str:
    """Derived IPv4 integer for the synthetic
    10.(u*7%256).(u*13%256).(u*29%256) address."""
    return ("(CAST(10 AS BIGINT) << 24) | "
            "((user_id * 7 % 256) << 16) | "
            "((user_id * 13 % 256) << 8) | (user_id * 29 % 256)")


_IP_HEX_SQL = ("'00000000000000000000ffff' || "
               f"lower(lpad(to_hex({_ip_int_sql()}), 8, '0'))")


def ip_range_all(lo_ip: str, hi_ip: str) -> str:
    """InetAddressPoint.newRangeQuery mirror: inclusive integer range
    over the derived IPv4; bounds folded independently with plain int
    arithmetic (not the engine's encoder)."""
    import ipaddress
    lo = int(ipaddress.IPv4Address(lo_ip))
    hi = int(ipaddress.IPv4Address(hi_ip))
    return f"""
SELECT DISTINCT user_id, {_IP_HEX_SQL} AS ip_hex
FROM events
WHERE {_ip_int_sql()} BETWEEN {lo} AND {hi}
ORDER BY user_id
"""


def ip_prefix_all(base_ip: str, prefix_len: int) -> str:
    """InetAddressPoint.newPrefixQuery mirror
    (InetAddressPoint.kt:187-208): host bits zeroed / filled — folded
    here with mask arithmetic, independent of the engine's encoder."""
    import ipaddress
    base = int(ipaddress.IPv4Address(base_ip))
    host = (1 << (32 - prefix_len)) - 1
    lo, hi = base & ~host, base | host
    return f"""
SELECT DISTINCT user_id, {_IP_HEX_SQL} AS ip_hex
FROM events
WHERE {_ip_int_sql()} BETWEEN {lo} AND {hi}
ORDER BY user_id
"""


def ip_range_relations_all(lo_ip: str, hi_ip: str) -> str:
    """InetAddressRange mirror (document/InetAddressRange.kt): per-doc
    [lo, hi] IP ranges derived from doc_id (lo = 10.0.0.0 + d*29%200,
    width d*53%180 — one dense overlapping span), related to the query
    range with the RangeFieldQuery.kt QueryType predicates in plain
    integer arithmetic; the hex keys rebuild with lpad(to_hex(...)) —
    independent of the engine's encoder."""
    import ipaddress
    lo = int(ipaddress.IPv4Address(lo_ip))
    hi = int(ipaddress.IPv4Address(hi_ip))

    def hex_sql(col: str) -> str:
        return (f"'00000000000000000000ffff' || "
                f"lower(lpad(to_hex({col}), 8, '0'))")

    return f"""
WITH d AS (
  SELECT doc_id,
    (CAST(10 AS BIGINT) << 24) + (doc_id * 29 % 200) AS lo_i,
    (CAST(10 AS BIGINT) << 24) + (doc_id * 29 % 200)
      + (doc_id * 53 % 180) AS hi_i
  FROM documents
),
rel AS (
  SELECT 'intersects' AS relation, doc_id, lo_i, hi_i FROM d
  WHERE lo_i <= {hi} AND hi_i >= {lo}
  UNION ALL
  SELECT 'within', doc_id, lo_i, hi_i FROM d
  WHERE lo_i >= {lo} AND hi_i <= {hi}
  UNION ALL
  SELECT 'contains', doc_id, lo_i, hi_i FROM d
  WHERE lo_i <= {lo} AND hi_i >= {hi}
  UNION ALL
  SELECT 'crosses', doc_id, lo_i, hi_i FROM d
  WHERE (lo_i <= {hi} AND hi_i >= {lo})
    AND NOT (lo_i >= {lo} AND hi_i <= {hi})
)
SELECT relation, doc_id, {hex_sql('lo_i')} AS ip_lo,
       {hex_sql('hi_i')} AS ip_hi
FROM rel ORDER BY relation, doc_id
"""


def shape_box_relations_all(min_lat: float, max_lat: float,
                            min_lon: float, max_lon: float) -> str:
    """ShapeBoxQuery mirror (LatLonShapeBoundingBoxQuery relations over
    diamond rings): a diamond with center (clat, clon) and radius w is
    the L1 ball |dlat|+|dlon| <= w, so every box relation reduces to
    exact per-axis arithmetic —
    intersects: clamped per-axis distance to the box sums <= w;
    within: center +/- w inside the bounds on both axes;
    contains: the FARTHEST box corner's L1 distance <= w;
    disjoint: not intersects."""
    return f"""
WITH d AS (
  SELECT doc_id,
    CAST((doc_id * 11 % 80) - 40 AS DOUBLE) AS clat,
    CAST((doc_id * 13 % 100) - 50 AS DOUBLE) AS clon,
    CAST(3 + doc_id * 7 % 25 AS DOUBLE) AS w
  FROM documents
),
m AS (
  SELECT doc_id, w,
    greatest(0, {min_lat} - clat, clat - {max_lat}) AS dy,
    greatest(0, {min_lon} - clon, clon - {max_lon}) AS dx,
    greatest(abs({min_lat} - clat), abs({max_lat} - clat)) AS fy,
    greatest(abs({min_lon} - clon), abs({max_lon} - clon)) AS fx,
    clat, clon
  FROM d
),
rel AS (
  SELECT 'intersects' AS relation, doc_id FROM m WHERE dy + dx <= w
  UNION ALL
  SELECT 'within', doc_id FROM m
  WHERE clat - w >= {min_lat} AND clat + w <= {max_lat}
    AND clon - w >= {min_lon} AND clon + w <= {max_lon}
  UNION ALL
  SELECT 'contains', doc_id FROM m WHERE fy + fx <= w
  UNION ALL
  SELECT 'disjoint', doc_id FROM m WHERE dy + dx > w
)
SELECT relation, doc_id FROM rel ORDER BY relation, doc_id
"""


def shape_polygon_relations_all(clat: float, clon: float, w: float) -> str:
    """ShapePolygonQuery mirror: both sides are L1 balls (diamonds), so
    with L1 = |c_doc − c_query|_1: intersects ⇔ L1 <= w_doc + w;
    within (doc ⊆ query) ⇔ L1 + w_doc <= w; contains (doc ⊇ query) ⇔
    L1 + w <= w_doc; disjoint otherwise — exact arithmetic, fully
    independent of the engine's ring kernel."""
    return f"""
WITH d AS (
  SELECT doc_id,
    CAST((doc_id * 11 % 80) - 40 AS DOUBLE) AS dlat,
    CAST((doc_id * 13 % 100) - 50 AS DOUBLE) AS dlon,
    CAST(3 + doc_id * 7 % 25 AS DOUBLE) AS wd
  FROM documents
),
m AS (
  SELECT doc_id, wd,
    abs(dlat - ({clat})) + abs(dlon - ({clon})) AS l1
  FROM d
),
rel AS (
  SELECT 'intersects' AS relation, doc_id FROM m WHERE l1 <= wd + {w}
  UNION ALL
  SELECT 'within', doc_id FROM m WHERE l1 + wd <= {w}
  UNION ALL
  SELECT 'contains', doc_id FROM m WHERE l1 + {w} <= wd
  UNION ALL
  SELECT 'disjoint', doc_id FROM m WHERE l1 > wd + {w}
)
SELECT relation, doc_id FROM rel ORDER BY relation, doc_id
"""


def shape_circle_relations_all(clat: float, clon: float,
                               r: float) -> str:
    """ShapeCircleQuery mirror: the doc shapes are L1 diamonds (center
    (dlat, dlon), half-diagonal wd), so every circle relation has a
    closed form in u = |dlat - clat|, v = |dlon - clon|:

    - planar distance circle-center → diamond:
      0 if u+v <= wd; (u+v-wd)/sqrt(2) while |u-v| <= wd (foot on the
      facing edge); else to the nearest vertex
      sqrt((max(u,v)-wd)^2 + min(u,v)^2)
    - intersects ⇔ dist <= r;  disjoint ⇔ dist > r
    - within (diamond ⊆ circle) ⇔ the farthest vertex is within r:
      max(sqrt((u+wd)^2+v^2), sqrt(u^2+(v+wd)^2)) <= r
    - contains (diamond ⊇ circle) ⇔ center inside with boundary
      clearance r: u+v <= wd - r*sqrt(2)

    Exact arithmetic, independent of the engine's generic ring kernel;
    r fractional (e.g. 9.7) keeps every comparison tie-free against
    the integer diamond lattice."""
    return f"""
WITH d AS (
  SELECT doc_id,
    abs(CAST((doc_id * 11 % 80) - 40 AS DOUBLE) - ({clat})) AS u,
    abs(CAST((doc_id * 13 % 100) - 50 AS DOUBLE) - ({clon})) AS v,
    CAST(3 + doc_id * 7 % 25 AS DOUBLE) AS wd
  FROM documents
),
m AS (
  SELECT doc_id, u, v, wd,
    CASE WHEN u + v <= wd THEN 0.0
         WHEN abs(u - v) <= wd THEN (u + v - wd) / sqrt(2.0)
         ELSE sqrt(pow(greatest(u, v) - wd, 2) + pow(least(u, v), 2))
    END AS dist,
    greatest(sqrt(pow(u + wd, 2) + pow(v, 2)),
             sqrt(pow(u, 2) + pow(v + wd, 2))) AS far_vertex
  FROM d
),
rel AS (
  SELECT 'intersects' AS relation, doc_id FROM m WHERE dist <= {r}
  UNION ALL
  SELECT 'within', doc_id FROM m WHERE far_vertex <= {r}
  UNION ALL
  SELECT 'contains', doc_id FROM m WHERE u + v <= wd - {r} * sqrt(2.0)
  UNION ALL
  SELECT 'disjoint', doc_id FROM m WHERE dist > {r}
)
SELECT relation, doc_id FROM rel ORDER BY relation, doc_id
"""


def doc_term_stats() -> str:
    """Per-doc FieldInvertState extras (FieldInvertState.kt:59-62):
    maxTermFrequency = max tf over the doc's terms, uniqueTermCount =
    distinct terms; zero-token docs carry 0/0."""
    return preamble() + """,
mx AS (
  SELECT doc_id, max(freq) AS m, count(*) AS u
  FROM postings GROUP BY doc_id
)
SELECT d.doc_id, CAST(d.dl AS BIGINT) AS length,
       CAST(COALESCE(mx.m, 0) AS BIGINT) AS max_tf,
       CAST(COALESCE(mx.u, 0) AS BIGINT) AS unique_terms
FROM doclen d LEFT JOIN mx USING (doc_id)
"""


# ------------------------------------------------- URL/email tokenizer ----
def url_email_tokens() -> str:
    """Mirror of textstats.url_email_tokens: whitespace chunks classified
    by ANCHORED RE2 versions of the analyzer's email / no-scheme-URL
    patterns (anchoring replaces the Python pattern's lookahead), other
    chunks fall through to the standard word tokenizer."""
    from .analysis.standard import sql_tokens_expr
    from .analysis.urlemail import GTLDS
    tld = "|".join(sorted(GTLDS, key=len, reverse=True)) + "|[A-Za-z]{2}"
    label = "[A-Za-z0-9]([A-Za-z0-9-]*[A-Za-z0-9])?"
    email = rf"^[A-Za-z0-9!#$%&'*+/=?^_`{{|}}~.\-]+@({label}\.)+[A-Za-z][A-Za-z]+$"
    nos = (rf"^({label}\.)+({tld})(:[0-9]+)?"
           rf"(/([-A-Za-z0-9._~%!$&'()*+,;=:@/]*[-A-Za-z0-9_~%$&'*+=@/])?)?"
           rf"(\?[^ <>\"#]*)?(#[^ <>\"]*)?$")
    email_sql = email.replace("'", "''")
    nos_sql = nos.replace("'", "''")
    word = sql_tokens_expr("chunks[oi.i]")
    return f"""
WITH src AS (
  SELECT doc_id,
    ['visit',
     'example' || (doc_id % 7) || '.com:80' || (doc_id % 9) || '/p' ||
       (doc_id % 5),
     (['index.php', 'index2.php', 'example.ph', 'the'])[(doc_id % 4) + 1],
     'user' || (doc_id % 11) || '@MAIL' || (doc_id % 3) || '.org',
     'now'] AS chunks
  FROM documents
),
cl AS (
  SELECT doc_id, oi.i AS ord, chunks[oi.i] AS chunk,
    CASE
      WHEN regexp_matches(chunks[oi.i], '{email_sql}')
        OR regexp_matches(chunks[oi.i], '{nos_sql}')
      THEN [lower(chunks[oi.i])]
      ELSE {word}
    END AS tk
  FROM src, (SELECT unnest(generate_series(1, 5)) AS i) oi
),
flat AS (
  SELECT doc_id, ord, unnest(tk) AS term,
         unnest(generate_series(1, len(tk))) AS sub
  FROM cl
),
ordered AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY ord, sub) - 1
           AS pos
  FROM flat
)
SELECT doc_id, pos, term FROM ordered
"""


def term_vectors_sample(mod: int = 97) -> str:
    """Mirror of _term_vectors_sample: per-doc term vectors over BOTH
    fields for every ``mod``-th doc, positions exploded to one row per
    occurrence. Freq is the (doc, field, term) occurrence count; pos the
    0-based token position within the field."""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
tx AS (SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus
       WHERE doc_id % {mod} = 0),
tt AS (SELECT doc_id, {sql_tokens_expr('title')} AS toks FROM corpus
       WHERE doc_id % {mod} = 0),
ftx AS (SELECT doc_id, 'text' AS field, unnest(toks) AS term,
               unnest(generate_series(1, len(toks))) - 1 AS pos FROM tx),
ftt AS (SELECT doc_id, 'title' AS field, unnest(toks) AS term,
               unnest(generate_series(1, len(toks))) - 1 AS pos FROM tt),
allp AS (SELECT * FROM ftx UNION ALL SELECT * FROM ftt),
fr AS (SELECT doc_id, field, term, count(*) AS freq FROM allp
       GROUP BY doc_id, field, term)
SELECT a.doc_id, a.field, a.term, CAST(fr.freq AS INTEGER) AS freq,
       CAST(a.pos AS INTEGER) AS pos
FROM allp a JOIN fr USING (doc_id, field, term)
ORDER BY a.doc_id, a.field, a.term, a.pos
"""


def facet_lang_counts(term: str) -> str:
    """Facet mirror: BM25 matches of ``term`` counted per lang."""
    return preamble() + f"""
SELECT c.lang, CAST(count(*) AS BIGINT) AS n
FROM postings p JOIN corpus c USING (doc_id)
WHERE p.term = '{term}'
GROUP BY c.lang
"""


# -------------------------------------------------- HyperLogLog sketch ----
def hll_user_counts(window_minutes: int = 15) -> str:
    """Mirror of pipelines.sketches.hll_user_counts: same md5-head hash,
    exact integer bit_length (6-step binary-search cascade — no float
    log), registers summed in integer 2^-56 units (HUGEINT), identical
    estimator float ops → exact match by construction."""
    from .pipelines.sketches import _ALPHA, HLL_M, HLL_W
    w_us = window_minutes * 60 * 1_000_000
    mask = (1 << HLL_W) - 1
    shift_units = HLL_W + 1  # 2^-rho in 2^-56 units = 1 << (56 - rho)
    a = f"CAST({_ALPHA!r} AS DOUBLE)"  # bare decimal literal would be
    # DECIMAL(16,16) and overflow on * 512; the engine computes in float64
    num = f"{a} * {HLL_M} * {HLL_M} * {float(1 << shift_units)!r}"
    return f"""
WITH ev AS (
  SELECT DISTINCT (epoch_us(ts) // {w_us}) * {w_us} AS window_us, user_id
  FROM events
),
h0 AS (
  SELECT window_us,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT
           AS hv
  FROM ev
),
hb AS (
  SELECT window_us, CAST(hv >> {HLL_W} AS BIGINT) AS bucket,
         hv & CAST({mask} AS UBIGINT) AS lo
  FROM h0
),
b1 AS (SELECT window_us, bucket,
              CASE WHEN lo >= 4294967296 THEN lo >> 32 ELSE lo END AS x,
              CASE WHEN lo >= 4294967296 THEN 32 ELSE 0 END AS bl FROM hb),
b2 AS (SELECT window_us, bucket,
              CASE WHEN x >= 65536 THEN x >> 16 ELSE x END AS x,
              bl + CASE WHEN x >= 65536 THEN 16 ELSE 0 END AS bl FROM b1),
b3 AS (SELECT window_us, bucket,
              CASE WHEN x >= 256 THEN x >> 8 ELSE x END AS x,
              bl + CASE WHEN x >= 256 THEN 8 ELSE 0 END AS bl FROM b2),
b4 AS (SELECT window_us, bucket,
              CASE WHEN x >= 16 THEN x >> 4 ELSE x END AS x,
              bl + CASE WHEN x >= 16 THEN 4 ELSE 0 END AS bl FROM b3),
b5 AS (SELECT window_us, bucket,
              CASE WHEN x >= 4 THEN x >> 2 ELSE x END AS x,
              bl + CASE WHEN x >= 4 THEN 2 ELSE 0 END AS bl FROM b4),
b6 AS (SELECT window_us, bucket,
              CASE WHEN x >= 2 THEN x >> 1 ELSE x END AS x,
              bl + CASE WHEN x >= 2 THEN 1 ELSE 0 END AS bl FROM b5),
rho AS (
  SELECT window_us, bucket,
         {HLL_W + 1} - (bl + CASE WHEN x = 1 THEN 1 ELSE 0 END) AS rho
  FROM b6
),
regs AS (SELECT window_us, bucket, max(rho) AS m
         FROM rho GROUP BY window_us, bucket),
agg AS (
  SELECT window_us, count(*) AS nset,
         sum(1::HUGEINT << ({shift_units} - m)) AS units
  FROM regs GROUP BY window_us
),
est AS (
  SELECT window_us, nset,
         CAST(CAST(units AS HUGEINT) +
              CAST({HLL_M} - nset AS HUGEINT) *
              (1::HUGEINT << {shift_units}) AS DOUBLE) AS total
  FROM agg
)
SELECT window_us, CAST(nset AS BIGINT) AS n_registers,
       round(CASE WHEN {num} / total <= {2.5 * HLL_M}
                   AND nset < {HLL_M}
             THEN {HLL_M} * ln(CAST({HLL_M} AS DOUBLE) / ({HLL_M} - nset))
             ELSE {num} / total END, 6) AS est_users_r
FROM est
"""


def cms_term_counts(probe_terms: tuple[str, ...] = ()) -> str:
    """Mirror of pipelines.sketches.cms_term_counts: per probe term and
    hash row, sum the exact counts of every vocabulary term hashing to
    the probe's column ('row:term' md5-head mod W) — algebraically the
    merged CMS counter — then min over rows."""
    from .analysis.standard import sql_tokens_expr
    from .pipelines.sketches import CMS_D, CMS_W
    if not probe_terms:
        probe_terms = ("spark", "the", "join", "data", "window")
    probes = ", ".join(f"('{t}')" for t in sorted(probe_terms))
    js = ", ".join(str(j) for j in range(CMS_D))

    def col(term_expr: str) -> str:
        return (f"('0x' || substr(md5(CAST(j.j AS VARCHAR) || ':' || "
                f"{term_expr}), 1, 16))::UBIGINT % {CMS_W}")

    return f"""
WITH corpus AS ({CORPUS_SQL}),
tok AS (
  SELECT unnest({sql_tokens_expr('text')}) AS term FROM corpus
),
tf AS (SELECT term, count(*) AS n FROM tok GROUP BY term),
probes(term) AS (VALUES {probes}),
est AS (
  SELECT p.term, j.j,
    (SELECT COALESCE(sum(tf.n), 0) FROM tf
     WHERE {col('tf.term')} = {col('p.term')}) AS cnt
  FROM probes p, (SELECT unnest([{js}]) AS j) j
)
SELECT term, CAST(min(cnt) AS BIGINT) AS est_count
FROM est GROUP BY term
"""


def props_stats() -> str:
    """Mirror of pipelines.events.props_stats: regexp field extraction
    from the JSON props column, exact integer aggregation per type."""
    return r"""
WITH x AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS k
  FROM events
  WHERE regexp_matches(props, '"k": (\d+)')
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_with_k,
       CAST(sum(k) AS BIGINT) AS sum_k,
       round(CAST(sum(k) AS DOUBLE) / count(*), 6) AS mean_k_r
FROM x GROUP BY event_type
"""


# ------------------------------------------------- core analyzers ---------
def core_token_counts(which: str) -> str:
    """Per-doc token + distinct-token counts under the core analyzers —
    the regex class is the SAME string analysis/core.py compiles (real
    codepoints, valid in both Python re and RE2)."""
    from .analysis.core import _JAVA_WS
    if which == "whitespace":
        src = "text"
        cls = f"[{_JAVA_WS}]+"
    else:  # simple: lowercased letter runs ([\\W\\d_] delimiter class)
        src = "lower(text)"
        cls = r"[\W\d_]+"
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toks AS (
  SELECT doc_id, t FROM (
    SELECT doc_id, unnest(string_split_regex({src}, '{cls}')) AS t
    FROM corpus)
  WHERE t <> ''),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(DISTINCT t) AS n_unique_tokens
  FROM toks GROUP BY doc_id)
SELECT c.doc_id,
       coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_unique_tokens, 0) AS n_unique_tokens
FROM corpus c LEFT JOIN agg a USING (doc_id)
ORDER BY c.doc_id
"""


# ------------------------------------------------------- PII --------------
def pii_scrub() -> str:
    """Sequential email → IPv4 → phone redaction with per-stage counts;
    the regex strings are imported from pipelines/pii.py (RE2 on both
    sides)."""
    from .pipelines.pii import PII_STAGES
    (em, em_r), (ip, ip_r), (ph, ph_r) = PII_STAGES
    return f"""
WITH corpus AS ({CORPUS_SQL}),
s1 AS (
  SELECT doc_id,
         length(regexp_extract_all(text, '{em}')) AS n_emails,
         regexp_replace(text, '{em}', '{em_r}', 'g') AS t1
  FROM corpus),
s2 AS (
  SELECT doc_id, n_emails,
         length(regexp_extract_all(t1, '{ip}')) AS n_ips,
         regexp_replace(t1, '{ip}', '{ip_r}', 'g') AS t2
  FROM s1),
s3 AS (
  SELECT doc_id, n_emails, n_ips,
         length(regexp_extract_all(t2, '{ph}')) AS n_phones,
         regexp_replace(t2, '{ph}', '{ph_r}', 'g') AS clean_text
  FROM s2)
SELECT doc_id, clean_text, n_emails, n_ips, n_phones
FROM s3 ORDER BY doc_id
"""


def url_host_filter() -> str:
    from .pipelines.pii import DEFAULT_BLOCKED_HOSTS, HOST_RE
    blocked = ", ".join(f"'{h}'" for h in sorted(DEFAULT_BLOCKED_HOSTS))
    return f"""
WITH corpus AS ({CORPUS_SQL}),
h AS (SELECT doc_id, regexp_extract(url, '{HOST_RE}', 1) AS host
      FROM corpus)
SELECT doc_id, host FROM h WHERE host NOT IN ({blocked})
ORDER BY doc_id
"""


# ------------------------------------------------------ Nepali ------------
def _ne_cat1_case(col: str) -> str:
    from .analysis.nepali import NE_CAT1
    lines = ["CASE"]
    for sfx, act in NE_CAT1:
        k = len(sfx)
        base = f"left({col}, length({col}) - {k})"
        if act == 1:
            lines.append(f"  WHEN {col} LIKE '%{sfx}' THEN {base}")
        else:
            lines.append(
                f"  WHEN {col} LIKE '%{sfx}' THEN "
                f"CASE WHEN {base} LIKE '%ए' OR {base} LIKE '%े' "
                f"THEN {col} ELSE {base} END")
    lines.append(f"  ELSE {col} END")
    return "\n".join(lines)


def _ne_cat2_case(col: str) -> str:
    from .analysis.nepali import (NE_CAT2_AI, NE_CAT2_AI_CTX,
                                  NE_CAT2_NASAL_CTX, NE_CAT2_NASALS)
    nas = ", ".join(f"'{c}'" for c in NE_CAT2_NASALS)
    ctx = ", ".join(f"'{c}'" for c in NE_CAT2_NASAL_CTX)
    ai_ctx = NE_CAT2_AI_CTX
    return f"""CASE
  WHEN right({col}, 1) IN ({nas})
       AND substr({col}, length({col}) - 2, 2) IN ({ctx})
  THEN left({col}, length({col}) - 1)
  WHEN right({col}, 1) = '{NE_CAT2_AI}'
       AND substr({col}, length({col}) - {len(ai_ctx)}, {len(ai_ctx)})
           = '{ai_ctx}'
  THEN left({col}, length({col}) - 1)
  ELSE {col} END"""


def _ne_cat3_case(col: str) -> str:
    from .analysis.nepali import NE_CAT3
    lines = ["CASE"]
    for sfx in NE_CAT3:
        lines.append(f"  WHEN {col} LIKE '%{sfx}' "
                     f"THEN left({col}, length({col}) - {len(sfx)})")
    lines.append(f"  ELSE {col} END")
    return "\n".join(lines)


def nepali_preamble() -> str:
    """BM25 CTEs over NEPALI-analyzed text — digit fold → indic compose
    → stop → snowball stem (category-1 once, then the category-2/3 loop
    as a recursive CTE), GENERATED from the same tables as
    analysis/nepali.py."""
    from .analysis.nepali import NEPALI_STOP_WORDS
    stops = _stop_list_sql(NEPALI_STOP_WORDS)
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    indic = _indic_compose_sql(digit)
    cat3 = _ne_cat3_case("w2")
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {indic} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0 FROM rkept),
nsl(t0, w, moved) AS (
  SELECT t0, {_ne_cat1_case('t0')} AS w, TRUE FROM uniq
  UNION ALL
  SELECT t0,
         CASE WHEN ({cat3}) <> w2 THEN ({cat3}) ELSE w2 END,
         ({cat3}) <> w2
  FROM (SELECT t0, {_ne_cat2_case('w')} AS w2 FROM nsl WHERE moved)
),
stems AS (SELECT t0, w AS stem FROM nsl WHERE NOT moved),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0)),
{_BM25_TAIL}"""


def bm25_nepali_topk(stemmed_term: str, k: int = 10) -> str:
    pre = nepali_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Romanian ----------
_RO_V = "aeiouâîă"


def _ro_repl_case(table, repl_map, region: str, col: str,
                  out: str, special=None) -> str:
    """Structural-longest-first among as a CASE: WHEN on the suffix
    alone; the region check decides inside THEN (failed check = no-op,
    no fallback) — kt semantics for step_0 / standard / final steps."""
    lines = ["CASE"]
    for sfx, act in table:
        k = len(sfx)
        base = f"length({col}) - {k}"
        cond = f"{base} >= {region}"
        if special and act in special:
            inner, extra = special[act](col, k)
            if extra:
                cond = f"{cond} AND {extra}"
        else:
            rep = repl_map[act] if repl_map else ""
            inner = (f"left({col}, {base}) || '{rep}'" if rep
                     else f"left({col}, {base})")
        lines.append(f"  WHEN {col} LIKE '%{sfx}' THEN "
                     f"CASE WHEN {cond} THEN {inner} ELSE {col} END")
    lines.append(f"  ELSE {col} END")
    return "\n".join(lines)


def _ro_stem_ctes() -> str:
    """RomanianStemmer (reference-kmp semantics — see
    analysis/romanian.py docstring) as recursive-CTE prelude + staged
    CASE columns, GENERATED from the same tables."""
    from .analysis.romanian import (RO_COMBO, RO_COMBO_REPL, RO_FINAL_VOWEL,
                                    RO_STD, RO_STEP0, RO_STEP0_REPL, RO_VERB)
    v = _RO_V
    vset = ", ".join(f"'{c}'" for c in sorted(v))

    def step0_sp5(col, k):
        return (f"left({col}, length({col}) - {k}) || 'i'",
                f"NOT left({col}, length({col}) - {k}) LIKE '%ab'")

    def std_sp2(col, k):
        return (f"left({col}, length({col}) - {k + 1}) || 't'",
                f"substr({col}, length({col}) - {k}, 1) = 'ț'")

    def std_sp3(col, k):
        return (f"left({col}, length({col}) - {k}) || 'ist'", None)

    st0 = _ro_repl_case(RO_STEP0, RO_STEP0_REPL, "p1", "pw", "w0",
                        special={5: step0_sp5})
    stc = _ro_repl_case(RO_COMBO, RO_COMBO_REPL, "p1", "w0", "wc")
    st4 = _ro_repl_case(RO_STD, {1: ""}, "p2", "wc", "wv",
                        special={2: std_sp2, 3: std_sp3})
    fin = _ro_repl_case(RO_FINAL_VOWEL, None, "pv", "wf", "wz")

    vb = ["CASE"]
    for sfx, act in RO_VERB:
        k = len(sfx)
        base = f"length(wv) - {k}"
        if act == 1:
            vb.append(
                f"  WHEN wv LIKE '%{sfx}' AND {base} >= pv THEN "
                f"CASE WHEN {base} - 1 >= pv AND "
                f"substr(wv, {base}, 1) = 'u' "
                f"THEN left(wv, {base}) ELSE wv END")
        else:
            vb.append(f"  WHEN wv LIKE '%{sfx}' AND {base} >= pv "
                      f"THEN left(wv, {base})")
    vb.append("  ELSE wv END")
    verb = "\n".join(vb)

    def rex(pat):
        return (f"CASE WHEN regexp_extract(pw, '{pat}') = '' "
                f"THEN length(pw) "
                f"ELSE length(regexp_extract(pw, '{pat}')) END")

    pv = f"""CASE
  WHEN length(pw) < 2 THEN length(pw)
  WHEN substr(pw, 1, 1) IN ({vset}) AND
       substr(pw, 2, 1) NOT IN ({vset})
  THEN {rex(f'^[{v}][^{v}]+[{v}]')}
  WHEN substr(pw, 1, 1) IN ({vset})
  THEN {rex(f'^[{v}][{v}]+[^{v}]')}
  WHEN substr(pw, 2, 1) NOT IN ({vset})
  THEN {rex(f'^[^{v}][^{v}]+[{v}]')}
  ELSE CASE WHEN length(pw) >= 3 THEN 3 ELSE length(pw) END END"""
    p1 = rex(f"^[^{v}]*[{v}]+[^{v}]")
    p2 = rex(f"^[^{v}]*[{v}]+[^{v}]+[{v}]+[^{v}]")

    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
pr0 AS (SELECT t0, translate(t0, 'ŞşŢţ', 'ȘșȚț') AS raw FROM uniq),
roscan(t0, raw, pos, acc) AS (
  SELECT t0, raw, 1, '' FROM pr0
  UNION ALL
  SELECT t0, raw, pos + 1,
    acc || CASE
      WHEN substr(raw, pos, 1) = 'u' AND pos > 1
           AND right(acc, 1) IN ({vset})
           AND substr(raw, pos + 1, 1) IN ({vset}) THEN 'U'
      WHEN substr(raw, pos, 1) = 'i' AND pos > 1
           AND right(acc, 1) IN ({vset})
           AND substr(raw, pos + 1, 1) IN ({vset}) THEN 'I'
      ELSE substr(raw, pos, 1) END
  FROM roscan WHERE pos <= length(raw)
),
pre AS (SELECT t0, acc AS pw FROM roscan WHERE pos = length(raw) + 1),
regs AS (SELECT t0, pw, {pv} AS pv, {p1} AS p1, {p2} AS p2 FROM pre),
rst0 AS (SELECT t0, pv, p1, p2, {st0} AS w0 FROM regs),
rstc AS (SELECT t0, pv, p2, {stc} AS wc FROM rst0),
rst4 AS (SELECT t0, pv, {st4} AS wv FROM rstc),
rstv AS (SELECT t0, pv, {verb} AS wf FROM rst4),
rstf AS (SELECT t0, {fin} AS wz FROM rstv),
stems AS (
  SELECT t0, CASE WHEN left(wz, 1) = 'I' THEN 'i' || substr(wz, 2)
                  WHEN left(wz, 1) = 'U' THEN 'u' || substr(wz, 2)
                  ELSE wz END AS stem
  FROM rstf),
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN stems s USING (t0))"""


def romanian_preamble() -> str:
    from .analysis.romanian import ROMANIAN_STOP_WORDS
    stops = _stop_list_sql(ROMANIAN_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_ro_stem_ctes()},
{_BM25_TAIL}"""


def bm25_romanian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = romanian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ---------------------------------------------- Serbian / Catalan ---------
def _sr_stem_ctes() -> str:
    from .analysis.serbian import SR_EXPAND, SR_MAP, SR_RULES
    branches = []
    for sfx, min_len, drop in SR_RULES:
        branches.append(
            f"    WHEN t0 LIKE '%{sfx}' AND length(t0) > {min_len} "
            f"THEN left(t0, length(t0) - {drop})")
    stem = "CASE\n" + "\n".join(branches) + "\n    ELSE t0 END"
    norm = "st"
    for src, dst in SR_EXPAND.items():
        norm = f"replace({norm}, '{src}', '{dst}')"
    frm = "".join(SR_MAP)
    to = "".join(SR_MAP.values())
    norm = f"translate({norm}, '{frm}', '{to}')"
    return f"""rsr AS (SELECT doc_id, {stem} AS st FROM rkept),
rterms AS MATERIALIZED (SELECT doc_id, {norm} AS term FROM rsr)"""


def _ca_stem_ctes() -> str:
    from .analysis.catalan import CA_RULES
    fold = "translate(t0, 'àáèéìíïòóùúü·', 'aaeeiiioouuu.')"
    branches = []
    for sfx, min_len, drop in CA_RULES:
        guard = f" AND length(cf) > {min_len}" if min_len else ""
        branches.append(
            f"    WHEN cf LIKE '%{sfx}'{guard} "
            f"THEN left(cf, length(cf) - {drop})")
    stem = "CASE\n" + "\n".join(branches) + "\n    ELSE cf END"
    return f"""rcf AS (SELECT doc_id, {fold} AS cf FROM rkept),
rterms AS MATERIALIZED (SELECT doc_id, {stem} AS term FROM rcf)"""


_CA_ELISION_RE = "^(d|l|m|n|s|t)[''’](.+)$"


def serbo_catalan_preamble(lang: str) -> str:
    if lang == "serbian":
        from .analysis.serbian import SERBIAN_STOP_WORDS
        stops = _stop_list_sql(SERBIAN_STOP_WORDS)
        ctes = _sr_stem_ctes()
        pre_tok = "traw"
    else:
        from .analysis.catalan import CATALAN_STOP_WORDS
        stops = _stop_list_sql(CATALAN_STOP_WORDS)
        ctes = _ca_stem_ctes()
        pre_tok = f"regexp_replace(traw, '{_CA_ELISION_RE}', '\\2')"
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {pre_tok} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{ctes},
{_BM25_TAIL}"""


def bm25_serbo_catalan_topk(lang: str, stemmed_term: str,
                            k: int = 10) -> str:
    pre = serbo_catalan_preamble(lang).replace("__LT_VALUES__",
                                               _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Hungarian ---------
def _hu_stem_ctes() -> str:
    """HungarianLightStemmer as staged CASE columns (fold → case →
    possessive → plural → final-vowel norm) — same rules as
    analysis/hungarian.py."""
    V = "('a','e','i','o','u','y')"
    fold = "translate(t0, 'áëéíóőõöúűũûü', 'aeeioooouuuuu')"
    case3 = ("'nak','nek','val','vel','ert','rol','ban','ben','bol',"
             "'nal','nel','hoz','hez','tol'")
    case2 = "'at','et','ot','va','ve','ra','re','ba','be','ul','ig'"
    hcase = f"""CASE
  WHEN length(h0) > 6 AND h0 LIKE '%kent' THEN left(h0, length(h0) - 4)
  WHEN length(h0) > 5 AND right(h0, 3) IN ({case3})
    THEN left(h0, length(h0) - 3)
  WHEN length(h0) > 5 AND right(h0, 2) IN ('al','el')
       AND substr(h0, length(h0) - 2, 1) NOT IN {V}
       AND substr(h0, length(h0) - 2, 1) = substr(h0, length(h0) - 3, 1)
    THEN left(h0, length(h0) - 3)
  WHEN length(h0) > 4 AND right(h0, 2) IN ({case2})
    THEN left(h0, length(h0) - 2)
  WHEN length(h0) > 4 AND right(h0, 2) IN ('on','en')
       AND substr(h0, length(h0) - 2, 1) NOT IN {V}
    THEN left(h0, length(h0) - 2)
  WHEN length(h0) > 4 AND right(h0, 1) IN ('t','n')
    THEN left(h0, length(h0) - 1)
  WHEN length(h0) > 4 AND right(h0, 1) IN ('a','e')
       AND substr(h0, length(h0) - 1, 1) = substr(h0, length(h0) - 2, 1)
       AND substr(h0, length(h0) - 1, 1) NOT IN {V}
    THEN left(h0, length(h0) - 2)
  ELSE h0 END"""
    hposs = f"""CASE
  WHEN length(h1) > 6 AND substr(h1, length(h1) - 4, 1) NOT IN {V}
       AND right(h1, 4) IN ('atok','otok','etek')
    THEN left(h1, length(h1) - 4)
  WHEN length(h1) > 6 AND right(h1, 4) IN ('itek','itok')
    THEN left(h1, length(h1) - 4)
  WHEN length(h1) > 5 AND substr(h1, length(h1) - 3, 1) NOT IN {V}
       AND right(h1, 3) IN ('unk','tok','tek')
    THEN left(h1, length(h1) - 3)
  WHEN length(h1) > 5 AND substr(h1, length(h1) - 3, 1) IN {V}
       AND right(h1, 3) = 'juk'
    THEN left(h1, length(h1) - 3)
  WHEN length(h1) > 5 AND right(h1, 3) = 'ink'
    THEN left(h1, length(h1) - 3)
  WHEN length(h1) > 4 AND substr(h1, length(h1) - 2, 1) NOT IN {V}
       AND right(h1, 2) IN ('am','em','om','ad','ed','od','uk')
    THEN left(h1, length(h1) - 2)
  WHEN length(h1) > 4 AND substr(h1, length(h1) - 2, 1) IN {V}
       AND right(h1, 2) IN ('nk','ja','je')
    THEN left(h1, length(h1) - 2)
  WHEN length(h1) > 4 AND right(h1, 2) IN ('im','id','ik')
    THEN left(h1, length(h1) - 2)
  WHEN length(h1) > 3 AND right(h1, 1) IN ('a','e')
       AND substr(h1, length(h1) - 1, 1) NOT IN {V}
    THEN left(h1, length(h1) - 1)
  WHEN length(h1) > 3 AND right(h1, 1) IN ('m','d')
       AND substr(h1, length(h1) - 1, 1) IN {V}
    THEN left(h1, length(h1) - 1)
  WHEN length(h1) > 3 AND right(h1, 1) = 'i'
    THEN left(h1, length(h1) - 1)
  ELSE h1 END"""
    hplur = """CASE
  WHEN length(h2) > 3 AND right(h2, 1) = 'k' THEN
    CASE WHEN substr(h2, length(h2) - 1, 1) IN ('a','o','e') THEN
           CASE WHEN length(h2) > 4 THEN left(h2, length(h2) - 2)
                ELSE left(h2, length(h2) - 1) END
         ELSE left(h2, length(h2) - 1) END
  ELSE h2 END"""
    hnorm = ("CASE WHEN length(h3) > 3 AND right(h3, 1) IN "
             "('a','e','i','o') THEN left(h3, length(h3) - 1) "
             "ELSE h3 END")
    return f"""rh0 AS (SELECT doc_id, {fold} AS h0 FROM rkept),
rh1 AS (SELECT doc_id, {hcase} AS h1 FROM rh0),
rh2 AS (SELECT doc_id, {hposs} AS h2 FROM rh1),
rh3 AS (SELECT doc_id, {hplur} AS h3 FROM rh2),
rterms AS MATERIALIZED (SELECT doc_id, {hnorm} AS term FROM rh3)"""


def hungarian_preamble() -> str:
    from .analysis.hungarian import HUNGARIAN_STOP_WORDS
    stops = _stop_list_sql(HUNGARIAN_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
{_hu_stem_ctes()},
{_BM25_TAIL}"""


def bm25_hungarian_topk(stemmed_term: str, k: int = 10) -> str:
    pre = hungarian_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Turkish -----------
# Exact SQL mirror of analysis/turkish.turkish_stem (snowball Turkish,
# TurkishStemmer.kt semantics), GENERATED from the same suffix tables.
# Staged-CTE design: phase-N (nominal verb) and phase-NS (noun suffixes)
# are pure CASE cascades over lateral column aliases; the recursive
# ki-chain runs as 4 sequential single-step stages (each strips >= 2
# chars, so 4 covers every realistic token) with the branch-C inner
# recursion instantiated once (depth-1 cap, see _tr_kstep_cols).
_TR_VS = "aeıioöuü"
_TR_HARM_SQL = {"a": "aıou", "e": "eiöü", "ı": "aı", "i": "ei",
                "o": "ou", "ö": "öü", "u": "ou", "ü": "öü"}


def _tr_lit_list(chars_or_words) -> str:
    return ", ".join(f"'{w}'" for w in chars_or_words)


def _tr_harmony_sql(o: str) -> str:
    v = _TR_VS
    last = f"regexp_extract({o}, '([{v}])[^{v}]*$', 1)"
    pre = f"regexp_replace({o}, '[{v}][^{v}]*$', '')"
    br = "\n".join(
        f"    WHEN '{ch}' THEN regexp_matches({pre}, '[{cls}]')"
        for ch, cls in _TR_HARM_SQL.items())
    return (f"(CASE WHEN NOT regexp_matches({o}, '[{v}]') THEN FALSE\n"
            f"  ELSE CASE {last}\n{br}\n    ELSE FALSE END END)")


def _tr_char_at(o: str, back: int) -> str:
    """Char `back` positions before the end of o ('' when out of range)."""
    return (f"(CASE WHEN length({o}) >= {back} THEN "
            f"substr({o}, length({o}) - {back - 1}, 1) ELSE '' END)")


def _tr_opt_sql(o: str, k: int, opt: str) -> str:
    """Extra span of the optional consonant (y/n/s) or U vowel after a
    k-char suffix match on o: int or NULL (mark fails)."""
    t1 = _tr_char_at(o, k + 1)
    t2 = _tr_char_at(o, k + 2)
    vows = _tr_lit_list(_TR_VS)
    if opt == "U":
        us = _tr_lit_list("ıiuü")
        return (f"CASE WHEN {t1} IN ({us}) AND {t2} <> '' AND "
                f"{t2} NOT IN ({vows}) THEN 1 "
                f"WHEN {t1} IN ({us}) THEN NULL "
                f"WHEN {t2} <> '' AND {t2} NOT IN ({vows}) THEN 0 "
                f"ELSE NULL END")
    return (f"CASE WHEN {t1} = '{opt}' AND {t2} IN ({vows}) THEN 1 "
            f"WHEN {t1} = '{opt}' THEN NULL "
            f"WHEN {t2} IN ({vows}) THEN 0 ELSE NULL END")


def _tr_marks() -> dict:
    from .analysis import turkish as tr
    U = ("ı", "i", "u", "ü")
    return {
        "poss": (tr.A_POSS, False, "U"), "sU": (U, True, "s"),
        "lArI": (tr.A_LARI, False, None), "yU": (U, True, "y"),
        "nU": (tr.A_NU, True, None), "nUn": (tr.A_NUN, True, "n"),
        "yA": (tr.A_YA, True, "y"), "nA": (tr.A_NA, True, None),
        "DA": (tr.A_DA, True, None), "ndA": (tr.A_NDA, True, None),
        "DAn": (tr.A_DAN, True, None), "ndAn": (tr.A_NDAN, True, None),
        "ylA": (tr.A_YLA, True, "y"), "ncA": (tr.A_NCA, True, "n"),
        "yUm": (tr.A_YUM, True, "y"), "sUn": (tr.A_SUN, True, None),
        "yUz": (tr.A_YUZ, True, "y"), "sUnUz": (tr.A_SUNUZ, False, None),
        "lAr": (tr.A_LAR, True, None), "nUz": (tr.A_NUZ, True, None),
        "DUr": (tr.A_DUR, True, None), "cAsInA": (tr.A_CASINA, False, None),
        "yDU": (tr.A_YDU, True, "y"), "ysA": (tr.A_YSA, False, "y"),
        "ymUs": (tr.A_YMUS, True, "y"), "yken": (("ken",), False, "y"),
    }


def _tr_span_sql(o: str, mark: str) -> str:
    """Mark span at the end of operand o: INT chars consumed or NULL."""
    sfxs, harmony, opt = _tr_marks()[mark]
    by_len: dict[int, list[str]] = {}
    for s in sfxs:
        by_len.setdefault(len(s), []).append(s)
    whens = []
    for k in sorted(by_len, reverse=True):  # find_among_b: longest wins
        cond = f"right({o}, {k}) IN ({_tr_lit_list(by_len[k])})"
        val = f"{k} + ({_tr_opt_sql(o, k, opt)})" if opt else str(k)
        whens.append(f"WHEN {cond} THEN {val}")
    core = "CASE " + " ".join(whens) + " ELSE NULL END"
    if harmony:
        core = (f"CASE WHEN {_tr_harmony_sql(o)} THEN ({core}) "
                f"ELSE NULL END")
    return f"({core})"



class _TrPipe:
    """Auto-staged SQL pipeline: each added column lands in the first
    stage where all the columns it references already exist; stages emit
    as MATERIALIZED CTEs. This is what keeps the generated stemmer SQL
    linear — DuckDB inlines lateral aliases, so a single-SELECT version
    of these dependency chains explodes exponentially in the binder."""

    def __init__(self, base_cols):
        import re
        self._re = re
        self.stages: list[list[tuple[str, str]]] = []
        self.level: dict[str, int] = {c: -1 for c in base_cols}

    def add(self, name: str, expr: str) -> str:
        deps = [c for c in self.level
                if self._re.search(rf"\b{self._re.escape(c)}\b", expr)]
        lvl = 1 + max((self.level[d] for d in deps), default=-1)
        while len(self.stages) <= lvl:
            self.stages.append([])
        self.stages[lvl].append((name, expr))
        self.level[name] = lvl
        return name

    def emit(self, base: str, prefix: str) -> tuple[str, str]:
        ctes, prev = [], base
        for i, cols in enumerate(self.stages):
            if not cols:
                continue
            defs = ",\n  ".join(f"{e} AS {n}" for n, e in cols)
            ctes.append(f"{prefix}{i} AS MATERIALIZED (\n"
                        f"  SELECT *,\n  {defs}\n  FROM {prev})")
            prev = f"{prefix}{i}"
        return ",\n".join(ctes), prev


def _tr_kstep(P: "_TrPipe", o: str, p: str, depth: int = 1) -> tuple[str,
                                                                     str]:
    """One ki-chain step on word column o → (kw, kc) column names.
    kw = new word or NULL (step failed); kc = TRUE when the kt code
    attempts a further end-anchored recursion. Branch C's inner
    (non-end) recursion instantiates once (depth-1 cap — words needing
    more levels of mid-word ki do not occur in realistic corpora; the
    Python implementation is exact and conformance-tested)."""
    S = _tr_span_sql
    o2 = P.add(p + "o2", f"(CASE WHEN right({o}, 2) = 'ki' "
                         f"THEN left({o}, length({o}) - 2) END)")
    # branch A: DA ; del ; (lAr [K]) | (poss ; del ; (lAr ; del ; [K]))
    sda = P.add(p + "sda", S(o2, "DA"))
    wa0 = P.add(p + "wa0", f"left({o2}, length({o2}) - {sda})")
    slara = P.add(p + "slara", S(wa0, "lAr"))
    sposa = P.add(p + "sposa", S(wa0, "poss"))
    wap = P.add(p + "wap", f"left({wa0}, length({wa0}) - {sposa})")
    slarap = P.add(p + "slarap", S(wap, "lAr"))
    akw = P.add(p + "akw", f"""CASE
      WHEN {slara} IS NOT NULL THEN left({wa0}, length({wa0}) - {slara})
      WHEN {sposa} IS NOT NULL THEN CASE WHEN {slarap} IS NOT NULL
           THEN left({wap}, length({wap}) - {slarap}) ELSE {wap} END
      ELSE {wa0} END""")
    akc = P.add(p + "akc", f"({slara} IS NOT NULL OR "
                           f"({sposa} IS NOT NULL AND "
                           f"{slarap} IS NOT NULL))")
    # branch B: nUn ; del ; lArI-del | (poss|sU ; del ; (lAr ; del ; K)) | K
    snun = P.add(p + "snun", S(o2, "nUn"))
    wb0 = P.add(p + "wb0", f"left({o2}, length({o2}) - {snun})")
    slarib = P.add(p + "slarib", S(wb0, "lArI"))
    spsb = P.add(p + "spsb", f"COALESCE({S(wb0, 'poss')}, {S(wb0, 'sU')})")
    wbp = P.add(p + "wbp", f"left({wb0}, length({wb0}) - {spsb})")
    slarbp = P.add(p + "slarbp", S(wbp, "lAr"))
    bkw = P.add(p + "bkw", f"""CASE
      WHEN {slarib} IS NOT NULL THEN left({wb0}, length({wb0}) - {slarib})
      WHEN {spsb} IS NOT NULL THEN CASE WHEN {slarbp} IS NOT NULL
           THEN left({wbp}, length({wbp}) - {slarbp}) ELSE {wbp} END
      ELSE {wb0} END""")
    bkc = P.add(p + "bkc", f"({slarib} IS NULL AND ({spsb} IS NULL OR "
                           f"{slarbp} IS NOT NULL))")
    # branch C: ndA (no direct del) ; lArI-del-to-ket | sU-del-to-ket
    #           (lAr ; del ; K) | inner-K before the intact [ndA ki] tail
    snda = P.add(p + "snda", S(o2, "ndA"))
    oc = P.add(p + "oc", f"left({o2}, length({o2}) - {snda})")
    slaric = P.add(p + "slaric", S(oc, "lArI"))
    ssuc = P.add(p + "ssuc", S(oc, "sU"))
    wcs = P.add(p + "wcs", f"left({oc}, length({oc}) - {ssuc})")
    slarcs = P.add(p + "slarcs", S(wcs, "lAr"))
    if depth > 0:
        ikw, _ikc = _tr_kstep(P, oc, p + "i", depth - 1)
    else:
        ikw = P.add(p + "ikw0", "CAST(NULL AS VARCHAR)")
    ckw = P.add(p + "ckw", f"""CASE
      WHEN {slaric} IS NOT NULL THEN left({oc}, length({oc}) - {slaric})
      WHEN {ssuc} IS NOT NULL THEN CASE WHEN {slarcs} IS NOT NULL
           THEN left({wcs}, length({wcs}) - {slarcs}) ELSE {wcs} END
      WHEN {ikw} IS NOT NULL THEN {ikw} || right({o}, 2 + {snda})
      ELSE NULL END""")
    ckc = P.add(p + "ckc", f"({slaric} IS NULL AND {ssuc} IS NOT NULL "
                           f"AND {slarcs} IS NOT NULL)")
    kw = P.add(p + "kw", f"""CASE WHEN {o2} IS NULL THEN NULL
      WHEN {sda} IS NOT NULL THEN {akw}
      WHEN {snun} IS NOT NULL THEN {bkw}
      WHEN {snda} IS NOT NULL THEN {ckw}
      ELSE NULL END""")
    kc = P.add(p + "kc", f"""CASE WHEN {o2} IS NULL THEN FALSE
      WHEN {sda} IS NOT NULL THEN {akc}
      WHEN {snun} IS NOT NULL THEN {bkc}
      WHEN {snda} IS NOT NULL THEN {ckc}
      ELSE FALSE END""")
    return kw, kc


def _tr_phase_n(P: "_TrPipe") -> None:
    """Phase N (stem_nominal_verb_suffixes) over column w → w1, cont."""
    S = _tr_span_sql
    P.add("a1", f"COALESCE({S('w', 'ymUs')}, {S('w', 'yDU')}, "
                f"{S('w', 'ysA')}, {S('w', 'yken')})")
    P.add("s_cas", S("w", "cAsInA"))
    o2 = "left(w, length(w) - 6)"
    P.add("s_mid", f"COALESCE({S(o2, 'sUnUz')}, {S(o2, 'lAr')}, "
                   f"{S(o2, 'yUm')}, {S(o2, 'sUn')}, {S(o2, 'yUz')}, 0)")
    P.add("o_ym2", "left(w, length(w) - 6 - s_mid)")
    P.add("s_ym2", S("o_ym2", "ymUs"))
    P.add("s_lar3", S("w", "lAr"))
    P.add("o_l3", "left(w, length(w) - s_lar3)")
    P.add("s_l32", f"COALESCE({S('o_l3', 'DUr')}, {S('o_l3', 'yDU')}, "
                   f"{S('o_l3', 'ysA')}, {S('o_l3', 'ymUs')}, 0)")
    P.add("s_nuz", S("w", "nUz"))
    P.add("o_n4", "left(w, length(w) - s_nuz)")
    P.add("s_n42", f"COALESCE({S('o_n4', 'yDU')}, {S('o_n4', 'ysA')})")
    P.add("s_5", f"COALESCE({S('w', 'sUnUz')}, {S('w', 'yUz')}, "
                 f"{S('w', 'sUn')}, {S('w', 'yUm')})")
    P.add("o_5", "left(w, length(w) - s_5)")
    P.add("s_52", f"COALESCE({S('o_5', 'ymUs')}, 0)")
    P.add("s_dur", S("w", "DUr"))
    P.add("o_6", "left(w, length(w) - s_dur)")
    P.add("s_mid6", f"COALESCE({S('o_6', 'sUnUz')}, {S('o_6', 'lAr')}, "
                    f"{S('o_6', 'yUm')}, {S('o_6', 'sUn')}, "
                    f"{S('o_6', 'yUz')}, 0)")
    P.add("o_ym6", "left(w, length(w) - s_dur - s_mid6)")
    P.add("s_ym6", S("o_ym6", "ymUs"))
    P.add("w1", """CASE
      WHEN a1 IS NOT NULL THEN left(w, length(w) - a1)
      WHEN s_cas IS NOT NULL AND s_ym2 IS NOT NULL
           THEN left(w, length(w) - 6 - s_mid - s_ym2)
      WHEN s_lar3 IS NOT NULL THEN left(w, length(w) - s_lar3 - s_l32)
      WHEN s_nuz IS NOT NULL AND s_n42 IS NOT NULL
           THEN left(w, length(w) - s_nuz - s_n42)
      WHEN s_5 IS NOT NULL THEN left(w, length(w) - s_5 - s_52)
      WHEN s_dur IS NOT NULL THEN left(w, length(w) - s_dur -
           (CASE WHEN s_ym6 IS NOT NULL THEN s_mid6 + s_ym6 ELSE 0 END))
      ELSE w END""")
    P.add("cont", """(NOT (a1 IS NULL
      AND NOT (s_cas IS NOT NULL AND s_ym2 IS NOT NULL)
      AND s_lar3 IS NOT NULL))""")


def _tr_phase_ns(P: "_TrPipe") -> None:
    """Phase NS (stem_noun_suffixes) over column w1 → w2, kpend."""
    S = _tr_span_sql
    P.add("n_lar1", S("w1", "lAr"))
    P.add("n_nca", S("w1", "ncA"))
    P.add("n_w20", "left(w1, length(w1) - n_nca)")
    P.add("n2_lari", S("n_w20", "lArI"))
    P.add("n2_ps", f"COALESCE({S('n_w20', 'poss')}, {S('n_w20', 'sU')})")
    P.add("n_w2p", "left(n_w20, length(n_w20) - n2_ps)")
    P.add("n2_lar", S("n_w2p", "lAr"))
    P.add("n2_lar0", S("n_w20", "lAr"))
    P.add("n_s3", f"COALESCE({S('w1', 'ndA')}, {S('w1', 'nA')})")
    P.add("n_o3c", "left(w1, length(w1) - n_s3)")
    P.add("n3_lari", S("n_o3c", "lArI"))
    P.add("n3_su", S("n_o3c", "sU"))
    P.add("n_w3s", "left(n_o3c, length(n_o3c) - n3_su)")
    P.add("n3_lar", S("n_w3s", "lAr"))
    k3w, _ = _tr_kstep(P, "n_o3c", "k3_")
    P.add("n_s4", f"COALESCE({S('w1', 'ndAn')}, {S('w1', 'nU')})")
    P.add("n_o4c", "left(w1, length(w1) - n_s4)")
    P.add("n4_su", S("n_o4c", "sU"))
    P.add("n_w4s", "left(n_o4c, length(n_o4c) - n4_su)")
    P.add("n4_lar", S("n_w4s", "lAr"))
    P.add("n4_lari", S("n_o4c", "lArI"))
    P.add("n_s5", S("w1", "DAn"))
    P.add("n_o5", "left(w1, length(w1) - n_s5)")
    P.add("n5_poss", S("n_o5", "poss"))
    P.add("n_w5p", "left(n_o5, length(n_o5) - n5_poss)")
    P.add("n5_plar", S("n_w5p", "lAr"))
    P.add("n5_lar", S("n_o5", "lAr"))
    P.add("n_s6", f"COALESCE({S('w1', 'nUn')}, {S('w1', 'ylA')})")
    P.add("n_o6c", "left(w1, length(w1) - n_s6)")
    P.add("n6_lar", S("n_o6c", "lAr"))
    P.add("n_w6l", "left(n_o6c, length(n_o6c) - n6_lar)")
    k6w, _ = _tr_kstep(P, "n_w6l", "k6_")
    P.add("n6_ps2", f"COALESCE({S('n_w6l', 'poss')}, {S('n_w6l', 'sU')})")
    P.add("n_w6p2", "left(n_w6l, length(n_w6l) - n6_ps2)")
    P.add("n6_lar2", S("n_w6p2", "lAr"))
    P.add("n6_ps", f"COALESCE({S('n_o6c', 'poss')}, {S('n_o6c', 'sU')})")
    P.add("n_w6p", "left(n_o6c, length(n_o6c) - n6_ps)")
    P.add("n6_plar", S("n_w6p", "lAr"))
    P.add("n_s7", S("w1", "lArI"))
    k8w, _ = _tr_kstep(P, "w1", "k8_")
    P.add("n_s9", f"COALESCE({S('w1', 'DA')}, {S('w1', 'yU')}, "
                  f"{S('w1', 'yA')})")
    P.add("n_o9", "left(w1, length(w1) - n_s9)")
    P.add("n9_poss", S("n_o9", "poss"))
    P.add("n_w9p", "left(n_o9, length(n_o9) - n9_poss)")
    P.add("n9_plar", S("n_w9p", "lAr"))
    P.add("n9_lar", S("n_o9", "lAr"))
    P.add("n_s10", f"COALESCE({S('w1', 'poss')}, {S('w1', 'sU')})")
    P.add("n_o10", "left(w1, length(w1) - n_s10)")
    P.add("n10_lar", S("n_o10", "lAr"))
    P.add("w2", f"""CASE
      WHEN n_lar1 IS NOT NULL THEN left(w1, length(w1) - n_lar1)
      WHEN n_nca IS NOT NULL THEN CASE
        WHEN n2_lari IS NOT NULL
             THEN left(n_w20, length(n_w20) - n2_lari)
        WHEN n2_ps IS NOT NULL THEN CASE WHEN n2_lar IS NOT NULL
             THEN left(n_w2p, length(n_w2p) - n2_lar) ELSE n_w2p END
        WHEN n2_lar0 IS NOT NULL
             THEN left(n_w20, length(n_w20) - n2_lar0)
        ELSE n_w20 END
      WHEN n_s3 IS NOT NULL AND (n3_lari IS NOT NULL OR n3_su IS NOT NULL
           OR {k3w} IS NOT NULL) THEN CASE
        WHEN n3_lari IS NOT NULL
             THEN left(w1, length(w1) - n_s3 - n3_lari)
        WHEN n3_su IS NOT NULL THEN CASE WHEN n3_lar IS NOT NULL
             THEN left(n_w3s, length(n_w3s) - n3_lar) ELSE n_w3s END
        ELSE {k3w} || right(w1, n_s3) END
      WHEN n_s4 IS NOT NULL AND (n4_su IS NOT NULL OR n4_lari IS NOT NULL)
           THEN CASE
        WHEN n4_su IS NOT NULL THEN CASE WHEN n4_lar IS NOT NULL
             THEN left(n_w4s, length(n_w4s) - n4_lar) ELSE n_w4s END
        ELSE w1 END
      WHEN n_s5 IS NOT NULL THEN CASE
        WHEN n5_poss IS NOT NULL THEN CASE WHEN n5_plar IS NOT NULL
             THEN left(n_w5p, length(n_w5p) - n5_plar) ELSE n_w5p END
        WHEN n5_lar IS NOT NULL THEN left(n_o5, length(n_o5) - n5_lar)
        ELSE n_o5 END
      WHEN n_s6 IS NOT NULL THEN CASE
        WHEN n6_lar IS NOT NULL AND {k6w} IS NOT NULL THEN n_w6l
        WHEN n6_lar IS NOT NULL THEN CASE
          WHEN n6_ps2 IS NOT NULL THEN CASE WHEN n6_lar2 IS NOT NULL
               THEN left(n_w6p2, length(n_w6p2) - n6_lar2) ELSE n_w6p2 END
          ELSE n_w6l END
        WHEN n6_ps IS NOT NULL THEN CASE WHEN n6_plar IS NOT NULL
             THEN left(n_w6p, length(n_w6p) - n6_plar) ELSE n_w6p END
        ELSE n_o6c END
      WHEN n_s7 IS NOT NULL THEN left(w1, length(w1) - n_s7)
      WHEN {k8w} IS NOT NULL THEN w1
      WHEN n_s9 IS NOT NULL THEN CASE
        WHEN n9_poss IS NOT NULL THEN CASE WHEN n9_plar IS NOT NULL
             THEN left(n_w9p, length(n_w9p) - n9_plar) ELSE n_w9p END
        WHEN n9_lar IS NOT NULL THEN left(n_o9, length(n_o9) - n9_lar)
        ELSE n_o9 END
      WHEN n_s10 IS NOT NULL THEN CASE WHEN n10_lar IS NOT NULL
           THEN left(n_o10, length(n_o10) - n10_lar) ELSE n_o10 END
      ELSE w1 END""")
    P.add("kpend", f"""CASE
      WHEN n_lar1 IS NOT NULL THEN TRUE
      WHEN n_nca IS NOT NULL THEN
           (n2_lari IS NULL AND ((n2_ps IS NOT NULL AND n2_lar IS NOT NULL)
            OR (n2_ps IS NULL AND n2_lar0 IS NOT NULL)))
      WHEN n_s3 IS NOT NULL AND (n3_lari IS NOT NULL OR n3_su IS NOT NULL
           OR {k3w} IS NOT NULL) THEN
           (n3_lari IS NULL AND n3_su IS NOT NULL AND n3_lar IS NOT NULL)
      WHEN n_s4 IS NOT NULL AND (n4_su IS NOT NULL OR n4_lari IS NOT NULL)
           THEN (n4_su IS NOT NULL AND n4_lar IS NOT NULL)
      WHEN n_s5 IS NOT NULL THEN
           ((n5_poss IS NOT NULL AND n5_plar IS NOT NULL)
            OR (n5_poss IS NULL AND n5_lar IS NOT NULL)
            OR (n5_poss IS NULL AND n5_lar IS NULL))
      WHEN n_s6 IS NOT NULL THEN
           CASE WHEN n6_lar IS NOT NULL AND {k6w} IS NOT NULL THEN TRUE
                WHEN n6_lar IS NOT NULL THEN
                     (n6_ps2 IS NOT NULL AND n6_lar2 IS NOT NULL)
                     OR n6_ps2 IS NULL
                WHEN n6_ps IS NOT NULL THEN n6_plar IS NOT NULL
                ELSE TRUE END
      WHEN n_s7 IS NOT NULL THEN FALSE
      WHEN {k8w} IS NOT NULL THEN TRUE
      WHEN n_s9 IS NOT NULL THEN
           (n9_poss IS NOT NULL OR n9_lar IS NOT NULL)
      WHEN n_s10 IS NOT NULL THEN n10_lar IS NOT NULL
      ELSE FALSE END""")


def _tr_stem_ctes() -> str:
    """turkish_stem as auto-staged MATERIALIZED CTEs over the distinct
    post-stop tokens (see _TrPipe)."""
    P = _TrPipe(["t0", "w"])
    _tr_phase_n(P)
    _tr_phase_ns(P)
    # ki chain: 4 end-anchored single-step iterations
    prev_w, prev_p = "w2", "kpend"
    for i in range(1, 5):
        kw, kc = _tr_kstep(P, prev_w, f"q{i}_")
        P.add(f"w2_{i}", f"CASE WHEN {prev_p} AND {kw} IS NOT NULL "
                         f"THEN {kw} ELSE {prev_w} END")
        P.add(f"kp_{i}", f"({prev_p} AND {kw} IS NOT NULL AND {kc})")
        prev_w, prev_p = f"w2_{i}", f"kp_{i}"
    # postlude: reserved word, append-U, final devoicing + the guards
    v = _TR_VS
    P.add("did", f"(length(regexp_replace(w, '[^{v}]', '', 'g')) >= 2 "
                 f"AND cont AND {prev_w} NOT IN ('ad', 'soyad'))")
    P.add("wz", f"CASE WHEN did THEN {prev_w} ELSE w END")
    lastv = f"regexp_extract(wz, '([{v}])[^{v}]*$', 1)"
    P.add("wa", f"""CASE WHEN did AND right(wz, 1) IN ('d', 'g')
         AND regexp_matches(wz, '[{v}]') THEN
      wz || CASE WHEN {lastv} IN ('a', 'ı') THEN 'ı'
                 WHEN {lastv} IN ('e', 'i') THEN 'i'
                 WHEN {lastv} IN ('o', 'u') THEN 'u'
                 ELSE 'ü' END
      ELSE wz END""")
    P.add("stem", """CASE WHEN NOT did THEN wa
      WHEN right(wa, 1) = 'b' THEN left(wa, length(wa) - 1) || 'p'
      WHEN right(wa, 1) = 'c' THEN left(wa, length(wa) - 1) || 'ç'
      WHEN right(wa, 1) = 'd' THEN left(wa, length(wa) - 1) || 't'
      WHEN right(wa, 1) = 'ğ' THEN left(wa, length(wa) - 1) || 'k'
      ELSE wa END""")
    ctes, last = P.emit("uniq", "trs")
    return f"""uniq AS (SELECT DISTINCT t0, t0 AS w FROM rkept),
{ctes},
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN {last} s USING (t0))"""

_TR_APOS = "regexp_replace(traw, '[''’].*', '')"
_TR_LOWER = ("lower(replace(regexp_replace(replace(ta, 'İ', 'i'), "
             "'I' || chr(775), 'i', 'g'), 'I', 'ı'))")


def turkish_preamble() -> str:
    from .analysis.standard import sql_tokens_expr_raw
    from .analysis.turkish import TURKISH_STOP_WORDS
    stops = _stop_list_sql(TURKISH_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr_raw('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok1 AS (SELECT doc_id, {_TR_APOS} AS ta FROM rtok0),
rtok AS (SELECT doc_id, {_TR_LOWER} AS t0 FROM rtok1),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
{_tr_stem_ctes()},
{_BM25_TAIL}"""


def bm25_turkish_topk(stemmed_term: str, k: int = 10) -> str:
    pre = turkish_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Tamil -------------
# Exact SQL mirror of analysis/tamil.tamil_stem (snowball Tamil), staged
# through _TrPipe. Loops (fix_endings, tense passes) unroll to fixed
# depths — each iteration strips at least one char, so the caps cover
# every realistic token; the Python implementation is exact and
# conformance-tested against the reference vectors.
_TA_FE_LOOP = 3
_TA_TENSE_PASSES = 3


def _ta_in(ch_expr: str, chars) -> str:
    return f"{ch_expr} IN ({_tr_lit_list(c for c, _ in chars)})"


def _ta_at(w: str, back: int) -> str:
    """Char `back` positions before the end (1 = last char)."""
    return (f"(CASE WHEN length({w}) >= {back} THEN "
            f"substr({w}, length({w}) - {back - 1}, 1) ELSE '' END)")


def _ta_fe_sql(w: str, vet: str) -> str:
    """One r_fix_ending application: word → word (unchanged = no match).
    ``vet`` is the B_found_vetrumai_urupu SQL expression."""
    from .analysis import tamil as ta
    strip = "left({w}, length({w}) - {k})"

    def st(k):
        return strip.format(w=w, k=k)

    whens = []
    by_len: dict[int, list] = {}
    for s, a in ta.A5:
        by_len.setdefault(len(s), []).append((s, a))
    for k in sorted(by_len, reverse=True):
        for s, a in by_len[k]:
            cond = f"right({w}, {k}) = '{s}'"
            b1 = _ta_at(w, k + 1)  # char just before the suffix
            if a == 1:
                val = st(k)
            elif a == 2:
                val = (f"CASE WHEN {_ta_in(b1, ta.A2)} THEN {st(k)} "
                       f"ELSE NULL END")
            elif a == 3:
                val = f"{st(k)} || 'ள்'"
            elif a == 4:
                val = f"{st(k)} || 'ல்'"
            elif a == 5:
                val = f"{st(k)} || 'டு'"
            elif a == 6:
                val = (f"CASE WHEN ({vet}) AND {b1} <> 'ை' "
                       f"THEN {st(k)} || 'ம்' ELSE NULL END")
            elif a == 7:
                val = f"{st(k)} || '்'"
            elif a == 8:
                val = (f"CASE WHEN NOT {_ta_in(b1, ta.A3)} THEN {st(k)} "
                       f"ELSE NULL END")
            else:  # a == 9: ங் → deleted after ை/், else → ம்
                val = (f"CASE WHEN {b1} IN ('ை', '்') THEN {st(k)} "
                       f"ELSE {st(k)} || 'ம்' END")
            whens.append(f"WHEN {cond} THEN {val}")
    a5 = "CASE " + " ".join(whens) + " ELSE NULL END"
    c1, c2, c3 = _ta_at(w, 2), _ta_at(w, 3), _ta_at(w, 4)
    pulli = f"""CASE WHEN right({w}, 1) <> '்' THEN NULL
      WHEN {_ta_in(c1, ta.A6)} THEN
        CASE WHEN {c2} = '்' AND {_ta_in(c3, ta.A7)}
             THEN {st(4)} ELSE {st(2)} END
      WHEN {_ta_in(c1, ta.A8)} AND {c2} = '்' THEN {st(2)}
      WHEN {_ta_in(c1, ta.A9)} THEN {st(1)}
      ELSE NULL END"""
    return (f"(CASE WHEN length({w}) <= 3 THEN {w} "
            f"ELSE COALESCE({a5}, {pulli}, {w}) END)")


def _ta_fe_loop(P: "_TrPipe", w: str, vet: str, p: str) -> str:
    """r_fix_endings: repeat fix_ending to a fixpoint (unrolled)."""
    cur = w
    for i in range(_TA_FE_LOOP):
        cur = P.add(f"{p}f{i}", _ta_fe_sql(cur, vet))
    return cur


def _ta_vastart(x: str) -> str:
    return (f"CASE WHEN left({x}, 2) = 'வோ' THEN 'ஓ' || substr({x}, 3) "
            f"WHEN left({x}, 2) = 'வொ' THEN 'ஒ' || substr({x}, 3) "
            f"WHEN left({x}, 2) = 'வு' THEN 'உ' || substr({x}, 3) "
            f"WHEN left({x}, 2) = 'வூ' THEN 'ஊ' || substr({x}, 3) "
            f"ELSE {x} END")


def _ta_stem_pipe() -> tuple[str, str]:
    """Full tamil_stem over column w → (CTE chain, final stage name).
    Final stage exposes ``stem``."""
    from .analysis import tamil as ta
    P = _TrPipe(["t0", "w"])
    f0 = P.add("taf0", _ta_fe_sql("w", "FALSE"))
    # question prefixes (எC் + va-start), pronoun prefixes ([அஇஉ]C்)
    cons = "கஙசஞதநபமயவ"
    qp = P.add("taqp", f"CASE WHEN length({f0}) > 4 AND "
                       f"regexp_matches({f0}, '^எ[{cons}]்') THEN "
                       f"{_ta_vastart(f'substr({f0}, 4)')} ELSE {f0} END")
    pp = P.add("tapp", f"CASE WHEN regexp_matches({qp}, "
                       f"'^[அஇஉ][{cons}]்') THEN "
                       f"{_ta_vastart(f'substr({qp}, 4)')} ELSE {qp} END")
    # question suffixes (ா/ே/ோ → ்) + fix_endings
    qs0 = P.add("taqs0", f"CASE WHEN length({pp}) > 4 AND "
                         f"right({pp}, 1) IN ('ா', 'ே', 'ோ') THEN "
                         f"left({pp}, length({pp}) - 1) || '்' "
                         f"ELSE {pp} END")
    qs1 = _ta_fe_loop(P, qs0, "FALSE", "taqs")
    qs = P.add("taqs", f"CASE WHEN length({pp}) > 4 THEN {qs1} "
                       f"ELSE {pp} END")
    # um (ும் → ்) + single fix_ending
    um0 = P.add("taum0", f"CASE WHEN length({qs}) > 4 AND "
                         f"right({qs}, 3) = 'ும்' THEN "
                         f"left({qs}, length({qs}) - 3) || '்' END")
    um1 = P.add("taum1", _ta_fe_sql(um0, "FALSE"))
    um = P.add("taum", f"COALESCE({um1}, {qs})")
    # common word endings (a_17) + fix_endings on success
    by_len: dict[int, list] = {}
    for s, a in ta.A17:
        by_len.setdefault(len(s), []).append((s, a))
    whens = []
    for k in sorted(by_len, reverse=True):
        for s, a in by_len[k]:
            cond = f"right({um}, {k}) = '{s}'"
            b1 = _ta_at(um, k + 1)
            stripped = f"left({um}, length({um}) - {k})"
            if a == 1:
                val = f"{stripped} || '்'"
            elif a == 2:  # ல்ல: a_16 vowel sign before → whole routine fails
                val = (f"CASE WHEN {_ta_in(b1, ta.A16)} THEN NULL "
                       f"ELSE {stripped} || '்' END")
            else:
                val = stripped
            whens.append(f"WHEN {cond} THEN {val}")
    cwe0 = P.add("tacwe0", f"CASE WHEN length({um}) <= 4 THEN NULL "
                           + " ".join(whens) + " ELSE NULL END")
    cwe1 = _ta_fe_loop(P, cwe0, "FALSE", "tacwe")
    cwe = P.add("tacwe", f"COALESCE({cwe1}, {um})")
    # vetrumai urupukal (a_20 / ai branch) + ின் strip + fix_endings(vet)
    by_len = {}
    for s, a in ta.A20:
        by_len.setdefault(len(s), []).append((s, a))
    whens = []
    for k in sorted(by_len, reverse=True):
        for s, a in by_len[k]:
            cond = f"right({cwe}, {k}) = '{s}'"
            b1 = _ta_at(cwe, k + 1)
            stripped = f"left({cwe}, length({cwe}) - {k})"
            if a == 1:
                val = stripped
            elif a == 2:
                val = f"{stripped} || '்'"
            elif a == 3:
                val = (f"CASE WHEN {b1} = 'ம' THEN NULL "
                       f"ELSE {stripped} || '்' END")
            elif a == 4:
                val = (f"CASE WHEN length({cwe}) >= 7 "
                       f"THEN {stripped} || '்' ELSE NULL END")
            elif a == 5:
                val = (f"CASE WHEN {_ta_in(b1, ta.A18)} THEN NULL "
                       f"ELSE {stripped} || '்' END")
            elif a == 6:
                val = (f"CASE WHEN {_ta_in(b1, ta.A19)} THEN NULL "
                       f"ELSE {stripped} END")
            else:  # 7: ீ → ி
                val = f"{stripped} || 'ி'"
            whens.append(f"WHEN {cond} THEN {val}")
    v20 = P.add("tav20", "CASE " + " ".join(whens) + " ELSE NULL END")
    vc1, vc2 = _ta_at(cwe, 2), _ta_at(cwe, 3)
    vai = P.add("tavai", f"""CASE WHEN right({cwe}, 1) <> 'ை' THEN NULL
      WHEN {_ta_in(vc1, ta.A21)} THEN
        CASE WHEN {vc2} = '்'
             THEN left({cwe}, length({cwe}) - 1) || '்' ELSE NULL END
      ELSE left({cwe}, length({cwe}) - 1) || '்' END""")
    vet0 = P.add("tavet0", f"CASE WHEN length({cwe}) > 4 "
                           f"THEN COALESCE({v20}, {vai}) END")
    vfound = P.add("tavfound", f"({vet0} IS NOT NULL)")
    vin = P.add("tavin", f"CASE WHEN right({vet0}, 3) = 'ின்' THEN "
                         f"left({vet0}, length({vet0}) - 3) || '்' "
                         f"ELSE {vet0} END")
    vfe = _ta_fe_loop(P, vin, vfound, "tavet")
    vet = P.add("tavet", f"COALESCE({vfe}, {cwe})")
    # plural suffix (a_13, no length gate)
    pl = P.add("tapl", f"""CASE
      WHEN right({vet}, 6) = 'ுங்கள்' THEN
        CASE WHEN {_ta_in(_ta_at(vet, 7), ta.A12)}
             THEN left({vet}, length({vet}) - 6) || 'ுங்'
             ELSE left({vet}, length({vet}) - 6) || '்' END
      WHEN right({vet}, 5) = 'ட்கள்'
           THEN left({vet}, length({vet}) - 5) || 'ள்'
      WHEN right({vet}, 5) = 'ற்கள்'
           THEN left({vet}, length({vet}) - 5) || 'ல்'
      WHEN right({vet}, 3) = 'கள்'
           THEN left({vet}, length({vet}) - 3)
      ELSE {vet} END""")
    # command suffixes (பி / வி)
    cmd = P.add("tacmd", f"CASE WHEN length({pl}) > 4 AND "
                         f"right({pl}, 2) IN ('பி', 'வி') THEN "
                         f"left({pl}, length({pl}) - 2) ELSE {pl} END")
    # tense passes (a_25 / a_26 halves, each followed by fix_endings)
    cur = cmd
    for t in range(_TA_TENSE_PASSES):
        by_len = {}
        for s, a in ta.A25:
            by_len.setdefault(len(s), []).append((s, a))
        whens = []
        for k in sorted(by_len, reverse=True):
            for s, a in by_len[k]:
                cond = f"right({cur}, {k}) = '{s}'"
                b1 = _ta_at(cur, k + 1)
                stripped = f"left({cur}, length({cur}) - {k})"
                if a == 1:
                    val = stripped
                elif a == 2:
                    val = (f"CASE WHEN {_ta_in(b1, ta.A23)} THEN NULL "
                           f"ELSE {stripped} END")
                elif a == 3:
                    val = (f"CASE WHEN {_ta_in(b1, ta.A24)} THEN NULL "
                           f"ELSE {stripped} END")
                elif a == 4:
                    val = (f"CASE WHEN {b1} = 'ச' THEN NULL "
                           f"ELSE {stripped} || '்' END")
                elif a == 5:
                    val = f"{stripped} || '்'"
                else:  # 6: கு needs a pulli before
                    val = (f"CASE WHEN {b1} = '்' THEN {stripped} "
                           f"ELSE NULL END")
                whens.append(f"WHEN {cond} THEN {val}")
        h1 = P.add(f"tat{t}h1", "CASE " + " ".join(whens)
                                + " ELSE NULL END")
        w1 = P.add(f"tat{t}w1", f"COALESCE({h1}, {cur})")
        by_len = {}
        for s, a in ta.A26:
            by_len.setdefault(len(s), []).append((s, a))
        whens = []
        for k in sorted(by_len, reverse=True):
            for s, _a in by_len[k]:
                whens.append(f"WHEN right({w1}, {k}) = '{s}' THEN "
                             f"left({w1}, length({w1}) - {k})")
        h2 = P.add(f"tat{t}h2", "CASE " + " ".join(whens)
                                + " ELSE NULL END")
        w2 = P.add(f"tat{t}w2", f"COALESCE({h2}, {w1})")
        found = P.add(f"tat{t}f", f"({h1} IS NOT NULL OR "
                                  f"{h2} IS NOT NULL)")
        fe = _ta_fe_loop(P, w2, vfound, f"tat{t}")
        gated = P.add(f"tat{t}g",
                      f"CASE WHEN length({cur}) > 4 THEN {fe} "
                      f"ELSE {cur} END")
        if t == 0:
            cur = gated
            prev_found = found
        else:
            cur = P.add(f"tat{t}out",
                        f"CASE WHEN {prev_found} THEN {gated} "
                        f"ELSE {cur} END")
            prev_found = P.add(f"tat{t}pf", f"({prev_found} AND {found})")
    # length gate: <= 4 chars after the first fix_ending → original token
    P.add("stem", f"CASE WHEN length({f0}) <= 4 THEN w ELSE {cur} END")
    return P.emit("uniq", "tas")


def tamil_preamble() -> str:
    from .analysis.tamil import TAMIL_STOP_WORDS
    stops = _stop_list_sql(TAMIL_STOP_WORDS)
    digit = _SQL_DIGIT_FOLD.format(col="traw")
    indic = _indic_compose_sql(digit)
    ctes, last = _ta_stem_pipe()
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
uniqr AS (SELECT DISTINCT traw FROM rtok0),
pnorm AS (SELECT traw, {indic} AS t0 FROM uniqr),
rtok AS (SELECT r.doc_id, n.t0 FROM rtok0 r JOIN pnorm n USING (traw)),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0, t0 AS w FROM rkept),
{ctes},
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.stem AS term FROM rkept k JOIN {last} s USING (t0)),
{_BM25_TAIL}"""


def bm25_tamil_topk(stemmed_term: str, k: int = 10) -> str:
    pre = tamil_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ Thai --------------
# Recursive-CTE mirror of analysis/thai.thai_segments: the syllable
# state machine (states E/P/O/F/X/D, action codes 1-9) scans char by
# char with one-char lookahead; emitted tokens accumulate into a
# chr(31)-separated string that splits back into the token list.
def _th_act_sql(c: str, nc: str, st: str) -> str:
    dep = (f"({c} = 'ั' OR ({c} BETWEEN 'ำ' AND 'ฺ') "
           f"OR ({c} BETWEEN '็' AND '๎'))")
    ndep = (f"({nc} = 'ั' OR ({nc} BETWEEN 'ำ' AND 'ฺ') "
            f"OR ({nc} BETWEEN '็' AND '๎') "
            f"OR {nc} IN ('ะ', 'า', 'ๅ'))")
    return f"""CASE
      WHEN {c} BETWEEN '๐' AND '๙' THEN
           CASE WHEN {st} = 'D' THEN 1 ELSE 5 END
      WHEN {c} IN ('ฯ', 'ๆ') THEN 6
      WHEN {c} BETWEEN 'เ' AND 'ไ' THEN 7
      WHEN {c} BETWEEN 'ก' AND 'ฮ' THEN
           CASE WHEN {st} = 'P' THEN 2
                WHEN {st} = 'O' AND NOT {ndep} THEN 3
                ELSE 8 END
      WHEN {dep} THEN CASE WHEN {st} IN ('P', 'O', 'F') THEN 1 ELSE 9 END
      WHEN {c} IN ('ะ', 'า', 'ๅ') THEN
           CASE WHEN {st} = 'P' THEN 2 WHEN {st} = 'O' THEN 1 ELSE 9 END
      ELSE CASE WHEN {st} = 'X' THEN 1 ELSE 4 END
      END"""


def _th_scan_ctes(src: str) -> str:
    """CTEs turning ``{src}(traw)`` (distinct raw Thai-bearing tokens)
    into ``thsegs(traw, seg)``. Call within WITH RECURSIVE."""
    act = _th_act_sql("c", "nc", "st")
    flush = "CASE WHEN cur <> '' THEN cur || chr(31) ELSE '' END"
    return f"""thscan(traw, pos, st, cur, outp) AS (
  SELECT traw, 1, 'E', '', '' FROM {src}
  UNION ALL
  SELECT traw, pos + 1,
    CASE WHEN act = 2 OR act = 8 THEN 'O' WHEN act = 3 THEN 'F'
         WHEN act = 4 THEN 'X' WHEN act = 5 THEN 'D'
         WHEN act = 6 THEN 'E' WHEN act = 7 THEN 'P' ELSE st END,
    CASE WHEN act IN (1, 2, 3) THEN cur || c
         WHEN act IN (4, 5, 7, 8) THEN c
         WHEN act = 6 THEN '' ELSE cur END,
    CASE WHEN act IN (4, 5, 7, 8) THEN outp || {flush}
         WHEN act = 6 THEN outp || {flush} || c || chr(31)
         ELSE outp END
  FROM (SELECT traw, pos, st, cur, outp,
          substr(traw, pos, 1) AS c, substr(traw, pos + 1, 1) AS nc,
          ({act}) AS act
        FROM thscan WHERE pos <= length(traw))
),
thdone AS (SELECT traw, outp || {flush} AS toks
           FROM thscan WHERE pos = length(traw) + 1),
thsegs AS (SELECT traw, seg FROM (
  SELECT traw, unnest(string_split(toks, chr(31))) AS seg FROM thdone)
  WHERE seg <> '')"""


def _th_post(col: str) -> str:
    """LowerCase + DecimalDigit on one token column."""
    return _SQL_DIGIT_FOLD.format(col=f"lower({col})")


def thai_preamble() -> str:
    from .analysis.standard import sql_tokens_expr_raw
    from .analysis.thai import THAI_STOP_WORDS
    stops = _stop_list_sql(THAI_STOP_WORDS)
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr_raw('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
thsrc AS (SELECT DISTINCT traw FROM rtok0
          WHERE regexp_matches(traw, '[\\x{{0E00}}-\\x{{0E7F}}]')),
{_th_scan_ctes('thsrc')},
rsegs AS (
  SELECT r.doc_id, s.seg FROM rtok0 r JOIN thsegs s USING (traw)
  UNION ALL
  SELECT doc_id, traw AS seg FROM rtok0
  WHERE NOT regexp_matches(traw, '[\\x{{0E00}}-\\x{{0E7F}}]')),
rtok AS (SELECT doc_id, {_th_post('seg')} AS t0 FROM rsegs),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_thai_topk(term: str, k: int = 10) -> str:
    pre = thai_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def thai_token_counts(words: list[str]) -> str:
    """Global (term, cnt) over the Thai chain applied to a synthesized
    per-doc Thai string (same synthesis in the queries() entry)."""
    from .analysis.thai import THAI_STOP_WORDS
    stops = _stop_list_sql(THAI_STOP_WORDS)
    kn = len(words)
    arr = "[" + ", ".join(f"'{w}'" for w in words) + "]"
    synth = (f"({arr})[(doc_id % {kn}) + 1] || ' ' || "
             f"({arr})[((doc_id // 3) % {kn}) + 1] || "
             f"({arr})[((doc_id // 2) % {kn}) + 1]")
    from .analysis.standard import sql_tokens_expr_raw
    toks = sql_tokens_expr_raw("synth")
    return f"""
WITH RECURSIVE corpus AS ({CORPUS_SQL}),
synthsrc AS (SELECT doc_id, {synth} AS synth FROM corpus),
toksrc AS (SELECT doc_id, {toks} AS toks FROM synthsrc),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
thsrc AS (SELECT DISTINCT traw FROM rtok0
          WHERE regexp_matches(traw, '[\\x{{0E00}}-\\x{{0E7F}}]')),
{_th_scan_ctes('thsrc')},
rsegs AS (
  SELECT r.doc_id, s.seg FROM rtok0 r JOIN thsegs s USING (traw)
  UNION ALL
  SELECT doc_id, traw AS seg FROM rtok0
  WHERE NOT regexp_matches(traw, '[\\x{{0E00}}-\\x{{0E7F}}]')),
rtok AS (SELECT doc_id, {_th_post('seg')} AS t0 FROM rsegs),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops}))
SELECT t0 AS term, count(*) AS cnt FROM rkept
GROUP BY t0 ORDER BY t0
"""


# ------------------------------------------------------ Japanese ----------
# Kuromoji-semantics chain (analysis/japanese.py). Over the Latin corpus
# the lattice reduces exactly to character-class-run tokenization: ASCII
# letters/digits group per char.def (ALPHA/NUMERIC, group=true), unknown
# POS tags are not stoptags, the Japanese stop list never matches Latin
# tokens, and the katakana stem is a no-op — verified by an exhaustive
# corpus sweep in tests/test_japanese_entry.py. The lattice itself
# (dictionary paths, connection costs, search-mode decomposition) is
# covered by ja_token_counts whose expectations come from the REFERENCE's
# own test vectors (TestJapaneseAnalyzer.kt / TestSearchMode.kt), not
# from this engine.

def japanese_preamble() -> str:
    return f"""
WITH corpus AS ({CORPUS_SQL}),
rtok AS (
  SELECT doc_id,
         lower(unnest(regexp_extract_all(text, '[A-Za-z]+|[0-9]+'))) AS t0
  FROM corpus
),
rkept AS (SELECT doc_id, t0 FROM rtok),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_japanese_topk(term: str, k: int = 10) -> str:
    pre = japanese_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def ja_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the full kuromoji lattice chain applied to
    a synthesized per-doc Japanese phrase (phrase = vectors[doc_id % k]).
    The expected token lists are the REFERENCE's published test vectors
    (TestJapaneseAnalyzer.kt testBasics/testDecomposition,
    TestSearchMode.kt SEGMENTATION_TESTS) — an independent ground truth
    for the Viterbi segmentation, not an echo of the engine."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ------------------------------------------------------ Korean ------------
# Nori-semantics chain (analysis/korean.py). Same Latin-corpus reduction
# as Japanese: ASCII letter/digit runs group per char.def (SL/SN, not
# stop tags), punctuation dropped, lowercase — swept in
# tests/test_korean_analyzer.py.

def bm25_korean_topk(term: str, k: int = 10) -> str:
    return bm25_japanese_topk(term, k)  # identical class-run reduction


def ko_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the full nori lattice chain applied to a
    synthesized per-doc Korean phrase (phrase = vectors[doc_id % k]).
    The first expectations are the REFERENCE's published vectors
    (TestKoreanAnalyzer.kt / TestKoreanTokenizer.kt)."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ------------------------------------------------------ Chinese -----------
def zh_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the full smartcn HHMM chain applied to a
    synthesized per-doc Chinese phrase. Expectations are the REFERENCE's
    published vectors (TestSmartChineseAnalyzer.kt)."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ------------------------------------------------------ Porter (en) -------
# Exact SQL mirror of analysis/porter.py (Porter 1980 + the two Lucene
# additions), via the staged pipe. The consonant/vowel mask is computed
# once per word version as a positional string ('c'/'v' per char): the
# y-as-consonant rule resolves left-to-right, so a prefix's mask is the
# mask's prefix — every measure()/vowel-in-stem/cvc test becomes a
# substr over it.

def _po_mask(P: "_TrPipe", w: str, name: str) -> str:
    # uppercase placeholders: literal 'c'/'v' in the word must not
    # collide with mask letters (e.g. 'giv' -> 'CVC', not 'cvv')
    m0 = P.add(f"{name}_r0",
               f"regexp_replace(regexp_replace({w}, '[aeiou]', 'V', 'g'), "
               f"'[^Vy]', 'C', 'g')")
    cur = P.add(f"{name}_r1", f"regexp_replace({m0}, '^y', 'C')")
    for i in range(3):  # each double-pass resolves 2 chars of a y-run
        a = P.add(f"{name}_r2{i}", f"regexp_replace({cur}, 'Cy', 'CV', 'g')")
        cur = P.add(f"{name}_r3{i}",
                    f"regexp_replace({a}, 'Vy', 'VC', 'g')")
    return P.add(name, f"lower(replace({cur}, 'y', 'C'))")


def _po_m(mask_expr: str) -> str:
    """measure m = count of v+c+ groups in the (prefix) mask."""
    return f"len(regexp_extract_all({mask_expr}, 'v+c+'))"


def _po_pre(mask: str, w: str, k: int) -> str:
    """mask of the stem with a k-char suffix stripped."""
    return f"substr({mask}, 1, length({w}) - {k})"


def _porter_cols(P: "_TrPipe", t0: str) -> str:
    """Emit the full Porter cascade over column ``t0``; returns the final
    stem column. Mirrors analysis/porter.py step for step."""
    L = f"length({t0})"
    # ---- step 1a: plurals
    s1a = P.add("po_s1a", f"""CASE
      WHEN {t0} LIKE '%sses' THEN left({t0}, {L} - 2)
      WHEN {t0} LIKE '%ies' THEN left({t0}, {L} - 2)
      WHEN {t0} LIKE '%s' AND substr({t0}, {L} - 1, 1) <> 's'
        THEN left({t0}, {L} - 1)
      ELSE {t0} END""")
    mk1 = _po_mask(P, s1a, "po_mk1")
    La = f"length({s1a})"
    # ---- step 1b: -eed / -ed / -ing
    f_eed = P.add("po_feed", f"({s1a} LIKE '%eed')")
    f_ed = P.add("po_fed", f"({s1a} LIKE '%ed' AND "
                           f"{_po_pre(mk1, s1a, 2)} LIKE '%v%')")
    f_ing = P.add("po_fing", f"({s1a} LIKE '%ing' AND "
                             f"{_po_pre(mk1, s1a, 3)} LIKE '%v%')")
    base = P.add("po_b1", f"""CASE
      WHEN {f_eed} THEN CASE
        WHEN {_po_m(_po_pre(mk1, s1a, 3))} > 0 THEN left({s1a}, {La} - 1)
        ELSE {s1a} END
      WHEN {f_ed} THEN left({s1a}, {La} - 2)
      WHEN {f_ing} THEN left({s1a}, {La} - 3)
      ELSE {s1a} END""")
    f2 = P.add("po_f2", f"(NOT {f_eed} AND ({f_ed} OR {f_ing}))")
    mkb = _po_mask(P, base, "po_mkb")
    Lb = f"length({base})"
    dbl = (f"({Lb} >= 2 AND right({base}, 1) = substr({base}, {Lb} - 1, 1) "
           f"AND right({mkb}, 1) = 'c')")
    cvc_end = (f"(right({mkb}, 3) = 'cvc' AND right({base}, 1) "
               f"NOT IN ('w', 'x', 'y'))")
    w1b = P.add("po_w1b", f"""CASE WHEN NOT {f2} THEN {base}
      WHEN {base} LIKE '%at' OR {base} LIKE '%bl' OR {base} LIKE '%iz'
        THEN {base} || 'e'
      WHEN {dbl} AND right({base}, 1) NOT IN ('l', 's', 'z')
        THEN left({base}, {Lb} - 1)
      WHEN {_po_m(mkb)} = 1 AND {cvc_end} THEN {base} || 'e'
      ELSE {base} END""")
    # ---- step: terminal y -> i when a vowel is in the stem
    mky = _po_mask(P, w1b, "po_mky")
    wy = P.add("po_wy", f"""CASE
      WHEN {w1b} LIKE '%y' AND {_po_pre(mky, w1b, 1)} LIKE '%v%'
        THEN left({w1b}, length({w1b}) - 1) || 'i'
      ELSE {w1b} END""")

    def suffix_map_step(src: str, mask: str, pairs, min_m: int,
                        name: str, ion_special: bool = False) -> str:
        Ls = f"length({src})"
        branches = []
        if ion_special:
            pre3 = f"left({src}, {Ls} - 3)"
            branches.append(
                f"WHEN {src} LIKE '%ion' THEN CASE WHEN {Ls} >= 4 "
                f"AND substr({src}, {Ls} - 3, 1) IN ('s', 't') "
                f"AND {_po_m(_po_pre(mask, src, 3))} > {min_m} "
                f"THEN {pre3} ELSE {src} END")
        for suf, rep in pairs:
            k = len(suf)
            pre = f"left({src}, {Ls} - {k})"
            out = f"{pre} || '{rep}'" if rep else pre
            branches.append(
                f"WHEN {src} LIKE '%{suf}' THEN CASE "
                f"WHEN {_po_m(_po_pre(mask, src, k))} > {min_m} "
                f"THEN {out} ELSE {src} END")
        body = "\n      ".join(branches)
        return P.add(name, f"""CASE WHEN {Ls} <= 1 THEN {src}
      {body}
      ELSE {src} END""")

    from .analysis.porter import PorterStemmer
    mk2 = _po_mask(P, wy, "po_mk2")
    w2 = suffix_map_step(wy, mk2, PorterStemmer._STEP2, 0, "po_w2")
    mk3 = _po_mask(P, w2, "po_mk3")
    w3 = suffix_map_step(w2, mk3, PorterStemmer._STEP3, 0, "po_w3")
    mk4 = _po_mask(P, w3, "po_mk4")
    w4 = suffix_map_step(w3, mk4, [(s, "") for s in PorterStemmer._STEP4],
                         1, "po_w4", ion_special=True)
    # ---- step 5: final -e, then -ll (m over the PRE-strip word — the
    # reference keeps j at the original end for both checks)
    mk5 = _po_mask(P, w4, "po_mk5")
    L4 = f"length({w4})"
    a5 = P.add("po_a5", _po_m(mk5))
    cvc_km1 = (f"(right({_po_pre(mk5, w4, 1)}, 3) = 'cvc' AND "
               f"substr({w4}, {L4} - 1, 1) NOT IN ('w', 'x', 'y'))")
    w5 = P.add("po_w5", f"""CASE
      WHEN {w4} LIKE '%e' AND ({a5} > 1 OR ({a5} = 1 AND NOT {cvc_km1}))
        THEN left({w4}, {L4} - 1)
      ELSE {w4} END""")
    L5 = f"length({w5})"
    w6 = P.add("po_w6", f"""CASE
      WHEN right({w5}, 1) = 'l' AND {L5} >= 2
        AND substr({w5}, {L5} - 1, 1) = 'l' AND {a5} > 1
        THEN left({w5}, {L5} - 1)
      ELSE {w5} END""")
    return P.add("po_stem",
                 f"CASE WHEN length({t0}) <= 2 THEN {t0} ELSE {w6} END")


def _porter_stem_ctes(token_filter_sql: str = "") -> str:
    """CTE chain: distinct kept tokens -> staged Porter -> rterms.
    ``token_filter_sql`` optionally guards which tokens get stemmed
    (others pass through), e.g. digits in the smartcn chain."""
    P = _TrPipe(["t0"])
    stem = _porter_cols(P, "t0")
    ctes, last = P.emit("uniq", "pos")
    if token_filter_sql:
        final = (f"CASE WHEN {token_filter_sql} THEN s.{stem} "
                 f"ELSE s.t0 END")
    else:
        final = f"s.{stem}"
    return f"""uniq AS (SELECT DISTINCT t0 FROM rkept),
{ctes},
rterms AS MATERIALIZED (
  SELECT k.doc_id, {final} AS term FROM rkept k JOIN {last} s USING (t0))"""


def english_preamble() -> str:
    from .analysis.standard import ENGLISH_STOP_WORDS, sql_tokens_expr
    stops = _stop_list_sql(ENGLISH_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id,
                regexp_replace(traw, '[''’]s$', '') AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
{_porter_stem_ctes()},
{_BM25_TAIL}"""


def bm25_english_topk(stemmed_term: str, k: int = 10) -> str:
    pre = english_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def kstem_preamble() -> str:
    """English chain with KStem in the stemmer slot (analysis/kstem.py,
    ref KStemFilter.kt). On the synthetic corpus KStem is the IDENTITY:
    every kept token either is a KStem dictionary head word (dict hit
    with null root returns the word unchanged, KStemmer.kt:717-724) —
    verified per vocabulary word at all SFs in tests/test_kstem.py — or
    contains a non a-z character and passes the filter's alpha gate
    (KStemmer.kt:728-731). So rterms = rkept; the cascade itself is
    exercised by the kstem_token_counts vectors."""
    from .analysis.standard import ENGLISH_STOP_WORDS
    stops = _stop_list_sql(ENGLISH_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id,
                regexp_replace(traw, '[''’]s$', '') AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_kstem_topk(term: str, k: int = 10) -> str:
    pre = kstem_preamble().replace("__LT_VALUES__", _lt_values())
    return pre + f""",
scored AS ({term_scored_cte(repr(term))})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def kstem_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the KStem chain applied to a synthesized
    per-doc English phrase (phrase = vectors[doc_id % k]). The expected
    stems are INDEPENDENT ground truth: the reference's live test vector
    (TestKStemFilterFactory.kt:23-30 "bricks"->"brick"), exact pairs from
    the shipped conflation/exception tables (KStemmer.kt:786-1299), and
    single-lookup derivations whose dictionary membership is the shipped
    KStemData — not an echo of the engine."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


def chinese_preamble() -> str:
    """smartcn over the Latin corpus: letter runs (lower+porter) and
    digit runs; ASCII punctuation collapses to the ',' delimiter which
    the stop list removes (tests/test_chinese_analyzer.py sweeps the
    reduction)."""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
rtok0 AS (
  SELECT doc_id,
         lower(unnest(regexp_extract_all(text, '[A-Za-z]+|[0-9]+'))) AS t0
  FROM corpus
),
rkept AS (SELECT doc_id, t0 FROM rtok0),
{_porter_stem_ctes("NOT regexp_matches(s.t0, '^[0-9]')")},
{_BM25_TAIL}"""


def bm25_chinese_topk(stemmed_term: str, k: int = 10) -> str:
    pre = chinese_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------------ French ------------
# Exact SQL mirror of analysis/french.py french_light_stem (UniNE light
# stemmer): plural -x/-s with the -aux special case, the ordered branch
# cascade (three branches fall through with a mutated word), then the
# normalization pass. ASCII scope note: the duplicate-letter collapse
# enumerates [a-z] (RE2 has no backreferences); the corpus tokens are
# ASCII post-fold, and equivalence is swept in tests/test_french_sql.py.

_FR_FOLD_FROM = "àáâôèéêùûîç"
_FR_FOLD_TO = "aaaoeeeuuic"


def _fr_norm_cols(P: "_TrPipe", w: str, tag: str) -> str:
    L = f"length({w})"
    g1 = P.add(f"{tag}_g1", f"({L} > 4)")
    dup = f"translate({w}, '{_FR_FOLD_FROM}', '{_FR_FOLD_TO}')"
    for ch in "abcdefghijklmnopqrstuvwxyz":
        dup = f"regexp_replace({dup}, '{ch}{{2,}}', '{ch}', 'g')"
    n1 = P.add(f"{tag}_n1", f"CASE WHEN {g1} THEN {dup} ELSE {w} END")
    n2 = P.add(f"{tag}_n2",
               f"CASE WHEN length({n1}) > 4 AND {n1} LIKE '%ie' "
               f"THEN left({n1}, length({n1}) - 2) ELSE {n1} END")
    g2 = P.add(f"{tag}_g2", f"(length({n2}) > 4)")
    n3 = P.add(f"{tag}_n3", f"CASE WHEN {g2} AND {n2} LIKE '%r' "
                            f"THEN left({n2}, length({n2}) - 1) "
                            f"ELSE {n2} END")
    n4 = P.add(f"{tag}_n4", f"CASE WHEN {g2} AND {n3} LIKE '%e' "
                            f"THEN left({n3}, length({n3}) - 1) "
                            f"ELSE {n3} END")
    n5 = P.add(f"{tag}_n5", f"CASE WHEN {g2} AND {n4} LIKE '%e' "
                            f"THEN left({n4}, length({n4}) - 1) "
                            f"ELSE {n4} END")
    L5 = f"length({n5})"
    return P.add(f"{tag}_n6", f"""CASE WHEN {g2} AND {L5} >= 2
      AND right({n5}, 1) = substr({n5}, {L5} - 1, 1)
      AND regexp_matches(right({n5}, 1), '[a-zà-ÿ]')
      THEN left({n5}, {L5} - 1) ELSE {n5} END""")


# (min_len, suffix, result_expr(n, w), returns) — result_expr uses n for
# length({w}); None result = strip len(suffix)
_FR_BRANCHES: list = [
    (9, "issement", "left({w}, {n} - 7) || 'r'", True),
    (8, "issant",   "left({w}, {n} - 5) || 'r'", True),
    (6, "ement",    "__EMENT__", True),
    (11, "ficatrice", "left({w}, {n} - 7) || 'er'", True),
    (10, "ficateur", "left({w}, {n} - 6) || 'er'", True),
    (9, "catrice",  "left({w}, {n} - 7) || 'quer'", True),
    (8, "cateur",   "left({w}, {n} - 6) || 'quer'", True),
    (8, "atrice",   "left({w}, {n} - 6) || 'er'", True),
    (7, "ateur",    "left({w}, {n} - 5) || 'er'", True),
    (6, "trice",    "left({w}, {n} - 4) || 'eur'", False),
    (5, "ième",     "left({w}, {n} - 4)", True),
    (7, "teuse",    "left({w}, {n} - 3) || 'r'", True),
    (6, "teur",     "left({w}, {n} - 2) || 'r'", True),
    (5, "euse",     "left({w}, {n} - 2)", True),
    (8, "ère",      "left({w}, {n} - 3) || 'er'", True),
    (7, "ive",      "left({w}, {n} - 2) || 'f'", True),
    (4, "folle",    "left({w}, {n} - 3) || 'u'", True),
    (4, "molle",    "left({w}, {n} - 3) || 'u'", True),
    (9, "nnelle",   "left({w}, {n} - 5)", True),
    (9, "nnel",     "left({w}, {n} - 3)", True),
    (4, "ète",      "left({w}, {n} - 3) || 'et'", False),
    (8, "ique",     "left({w}, {n} - 4)", False),
    (8, "esse",     "left({w}, {n} - 3)", True),
    (7, "inage",    "left({w}, {n} - 3)", True),
    (9, "isation",  "__ISATION__", True),
    (9, "isateur",  "left({w}, {n} - 7)", True),
    (8, "ation",    "left({w}, {n} - 5)", True),
    (8, "ition",    "left({w}, {n} - 5)", True),
]


def _fr_stem_cols(P: "_TrPipe", t0: str) -> str:
    L0 = f"length({t0})"
    # plural -x / -s (with -aux -> -al)
    aux = (f"({L0} > 5 AND {t0} LIKE '%x' "
           f"AND substr({t0}, {L0} - 2, 1) = 'a' "
           f"AND substr({t0}, {L0} - 1, 1) = 'u' "
           f"AND substr({t0}, {L0} - 3, 1) <> 'e')")
    wp1 = P.add("fr_wp1", f"""CASE
      WHEN {aux} THEN left({t0}, {L0} - 2) || 'l'
      WHEN {L0} > 5 AND {t0} LIKE '%x' THEN left({t0}, {L0} - 1)
      ELSE {t0} END""")
    wp2 = P.add("fr_wp2", f"CASE WHEN length({wp1}) > 3 AND {wp1} "
                          f"LIKE '%x' THEN left({wp1}, length({wp1}) - 1) "
                          f"ELSE {wp1} END")
    w = P.add("fr_wp3", f"CASE WHEN length({wp2}) > 3 AND {wp2} "
                        f"LIKE '%s' THEN left({wp2}, length({wp2}) - 1) "
                        f"ELSE {wp2} END")
    done = P.add("fr_d0", "FALSE")
    for i, (min_len, suf, res, returns) in enumerate(_FR_BRANCHES):
        n = f"length({w})"
        if res == "__EMENT__":
            t = f"left({w}, {n} - 4)"
            expr = (f"CASE WHEN length({t}) > 3 AND {t} LIKE '%ive' "
                    f"THEN left({t}, length({t}) - 2) || 'f' "
                    f"ELSE {t} END")
        elif res == "__ISATION__":
            t = f"left({w}, {n} - 7)"
            expr = (f"CASE WHEN length({t}) > 5 AND {t} LIKE '%ual' "
                    f"THEN left({t}, length({t}) - 2) || 'el' "
                    f"ELSE {t} END")
        else:
            expr = res.format(w=w, n=n)
        cond = (f"(NOT {done} AND {n} > {min_len} "
                f"AND {w} LIKE '%{suf}')")
        new_w = P.add(f"fr_w{i}",
                      f"CASE WHEN {cond} THEN {expr} ELSE {w} END")
        if returns:
            done = P.add(f"fr_d{i + 1}", f"({done} OR {cond})")
        w = new_w
    return _fr_norm_cols(P, w, "fr_nm")


def _fr_elide_sql(col: str) -> str:
    arts = "|".join(sorted(
        "l m t qu n s j d c jusqu quoiqu lorsqu puisqu".split()))
    return (f"CASE WHEN regexp_matches({col}, '^({arts})''.') "
            f"THEN regexp_replace({col}, '^[^'']*''', '') "
            f"WHEN regexp_matches({col}, '^({arts})’.') "
            f"THEN regexp_replace({col}, '^[^’]*’', '') "
            f"ELSE {col} END")


def french_preamble() -> str:
    from .analysis.french import FRENCH_STOP_WORDS
    from .analysis.standard import sql_tokens_expr
    stops = _stop_list_sql(FRENCH_STOP_WORDS)
    P = _TrPipe(["t0"])
    stem = _fr_stem_cols(P, "t0")
    ctes, last = P.emit("uniq", "frs")
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id, {_fr_elide_sql('traw')} AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok WHERE t0 NOT IN ({stops})),
uniq AS (SELECT DISTINCT t0 FROM rkept),
{ctes},
rterms AS MATERIALIZED (
  SELECT k.doc_id, s.{stem} AS term FROM rkept k JOIN {last} s USING (t0)),
{_BM25_TAIL}"""


def bm25_french_topk(stemmed_term: str, k: int = 10) -> str:
    pre = french_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{stemmed_term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def geo_polygon_all(polygon: tuple, holes: tuple = ()) -> str:
    """LatLonPoint.newPolygonQuery mirror: crossing-number ray cast
    unrolled per edge (horizontal edges contribute nothing), holes
    subtract. Same arithmetic as searcher._ring_contains."""
    def ring_sql(ring) -> str:
        terms = []
        n = len(ring)
        for i in range(n):
            y1, x1 = ring[i]
            y2, x2 = ring[(i + 1) % n]
            if y1 == y2:
                continue
            terms.append(
                f"(CASE WHEN (({y1} > lat) <> ({y2} > lat)) AND "
                f"lon < ({x2} - ({x1})) * (lat - ({y1})) / "
                f"({y2} - ({y1})) + ({x1}) THEN 1 ELSE 0 END)")
        return "((" + " + ".join(terms) + ") % 2 = 1)"

    cond = ring_sql(polygon)
    for hole in holes:
        cond += f" AND NOT {ring_sql(hole)}"
    return _geo_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM geo
WHERE {cond}
ORDER BY doc_id
"""


def geo_line_all(line: tuple, buffer_deg: float) -> str:
    """GeoLineQuery mirror (``geo/Line.kt`` + ``geo/Line2D.kt`` planar
    proximity): min over edges of clamped point-to-segment squared
    distance <= buffer^2. Same expression tree and the same precomputed
    float64 edge constants as searcher._geo_line_docs, so DuckDB and
    numpy agree bit-for-bit; line vertices sit off the synthetic
    coordinate grid so no doc lands on the decision boundary."""
    edges = []
    pts = tuple(line)
    for i in range(len(pts) - 1):
        y1, x1 = pts[i]
        y2, x2 = pts[i + 1]
        dy, dx = y2 - y1, x2 - x1
        ll = dy * dy + dx * dx
        if ll == 0.0:  # degenerate edge = point
            edges.append(f"((lat - ({y1!r})) * (lat - ({y1!r})) + "
                         f"(lon - ({x1!r})) * (lon - ({x1!r})))")
            continue
        t = (f"least(1.0, greatest(0.0, "
             f"((lat - ({y1!r})) * ({dy!r}) + "
             f"(lon - ({x1!r})) * ({dx!r})) / ({ll!r})))")
        edges.append(
            f"((lat - (({y1!r}) + {t} * ({dy!r}))) * "
            f"(lat - (({y1!r}) + {t} * ({dy!r}))) + "
            f"(lon - (({x1!r}) + {t} * ({dx!r}))) * "
            f"(lon - (({x1!r}) + {t} * ({dx!r}))))")
    best = "least(" + ", ".join(edges) + ")" if len(edges) > 1 else edges[0]
    return _geo_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM geo
WHERE {best} <= {buffer_deg * buffer_deg!r}
ORDER BY doc_id
"""


def geo_multipolygon_all(polygons: tuple) -> str:
    """WKT MULTIPOLYGON -> SHOULD-of-polygons mirror: crossing-number
    containment in ANY member (members are disjoint, so the boolean
    SHOULD sum stays 1.0). Same per-ring arithmetic as
    geo_polygon_all."""
    def ring_sql(ring) -> str:
        terms = []
        n = len(ring)
        for i in range(n):
            y1, x1 = ring[i]
            y2, x2 = ring[(i + 1) % n]
            if y1 == y2:
                continue
            terms.append(
                f"(CASE WHEN (({y1} > lat) <> ({y2} > lat)) AND "
                f"lon < ({x2} - ({x1})) * (lat - ({y1})) / "
                f"({y2} - ({y1})) + ({x1}) THEN 1 ELSE 0 END)")
        return "((" + " + ".join(terms) + ") % 2 = 1)"

    conds = []
    for shell, holes in polygons:
        cond = ring_sql(shell)
        for hole in holes:
            cond += f" AND NOT {ring_sql(hole)}"
        conds.append(f"({cond})")
    return _geo_coords_cte() + f"""
SELECT doc_id, url, CAST(1.0 AS DOUBLE) AS score
FROM geo
WHERE {" OR ".join(conds)}
ORDER BY doc_id
"""


# --------------------------------------------- ICU folding / phonetic -----
def icu_fold_token_counts(words: list[str]) -> str:
    """Global (term, cnt) over the ICU-folding chain applied to a
    synthesized per-doc accented string (word = words[doc_id % k] twice,
    second occurrence uppercased). SQL mirror: strip_accents + lower —
    equal to the NFKD/casefold/NFKC fold on this vocabulary (verified
    per word in tests/test_foldphon.py)."""
    k = len(words)
    arr = "[" + ", ".join(f"'{w}'" for w in words) + "]"
    synth = (f"({arr})[(doc_id % {k}) + 1] || ' ' || "
             f"upper(({arr})[((doc_id // 2) % {k}) + 1])")
    return f"""
WITH corpus AS ({CORPUS_SQL}),
synth AS (SELECT doc_id, {synth} AS s FROM corpus),
toks AS (SELECT doc_id,
                strip_accents(lower(unnest(string_split(s, ' ')))) AS term
         FROM synth)
SELECT term, count(*) AS cnt FROM toks GROUP BY term ORDER BY term
"""


def metaphone_token_counts(vectors: list[tuple[str, str, str]]) -> str:
    """Global (term, cnt) over the PhoneticFilter(inject=true) chain:
    token + Double Metaphone primary (+ alternate when distinct). The
    expected codes are commons-codec's PUBLISHED test vectors — an
    independent ground truth for the encoder."""
    k = len(vectors)
    rows = []
    for i, (word, pri, alt) in enumerate(vectors):
        toks = [word, pri] + ([alt] if alt != pri else [])
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ------------------------------------------------------ Polish ------------
# Morfologik (PoliMorf) chain: token -> dictionary lemma(s), pass-through
# when absent. Over the 31-term synthetic corpus the dictionary mapping
# reduces to the fixed table below — these are PoliMorf facts (the public
# BSD dictionary's entries, checkable upstream), not echoed engine
# output; the decoder itself is validated against published
# inflection->lemma pairs in tests/test_polish_analyzer.py.
_PL_CORPUS_LEMMAS = {
    "a": ["a"], "big": ["biga"], "data": ["data"], "dup": ["dupa"],
    "order": ["order"], "part": ["parta", "part"],
    "sort": ["sorta", "sort"], "table": ["tabla"],
}


def polish_preamble() -> str:
    from .analysis.standard import sql_tokens_expr
    branches = "\n      ".join(
        "WHEN '{}' THEN [{}]".format(
            w, ", ".join(f"'{m}'" for m in lemmas))
        for w, lemmas in _PL_CORPUS_LEMMAS.items())
    case = f"""CASE t0
      {branches}
      ELSE [t0] END"""
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, unnest({case}) AS t0 FROM rtok0),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_polish_topk(term: str, k: int = 10) -> str:
    pre = polish_preamble().replace("__LT_VALUES__", _lt_values())
    lit = f"'{term}'"
    return pre + f""",
scored AS ({term_scored_cte(lit)})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def pl_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the Morfologik chain applied to a
    synthesized per-doc Polish phrase. Expectations are published
    PoliMorf inflection->lemma pairs (independent dictionary data)."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


def uk_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the Ukrainian chain applied to a
    synthesized per-doc phrase. Expectations are the REFERENCE's own
    published vectors (TestUkrainianAnalyzer.kt:24-100) — an independent
    ground truth for the normalization + stop + lemma chain."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


def bible_token_counts(
        vectors: list[tuple[str, str, list[str]]]) -> str:
    """Global (lang, term, cnt) over the 17 Bible analyzer chains
    applied to a synthesized per-doc verse (verse = vectors[doc_id % k]).
    Expectations are the REFERENCE's own TestBible*Analyzer.kt vectors —
    an independent ground truth for the sacred-name canonicalization,
    keyword-gated stemming and charfilter term-rewrite compositions."""
    k = len(vectors)
    rows = []
    for i, (lang, _, toks) in enumerate(vectors):
        for t in toks:
            rows.append("({}, '{}', '{}')".format(
                i, lang, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, lang, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.lang, e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.lang, e.term ORDER BY e.lang, e.term
"""


def compound_token_counts(
        vectors: list[tuple[str, str, list[str]]]) -> str:
    """Global (cfg, term, cnt) over the compound decomposition filters
    applied to a synthesized per-doc phrase. Expectations are the
    REFERENCE's own TestCompoundWordTokenFilter.kt vectors."""
    k = len(vectors)
    rows = []
    for i, (cfg, _, toks) in enumerate(vectors):
        for t in toks:
            rows.append("({}, '{}', '{}')".format(
                i, cfg, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, cfg, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.cfg, e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.cfg, e.term ORDER BY e.cfg, e.term
"""


# ------------------------------------------------------ Hebrew ------------
def bm25_hebrew_topk(term: str, k: int = 10) -> str:
    """HebMorph chain over the Latin corpus: ASCII tokens pass through
    the lemmatizer untouched (no Hebrew letters), so the chain reduces
    exactly to the standard preamble (tests/test_hebrew_analyzer.py
    sweeps the reduction)."""
    return bm25_term_topk(term, k)


def he_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over the HebMorph chain applied to a
    synthesized per-doc Hebrew phrase. Expectations are standard Hebrew
    morphology facts carried by the public hspell dictionary
    (plural/prefix/verb lemmatization — independently checkable)."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ----------------------------------------------- Amharic / Oromo ----------
# Horn chains over the Latin corpus: the only non-identity stems on the
# 31-term synthetic vocabulary are the fixed maps below (HornMorpho
# lexicon facts / light-suffix rules, checkable upstream); everything
# else passes through the standard tokens.
_AM_CORPUS_STEMS = {"small": "mall"}
_OM_CORPUS_STEMS = {"column": "colum", "join": "joi", "scan": "sca"}


def _horn_preamble(stems: dict) -> str:
    from .analysis.standard import sql_tokens_expr
    branches = "\n      ".join(
        f"WHEN '{w}' THEN '{s}'" for w, s in stems.items())
    case = f"CASE t0\n      {branches}\n      ELSE t0 END"
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('text')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS t0 FROM toksrc),
rkept AS (SELECT doc_id, {case} AS t0 FROM rtok0),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}"""


def bm25_amharic_topk(term: str, k: int = 10) -> str:
    pre = _horn_preamble(_AM_CORPUS_STEMS).replace("__LT_VALUES__",
                                                   _lt_values())
    return pre + f""",
scored AS ({term_scored_cte(f"'{term}'")})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def bm25_oromo_topk(term: str, k: int = 10) -> str:
    pre = _horn_preamble(_OM_CORPUS_STEMS).replace("__LT_VALUES__",
                                                   _lt_values())
    return pre + f""",
scored AS ({term_scored_cte(f"'{term}'")})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def horn_token_counts(phrase_tokens: list[tuple[str, list[str]]]) -> str:
    """Global (term, cnt) over a Horn chain applied to a synthesized
    per-doc phrase; expectations are the REFERENCE's own stemmer test
    vectors (TestAmharicStemmer.kt / TestOromoStemmer.kt)."""
    k = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for t in toks:
            rows.append("({}, '{}')".format(i, t.replace("'", "''")))
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


def bm25_native_cjk_topk(phrase_tokens: list[tuple[str, list[str]]],
                         term: str, k: int = 10) -> str:
    """Full float64 BM25 over NATIVE CJK text: each doc's token list is
    the concatenation of two reference-vector phrases' expected tokens
    (phrase_a = vectors[doc_id % k], phrase_b = vectors[(doc_id//3) % k])
    — the lattice segmentation itself is pinned by the REFERENCE's
    published vectors, and the ranking math is recomputed from those
    expected tokens."""
    kn = len(phrase_tokens)
    rows = []
    for i, (_, toks) in enumerate(phrase_tokens):
        for j, t in enumerate(toks):
            rows.append(f"({i}, {j}, '{t}')")
    values = ", ".join(rows)
    pre = f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, ord, term) AS (VALUES {values}),
assigned AS (SELECT doc_id, doc_id % {kn} AS pa,
                    (doc_id // 3) % {kn} AS pb FROM corpus),
rkept AS (
  SELECT a.doc_id, e.term AS t0 FROM assigned a
  JOIN expected e ON e.pidx = a.pa
  UNION ALL
  SELECT a.doc_id, e.term FROM assigned a
  JOIN expected e ON e.pidx = a.pb),
rterms AS MATERIALIZED (SELECT doc_id, t0 AS term FROM rkept),
{_BM25_TAIL}""".replace("__LT_VALUES__", _lt_values())
    return pre + f""",
scored AS ({term_scored_cte(f"'{term}'")})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


# ------------------------------------------------ misc token filters ------
def misc_filter_counts() -> str:
    """(filter, term, cnt) over three misc filters applied to the
    standard corpus tokens — the SQL computes each transform directly
    (LengthFilter 3..6, TruncateTokenFilter 4, CapitalizationFilter)."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT unnest(toks) AS t FROM toksrc),
rows_ AS (
  SELECT 'len3_6' AS filter, t AS term FROM tok
  WHERE length(t) BETWEEN 3 AND 6
  UNION ALL
  SELECT 'trunc4', left(t, 4) FROM tok
  UNION ALL
  SELECT 'cap', upper(left(t, 1)) || lower(substr(t, 2)) FROM tok
)
SELECT filter, term, count(*) AS cnt FROM rows_
GROUP BY filter, term ORDER BY filter, term
"""


def misc_filter_counts_v2() -> str:
    """(filter, term, cnt) over the r5 session-8 misc filters. Each
    transform is recomputed in SQL: date validity via TRY_STRPTIME (an
    independent calendar check against PatternDateRecognizer),
    delimited term-frequency parsing, list slicing for
    LimitTokenPosition, CASE mirrors of KeywordMarker+capitalization and
    ConditionalTokenFilter, array_to_string for ConcatenateGraph, and
    the DropIfFlagged bit test."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT doc_id, unnest(toks) AS t FROM toksrc),
rows_ AS (
  SELECT 'date' AS filter, d AS term FROM (
    SELECT unnest([
      (doc_id % 14 + 1)::VARCHAR || '/' || (doc_id % 31 + 1)::VARCHAR
        || '/2006',
      (doc_id % 12 + 1)::VARCHAR || '/' || (doc_id % 28 + 1)::VARCHAR
        || '/2006']) AS d
    FROM corpus) WHERE TRY_STRPTIME(d, '%m/%d/%Y') IS NOT NULL
  UNION ALL
  SELECT 'dtf', 'w' || (doc_id % 7)::VARCHAR || ':'
                || (doc_id % 5 + 1)::VARCHAR FROM corpus
  UNION ALL
  SELECT 'dtf', 'plain:1' FROM corpus
  UNION ALL
  SELECT 'limitpos3', unnest(toks[1:3]) FROM toksrc
  UNION ALL
  SELECT 'kwcap', CASE WHEN t IN ('the', 'spark') THEN t
                       ELSE upper(left(t, 1)) || lower(substr(t, 2)) END
  FROM tok
  UNION ALL
  SELECT 'condtrunc', CASE WHEN t LIKE '%x%' THEN t
                           ELSE left(t, 4) END FROM tok
  UNION ALL
  SELECT 'concat5', array_to_string(toks[1:5], '-') FROM toksrc
  WHERE len(toks) > 0
  UNION ALL
  SELECT 'dropflag', t FROM tok WHERE ((length(t) % 8) & 5) <> 5
)
SELECT filter, term, count(*) AS cnt FROM rows_
GROUP BY filter, term ORDER BY filter, term
"""


def common_grams_query_counts() -> str:
    """(term, cnt) mirror of CommonGramsQueryFilter over the standard
    tokens with the English stop set as common words: a bigram is
    emitted at every adjacent pair touching a common word; a unigram
    survives only when not followed by its own bigram and not the
    trailing member of the final bigram."""
    from .analysis.standard import ENGLISH_STOP_WORDS, sql_tokens_expr
    stops = _stop_list_sql(ENGLISH_STOP_WORDS)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT doc_id, unnest(toks) AS t,
               unnest(range(1, len(toks) + 1)) AS ord, len(toks) AS n
        FROM toksrc WHERE len(toks) > 0),
marked AS (
  SELECT doc_id, t, ord, n,
         lead(t) OVER w AS nxt, lag(t) OVER w AS prv
  FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY ord)),
f AS (SELECT *,
        (nxt IS NOT NULL AND (t IN ({stops}) OR nxt IN ({stops})))
          AS gram_after,
        (prv IS NOT NULL AND (prv IN ({stops}) OR t IN ({stops})))
          AS gram_before
      FROM marked),
out_ AS (
  SELECT t || '_' || nxt AS term FROM f WHERE gram_after
  UNION ALL
  SELECT t FROM f
  WHERE NOT gram_after AND NOT (ord = n AND gram_before)
)
SELECT term, count(*) AS cnt FROM out_ GROUP BY term ORDER BY term
"""


def edge_ngram_counts() -> str:
    """(term, cnt) mirror of EdgeNGramAnalyzer(2, 3): per standard
    token, left(t, 2) when length >= 2 and left(t, 3) when length >= 3
    (tokens shorter than min_n drop — TestEdgeNGramTokenFilter)."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT unnest(toks) AS t FROM toksrc),
grams AS (
  SELECT left(t, 2) AS term FROM tok WHERE length(t) >= 2
  UNION ALL
  SELECT left(t, 3) FROM tok WHERE length(t) >= 3
)
SELECT term, count(*) AS cnt FROM grams GROUP BY term ORDER BY term
"""


def payload_filter_counts() -> str:
    """(filter, term, cnt) mirror of the payload token filters. Every
    payload is recomputed from the raw delimited string / offsets /
    type rule in SQL, so the engine's encode->decode round-trip
    (PayloadHelper big-endian float32/int32) is independently checked
    at the value level."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT doc_id, unnest(toks) AS t FROM toksrc),
rows_ AS (
  SELECT 'dpf_id' AS filter,
         't' || (doc_id % 5)::VARCHAR || ':P' || (doc_id % 3)::VARCHAR
           AS term FROM corpus
  UNION ALL
  SELECT 'dpf_id', 'bare:-' FROM corpus
  UNION ALL
  SELECT 'dpf_float', 'w' || (doc_id % 7)::VARCHAR || ':'
                       || (doc_id % 9)::VARCHAR || '.5' FROM corpus
  UNION ALL
  SELECT 'dpf_int', 'n' || (doc_id % 4)::VARCHAR || ':'
                    || (doc_id % 100)::VARCHAR FROM corpus
  UNION ALL
  SELECT 'offsets', 'w' || (doc_id % 5)::VARCHAR || ':0:2' FROM corpus
  UNION ALL
  SELECT 'offsets', 'yy:3:5' FROM corpus
  UNION ALL
  SELECT 'numpay', t || CASE WHEN t = 'spark' THEN ':3.0'
                             ELSE ':-' END FROM tok
  UNION ALL
  SELECT 'typepay', t || CASE WHEN t = 'spark' THEN ':D'
                              ELSE ':word' END FROM tok
)
SELECT filter, term, count(*) AS cnt FROM rows_
GROUP BY filter, term ORDER BY filter, term
"""


def scandinavian_counts(vectors: list[tuple[str, str, str]]) -> str:
    """(term, cnt) over the Scandinavian normalize+fold filters applied
    to a synthesized per-doc word. Expectations are the reference's OWN
    published equivalence examples (ScandinavianFoldingFilter.kt /
    ScandinavianNormalizationFilter docs)."""
    k = len(vectors)
    rows = []
    for i, (_, norm, fold) in enumerate(vectors):
        rows.append(f"({i}, 'N:' || '{norm}')")
        rows.append(f"({i}, 'F:' || '{fold}')")
    values = ", ".join(rows)
    return f"""
WITH corpus AS ({CORPUS_SQL}),
expected(pidx, term) AS (VALUES {values}),
assigned AS (SELECT doc_id % {k} AS pidx FROM corpus)
SELECT e.term, count(*) AS cnt
FROM assigned a JOIN expected e USING (pidx)
GROUP BY e.term ORDER BY e.term
"""


# ------------------------------------------- per-field analyzers ----------
def bm25_perfield_title_topk(stemmed_term: str, k: int = 10) -> str:
    """PerFieldAnalyzerWrapper role: the index carries text (standard
    chain) and title (ENGLISH chain — possessive/stop/porter); this
    scores the English-analyzed TITLE field. Per-field stats: docCount
    counts docs with >= 1 title term (Terms.getDocCount), like the
    bm25_title oracle."""
    from .analysis.standard import ENGLISH_STOP_WORDS, sql_tokens_expr
    stops = _stop_list_sql(ENGLISH_STOP_WORDS)
    tail = _BM25_TAIL.replace(
        "stats AS (SELECT count(*) AS doc_count",
        "stats AS (SELECT count(*) FILTER (WHERE dl > 0) AS doc_count")
    pre = f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS MATERIALIZED (
  SELECT doc_id, url, {sql_tokens_expr('title')} AS toks FROM corpus
),
rtok0 AS (SELECT doc_id, unnest(toks) AS traw FROM toksrc),
rtok AS (SELECT doc_id,
                regexp_replace(traw, '[''’]s$', '') AS t0 FROM rtok0),
rkept AS (SELECT doc_id, t0 FROM rtok
          WHERE t0 <> '' AND t0 NOT IN ({stops})),
{_porter_stem_ctes()},
{tail}""".replace("__LT_VALUES__", _lt_values())
    return pre + f""",
scored AS ({term_scored_cte(f"'{stemmed_term}'")})
SELECT s.doc_id, c.url, s.score
FROM scored s JOIN corpus c USING (doc_id)
ORDER BY s.score DESC, s.doc_id LIMIT {k}
"""


def bm25_classic_analyzer_topk(term: str, k: int = 10) -> str:
    """ClassicAnalyzer over the Latin corpus: plain word tokens reduce
    to the standard chain (swept in tests/test_classic_entry... — the
    corpus has no classic-specific constructs), so the standard BM25
    preamble is the exact mirror. ClassicAnalyzer keeps stopwords? No —
    it applies the same English stop set only when constructed with
    one; the entry builds WITHOUT stops to match the standard chain."""
    return bm25_term_topk(term, k)


def doc_fingerprint_counts() -> str:
    """FingerprintFilter [ref: miscellaneous/FingerprintFilter.kt] over
    each document: one token = the sorted DISTINCT terms joined by a
    space (the Solr-style dedup key); output = (fingerprint, doc count).
    SQL computes the same with string_agg(DISTINCT ... ORDER BY)."""
    from .analysis.standard import sql_tokens_expr
    return f"""
WITH corpus AS ({CORPUS_SQL}),
toksrc AS (SELECT doc_id, {sql_tokens_expr('text')} AS toks FROM corpus),
tok AS (SELECT doc_id, unnest(toks) AS t FROM toksrc),
fp AS (SELECT doc_id, string_agg(DISTINCT t, ' ' ORDER BY t) AS fingerprint
       FROM tok GROUP BY doc_id)
SELECT fingerprint, count(*) AS cnt FROM fp
GROUP BY fingerprint ORDER BY fingerprint
"""


def lm_bigram_scores(min_count: int = 2, vocab_cap: int = 24,
                     bigram_cap: int = 600) -> str:
    """Mirror of pipelines.lmfilter.lm_bigram_scores: corpus bigram +
    unigram count model (count >= min_count, cut at the Zipf head by
    (count desc, gram asc)), then per-doc OOV-token and known-bigram
    rates. All counts integer; the two ratios are single integer
    divisions (hash-exact)."""
    return preamble() + f""",
bg AS (
  SELECT doc_id, term AS w1,
         lead(term) OVER (PARTITION BY doc_id ORDER BY pos) AS w2
  FROM tokens
),
bgr AS (SELECT doc_id, w1 || ' ' || w2 AS gram FROM bg WHERE w2 IS NOT NULL),
known AS (SELECT gram FROM (SELECT gram, count(*) AS n FROM bgr GROUP BY gram)
          WHERE n >= {min_count} ORDER BY n DESC, gram LIMIT {bigram_cap}),
vocab AS (SELECT term FROM (SELECT term, count(*) AS n FROM tokens GROUP BY term)
          WHERE n >= {min_count} ORDER BY n DESC, term LIMIT {vocab_cap}),
dstat AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(*) FILTER (WHERE term NOT IN (SELECT term FROM vocab)) AS n_oov
  FROM tokens GROUP BY doc_id
),
bstat AS (
  SELECT doc_id, count(*) AS n_bigrams,
         count(*) FILTER (WHERE gram IN (SELECT gram FROM known)) AS n_known
  FROM bgr GROUP BY doc_id
)
SELECT t.doc_id,
       COALESCE(d.n_tokens, 0) AS n_tokens,
       COALESCE(d.n_oov, 0) AS n_oov,
       COALESCE(b.n_bigrams, 0) AS n_bigrams,
       COALESCE(b.n_known, 0) AS n_known,
       COALESCE(d.n_oov, 0) /
         CAST(GREATEST(COALESCE(d.n_tokens, 0), 1) AS DOUBLE) AS oov_ratio,
       COALESCE(b.n_known, 0) /
         CAST(GREATEST(COALESCE(b.n_bigrams, 0), 1) AS DOUBLE) AS known_ratio
FROM toksrc t
LEFT JOIN dstat d USING (doc_id) LEFT JOIN bstat b USING (doc_id)
"""


def lm_rarity_filter(min_known: float, max_oov: float) -> str:
    """Gate over lm_bigram_scores (pipelines.lmfilter.lm_rarity_filter)."""
    return f"""
WITH scores AS ({lm_bigram_scores()})
SELECT doc_id, n_tokens FROM scores
WHERE known_ratio >= {min_known} AND oov_ratio <= {max_oov}
"""


def dsir_weights(bucket_hex: int = 2, target_lt: str = "20000000") -> str:
    """Mirror of pipelines.lmfilter.dsir_weights: md5-bucketed token
    features, target = the deterministic md5(doc_id) 1/8 sample; per-doc
    integer dot products against the target/corpus bucket histograms and
    the single-divide importance ratio (float ops: two exact int->double
    conversions, one multiply each side, one divide — hash-exact)."""
    return preamble() + f""",
tgt AS (SELECT doc_id FROM corpus
        WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < '{target_lt}'),
tb AS (
  SELECT substr(md5(term), 1, {bucket_hex}) AS bucket,
         CAST(count(*) AS BIGINT) AS n_c,
         CAST(count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM tgt))
              AS BIGINT) AS n_t
  FROM tokens GROUP BY bucket
),
tot AS (SELECT CAST(sum(n_t) AS BIGINT) AS tot_t,
               CAST(sum(n_c) AS BIGINT) AS tot_c FROM tb),
dsc AS (
  SELECT t.doc_id,
         CAST(sum(tb.n_t) AS BIGINT) AS score_t,
         CAST(sum(tb.n_c) AS BIGINT) AS score_c
  FROM tokens t JOIN tb ON tb.bucket = substr(md5(t.term), 1, {bucket_hex})
  GROUP BY t.doc_id
)
SELECT c.doc_id,
       COALESCE(d.score_t, 0) AS score_t,
       COALESCE(d.score_c, 0) AS score_c,
       (CAST(COALESCE(d.score_t, 0) AS DOUBLE) * CAST(tot.tot_c AS DOUBLE)) /
       (CAST(GREATEST(COALESCE(d.score_c, 0), 1) AS DOUBLE) *
        CAST(tot.tot_t AS DOUBLE)) AS weight
FROM corpus c LEFT JOIN dsc d USING (doc_id), tot
"""


def tfidf_top_terms(k: int = 3) -> str:
    """Mirror of pipelines.lmfilter.tfidf_top_terms: per-doc top-k terms
    by freq * ln((N+1)/(df+1)), ties by term asc. One ln + one multiply
    per row (no float sums) — the BM25 float-exactness contract."""
    return preamble() + f""",
dft AS (SELECT term, count(*) AS df FROM postings GROUP BY term),
nn AS (SELECT count(*) AS n FROM corpus),
sc AS (
  SELECT p.doc_id, p.term,
         p.freq * ln((nn.n + 1.0) / (d.df + 1.0)) AS tfidf
  FROM postings p JOIN dft d USING (term), nn
),
rk AS (
  SELECT doc_id, term, tfidf,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tfidf DESC, term) AS rnk
  FROM sc
)
SELECT doc_id, term, CAST(rnk AS BIGINT) AS "rank", tfidf
FROM rk WHERE rnk <= {k}
"""


def highlight_term_topk(term: str, k: int = 10, before: int = 3,
                        width: int = 8) -> str:
    """Mirror of the highlighter entry (search/highlight.py): top-k BM25
    docs for the term, each with the width-token analyzed-stream window
    starting ``before`` tokens before the first term occurrence
    (1-based inclusive DuckDB slice == the engine's 0-based half-open
    slice)."""
    lit = f"'{term}'"
    pos = f"GREATEST(list_position(x.toks, {lit}) - {before}, 1)"
    return preamble() + f""",
scored AS ({term_scored_cte(lit)}),
top AS (
  SELECT s.doc_id, c.url, s.score
  FROM scored s JOIN corpus c USING (doc_id)
  ORDER BY s.score DESC, s.doc_id LIMIT {k}
)
SELECT t.doc_id, t.url, t.score,
       array_to_string(x.toks[{pos} : {pos} + {width - 1}], ' ') AS snippet
FROM top t JOIN toksrc x USING (doc_id)
ORDER BY t.score DESC, t.doc_id
"""


def mlt_topk(seed_doc: int, n_terms: int = 3, k: int = 10) -> str:
    """Mirror of the MoreLikeThis entry: the seed doc's top-n_terms terms
    by freq * ln((N+1)/(df+1)) (ties term asc) become SHOULD clauses in
    that order; per-doc score is the clause-order left fold of the
    per-term BM25 scores (list_reduce over array_agg ORDER BY rk — the
    same ((s0+s1)+s2) order the engine's accumulator uses); the seed doc
    is excluded from the ranking."""
    score = score_sql("p.freq", "n.dln", idf_sql("ts.df"))
    return preamble() + f""",
dft AS (SELECT term, count(*) AS df FROM postings GROUP BY term),
nn AS (SELECT count(*) AS n FROM corpus),
seed AS (
  SELECT term, row_number() OVER (
      ORDER BY sp.freq * ln((nn.n + 1.0) / (d.df + 1.0)) DESC, term) AS rk
  FROM (SELECT term, freq FROM postings WHERE doc_id = {seed_doc}) sp
  JOIN dft d USING (term), nn
  ORDER BY rk LIMIT {n_terms}
),
persc AS (
  SELECT p.doc_id, s.rk, {score} AS score
  FROM seed s
  JOIN tstats ts ON ts.term = s.term
  JOIN postings p ON p.term = s.term
  JOIN normd n ON n.doc_id = p.doc_id
),
agg AS (
  SELECT doc_id,
         list_reduce(array_agg(score ORDER BY rk), (a, b) -> a + b)
           AS score
  FROM persc GROUP BY doc_id
)
SELECT a.doc_id, c.url, a.score
FROM agg a JOIN corpus c USING (doc_id)
WHERE a.doc_id <> {seed_doc}
ORDER BY a.score DESC, a.doc_id LIMIT {k}
"""


def _cluster_assign_cte(k: int = 8) -> str:
    """Shared CTE body: per-vector cosine vs the k seed centroids
    (vec_id < k) and the FIRST-argmax cluster (the CASE chain fires at
    the first index whose similarity >= every later one — exactly
    np.argmax's first-max tie-break)."""
    sims = ",\n".join(
        f"       list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
        f"(SELECT CAST(embedding AS DOUBLE[]) FROM embeddings "
        f"WHERE vec_id = {j})) AS s{j}" for j in range(k))
    arms = " ".join(
        "WHEN " + " AND ".join(f"s{j} >= s{i}" for i in range(j + 1, k))
        + f" THEN {j}" for j in range(k - 1))
    return f"""
sims AS (
  SELECT e.vec_id,
{sims}
  FROM embeddings e
),
assign AS (
  SELECT vec_id,
         CAST(CASE {arms} ELSE {k - 1} END AS BIGINT) AS cluster
  FROM sims
)"""


def cluster_assign(k: int = 8) -> str:
    """Mirror of pipelines.ann.cluster_assign."""
    return f"WITH {_cluster_assign_cte(k)} SELECT vec_id, cluster FROM assign"


def cluster_sizes(k: int = 8) -> str:
    """Mirror of pipelines.ann.cluster_sizes."""
    return (f"WITH {_cluster_assign_cte(k)} "
            f"SELECT cluster, count(*) AS n FROM assign GROUP BY cluster")


def dup_span_extents(L: int = 8) -> str:
    """Mirror of pipelines.scrub.dup_span_extents: overlapping L-gram
    md5-16 keys, positions whose gram repeats corpus-wide, per-doc
    interval union of [p, p+L) into maximal extents (island break where
    the gap exceeds L; lag NULL on the first row falls to the ELSE 1
    arm)."""
    return preamble() + f""",
pos AS (
  SELECT doc_id, unnest(generate_series(0, len(toks) - {L})) AS p, toks
  FROM toksrc WHERE len(toks) >= {L}
),
gr AS (
  SELECT doc_id, p,
         substr(md5(array_to_string(toks[p + 1 : p + {L}], ' ')), 1, 16)
           AS h
  FROM pos
),
dp AS (
  SELECT doc_id, p FROM gr
  WHERE h IN (SELECT h FROM gr GROUP BY h HAVING count(*) >= 2)
),
isl AS (
  SELECT doc_id, p,
         CASE WHEN p <= lag(p) OVER (PARTITION BY doc_id ORDER BY p) + {L}
              THEN 0 ELSE 1 END AS brk
  FROM dp
),
grp AS (
  SELECT doc_id, p,
         sum(brk) OVER (PARTITION BY doc_id ORDER BY p) AS g
  FROM isl
)
SELECT doc_id, min(p) AS start_pos, max(p) + {L} AS end_pos
FROM grp GROUP BY doc_id, g
"""

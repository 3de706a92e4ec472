"""Multi-term / synonym / dismax / range-filter operators + query parser.

Brute-force oracles over the raw corpus texts (TestBooleanQuery /
BaseSimilarityTestCase assertion style, SURVEY §5)."""

from collections import Counter

import numpy as np
import pytest

from lucene_kmp_ray.analysis import tokenize
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, BoostQuery,
                                   DisjunctionMaxQuery, FuzzyQuery, Occur,
                                   PhraseQuery, PrefixQuery, RangeFilterQuery,
                                   RegexpQuery, Searcher, SynonymQuery,
                                   TermInSetQuery, TermQuery, TermRangeQuery,
                                   WildcardQuery, parse_query)
from lucene_kmp_ray.search.query import _edit_distance_le


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(IndexReader(built_index))


@pytest.fixture(scope="module")
def toks(corpus_texts):
    return [tokenize(t) for t in corpus_texts]


def _docs_of(td):
    return sorted(h.doc_id for h in td.score_docs)


# ---------------------------------------------------------------- multiterm
def test_prefix_query(searcher, toks):
    exp = sorted(i for i, t in enumerate(toks)
                 if any(w.startswith("sp") for w in t))
    td = searcher.search(PrefixQuery("sp"), k=10_000)
    assert td.total_hits == len(exp) and _docs_of(td) == exp
    assert all(h.score == 1.0 for h in td.score_docs)  # constant score


def test_wildcard_query(searcher, toks):
    import fnmatch
    pat = "s*k"
    exp = sorted(i for i, t in enumerate(toks)
                 if any(fnmatch.fnmatchcase(w, pat) for w in t))
    td = searcher.search(WildcardQuery(pat), k=10_000)
    assert _docs_of(td) == exp


def test_regexp_query(searcher, toks):
    import re
    rx = re.compile("jo.n|wind.*")
    exp = sorted(i for i, t in enumerate(toks)
                 if any(rx.fullmatch(w) for w in t))
    td = searcher.search(RegexpQuery("jo.n|wind.*"), k=10_000)
    assert _docs_of(td) == exp


def test_term_range_query(searcher, toks):
    exp = sorted(i for i, t in enumerate(toks)
                 if any("order" <= w <= "spark" for w in t))
    td = searcher.search(TermRangeQuery("order", "spark"), k=10_000)
    assert _docs_of(td) == exp
    # exclusive bounds
    exp2 = sorted(i for i, t in enumerate(toks)
                  if any("order" < w < "spark" for w in t))
    td2 = searcher.search(
        TermRangeQuery("order", "spark", include_lower=False,
                       include_upper=False), k=10_000)
    assert _docs_of(td2) == exp2


def test_term_in_set_query(searcher, toks):
    terms = ("spark", "window", "zzz")
    exp = sorted(i for i, t in enumerate(toks)
                 if any(w in terms for w in t))
    td = searcher.search(TermInSetQuery(terms), k=10_000)
    assert _docs_of(td) == exp


def test_fuzzy_query(searcher, toks):
    # vocabulary distance-1 neighbours of 'scan' (e.g. 'scan' itself + any)
    vocab = sorted({w for t in toks for w in t})
    match = {w for w in vocab if _edit_distance_le("scan", w, 1)}
    exp = sorted(i for i, t in enumerate(toks) if any(w in match for w in t))
    td = searcher.search(FuzzyQuery("scan", max_edits=1), k=10_000)
    assert _docs_of(td) == exp


def test_edit_distance_kernel():
    assert _edit_distance_le("spark", "spark", 0)
    assert _edit_distance_le("spark", "sparks", 1)
    assert _edit_distance_le("spark", "spork", 1)
    assert not _edit_distance_le("spark", "sprk", 0)
    assert _edit_distance_le("spark", "sprk", 1)
    assert not _edit_distance_le("spark", "ok", 2)


# ------------------------------------------------------------------ synonym
def test_synonym_query_freq_sum_and_blended_df(searcher, toks):
    """SynonymQuery('spark','join') ≡ one pseudo-term with freq summed and
    df = max of the two dfs (SynonymQuery.kt:182-202)."""
    from lucene_kmp_ray.similarity.bm25 import BM25Similarity
    from lucene_kmp_ray.util.smallfloat import int_to_byte4_np
    tfs = [Counter(t) for t in toks]
    lens = np.array([len(t) for t in toks])
    norms = int_to_byte4_np(lens)
    df_a = sum(1 for c in tfs if "spark" in c)
    df_b = sum(1 for c in tfs if "join" in c)
    docs = [i for i, c in enumerate(tfs) if "spark" in c or "join" in c]
    freqs = np.array([tfs[i]["spark"] + tfs[i]["join"] for i in docs])
    sc = BM25Similarity().scorer(1.0, len(toks), int(lens.sum()),
                                 [max(df_a, df_b)])
    scores = sc.score(freqs, norms[np.array(docs)])
    order = np.lexsort((np.array(docs), -scores.astype(np.float64)))[:10]
    exp = [(int(np.array(docs)[i]), float(scores[i])) for i in order]

    td = searcher.search(SynonymQuery(("spark", "join")), k=10)
    assert td.total_hits == len(docs)
    assert [(h.doc_id, h.score) for h in td.score_docs] == exp


# ------------------------------------------------------------------- dismax
def test_dismax_max_and_tiebreak(searcher):
    qa, qb = TermQuery("spark"), TermQuery("join")
    a = {h.doc_id: h.score
         for h in searcher.search(qa, k=10_000).score_docs}
    b = {h.doc_id: h.score
         for h in searcher.search(qb, k=10_000).score_docs}
    for tb in (0.0, 0.3):
        exp = {}
        for d in set(a) | set(b):
            s = sorted(filter(None, [a.get(d), b.get(d)]), reverse=True)
            exp[d] = np.float32(s[0] + tb * sum(s[1:]))
        td = searcher.search(DisjunctionMaxQuery((qa, qb), tb), k=10_000)
        got = {h.doc_id: np.float32(h.score) for h in td.score_docs}
        assert set(got) == set(exp)
        for d in got:
            assert got[d] == pytest.approx(float(exp[d]), rel=1e-6)


# ------------------------------------------------------------- range filter
def test_range_filter_with_scoring_clause(searcher, toks):
    """FILTER(length range) ∧ MUST(term): filter restricts, score unchanged
    (TestBooleanQuery.kt:497 filter-does-not-affect-score)."""
    lens = np.array([len(t) for t in toks])
    lo, hi = 40, 60
    base = {h.doc_id: h.score
            for h in searcher.search(TermQuery("spark"), k=10_000).score_docs}
    exp = {d: s for d, s in base.items() if lo <= lens[d] <= hi}
    q = BooleanQuery.build(
        (Occur.MUST, TermQuery("spark")),
        (Occur.FILTER, RangeFilterQuery("length", lo, hi)))
    td = searcher.search(q, k=10_000)
    got = {h.doc_id: h.score for h in td.score_docs}
    assert got == exp


# ------------------------------------------------------------------- parser
def test_parser_terms_and_bool():
    q = parse_query("spark AND join")
    assert q == BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                   (Occur.MUST, TermQuery("join")))
    q = parse_query("spark join")
    assert q == BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                                   (Occur.SHOULD, TermQuery("join")))
    q = parse_query("+spark -join window")
    assert q == BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                   (Occur.MUST_NOT, TermQuery("join")),
                                   (Occur.SHOULD, TermQuery("window")))
    assert parse_query("Spark") == TermQuery("spark")  # analyzed


def test_parser_phrase_range_wild_fuzzy_boost():
    assert parse_query('"big order scan"') == \
        PhraseQuery(("big", "order", "scan"))
    assert parse_query("spar*") == PrefixQuery("spar")
    assert parse_query("s?ark") == WildcardQuery("s?ark")
    assert parse_query("spark~1") == FuzzyQuery("spark", max_edits=1)
    assert parse_query("spark~") == FuzzyQuery("spark", max_edits=2)
    assert parse_query("[batch TO data]") == TermRangeQuery("batch", "data")
    assert parse_query("{batch TO data}") == \
        TermRangeQuery("batch", "data", False, False)
    assert parse_query("spark^2.5") == BoostQuery(TermQuery("spark"), 2.5)
    assert parse_query("title:spark") == TermQuery("spark", "title")
    assert parse_query("spark", default_field="title") == \
        TermQuery("spark", "title")


def test_parser_groups():
    q = parse_query("(spark OR data) AND join")
    inner = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                               (Occur.SHOULD, TermQuery("data")))
    assert q == BooleanQuery.build((Occur.MUST, inner),
                                   (Occur.MUST, TermQuery("join")))


def test_parser_end_to_end(searcher):
    td1 = searcher.search(parse_query("spark AND join"), k=10)
    td2 = searcher.search(
        BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                           (Occur.MUST, TermQuery("join"))), k=10)
    assert [(h.doc_id, h.score) for h in td1.score_docs] == \
        [(h.doc_id, h.score) for h in td2.score_docs]


# ------------------------------------------------------------ sloppy phrase
def test_sloppy_freq_reference_example():
    """The documented reference example (SloppyPhraseMatcher.kt class
    comment): "a b"~2 over doc "x a b a y" matches twice — distance 0 and
    distance 2 — so freq = 1/(1+0) + 1/(1+2) in float32."""
    import numpy as np
    from lucene_kmp_ray.search.searcher import _sloppy_freq_doc
    a, b = np.array([1, 3]), np.array([2])
    f = _sloppy_freq_doc([a, b], 2)
    assert f == pytest.approx(float(np.float32(1.0) + np.float32(1 / 3)), abs=0)
    assert _sloppy_freq_doc([a, b], 0) == 1.0       # only the exact match
    assert _sloppy_freq_doc([np.array([0]), np.array([9])], 2) == 0.0


def test_sloppy_repeats():
    import numpy as np
    from lucene_kmp_ray.search.searcher import _sloppy_freq_doc
    aa = np.array([0, 1, 2])
    # "a a"~1 over "a a a": greedy finds two adjacent matches
    assert _sloppy_freq_doc([aa, aa], 1) == 2.0


def test_sloppy_phrase_superset_of_exact(searcher, toks):
    """Every exact-phrase doc must match the sloppy version, and sloppy
    scores are computed from float freqs (PhraseScorer.score)."""
    from lucene_kmp_ray.search import PhraseQuery
    exact = searcher.search(PhraseQuery(("big", "order", "scan")), k=1000)
    sloppy = searcher.search(PhraseQuery(("big", "order", "scan"), slop=3),
                             k=1000)
    exact_docs = {h.doc_id for h in exact.score_docs}
    sloppy_docs = {h.doc_id for h in sloppy.score_docs}
    assert exact_docs <= sloppy_docs
    assert sloppy.total_hits >= exact.total_hits


def test_sloppy_phrase_brute_force(searcher, toks):
    """Docs + freqs must equal a direct run of the greedy kernel over the
    raw token positions of every candidate doc."""
    import numpy as np
    from lucene_kmp_ray.search import PhraseQuery
    from lucene_kmp_ray.search.searcher import _sloppy_freq_doc
    from lucene_kmp_ray.similarity.bm25 import BM25Similarity
    from lucene_kmp_ray.util.smallfloat import int_to_byte4_np
    terms, slop = ["order", "scan"], 2
    exp = {}
    for i, t in enumerate(toks):
        pos = {w: np.flatnonzero(np.asarray(t, dtype=object) == w)
               for w in set(terms)}
        if all(len(pos[w]) for w in terms):
            f = _sloppy_freq_doc([pos[w] for w in terms], slop)
            if f > 0:
                exp[i] = f
    td = searcher.search(PhraseQuery(tuple(terms), slop=slop), k=10_000)
    got_docs = {h.doc_id for h in td.score_docs}
    assert got_docs == set(exp)
    # scores: BM25 with idf summed over phrase terms, float freq
    lens = np.array([len(t) for t in toks])
    norms = int_to_byte4_np(lens)
    sim = BM25Similarity()
    dfs = [sum(1 for t in toks if w in t) for w in terms]
    sc = sim.scorer(1.0, len(toks), int(lens.sum()), dfs)
    for h in td.score_docs:
        want = float(sc.score(np.array([exp[h.doc_id]]),
                              norms[[h.doc_id]])[0])
        assert h.score == pytest.approx(want, abs=0)


def test_parser_sloppy_phrase():
    assert parse_query('"big order scan"~2') == \
        PhraseQuery(("big", "order", "scan"), slop=2)


def test_constant_score_and_match_no_docs(searcher):
    from lucene_kmp_ray.search import (BoostQuery, ConstantScoreQuery,
                                       MatchNoDocsQuery)
    base = searcher.search(TermQuery("spark"), k=10_000)
    cs = searcher.search(ConstantScoreQuery(TermQuery("spark")), k=10_000)
    assert {h.doc_id for h in cs.score_docs} == \
        {h.doc_id for h in base.score_docs}
    assert all(h.score == 1.0 for h in cs.score_docs)
    boosted = searcher.search(
        BoostQuery(ConstantScoreQuery(TermQuery("spark")), 2.5), k=5)
    assert all(h.score == 2.5 for h in boosted.score_docs)
    assert searcher.search(MatchNoDocsQuery(), k=5).total_hits == 0


def test_parser_hyphen_and_group_boost_and_multitoken():
    from lucene_kmp_ray.search import BoostQuery
    # '-' inside a token is term text; the analyzer splits it → SHOULD terms
    assert parse_query("foo-bar") == BooleanQuery.build(
        (Occur.SHOULD, TermQuery("foo")), (Occur.SHOULD, TermQuery("bar")))
    # '-' at a clause boundary prohibits
    assert parse_query("foo -bar") == BooleanQuery.build(
        (Occur.SHOULD, TermQuery("foo")), (Occur.MUST_NOT, TermQuery("bar")))
    # group boost
    q = parse_query("(spark OR data)^2")
    inner = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                               (Occur.SHOULD, TermQuery("data")))
    assert q == BoostQuery(inner, 2.0)


def test_sloppy_two_term_specialization_fuzz():
    """The 2-term fast walk must be bit-identical to the general greedy
    matcher on thousands of random position configurations."""
    import numpy as np
    from _ref_search import sloppy_freq_2 as _sloppy_freq_2

    from lucene_kmp_ray.search.searcher import _sloppy_freq_doc
    rng = np.random.default_rng(99)
    for trial in range(3000):
        la = int(rng.integers(1, 8))
        lb = int(rng.integers(1, 8))
        span = int(rng.integers(4, 40))
        a = np.unique(rng.integers(0, span, size=la))
        b = np.unique(rng.integers(0, span, size=lb))
        slop = int(rng.integers(0, 6))
        want = _sloppy_freq_doc([a, b], slop)
        got = _sloppy_freq_2(a, b - 1, slop)
        assert got == want, (a.tolist(), b.tolist(), slop, got, want)


def test_parser_folds_case_like_the_index():
    """Wildcard/prefix/range bounds fold case with the index's utf8_lower
    (str.lower('İ') inserts a combining dot and would never match)."""
    from lucene_kmp_ray.analysis.standard import fold_case
    assert fold_case("İstanbul") == "istanbul"
    assert parse_query("İstanbul*") == PrefixQuery("istanbul")
    assert parse_query("[Batch TO İData]") == \
        TermRangeQuery("batch", "idata")


def test_simhash_band_pigeonhole_and_pairs(ray_session):
    """Hamming-≤3 64-bit signatures must share at least one 16-bit band
    (pigeonhole), and the banded pipeline finds exactly the Hamming-≤3
    pairs a brute-force scan finds."""
    import numpy as np
    from lucene_kmp_ray.pipelines.dedup import (simhash64,
                                                simhash_candidate_pairs)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.integers(0, 2**63, dtype=np.int64).astype(np.uint64)
        flips = rng.choice(64, size=int(rng.integers(0, 4)), replace=False)
        b = a
        for f in flips:
            b = b ^ np.uint64(1 << int(f))
        shared = any(((a >> np.uint64(16 * k)) & np.uint64(0xFFFF)) ==
                     ((b >> np.uint64(16 * k)) & np.uint64(0xFFFF))
                     for k in range(4))
        assert shared  # pigeonhole
    df = simhash_candidate_pairs("/root/testdata/sf0.001").to_pandas()
    # brute force over all signature pairs
    import pyarrow.parquet as pq
    texts = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id")
    sigs = {int(r.doc_id): simhash64(r.text) for r in texts.itertuples()}
    ids = sorted(sigs)
    exp = set()
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            if bin(sigs[x] ^ sigs[y]).count("1") <= 3:
                exp.add((x, y))
    got = set(zip(df["a"], df["b"]))
    assert got == exp


def test_field_exists(searcher):
    from lucene_kmp_ray.search import FieldExistsQuery
    td = searcher.search(FieldExistsQuery("text"), k=10_000)
    assert td.total_hits == 500  # every synthetic doc has text
    assert all(h.score == 1.0 for h in td.score_docs)
    td2 = searcher.search(FieldExistsQuery("url"), k=10_000)
    assert td2.total_hits == 500


def test_msm_exceeding_should_count_matches_nothing(searcher):
    """Lucene rewrites msm > #optional to MatchNoDocsQuery — also when MUST
    clauses are present (BooleanQuery.kt rewrite; ADVICE r1)."""
    q = BooleanQuery((((Occur.MUST, TermQuery("the")),)), minimum_should_match=1)
    assert searcher.search(q, k=10).score_docs == []
    q2 = BooleanQuery(((Occur.MUST, TermQuery("the")),
                       (Occur.SHOULD, TermQuery("spark")),
                       (Occur.SHOULD, TermQuery("data"))),
                      minimum_should_match=3)
    assert searcher.search(q2, k=10).score_docs == []
    # msm == #SHOULD still matches (conjunction of the SHOULDs)
    q3 = BooleanQuery(((Occur.SHOULD, TermQuery("spark")),
                       (Occur.SHOULD, TermQuery("data"))),
                      minimum_should_match=2)
    both = searcher.search(BooleanQuery.build(
        (Occur.MUST, TermQuery("spark")), (Occur.MUST, TermQuery("data"))),
        k=10_000)
    assert _docs_of(searcher.search(q3, k=10_000)) == _docs_of(both)


def test_pruned_paths_honor_timeout(searcher):
    """timeout_s applies on the WAND/MaxScore routes too (ADVICE r1)."""
    td = searcher.search(TermQuery("the"), k=5, prune=True, timeout_s=0.0)
    assert td.relation == "GREATER_THAN_OR_EQUAL_TO"
    assert td.score_docs == []


def test_multi_field_parse_expansion():
    """MultiFieldQueryParser.kt: un-fielded leaves expand SHOULD-per-field;
    explicit field prefixes survive."""
    from lucene_kmp_ray.search import multi_field_parse
    q = multi_field_parse("spark", fields=("text", "title"))
    assert q == BooleanQuery(((Occur.SHOULD, TermQuery("spark", "text")),
                              (Occur.SHOULD, TermQuery("spark", "title"))))
    q2 = multi_field_parse("title:spark AND data", fields=("text", "title"))
    assert q2 == BooleanQuery((
        (Occur.MUST, TermQuery("spark", "title")),
        (Occur.MUST, BooleanQuery(((Occur.SHOULD, TermQuery("data", "text")),
                                   (Occur.SHOULD, TermQuery("data", "title"))))),
    ))
    q3 = multi_field_parse("spark", fields=("text", "title"),
                           boosts={"title": 2.0})
    assert q3 == BooleanQuery((
        (Occur.SHOULD, TermQuery("spark", "text")),
        (Occur.SHOULD, BoostQuery(TermQuery("spark", "title"), 2.0))))


def test_title_field_search(searcher, corpus_texts):
    """Title = first 48 chars of text; title hits ⊆ docs whose truncated
    text contains the term; scoring uses title-field stats."""
    from lucene_kmp_ray.analysis import tokenize
    exp = sorted(i for i, t in enumerate(corpus_texts)
                 if "spark" in tokenize(t[:48]))
    td = searcher.search(TermQuery("spark", "title"), k=10_000)
    assert _docs_of(td) == exp
    # multifield SHOULD ⊇ both fields' matches
    both = searcher.search(BooleanQuery.build(
        (Occur.SHOULD, TermQuery("spark", "text")),
        (Occur.SHOULD, TermQuery("spark", "title"))), k=10_000)
    text_only = searcher.search(TermQuery("spark"), k=10_000)
    assert set(_docs_of(both)) == set(_docs_of(text_only)) | set(exp)


def test_minhash_simhash_batch_match_scalar(ray_session):
    """The vectorized batch hashing stages must reproduce the scalar
    reference paths bit-for-bit (same md5 window contract)."""
    import pyarrow as pa

    from lucene_kmp_ray.pipelines.dedup import (LSH_BANDS, LSH_ROWS,
                                                minhash_batch,
                                                minhash_signature,
                                                simhash64, simhash_batch)
    texts = [
        "the fast key order sort table scan merge",
        "a b",                       # short doc (dl < N_SHINGLE)
        "",                          # empty
        "x",                         # single token
        "spark join spark join spark join window",
        "the fast key order sort table scan merge",  # exact dup
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = minhash_batch(batch)
    got = {}
    for d, b, h in zip(out["doc_id"].to_pylist(), out["band"].to_pylist(),
                       out["band_hash"].to_pylist()):
        got.setdefault(d, {})[b] = h
    for i, t in enumerate(texts):
        sig = minhash_signature(t)
        if not any(sig):
            assert i not in got  # shingle-less docs emit no bands
            continue
        for b in range(LSH_BANDS):
            exp = "-".join(sig[b * LSH_ROWS:(b + 1) * LSH_ROWS])
            assert got[i][b] == exp, (i, b)

    sims = simhash_batch(batch)["simhash"].to_pylist()
    for i, t in enumerate(texts):
        assert sims[i] == simhash64(t), i


def test_connected_components_distributed(ray_session):
    """Large-star/small-star label propagation: chains force multi-round
    convergence; labels must equal min-reachable (the union-find result)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.pipelines.dedup import connected_components
    # chain 0-1-2-...-7, separate triangle {10,11,12}, pair {20, 21}
    edges = [(i, i + 1) for i in range(7)] + \
        [(10, 11), (11, 12), (10, 12), (20, 21)]
    pairs = rd.from_arrow(pa.table({
        "a": pa.array([a for a, _ in edges], pa.int64()),
        "b": pa.array([b for _, b in edges], pa.int64())}))
    out = connected_components(pairs).to_pandas().sort_values("doc_id")
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    exp = {i: 0 for i in range(8)}
    exp.update({10: 10, 11: 10, 12: 10, 20: 20, 21: 20})
    assert got == exp


def test_sloppy_multi_phrase_blueberry(ray_session, tmp_path):
    """TestMultiPhraseQuery.kt:100-118 ported: "(blueberry|bluebird) pizza"
    matches 2 docs exact, 3 with slop=1 (bluebird FOOBAR pizza)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search.query import MultiPhraseQuery

    texts = ["blueberry pie", "blueberry strudel", "blueberry pizza",
             "blueberry chewing gum", "bluebird pizza",
             "bluebird foobar pizza", "piccadilly circus"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(len(texts))], pa.string()),
        "text": pa.array(texts, pa.string())}))
    idx = str(tmp_path / "mpq")
    build_index(ds, idx, segment_size=100)
    s = Searcher(IndexReader(idx))

    q_exact = MultiPhraseQuery((("blueberry", "bluebird"), ("pizza",)))
    assert _docs_of(s.search(q_exact, k=100)) == [2, 4]
    q_sloppy = MultiPhraseQuery((("blueberry", "bluebird"), ("pizza",)),
                                slop=1)
    assert _docs_of(s.search(q_sloppy, k=100)) == [2, 4, 5]
    # slop must also cover the exact matches' freqs (superset property)
    td = s.search(q_sloppy, k=100)
    assert all(h.score > 0 for h in td.score_docs)


def test_sloppy_multi_phrase_matches_plain_sloppy(searcher, toks):
    """Single-alternative slots == a plain sloppy PhraseQuery."""
    from lucene_kmp_ray.search.query import MultiPhraseQuery
    q_plain = PhraseQuery(("big", "scan"), slop=2)
    q_multi = MultiPhraseQuery((("big",), ("scan",)), slop=2)
    a = searcher.search(q_plain, k=10_000)
    b = searcher.search(q_multi, k=10_000)
    assert _docs_of(a) == _docs_of(b)
    assert [round(h.score, 6) for h in a.score_docs] == \
        [round(h.score, 6) for h in b.score_docs]


def test_sloppy_multi_phrase_repeat_slots(ray_session, tmp_path):
    """Slots with overlapping term sets form repeat groups: two slots that
    can only match the same single occurrence must NOT both claim it."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search.query import MultiPhraseQuery

    texts = ["a b a", "a c b"]  # doc0 has two a's, doc1 only one
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(2), pa.int64()),
        "url": pa.array(["u0", "u1"], pa.string()),
        "text": pa.array(texts, pa.string())}))
    idx = str(tmp_path / "rpt")
    build_index(ds, idx, segment_size=100)
    s = Searcher(IndexReader(idx))
    # "(a) (a)"~2: needs TWO distinct 'a' occurrences within the window
    q = MultiPhraseQuery((("a",), ("a",)), slop=2)
    assert _docs_of(s.search(q, k=10)) == [0]


def test_parser_escaping_regexp_field_ranges():
    """QueryParser completeness (QueryParserBase.kt:51,161,380 surface):
    backslash escaping, /regexp/ syntax, field-scoped ranges and phrases,
    boost on phrases."""
    from lucene_kmp_ray.search import RegexpQuery
    # escaped specials become literal text handed to the ANALYZER (the
    # discardEscapeChar semantics): '*' is not a word char so the
    # analyzer splits around it — exactly what Lucene's getFieldQuery
    # does with an escaped wildcard
    assert parse_query(r"sp\*rk") == BooleanQuery((
        (Occur.SHOULD, TermQuery("sp")), (Occur.SHOULD, TermQuery("rk"))))
    # escaped ':' prevents field-prefix parsing ('foo' is not a field);
    # the analyzer then keeps 'foo:bar' as ONE token (UAX#29 MidLetter
    # joins letters across ':'), exactly as Lucene's StandardAnalyzer does
    q = parse_query(r"foo\:bar")
    assert q == TermQuery("foo:bar")
    # escaped '~' is not fuzzy syntax ('2' analyzes into the token run)
    assert parse_query(r"spark\~2") == BooleanQuery((
        (Occur.SHOULD, TermQuery("spark")), (Occur.SHOULD, TermQuery("2"))))
    # an escaped star combined with a live trailing star: prefix of the
    # LITERAL 'sp*' (discardEscapeChar keeps the star in the term text)
    assert parse_query(r"sp\**") == PrefixQuery("sp*")
    # regexp syntax
    assert parse_query("/sp.rk/") == RegexpQuery("sp.rk")
    assert parse_query("title:/sp.+/") == RegexpQuery("sp.+", field="title")
    # field-scoped range + phrase + wildcard
    assert parse_query("title:[a TO b]") == \
        TermRangeQuery("a", "b", field="title")
    assert parse_query('title:"big scan"') == \
        PhraseQuery(("big", "scan"), field="title")
    assert parse_query("title:sp*") == PrefixQuery("sp", field="title")
    # boost on phrases
    assert parse_query('"big scan"^2') == \
        BoostQuery(PhraseQuery(("big", "scan")), 2.0)


def test_ngram_phrase_query(ray_session, tmp_path):
    """NGramPhraseQuery.kt: on an NGramAnalyzer(3,3) field, checking every
    3rd gram (plus last) gives results identical to the full gram phrase."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.analysis.standard import (NGramAnalyzer,
                                                  NGramTokenizerAnalyzer)
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import NGramPhraseQuery

    texts = ["sparkle words", "parking here", "spar none", "sparkles"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(len(texts))], pa.string()),
        "text": pa.array(texts, pa.string())}))
    idx = str(tmp_path / "ng")
    build_index(ds, idx, segment_size=100,
                analyzer=NGramTokenizerAnalyzer(3, 3))
    s = Searcher(IndexReader(idx))

    ana = NGramAnalyzer(3, 3)
    grams = tuple(ana("sparkle"))  # spa par ark rkl kle
    full = s.search(PhraseQuery(grams), k=100)
    opt = s.search(NGramPhraseQuery(3, grams), k=100)
    assert _docs_of(full) == _docs_of(opt) == [0, 3]


def test_index_or_docvalues_and_deferred_filter(searcher, toks):
    """IndexOrDocValuesQuery picks the execution by position: standalone
    runs the index side; in FILTER position behind a MUST the doc-values
    side verifies candidates — results identical either way."""
    from lucene_kmp_ray.search import IndexOrDocValuesQuery

    rf = RangeFilterQuery("length", 40, 60)
    iodv = IndexOrDocValuesQuery(rf, rf)  # same predicate both sides
    base = searcher.search(BooleanQuery.build(
        (Occur.MUST, TermQuery("spark")), (Occur.FILTER, rf)), k=10_000)
    via_iodv = searcher.search(BooleanQuery.build(
        (Occur.MUST, TermQuery("spark")), (Occur.FILTER, iodv)), k=10_000)
    assert _docs_of(base) == _docs_of(via_iodv)
    assert [round(h.score, 6) for h in base.score_docs] == \
        [round(h.score, 6) for h in via_iodv.score_docs]
    # standalone: index side runs
    alone = searcher.search(iodv, k=10_000)
    exp = sorted(i for i, t in enumerate(toks) if 40 <= len(t) <= 60)
    assert _docs_of(alone) == exp


def test_geo_box_and_distance_queries(ray_session, tmp_path):
    """LatLonPoint.newBoxQuery / newDistanceQuery analogs over doc-meta
    lat/lon columns (meta_cols), incl. the dateline-crossing box."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (BooleanQuery, GeoBoxQuery,
                                       GeoDistanceQuery, Occur, Searcher,
                                       TermQuery)

    lats = [0.0, 10.0, 50.0, -40.0, 89.0, 0.5]
    lons = [0.0, 20.0, 170.0, -170.0, 100.0, 0.5]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(6)], pa.string()),
        "text": pa.array(["spark here"] * 6, pa.string()),
        "lat": pa.array(lats, pa.float64()),
        "lon": pa.array(lons, pa.float64())}))
    idx = str(tmp_path / "geo")
    build_index(ds, idx, segment_size=3, meta_cols=("lat", "lon"))
    s = Searcher(IndexReader(idx))

    box = GeoBoxQuery(-5.0, 15.0, -5.0, 25.0)
    assert sorted(h.doc_id for h in s.search(box, k=10).score_docs) == \
        [0, 1, 5]
    # dateline wrap: min_lon > max_lon matches lon >= 160 OR lon <= -160
    wrap = GeoBoxQuery(-90.0, 90.0, 160.0, -160.0)
    assert sorted(h.doc_id for h in s.search(wrap, k=10).score_docs) == \
        [2, 3]
    # ~1200 km around (0,0): docs 0 and 5 only
    dist = GeoDistanceQuery(0.0, 0.0, 1_200_000.0)
    assert sorted(h.doc_id for h in s.search(dist, k=10).score_docs) == \
        [0, 5]
    # composes with text queries in FILTER position
    q = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                           (Occur.FILTER, dist))
    td = s.search(q, k=10)
    assert sorted(h.doc_id for h in td.score_docs) == [0, 5]
    assert td.score_docs[0].score > 0  # BM25 score, filter adds nothing

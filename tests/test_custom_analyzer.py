"""CustomAnalyzer builder + SPI registry — the reference's
TestCustomAnalyzer.kt vectors (whitespace+folding, htmlstrip+classic,
stop ignoreCase) and every builder-contract error
(ref: analysis/common/.../custom/TestCustomAnalyzer.kt)."""

import pytest

from lucene_kmp_ray.analysis.custom import (
    CustomAnalyzer,
    register_token_filter,
)


def _tokens_incs(analyzer, text):
    stream = analyzer.tokens_pos(text)
    toks = [t for t, _ in stream]
    incs, prev = [], -1
    for _, p in stream:
        incs.append(p - prev)
        prev = p
    return toks, incs


# -- TestCustomAnalyzer.testWhitespaceWithFolding ---------------------------

def test_whitespace_with_folding():
    a = (CustomAnalyzer.builder()
         .with_tokenizer("whitespace")
         .add_token_filter("asciifolding", preserveOriginal="true")
         .add_token_filter("lowercase")
         .build())
    assert a.component_names["tokenizer"] == "whitespace"
    assert a.component_names["char_filters"] == []
    assert a.component_names["token_filters"] == ["asciifolding",
                                                  "lowercase"]
    assert a.position_increment_gap == 0
    assert a.offset_gap == 1

    toks, incs = _tokens_incs(a, "foo bar FOO BAR")
    assert toks == ["foo", "bar", "foo", "bar"]
    assert incs == [1, 1, 1, 1]

    toks, incs = _tokens_incs(a, "föó bär FÖÖ BAR")
    assert toks == ["foo", "föó", "bar", "bär",
                    "foo", "föö", "bar"]
    assert incs == [1, 0, 1, 0, 1, 0, 1]


# -- TestCustomAnalyzer.testHtmlStripClassicFolding -------------------------

def test_htmlstrip_classic_folding():
    a = (CustomAnalyzer.builder()
         .add_char_filter("htmlstrip")
         .with_tokenizer("classic")
         .add_token_filter("asciifolding", preserveOriginal="true")
         .add_token_filter("lowercase")
         .with_position_increment_gap(100)
         .with_offset_gap(1000)
         .build())
    assert a.component_names["char_filters"] == ["htmlstrip"]
    assert a.position_increment_gap == 100
    assert a.offset_gap == 1000

    toks, incs = _tokens_incs(a, "<p>foo bar</p> FOO BAR")
    assert toks == ["foo", "bar", "foo", "bar"]
    assert incs == [1, 1, 1, 1]

    toks, incs = _tokens_incs(
        a, "<p><b>föó</b> bär     FÖÖ BAR</p>")
    assert toks == ["foo", "föó", "bar", "bär",
                    "foo", "föö", "bar"]
    assert incs == [1, 0, 1, 0, 1, 0, 1]


# -- TestCustomAnalyzer.testStopWordsFromClasspath --------------------------

def test_stop_words_ignore_case():
    a = (CustomAnalyzer.builder()
         .with_tokenizer("whitespace")
         .add_token_filter("stop", ignoreCase="true", words="foo,bar")
         .build())
    assert a("foo Foo Bar") == []


def test_stop_words_case_sensitive_default():
    a = (CustomAnalyzer.builder()
         .with_tokenizer("whitespace")
         .add_token_filter("stop", words="foo,bar")
         .build())
    assert a("foo Foo Bar") == ["Foo", "Bar"]


# -- builder-contract errors -------------------------------------------------

def test_incorrect_order():
    # char filter after tokenizer (testIncorrectOrder)
    b = CustomAnalyzer.builder().with_tokenizer("whitespace")
    with pytest.raises(ValueError, match="in order"):
        b.add_char_filter("htmlstrip")


def test_filter_before_tokenizer():
    with pytest.raises(ValueError, match="in order"):
        CustomAnalyzer.builder().add_token_filter("lowercase")


def test_missing_spi():
    # testMissingSPI: message names the SPI type and the bad name
    with pytest.raises(ValueError, match="foobar_nonexistent"):
        CustomAnalyzer.builder().with_tokenizer("foobar_nonexistent")
    with pytest.raises(ValueError, match="TokenFilterFactory"):
        (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("foobar_nonexistent"))
    with pytest.raises(ValueError, match="CharFilterFactory"):
        CustomAnalyzer.builder().add_char_filter("foobar_nonexistent")


def test_set_tokenizer_twice():
    with pytest.raises(ValueError, match="only set the tokenizer once"):
        (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .with_tokenizer("standard"))


def test_set_pos_inc_twice():
    with pytest.raises(ValueError, match="once"):
        (CustomAnalyzer.builder().with_position_increment_gap(2)
         .with_position_increment_gap(3))


def test_set_offset_gap_twice():
    with pytest.raises(ValueError, match="once"):
        CustomAnalyzer.builder().with_offset_gap(2).with_offset_gap(3)


def test_no_tokenizer():
    with pytest.raises(ValueError, match="at least a tokenizer"):
        CustomAnalyzer.builder().build()


# -- user-extension surface (AnalysisSPILoader role) -------------------------

def test_register_custom_filter():
    register_token_filter(
        "exclaim_test", lambda **_kw: lambda s: [(t + "!", p)
                                                 for t, p in s])
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("exclaim_test").build())
    assert a("hello world") == ["hello!", "world!"]


def test_keyword_repeat_and_porter():
    # keywordrepeat marks the original keyword so the stemmer skips it
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("lowercase")
         .add_token_filter("keywordrepeat")
         .add_token_filter("porterstem")
         .build())
    toks, incs = _tokens_incs(a, "Running")
    assert toks == ["running", "run"]
    assert incs == [1, 0]


def test_keyword_repeat_remove_duplicates():
    # unchanged stems collapse back to one token (the Lucene idiom:
    # keywordrepeat -> stemmer -> removeduplicates)
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("lowercase")
         .add_token_filter("keywordrepeat")
         .add_token_filter("porterstem")
         .add_token_filter("removeduplicates")
         .build())
    assert a("run") == ["run"]
    assert a("Running") == ["running", "run"]


def test_synonymgraph_component():
    from lucene_kmp_ray.analysis.core import WhitespaceAnalyzer
    from lucene_kmp_ray.analysis.synmap import SolrSynonymParser
    smap = (SolrSynonymParser(True, True, WhitespaceAnalyzer())
            .parse("huge, gigantic").build())
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("lowercase")
         .add_token_filter("synonymgraph", synonyms=smap)
         .build())
    out = a("a HUGE dog")
    assert sorted(out) == ["a", "dog", "gigantic", "huge"]


def test_analyze_flat_matches_call():
    import numpy as np
    a = (CustomAnalyzer.builder()
         .add_char_filter("htmlstrip")
         .with_tokenizer("standard")
         .add_token_filter("lowercase")
         .build())
    texts = ["<b>Hello</b> World", "", "foo BAR baz"]
    dl, flat, doc, pos = a.analyze_flat(texts)
    assert list(dl) == [2, 0, 3]
    got = flat.to_pylist()
    expect = [t for txt in texts for t in a(txt)]
    assert got == expect
    assert list(doc) == [0, 0, 2, 2, 2]
    assert list(pos) == [0, 1, 0, 1, 2]
    assert isinstance(dl, np.ndarray)


def test_mapping_char_filter():
    a = (CustomAnalyzer.builder()
         .add_char_filter("mapping", mapping={"ph": "f", "qu": "kw"})
         .with_tokenizer("whitespace")
         .build())
    assert a("phone quack") == ["fone", "kwack"]


def test_shingle_filter_component():
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("shingle", minShingleSize=2,
                           maxShingleSize=3).build())
    assert a("please divide this") == \
        ["please", "please divide", "please divide this",
         "divide", "divide this", "this"]
    b = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("shingle", outputUnigrams="false").build())
    assert b("a b c") == ["a b", "b c"]
    # shingles stack at the first token's position
    toks, incs = _tokens_incs(b, "a b c")
    assert incs == [1, 1]


def test_ngram_filter_component():
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("ngram", minGramSize=2, maxGramSize=3)
         .build())
    assert a("abcd") == ["ab", "abc", "bc", "bcd", "cd"]


def test_edgengram_filter_component():
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("edgengram", minGramSize=1, maxGramSize=3)
         .build())
    assert a("abcde") == ["a", "ab", "abc"]
    b = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("edgengram", minGramSize=1, maxGramSize=3,
                           preserveOriginal="true").build())
    assert b("abcde") == ["a", "ab", "abc", "abcde"]


def test_edgengram_preserve_original_keeps_short_tokens():
    a = (CustomAnalyzer.builder().with_tokenizer("whitespace")
         .add_token_filter("edgengram", minGramSize=3, maxGramSize=4,
                           preserveOriginal="true").build())
    # "ab" is below minGramSize: no grams, the original stays
    assert a("ab abcde abc") == ["ab", "abc", "abcd", "abcde", "abc"]
    plain = (CustomAnalyzer.builder().with_tokenizer("whitespace")
             .add_token_filter("edgengram", minGramSize=3, maxGramSize=4)
             .build())
    assert plain("ab abcde abc") == ["abc", "abcd", "abc"]

"""Compiled lattice core (_cviterbi.c) — exact equivalence with the
pure-Python kuromoji lattice, which remains the semantic reference.

The C core must produce bit-identical token streams (surface, offsets,
POS, base form, reading) in all three modes; any divergence is a bug
in the C mirror. The Python lattice (``_tokenize_lattice``, which a
tokenizer with a user dictionary runs) is called directly.
"""

import random

import pytest

from lucene_kmp_ray.analysis.japanese import (JapaneseAnalyzer,
                                              JapaneseTokenizer)
from lucene_kmp_ray.util.native import lib


@pytest.fixture(scope="module")
def clib():
    return lib("viterbi")


def _py_tokenize(tk, text):
    return tk._tokenize_lattice(text) if text else []


def _key(toks):
    return [(t.surface, t.start, t.end, t.pos_tag, t.base_form, t.reading)
            for t in toks]


def _corpus():
    texts = [
        "",
        "多くの学生が試験に落ちた。",
        "関西国際空港",
        "日本経済新聞",
        "シニアソフトウェアエンジニア",
        "お寿司が食べたい。",
        "hello world 123",
        "ｱｲｳｴｵﾊﾞｶ",           # halfwidth katakana + voicing marks
        "ＡＢＣ１２３！",         # fullwidth Latin/digits
        "𝒜𝒷c漢字",              # non-BMP
        "😀絵文字テスト😀",
        "漢字漢字漢字漢字漢字",   # long kanji run (decompound penalty)
        "アアアアアアアアアア",
    ]
    random.seed(1234)
    pool = ("の学生が試験に落ちた関西国際空港日本経済新聞シニアソフトウェア"
            "エンジニア寿司食abcXYZ0123、。 アイウエオ漢字日本語ﾊﾞｶＸ！？")
    for _ in range(250):
        n = random.randint(0, 60)
        texts.append("".join(random.choice(pool) for _ in range(n)))
    return texts


@pytest.mark.parametrize("mode", ["search", "normal", "extended"])
def test_c_lattice_matches_python(clib, mode):
    tk = JapaneseTokenizer(mode=mode)
    for text in _corpus():
        assert _key(tk.tokenize(text)) == _key(_py_tokenize(tk, text)), \
            repr(text)


def test_analyzer_chain_matches_python(clib, monkeypatch):
    a = JapaneseAnalyzer()
    for text in _corpus():
        got_c = a.analyze_tokens(text)
        with monkeypatch.context() as mp:
            mp.setattr(JapaneseTokenizer, "tokenize", _py_tokenize)
            got_py = a.analyze_tokens(text)
        assert got_c == got_py, repr(text)


def test_c_core_actually_loaded(clib):
    # the hot path really is the compiled core (not a silent fallback)
    assert hasattr(clib, "viterbi_analyze")

"""CustomAnalyzer — the reference's name-based analyzer builder + SPI
factory registry (``analysis/custom/CustomAnalyzer.kt``,
``AnalysisSPILoader.kt`` / ``TokenizerFactory.kt`` /
``TokenFilterFactory.kt`` / ``CharFilterFactory.kt``):

    CustomAnalyzer.builder()
        .add_char_filter("htmlstrip")
        .with_tokenizer("whitespace")
        .add_token_filter("asciifolding", preserveOriginal="true")
        .add_token_filter("lowercase")
        .build()

Components are looked up by the reference's SPI names in a module
registry users can extend with ``register_tokenizer`` /
``register_token_filter`` / ``register_char_filter`` — the repo's
user-extension surface (SURVEY §2.11). Builder contract errors match
the reference: tokenizer set twice, filters before the tokenizer
(in-order builder), unknown names, missing tokenizer at build().

Pipeline model: char filters are text→text; the tokenizer yields the
token list; token filters transform a (token, position) stream so
posInc-0 stacking (asciifolding preserveOriginal, keywordrepeat) and
stop-gap positions survive. Vectors from TestCustomAnalyzer.kt in
tests/test_custom_analyzer.py.
"""

from __future__ import annotations

from typing import Callable

Stream = list[tuple[str, int]]


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

_TOKENIZERS: dict[str, Callable[..., Callable[[str], list[str]]]] = {}
_TOKEN_FILTERS: dict[str, Callable[..., Callable[[Stream], Stream]]] = {}
_CHAR_FILTERS: dict[str, Callable[..., Callable[[str], str]]] = {}


def register_tokenizer(name: str, factory) -> None:
    _TOKENIZERS[name.lower()] = factory


def register_token_filter(name: str, factory) -> None:
    _TOKEN_FILTERS[name.lower()] = factory


def register_char_filter(name: str, factory) -> None:
    _CHAR_FILTERS[name.lower()] = factory


def _bool(v, default=False) -> bool:
    if v is None:
        return default
    if isinstance(v, bool):
        return v
    return str(v).lower() in ("true", "1", "yes")


# -- tokenizers --------------------------------------------------------------

def _tk_whitespace(**_kw):
    from .core import WhitespaceAnalyzer
    return WhitespaceAnalyzer()


def _tk_standard(**_kw):
    from .standard import tokenize
    return tokenize


def _tk_classic(**_kw):
    from .classic import classic_tokenize
    return lambda text: [t for t, _ in classic_tokenize(text)]


def _tk_keyword(**_kw):
    from .core import KeywordAnalyzer
    return KeywordAnalyzer()


def _tk_letter(**_kw):
    import re
    runs = re.compile(r"[^\W\d_]+", re.UNICODE)
    return lambda text: runs.findall(text)


register_tokenizer("whitespace", _tk_whitespace)
register_tokenizer("standard", _tk_standard)
register_tokenizer("classic", _tk_classic)
register_tokenizer("keyword", _tk_keyword)
register_tokenizer("letter", _tk_letter)


# -- token filters -----------------------------------------------------------

def _map_tokens(fn) -> Callable[[Stream], Stream]:
    return lambda stream: [(fn(t), p) for t, p in stream]


def _tf_lowercase(**_kw):
    return _map_tokens(str.lower)


def _tf_asciifolding(**kw):
    from .filters import fold_to_ascii
    preserve = _bool(kw.get("preserveOriginal"))

    def apply(stream: Stream) -> Stream:
        out: Stream = []
        for t, p in stream:
            f = fold_to_ascii(t)
            out.append((f, p))
            if preserve and f != t:
                out.append((t, p))  # original stacked at posInc 0
        return out
    return apply


def _tf_stop(**kw):
    from .standard import ENGLISH_STOP_WORDS
    words = kw.get("words")
    stop = (frozenset(w.strip() for w in words.split(",") if w.strip())
            if isinstance(words, str) else
            frozenset(words) if words is not None else
            ENGLISH_STOP_WORDS)
    if _bool(kw.get("ignoreCase")):
        stop = frozenset(w.lower() for w in stop)
        return lambda stream: [(t, p) for t, p in stream
                               if t.lower() not in stop]
    return lambda stream: [(t, p) for t, p in stream if t not in stop]


class KeywordToken(str):
    """KeywordAttribute role: stemmers skip tokens marked keyword
    (KeywordRepeatFilter emits the original as one of these)."""


def _stem_respecting_keyword(stem_fn) -> Callable[[Stream], Stream]:
    return lambda stream: [
        (t if isinstance(t, KeywordToken) else stem_fn(t), p)
        for t, p in stream]


def _tf_porterstem(**_kw):
    from .porter import porter_stem
    return _stem_respecting_keyword(porter_stem)


def _tf_kstem(**_kw):
    from .kstem import kstem
    return _stem_respecting_keyword(kstem)


def _tf_length(**kw):
    lo = int(kw.get("min", 0))
    hi = int(kw.get("max", 1 << 30))
    return lambda stream: [(t, p) for t, p in stream
                           if lo <= len(t) <= hi]


def _tf_trim(**_kw):
    return _map_tokens(str.strip)


def _tf_keywordrepeat(**_kw):
    # KeywordRepeatFilter role: emit the original marked keyword (so
    # downstream stemmers skip it), then an unmarked copy at posInc 0
    return lambda stream: [tp for t, p in stream
                           for tp in ((KeywordToken(t), p), (t, p))]


def _tf_removeduplicates(**_kw):
    # RemoveDuplicatesTokenFilter: drop repeats of (term, position)
    def apply(stream: Stream) -> Stream:
        seen: set = set()
        out: Stream = []
        for t, p in stream:
            key = (str(t), p)
            if key not in seen:
                seen.add(key)
                out.append((t, p))
        return out
    return apply


def _tf_reversestring(**_kw):
    return _map_tokens(lambda t: t[::-1])


def _tf_synonymgraph(**kw):
    # synonyms= a parsed SynonymMap (programmatic SPI arg)
    from .synmap import apply_synonyms
    smap = kw["synonyms"]
    ignore_case = _bool(kw.get("ignoreCase"))

    def apply(stream: Stream) -> Stream:
        toks = [t for t, _ in stream]
        return apply_synonyms(toks, smap, ignore_case)
    return apply


def _tf_shingle(**kw):
    # ShingleFilterFactory params (minShingleSize/maxShingleSize/
    # outputUnigrams/tokenSeparator); shingles stack at the position of
    # their first token
    min_n = int(kw.get("minShingleSize", 2))
    max_n = int(kw.get("maxShingleSize", 2))
    if not 2 <= min_n <= max_n:
        raise ValueError("need 2 <= minShingleSize <= maxShingleSize")
    out_uni = _bool(kw.get("outputUnigrams"), True)
    sep = kw.get("tokenSeparator", " ")

    def apply(stream: Stream) -> Stream:
        toks = [t for t, _ in stream]
        out: Stream = []
        for i, (t, p) in enumerate(stream):
            if out_uni:
                out.append((t, p))
            for n in range(min_n, max_n + 1):
                if i + n <= len(toks):
                    out.append((sep.join(toks[i:i + n]), p))
        return out
    return apply


def _tf_ngram(**kw):
    # NGramFilterFactory (minGramSize/maxGramSize), start-major order
    mi = int(kw.get("minGramSize", 1))
    ma = int(kw.get("maxGramSize", 2))

    def apply(stream: Stream) -> Stream:
        out: Stream = []
        for t, p in stream:
            for s in range(len(t)):
                for n in range(mi, ma + 1):
                    if s + n <= len(t):
                        out.append((t[s:s + n], p))
        return out
    return apply


def _tf_edgengram(**kw):
    # EdgeNGramFilterFactory (minGramSize/maxGramSize/preserveOriginal)
    mi = int(kw.get("minGramSize", 1))
    ma = int(kw.get("maxGramSize", 2))
    preserve = _bool(kw.get("preserveOriginal"))

    def apply(stream: Stream) -> Stream:
        out: Stream = []
        for t, p in stream:
            for n in range(mi, min(ma, len(t)) + 1):
                out.append((t[:n], p))
            # EdgeNGramTokenFilter.kt: the original survives whenever no
            # gram equals it — shorter than minGram or longer than maxGram
            if preserve and (len(t) < mi or len(t) > ma):
                out.append((t, p))
        return out
    return apply


register_token_filter("lowercase", _tf_lowercase)
register_token_filter("shingle", _tf_shingle)
register_token_filter("ngram", _tf_ngram)
register_token_filter("edgengram", _tf_edgengram)
register_token_filter("asciifolding", _tf_asciifolding)
register_token_filter("stop", _tf_stop)
register_token_filter("porterstem", _tf_porterstem)
register_token_filter("length", _tf_length)
register_token_filter("trim", _tf_trim)
register_token_filter("kstem", _tf_kstem)
register_token_filter("keywordrepeat", _tf_keywordrepeat)
register_token_filter("removeduplicates", _tf_removeduplicates)
register_token_filter("reversestring", _tf_reversestring)
register_token_filter("synonymgraph", _tf_synonymgraph)


# -- char filters ------------------------------------------------------------

def _cf_htmlstrip(**_kw):
    from .htmlstrip import html_to_text
    return lambda text: html_to_text(text)


def _cf_mapping(**kw):
    import re
    mapping: dict[str, str] = kw["mapping"]
    pat = re.compile("|".join(
        re.escape(k) for k in sorted(mapping, key=len, reverse=True)))
    return lambda text: pat.sub(lambda m: mapping[m.group(0)], text)


register_char_filter("htmlstrip", _cf_htmlstrip)
register_char_filter("mapping", _cf_mapping)


# ---------------------------------------------------------------------------
# builder + analyzer
# ---------------------------------------------------------------------------

class CustomAnalyzer:
    """Built analyzer: char filters → tokenizer → token filters."""

    name = "custom"

    def __init__(self, char_filters, tokenizer, token_filters,
                 pos_inc_gap: int = 0, offset_gap: int = 1,
                 component_names=None):
        self.char_filters = char_filters
        self.tokenizer = tokenizer
        self.token_filters = token_filters
        self.position_increment_gap = pos_inc_gap
        self.offset_gap = offset_gap
        self.component_names = component_names or {}

    @staticmethod
    def builder() -> "Builder":
        return Builder()

    def tokens_pos(self, text: str) -> Stream:
        for cf in self.char_filters:
            text = cf(text)
        stream: Stream = [(t, p)
                          for p, t in enumerate(self.tokenizer(text))]
        for tf in self.token_filters:
            stream = tf(stream)
        return stream

    def __call__(self, text: str) -> list[str]:
        return [t for t, _ in self.tokens_pos(text)]

    def analyze_flat(self, texts):
        import numpy as np
        import pyarrow as pa

        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        doc_lengths = np.empty(len(texts), dtype=np.int64)
        flat: list[str] = []
        doc_of_l: list[int] = []
        pos_l: list[int] = []
        for i, text in enumerate(texts):
            tp = self.tokens_pos(text or "")
            flat.extend(t for t, _ in tp)
            pos_l.extend(p for _, p in tp)
            doc_of_l.extend([i] * len(tp))
            doc_lengths[i] = len(tp)
        return (doc_lengths, pa.array(flat, pa.string()),
                np.array(doc_of_l, dtype=np.int64),
                np.array(pos_l, dtype=np.int64))


class Builder:
    def __init__(self):
        self._char_filters: list = []
        self._char_names: list[str] = []
        self._tokenizer = None
        self._tokenizer_name: str | None = None
        self._token_filters: list = []
        self._filter_names: list[str] = []
        self._pos_inc_gap = 0
        self._offset_gap = 1
        self._pos_set = False
        self._ofs_set = False

    def add_char_filter(self, name: str, **params) -> "Builder":
        if self._tokenizer is not None:
            raise ValueError(
                "this builder requires the components to be in order: "
                "char filters come before the tokenizer")
        fac = _CHAR_FILTERS.get(name.lower())
        if fac is None:
            raise ValueError(f"a SPI class of type CharFilterFactory "
                             f"with name '{name}' does not exist")
        self._char_filters.append(fac(**params))
        self._char_names.append(name.lower())
        return self

    def with_tokenizer(self, name: str, **params) -> "Builder":
        if self._tokenizer is not None:
            raise ValueError("you may only set the tokenizer once")
        fac = _TOKENIZERS.get(name.lower())
        if fac is None:
            raise ValueError(f"a SPI class of type TokenizerFactory "
                             f"with name '{name}' does not exist")
        self._tokenizer = fac(**params)
        self._tokenizer_name = name.lower()
        return self

    def add_token_filter(self, name: str, **params) -> "Builder":
        if self._tokenizer is None:
            raise ValueError(
                "this builder requires the components to be in order: "
                "the tokenizer must come before token filters")
        fac = _TOKEN_FILTERS.get(name.lower())
        if fac is None:
            raise ValueError(f"a SPI class of type TokenFilterFactory "
                             f"with name '{name}' does not exist")
        self._token_filters.append(fac(**params))
        self._filter_names.append(name.lower())
        return self

    def with_position_increment_gap(self, gap: int) -> "Builder":
        if self._pos_set:
            raise ValueError(
                "you may only set the position increment gap once")
        self._pos_inc_gap = gap
        self._pos_set = True
        return self

    def with_offset_gap(self, gap: int) -> "Builder":
        if self._ofs_set:
            raise ValueError("you may only set the offset gap once")
        self._offset_gap = gap
        self._ofs_set = True
        return self

    def build(self) -> CustomAnalyzer:
        if self._tokenizer is None:
            raise ValueError("you have to set at least a tokenizer")
        return CustomAnalyzer(
            self._char_filters, self._tokenizer, self._token_filters,
            self._pos_inc_gap, self._offset_gap,
            {"tokenizer": self._tokenizer_name,
             "char_filters": self._char_names,
             "token_filters": self._filter_names})

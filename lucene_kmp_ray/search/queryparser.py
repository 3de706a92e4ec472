"""Classic query-parser subset → query IR.

The syntax subset of the reference's JavaCC-generated classic parser
(``/root/reference/queryparser/.../classic/QueryParser.kt``,
``QueryParserBase.kt:51,161,380``) that covers its documented surface:

    spark AND join            conjunction
    spark OR data             disjunction
    spark join                default operator (OR, like Lucene's default)
    +spark join -window       required / optional / prohibited
    NOT window                prohibited
    "big order scan"          phrase (boost: "big scan"^2)
    spar?  sp*k  spark*       wildcard / prefix
    spark~1                   fuzzy (max_edits)
    /sp.rk?/                  regexp (RegexpQuery, anchored)
    [batch TO data]           term range (inclusive); {..} exclusive
    title:[a TO b]            field-scoped range / phrase / term
    spark^2.5                 boost
    sp\\*rk  foo\\:bar          backslash-escaped specials (literal)
    (spark OR data) AND join  grouping

Field prefixes (``title:foo``) scope the clause to that field
(QueryParserBase.getFieldQuery's field argument); bare terms use the
parser's default field ("text"). ``multi_field_parse`` is the
MultiFieldQueryParser analog (queryparser/classic/MultiFieldQueryParser.kt):
un-fielded clauses expand to one SHOULD clause per field. Bare terms are
re-analyzed with the indexing analyzer before becoming TermQuerys
(QueryBuilder.kt:45,115-178 — query-side tokenization MUST match the index
side); a bare term that analyzes to several tokens becomes a phrase, one
that analyzes to none (e.g. punctuation) is dropped.

Clause semantics reproduce ``QueryParserBase.addClause``: with default
operator OR, unmarked clauses are SHOULD; ``+``/``AND`` neighbours become
MUST; ``-``/``NOT`` become MUST_NOT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..analysis.standard import fold_case, tokenize
from .query import (BooleanQuery, BoostQuery, FuzzyQuery, Occur, PhraseQuery,
                    PrefixQuery, Query, RegexpQuery, TermQuery,
                    TermRangeQuery, WildcardQuery)

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<lparen>\() | (?P<rparen>\)) |
      (?P<and>AND\b|&&) | (?P<or>OR\b|\|\|) | (?P<not>NOT\b) |
      (?P<plus>\+) | (?P<minus>-) |
      (?P<field>[A-Za-z_]\w*:)?
      (?:
        (?P<phrase>"(?P<phrase_body>[^"]*)"(?:~(?P<slop>\d+))?) |
        (?P<regex>/(?P<regex_body>(?:[^/\\]|\\.)*)/) |
        (?P<range>[\[{](?P<range_lo>[^\s\]}]+)\s+TO\s+(?P<range_hi>[^\s\]}]+)[\]}]) |
        (?P<term>(?:[^\s()+\-"^\\]|\\.)(?:[^\s()"^\\]|\\.)*)
      )
    )(?:\^(?P<boost>\d+(?:\.\d+)?))?
""", re.VERBOSE)
# note the term pattern: '-' is an operator only at a clause BOUNDARY; inside
# a token ("foo-bar") it is term text, which the analyzer then splits — the
# classic parser's behavior (QueryParserBase.kt:161).


@dataclass
class _Tok:
    kind: str
    text: str
    boost: float | None = None
    extra: dict | None = None


def _lex(s: str) -> list[_Tok]:
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError(f"cannot parse query at: {s[pos:]!r}")
            break
        pos = m.end()
        boost = float(m.group("boost")) if m.group("boost") else None
        for kind in ("lparen", "rparen", "and", "or", "not", "plus", "minus"):
            if m.group(kind):
                out.append(_Tok(kind, m.group(kind), boost))  # ")^2"
                break
        else:
            fld = m.group("field")
            fld = fld[:-1] if fld else None
            if m.group("phrase") is not None:
                out.append(_Tok("phrase", m.group("phrase_body"), boost,
                                {"slop": int(m.group("slop") or 0),
                                 "field": fld}))
            elif m.group("regex") is not None:
                out.append(_Tok("regex", m.group("regex_body"), boost,
                                {"field": fld}))
            elif m.group("range") is not None:
                out.append(_Tok("range", m.group("range"), boost, {
                    "lo": m.group("range_lo"), "hi": m.group("range_hi"),
                    "inc_lo": m.group("range").startswith("["),
                    "inc_hi": m.group("range").endswith("]"),
                    "field": fld}))
            else:
                out.append(_Tok("term", m.group("term"), boost,
                                {"field": fld}))
    return out


def _scan_escapes(raw: str) -> tuple[str, list[bool]]:
    """Resolve backslash escapes (QueryParserBase.discardEscapeChar role):
    returns (clean text, per-char 'active' flags) — an escaped char is
    literal text and never query syntax."""
    clean: list[str] = []
    active: list[bool] = []
    i = 0
    while i < len(raw):
        if raw[i] == "\\" and i + 1 < len(raw):
            clean.append(raw[i + 1])
            active.append(False)
            i += 2
        else:
            clean.append(raw[i])
            active.append(True)
            i += 1
    return "".join(clean), active





def _analyze_term(raw: str, analyzer) -> list[str]:
    return analyzer(raw) if analyzer is not None else tokenize(raw)


def _term_to_query(tok: _Tok, analyzer, default_field: str) -> Query | None:
    fld = (tok.extra or {}).get("field") or default_field
    clean, active = _scan_escapes(tok.text)

    def is_active(ch: str) -> bool:
        return any(c == ch and a for c, a in zip(clean, active))

    # fuzzy: trailing UNESCAPED ~[digit]
    if len(clean) >= 2 and not is_active("*") and not is_active("?"):
        tail = 2 if clean[-1].isdigit() and len(clean) >= 3 and \
            clean[-2] == "~" else 1
        tpos = len(clean) - tail
        if clean[tpos] == "~" and active[tpos] and tpos > 0:
            base = clean[:tpos]
            edits = int(clean[-1]) if tail == 2 else 2
            toks = _analyze_term(base, analyzer)
            if not toks:
                return None
            return FuzzyQuery(toks[0], max_edits=min(edits, 2), field=fld)
    if is_active("*") or is_active("?"):
        low = fold_case(clean)  # the index's case mapping (utf8_lower)
        stars = [i for i, (c, a) in enumerate(zip(low, active))
                 if a and c in "*?"]
        if len(stars) == 1 and low[stars[0]] == "*" and \
                stars[0] == len(low) - 1:
            return PrefixQuery(low[:-1], field=fld)
        if all(active):  # no escapes: plain wildcard syntax
            return WildcardQuery(low, field=fld)
        # escaped chars present: compile to an anchored regexp where
        # every literal (incl. escaped * / ?) is escaped
        pat = "".join(("." if c == "?" else ".*") if (a and c in "*?")
                      else re.escape(c)
                      for c, a in zip(low, active))
        return RegexpQuery(pat, field=fld)
    toks = _analyze_term(clean, analyzer)
    if not toks:
        return None
    if len(toks) == 1:
        return TermQuery(toks[0], fld)
    # unquoted text analyzing to several tokens → SHOULD-of-terms, the
    # classic default (autoGeneratePhraseQueries=false, QueryBuilder.kt:115)
    return BooleanQuery(tuple((Occur.SHOULD, TermQuery(t, fld))
                              for t in toks))


def _phrase_to_query(tok: _Tok, analyzer, default_field: str) -> Query | None:
    fld = (tok.extra or {}).get("field") or default_field
    text = tok.text
    toks = _analyze_term(text, analyzer)
    if not toks:
        return None
    if len(toks) == 1:
        return TermQuery(toks[0], fld)
    return PhraseQuery(tuple(toks), slop=tok.extra["slop"], field=fld)


def _range_to_query(tok: _Tok, default_field: str) -> Query:
    fld = tok.extra.get("field") or default_field
    lo = None if tok.extra["lo"] == "*" else fold_case(tok.extra["lo"])
    hi = None if tok.extra["hi"] == "*" else fold_case(tok.extra["hi"])
    return TermRangeQuery(lo, hi, tok.extra["inc_lo"], tok.extra["inc_hi"],
                          field=fld)


class _Parser:
    def __init__(self, toks: list[_Tok], analyzer=None,
                 default_field: str = "text"):
        self.toks = toks
        self.i = 0
        self.analyzer = analyzer
        self.default_field = default_field

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def _phrase(self, tok: _Tok):
        return _phrase_to_query(tok, self.analyzer, self.default_field)

    def parse(self) -> Query:
        clauses: list[tuple[Occur, Query]] = []
        pending_occur: Occur | None = None
        conj_with_prev = False
        while (t := self.peek()) is not None:
            if t.kind == "rparen":
                break
            t = self.next()
            if t.kind == "and":
                conj_with_prev = True
                # retro-promote the previous clause to MUST (QueryParserBase)
                if clauses and clauses[-1][0] == Occur.SHOULD:
                    clauses[-1] = (Occur.MUST, clauses[-1][1])
                continue
            if t.kind == "or":
                conj_with_prev = False
                continue
            if t.kind in ("not", "minus"):
                pending_occur = Occur.MUST_NOT
                continue
            if t.kind == "plus":
                pending_occur = Occur.MUST
                continue
            if t.kind == "lparen":
                q = self.parse()
                closing = self.peek()
                if closing is None or closing.kind != "rparen":
                    raise ValueError("unbalanced parentheses")
                self.next()
                nxt_boost = closing.boost  # "(a b)^2"
            else:
                nxt_boost = t.boost
                if t.kind == "phrase":
                    q = self._phrase(t)
                elif t.kind == "range":
                    q = _range_to_query(t, self.default_field)
                elif t.kind == "regex":
                    q = RegexpQuery(
                        t.text.replace("\\/", "/"),
                        field=(t.extra or {}).get("field")
                        or self.default_field)
                else:
                    q = _term_to_query(t, self.analyzer,
                                       self.default_field)
            if q is None:
                pending_occur, conj_with_prev = None, False
                continue
            if nxt_boost is not None:
                q = BoostQuery(q, nxt_boost)
            occur = pending_occur or (Occur.MUST if conj_with_prev
                                      else Occur.SHOULD)
            clauses.append((occur, q))
            pending_occur, conj_with_prev = None, False
        if not clauses:
            raise ValueError("empty query")
        if len(clauses) == 1 and clauses[0][0] == Occur.SHOULD:
            return clauses[0][1]
        return BooleanQuery(tuple(clauses))


def parse_query(s: str, analyzer=None, default_field: str = "text") -> Query:
    """Parse a classic-syntax query string into the query IR.

    ``analyzer`` (a callable text → tokens, e.g. EnglishAnalyzer) re-analyzes
    bare terms and phrase bodies — the QueryBuilder symmetry rule: the query
    side MUST use the analyzer the index was built with
    (util/QueryBuilder.kt:45). Default = the standard chain. Clauses with
    an explicit ``field:`` prefix scope to that field; others use
    ``default_field``."""
    return _Parser(_lex(s), analyzer, default_field).parse()


def multi_field_parse(s: str, fields: tuple[str, ...] = ("text", "title"),
                      analyzer=None,
                      boosts: dict[str, float] | None = None) -> Query:
    """MultiFieldQueryParser analog
    (queryparser/classic/MultiFieldQueryParser.kt): parse with a sentinel
    default field, then expand every un-fielded leaf into one SHOULD clause
    per field (optionally boosted per field) — exactly the reference's
    getFieldQuery(null) expansion. Explicit ``field:`` prefixes survive
    unexpanded."""
    import dataclasses

    sentinel = "\x00multi"
    q = parse_query(s, analyzer, default_field=sentinel)

    def expand(node: Query) -> Query:
        if isinstance(node, BooleanQuery):
            return BooleanQuery(
                tuple((occ, expand(sub)) for occ, sub in node.clauses),
                node.minimum_should_match)
        if isinstance(node, BoostQuery):
            return BoostQuery(expand(node.query), node.boost)
        if getattr(node, "field", None) == sentinel:
            per = []
            for f in fields:
                sub = dataclasses.replace(node, field=f)
                if boosts and f in boosts:
                    sub = BoostQuery(sub, boosts[f])
                per.append((Occur.SHOULD, sub))
            if len(per) == 1:
                return per[0][1]
            return BooleanQuery(tuple(per))
        return node

    return expand(q)


# ------------------------------------------------ ComplexPhraseQueryParser
def _span_element(tok: _Tok, fld: str, analyzer):
    """One phrase element → a span: plain term → SpanTermQuery,
    wildcard/prefix/fuzzy/range → SpanMultiTermQueryWrapper."""
    from .query import MultiTermQuery
    from .spans import SpanMultiTermQueryWrapper, SpanTermQuery

    if (tok.extra or {}).get("field"):
        raise ValueError(
            f"field-scoped element inside complex phrase: {tok.text!r}")
    if tok.kind == "range":
        q = _range_to_query(tok, fld)
    elif tok.kind == "regex":
        q = RegexpQuery(tok.text.replace("\\/", "/"), field=fld)
    else:
        q = _term_to_query(tok, analyzer, fld)
    if q is None:
        return None
    if isinstance(q, TermQuery):
        return SpanTermQuery(q.term, q.field)
    if isinstance(q, MultiTermQuery):
        return SpanMultiTermQueryWrapper(q)
    raise ValueError(f"unsupported complex-phrase element: {tok.text!r}")


def _complex_phrase_to_query(tok: _Tok, analyzer, default_field: str,
                             in_order: bool):
    """Quoted phrase with embedded wildcard/fuzzy/range/group syntax →
    span algebra (the ComplexPhraseQuery rewrite,
    ``queryparser/complexPhrase/ComplexPhraseQueryParser.kt``):
    each element contributes one slot; ``(a OR b)`` → SpanOr,
    ``(jo* -john)`` → SpanNot(SpanOr(positives), SpanOr(negatives));
    slots combine through SpanNearQuery(slop, in_order)."""
    from .spans import SpanNearQuery, SpanNotQuery, SpanOrQuery

    fld = (tok.extra or {}).get("field") or default_field
    body_toks = _lex(tok.text)
    slots = []
    i = 0
    while i < len(body_toks):
        t = body_toks[i]
        if t.kind == "lparen":
            inc, exc = [], []
            neg = False
            i += 1
            while i < len(body_toks) and body_toks[i].kind != "rparen":
                tj = body_toks[i]
                if tj.kind in ("minus", "not"):
                    neg = True
                elif tj.kind in ("or", "and", "plus"):
                    pass
                else:
                    sq = _span_element(tj, fld, analyzer)
                    if sq is not None:
                        (exc if neg else inc).append(sq)
                    neg = False
                i += 1
            i += 1  # consume rparen
            if not inc:
                raise ValueError("complex phrase group needs a positive "
                                 "element")
            q = inc[0] if len(inc) == 1 else SpanOrQuery(tuple(inc))
            if exc:
                e = exc[0] if len(exc) == 1 else SpanOrQuery(tuple(exc))
                q = SpanNotQuery(q, e)
            slots.append(q)
        elif t.kind in ("term", "range", "regex"):
            sq = _span_element(t, fld, analyzer)
            if sq is not None:
                slots.append(sq)
            i += 1
        else:
            raise ValueError(
                f"unsupported token in complex phrase: {t.kind}")
    if not slots:
        return None
    if len(slots) == 1:
        return slots[0]
    return SpanNearQuery(tuple(slots), slop=tok.extra["slop"],
                         in_order=in_order)


_PHRASE_SYNTAX_RE = re.compile(r'(?<!\\)[*?~()\[\{]|\sTO\s|(?<!\\)-')


class _ComplexPhraseParser(_Parser):
    """Phrases with complex syntax route through the span builder; plain
    phrases keep the exact PhraseQuery path (same matches; keeps BM25
    phrase scoring parity with the classic parser)."""

    def __init__(self, toks, analyzer=None, default_field="text",
                 in_order=True):
        super().__init__(toks, analyzer, default_field)
        self.in_order = in_order

    def _phrase(self, tok: _Tok):
        if _PHRASE_SYNTAX_RE.search(tok.text):
            return _complex_phrase_to_query(tok, self.analyzer,
                                            self.default_field,
                                            self.in_order)
        return _phrase_to_query(tok, self.analyzer, self.default_field)


def complex_phrase_parse(s: str, analyzer=None,
                         default_field: str = "text",
                         in_order: bool = True) -> Query:
    """ComplexPhraseQueryParser analog
    (``queryparser/complexPhrase/ComplexPhraseQueryParser.kt``): classic
    syntax OUTSIDE quotes; INSIDE quotes, wildcard / prefix / fuzzy /
    range / grouped-OR / negation elements build a SpanNear over the
    phrase slots."""
    return _ComplexPhraseParser(_lex(s), analyzer, default_field,
                                in_order).parse()

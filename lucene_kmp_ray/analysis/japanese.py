"""Japanese morphological analysis (kuromoji semantics) on a compact
dictionary.

Faithful port of the reference's lattice tokenizer semantics:

- ``JapaneseTokenizer`` / ``KuromojiViterbiNBest``
  [ref: analysis/kuromoji/.../ja/JapaneseTokenizer.kt:35,
        analysis/kuromoji/.../ja/KuromojiViterbiNBest.kt:19-496,
        analysis/common/.../morph/Viterbi.kt:50-330]:
  Viterbi over a character lattice; known words from a dictionary,
  unknown words per character class (grouped per char.def), bigram
  connection costs; SEARCH mode decomposes long tokens during backtrace
  via pruneAndRescore with penalties (kanji>2: 3000/extra char,
  other>7: 1700/extra char).
- ``JapaneseAnalyzer`` chain [ref: ja/JapaneseAnalyzer.kt:31-39]:
  CJKWidthCharFilter -> JapaneseTokenizer(SEARCH) -> BaseFormFilter ->
  PartOfSpeechStopFilter -> StopFilter -> KatakanaStemFilter ->
  LowerCaseFilter.

Runtime data (``analysis/data/kuromoji_runtime.npz``) is decoded from the
public mecab-ipadic-derived assets the reference distributes (connection
cost matrix, character definition, unknown-word dictionary) — see
``scripts/build_kuromoji_assets.py``.  The reference distribution does
not include the known-word cost buffer (``TokenInfoDictionary$buffer``),
so the known-word lexicon here is a curated compact TSV
(``kuromoji_lexicon.tsv``) with authentic IPADIC connection ids (resolved
from ``TokenInfoDictionary$posDict``) and a hand-assigned cost model.
Segmentation is validated against the reference's own test vectors
(TestJapaneseAnalyzer.kt, TestSearchMode.kt) in
``tests/test_japanese_analyzer.py``; sentences relying on IPADIC entries
outside the compact lexicon may segment differently.
"""

from __future__ import annotations

import json
import os
import unicodedata
from functools import lru_cache

import numpy as np

from ..util.native import lib

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# character classes [ref: ja/dict/CharacterDefinition.kt CharacterClass]
NGRAM, DEFAULT, SPACE, SYMBOL, NUMERIC, ALPHA = 0, 1, 2, 3, 4, 5
CYRILLIC, GREEK, HIRAGANA, KATAKANA, KANJI, KANJINUMERIC = 6, 7, 8, 9, 10, 11

KNOWN, UNKNOWN = 0, 1

# search-mode constants [ref: ja/KuromojiViterbiNBest.kt:43-46]
SEARCH_MODE_KANJI_LENGTH = 2
SEARCH_MODE_OTHER_LENGTH = 7
SEARCH_MODE_KANJI_PENALTY = 3000
SEARCH_MODE_OTHER_PENALTY = 1700

MAX_UNKNOWN_WORD_LENGTH = 1024

# [ref: ja/KuromojiViterbiNBest.kt isPunctuation — JDK char categories]
_PUNCT_CATS = frozenset([
    "Zs", "Zl", "Zp", "Cc", "Cf", "Pd", "Ps", "Pe", "Pc", "Po",
    "Sm", "Sc", "Sk", "So", "Pi", "Pf",
])


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch) in _PUNCT_CATS


class _Runtime:
    """Shared immutable dictionary state (loaded once per process)."""

    def __init__(self):
        d = np.load(os.path.join(_DATA_DIR, "kuromoji_runtime.npz"))
        self.char_cat = d["char_category"]          # uint8[65536]
        self.invoke = d["invoke"]                   # bool[12]
        self.group = d["group"]                     # bool[12]
        # cost(forwardId=prev rightId, backwardId=next leftId)
        #   = conn[backwardId, forwardId]
        # int16[1316,1316] -> nested Python lists: the Viterbi inner
        # loops index single cells, and plain-int rows are ~3x faster
        # than numpy scalar extraction there (~7 MB per process)
        self.conn = d["conn_costs"].tolist()
        # contiguous int16 view for the compiled lattice core
        self.conn_np = np.ascontiguousarray(d["conn_costs"],
                                            dtype=np.int16)
        self.unk_class_off = d["unk_class_offsets"]  # int32[13]
        self.unk_left = d["unk_left_ids"]           # == rightId for unk
        self.unk_cost = d["unk_word_costs"]
        with open(os.path.join(_DATA_DIR, "kuromoji_unk_pos.json")) as f:
            self.unk_pos = json.load(f)
        with open(os.path.join(_DATA_DIR, "kuromoji_pos_ids.json")) as f:
            pos_ids = json.load(f)

        # resolve the curated lexicon against the authentic id table
        by_triple: dict[tuple, list[int]] = {}
        for i, (p, t, f_) in enumerate(pos_ids):
            by_triple.setdefault((p, t, f_), []).append(i)

        surfaces: dict[str, list[int]] = {}
        left, right, cost, pos, base, readings = [], [], [], [], [], []
        path = os.path.join(_DATA_DIR, "kuromoji_lexicon.tsv")
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                # surface, pos, infl_type, infl_form, base_form, cost
                #   [, conn] [, reading]
                surface, p, t, fo, bf, c = fields[:6]
                if len(fields) > 6 and fields[6]:
                    cid = int(fields[6])
                else:
                    ids = by_triple.get((p, t, fo))
                    if not ids:
                        raise ValueError(
                            f"kuromoji_lexicon: no IPADIC id for {p},{t},{fo}")
                    cid = ids[0]
                wid = len(left)
                left.append(cid)
                right.append(cid)
                cost.append(int(c))
                pos.append(p)
                base.append(bf or None)
                readings.append(fields[7] if len(fields) > 7
                                and fields[7] else None)
                surfaces.setdefault(surface, []).append(wid)
        self.lex_left = left
        self.lex_right = right
        self.lex_cost = cost
        self.lex_pos = pos
        self.lex_base = base
        self.lex_reading = readings
        self.surfaces = surfaces
        # all proper prefixes of lexicon surfaces, for the scan cutoff
        prefixes = set()
        for s in surfaces:
            for i in range(1, len(s)):
                prefixes.add(s[:i])
        self.prefixes = prefixes
        self.max_len = max((len(s) for s in surfaces), default=0)

    def c_tables(self) -> dict:
        """Lazily staged static arrays for the compiled lattice core
        (lexicon trie + int32 attribute tables), built once per
        process."""
        t = getattr(self, "_c_tables", None)
        # "ptrs" are RAW ADDRESSES valid only in the process that built
        # them: a runtime tokenized in the Ray driver then pickled into
        # a worker would otherwise hand the C core dangling driver
        # pointers (the build_group segfault) — rebuild on pid change
        if t is not None and t.get("pid") != os.getpid():
            t = None
        if t is None:
            from .cviterbi import build_trie
            arrays = (build_trie(self.surfaces) + (
                np.array(self.lex_left, dtype=np.int32),
                np.array(self.lex_right, dtype=np.int32),
                np.array(self.lex_cost, dtype=np.int32),
                np.ascontiguousarray(self.unk_class_off, dtype=np.int32),
                np.ascontiguousarray(self.unk_left, dtype=np.int32),
                np.ascontiguousarray(self.unk_cost, dtype=np.int32),
                np.ascontiguousarray(self.invoke, dtype=np.uint8),
                np.ascontiguousarray(self.group, dtype=np.uint8),
            ))
            t = {
                "arrays": arrays,  # keep-alive for the raw pointers
                "ptrs": tuple(a.ctypes.data for a in arrays),
                "conn_ptr": self.conn_np.ctypes.data,
                "conn_dim": int(self.conn_np.shape[1]),
                "pid": os.getpid(),  # addresses die with this process
            }
            self._c_tables = t
        return t

    def char_class(self, ch: str) -> int:
        o = ord(ch)
        return int(self.char_cat[o]) if o < 0x10000 else DEFAULT

    def is_kanji(self, ch: str) -> bool:
        c = self.char_class(ch)
        return c == KANJI or c == KANJINUMERIC


@lru_cache(maxsize=1)
def _runtime() -> _Runtime:
    return _Runtime()


# ---------------------------------------------------------------------------
# CJKWidthCharFilter [ref: analysis/common/.../cjk/CJKWidthCharFilter.kt]
# ---------------------------------------------------------------------------

_KANA_NORM = [
    0x30FB, 0x30F2, 0x30A1, 0x30A3, 0x30A5, 0x30A7, 0x30A9, 0x30E3, 0x30E5,
    0x30E7, 0x30C3, 0x30FC, 0x30A2, 0x30A4, 0x30A6, 0x30A8, 0x30AA, 0x30AB,
    0x30AD, 0x30AF, 0x30B1, 0x30B3, 0x30B5, 0x30B7, 0x30B9, 0x30BB, 0x30BD,
    0x30BF, 0x30C1, 0x30C4, 0x30C6, 0x30C8, 0x30CA, 0x30CB, 0x30CC, 0x30CD,
    0x30CE, 0x30CF, 0x30D2, 0x30D5, 0x30D8, 0x30DB, 0x30DE, 0x30DF, 0x30E0,
    0x30E1, 0x30E2, 0x30E4, 0x30E6, 0x30E8, 0x30E9, 0x30EA, 0x30EB, 0x30EC,
    0x30ED, 0x30EF, 0x30F3, 0x3099, 0x309A,
]
_KANA_VOICED = [
    78, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
    0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1,
    0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 8, 8, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
]
_KANA_SEMI_VOICED = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2,
    0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
]


def cjk_width_fold_offsets(text: str) -> "tuple[str, list[int] | None]":
    """Fold widths; return (folded, origin-index per output char).
    ``origin`` is None when the text needed no folding (identity
    mapping) — every affected codepoint lives in U+FF01..U+FF9F, so a
    single scan decides the fast path."""
    if not any("！" <= ch <= "ﾟ" for ch in text):
        return text, None
    out: list[str] = []
    origin: list[int] = []
    for i, ch in enumerate(text):
        o = ord(ch)
        if o in (0xFF9E, 0xFF9F) and out:
            prev = ord(out[-1])
            if 0x30A6 <= prev <= 0x30FD:
                diff = (_KANA_SEMI_VOICED if o == 0xFF9F
                        else _KANA_VOICED)[prev - 0x30A6]
                if diff:
                    out[-1] = chr(prev + diff)
                    continue
        if 0xFF01 <= o <= 0xFF5E:
            ch = chr(o - 0xFEE0)
        elif 0xFF65 <= o <= 0xFF9F:
            ch = chr(_KANA_NORM[o - 0xFF65])
        out.append(ch)
        origin.append(i)
    return "".join(out), origin


# ---------------------------------------------------------------------------
# Viterbi lattice
# ---------------------------------------------------------------------------

class _Position:
    __slots__ = ("pos", "count", "costs", "lastRightID", "backPos",
                 "backWordPos", "backIndex", "backID", "backType",
                 "forwardCount", "forwardPos", "forwardIndex", "forwardID",
                 "forwardType")

    def __init__(self, pos: int):
        self.pos = pos
        self.count = 0
        self.costs: list[int] = []
        self.lastRightID: list[int] = []
        self.backPos: list[int] = []
        self.backWordPos: list[int] = []
        self.backIndex: list[int] = []
        self.backID: list[int] = []
        self.backType: list[int] = []
        self.forwardCount = 0
        self.forwardPos: list[int] = []
        self.forwardIndex: list[int] = []
        self.forwardID: list[int] = []
        self.forwardType: list[int] = []

    def add(self, cost, lastRightID, backPos, backWordPos, backIndex,
            backID, backType):
        if self.count == len(self.costs):
            self.costs.append(cost)
            self.lastRightID.append(lastRightID)
            self.backPos.append(backPos)
            self.backWordPos.append(backWordPos)
            self.backIndex.append(backIndex)
            self.backID.append(backID)
            self.backType.append(backType)
        else:
            i = self.count
            self.costs[i] = cost
            self.lastRightID[i] = lastRightID
            self.backPos[i] = backPos
            self.backWordPos[i] = backWordPos
            self.backIndex[i] = backIndex
            self.backID[i] = backID
            self.backType[i] = backType
        self.count += 1

    def add_forward(self, forwardPos, forwardIndex, forwardID, forwardType):
        i = self.forwardCount
        if i == len(self.forwardPos):
            self.forwardPos.append(forwardPos)
            self.forwardIndex.append(forwardIndex)
            self.forwardID.append(forwardID)
            self.forwardType.append(forwardType)
        else:
            self.forwardPos[i] = forwardPos
            self.forwardIndex[i] = forwardIndex
            self.forwardID[i] = forwardID
            self.forwardType[i] = forwardType
        self.forwardCount += 1


class Token:
    __slots__ = ("surface", "start", "end", "pos_tag", "base_form",
                 "reading")

    def __init__(self, surface, start, end, pos_tag, base_form=None,
                 reading=None):
        self.surface = surface
        self.start = start
        self.end = end
        self.pos_tag = pos_tag
        self.base_form = base_form
        self.reading = reading

    def __repr__(self):  # pragma: no cover
        return f"Token({self.surface!r},{self.start},{self.end},{self.pos_tag})"


class JapaneseTokenizer:
    """Lattice tokenizer: dictionary + unknown words + Viterbi decode.

    mode: "normal" or "search" (decompounding heuristic, the analyzer
    default).  Punctuation tokens are discarded (the analyzer default).
    """

    def __init__(self, mode: str = "search",
                 discard_punctuation: bool = True,
                 user_dict: "UserDictionary | None" = None):
        self.rt = _runtime()
        # EXTENDED = SEARCH + unknown tokens split into unigrams
        # [ref: ja/JapaneseTokenizer.kt Mode]
        self.search_mode = mode in ("search", "extended")
        self.extended_mode = mode == "extended"
        self.discard_punctuation = discard_punctuation
        self.user_dict = user_dict
        self._obuf = None  # reusable output buffers for the C core

    # -- dictionary accessors (wordID -> attrs), type-dispatched ---------
    def _left(self, wid: int, typ: int) -> int:
        if typ == USER:
            return _USER_CONN_ID
        return (self.rt.lex_left[wid] if typ == KNOWN
                else int(self.rt.unk_left[wid]))

    def _right(self, wid: int, typ: int) -> int:
        if typ == USER:
            return _USER_CONN_ID
        return (self.rt.lex_right[wid] if typ == KNOWN
                else int(self.rt.unk_left[wid]))

    def _wcost(self, wid: int, typ: int) -> int:
        if typ == USER:
            return _USER_WORD_COST
        return (self.rt.lex_cost[wid] if typ == KNOWN
                else int(self.rt.unk_cost[wid]))

    def _pos_tag(self, wid: int, typ: int) -> str:
        if typ == USER:
            return self.user_dict.entries[wid][3]
        return (self.rt.lex_pos[wid] if typ == KNOWN
                else self.rt.unk_pos[wid])

    def _base(self, wid: int, typ: int):
        return self.rt.lex_base[wid] if typ == KNOWN else None

    def _compute_penalty(self, text: str, pos: int, length: int) -> int:
        # [ref: KuromojiViterbiNBest.kt computePenalty] — kanji flags
        # precomputed per text in tokenize()
        if length > SEARCH_MODE_KANJI_LENGTH:
            kan = self._kanji
            if all(kan[p] for p in range(pos, pos + length)):
                return ((length - SEARCH_MODE_KANJI_LENGTH)
                        * SEARCH_MODE_KANJI_PENALTY)
            if length > SEARCH_MODE_OTHER_LENGTH:
                return ((length - SEARCH_MODE_OTHER_LENGTH)
                        * SEARCH_MODE_OTHER_PENALTY)
        return 0

    def _add(self, positions, from_pos_data: _Position, word_pos: int,
             end_pos: int, wid: int, typ: int, text: str,
             add_penalty: bool) -> None:
        # [ref: morph/Viterbi.kt add()]
        conn = self.rt.conn
        left_id = self._left(wid, typ)
        least_cost, least_idx = 2**62, -1
        for idx in range(from_pos_data.count):
            c = (from_pos_data.costs[idx]
                 + conn[left_id][from_pos_data.lastRightID[idx]])
            if c < least_cost:
                least_cost, least_idx = c, idx
        least_cost += self._wcost(wid, typ)
        if add_penalty:
            least_cost += self._compute_penalty(
                text, from_pos_data.pos, end_pos - from_pos_data.pos)
        self._pos_at(positions, end_pos).add(
            least_cost, self._right(wid, typ), from_pos_data.pos, word_pos,
            least_idx, wid, typ)

    @staticmethod
    def _pos_at(positions: dict, pos: int) -> _Position:
        p = positions.get(pos)
        if p is None:
            p = positions[pos] = _Position(pos)
        return p

    def tokenize(self, text: str) -> list[Token]:
        """The tokens of ``text``: the compiled lattice
        (``_cviterbi.c``) without a user dictionary; with one, the Python
        lattice, which is also the compiled one's reference."""
        if not text:
            return []
        if self.user_dict is None:
            return self._tokenize_c(text)
        return self._tokenize_lattice(text)

    def _tokenize_lattice(self, text: str) -> list[Token]:
        """The Python lattice over non-empty ``text``."""
        rt = self.rt
        n = len(text)
        # one pass of per-char metadata: the unknown-word scan and the
        # kanji penalty re-query these many times per character
        cc = rt.char_cat
        ctypes = [int(cc[o]) if (o := ord(ch)) < 0x10000 else DEFAULT
                  for ch in text]
        self._ctypes = ctypes
        self._kanji = [t == KANJI or t == KANJINUMERIC for t in ctypes]
        positions: dict[int, _Position] = {}
        self._pos_at(positions, 0).add(0, 0, -1, -1, -1, -1, -1)  # BOS

        unknown_word_end = -1
        pos = 0
        while pos < n:
            pos_data = positions.get(pos)
            if pos_data is None or pos_data.count == 0:
                pos += 1
                continue

            # user-dictionary scan first: matches suppress the system
            # dictionary at this position [ref: morph/Viterbi.kt forward]
            any_matches = False
            ud = self.user_dict
            if ud is not None and ud.max_len:
                limit = min(n, pos + ud.max_len)
                end = pos
                while end < limit:
                    frag = text[pos:end + 1]
                    uid = ud.surfaces.get(frag)
                    if uid is not None:
                        self._add(positions, pos_data, pos, end + 1, uid,
                                  USER, text, False)
                        any_matches = True
                    elif frag not in ud.prefixes:
                        break
                    end += 1
            if not any_matches:
                # known-word dictionary scan from `pos`
                limit = min(n, pos + rt.max_len)
                end = pos
                while end < limit:
                    frag = text[pos:end + 1]
                    wids = rt.surfaces.get(frag)
                    if wids is not None:
                        for wid in wids:
                            self._add(positions, pos_data, pos, end + 1,
                                      wid, KNOWN, text, False)
                            any_matches = True
                    elif frag not in rt.prefixes:
                        break
                    end += 1

            # unknown word [ref: KuromojiViterbiNBest.kt processUnknownWord;
            #   in search mode it is never skipped]
            if self.search_mode or unknown_word_end <= pos:
                first = text[pos]
                cls = ctypes[pos]
                if not any_matches or rt.invoke[cls]:
                    is_punct = _is_punct(first)
                    if not rt.group[cls]:
                        ulen = 1
                    else:
                        ulen = 1
                        ahead = pos + 1
                        while (ulen < MAX_UNKNOWN_WORD_LENGTH and ahead < n
                               and ctypes[ahead] == cls
                               and _is_punct(text[ahead]) == is_punct):
                            ulen += 1
                            ahead += 1
                    lo = int(rt.unk_class_off[cls])
                    hi = int(rt.unk_class_off[cls + 1])
                    for wid in range(lo, hi):
                        self._add(positions, pos_data, pos, pos + ulen, wid,
                                  UNKNOWN, text, False)
                    unknown_word_end = pos + ulen
            pos += 1

        # EOS [ref: morph/Viterbi.kt forward() tail]
        end_pos_data = positions.get(n)
        if end_pos_data is None or end_pos_data.count == 0:
            return []
        conn = self.rt.conn
        least_cost, least_idx = 2**62, -1
        for idx in range(end_pos_data.count):
            c = (end_pos_data.costs[idx]
                 + conn[0][end_pos_data.lastRightID[idx]])
            if c < least_cost:
                least_cost, least_idx = c, idx
        pending = self._backtrace(positions, text, end_pos_data, least_idx)
        pending.reverse()
        return pending

    def _tokenize_c(self, text: str) -> list[Token]:
        """Compiled-lattice path (no user dictionary; both modes).

        Preps vectorized per-char codepoint / char-class / punctuation /
        kanji arrays and hands the whole forward scan (trie dictionary
        matches + unknown-word grouping), relaxation and search-mode
        decompound backtrace to ``_cviterbi.c``.  Token shaping
        (punctuation discard, extended-mode unigrams, base forms)
        happens here, in document order, mirroring _backtrace's
        emission rules."""
        from .cviterbi import punct_table

        rt = self.rt
        n = len(text)
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        if (cp >= 0x10000).any():
            bmp = cp < 0x10000
            cpb = np.where(bmp, cp, 0)
            cls = np.where(bmp, rt.char_cat[cpb],
                           DEFAULT).astype(np.uint8)
            punct = np.where(bmp, punct_table()[cpb],
                             0).astype(np.uint8)
            for i in np.flatnonzero(~bmp):
                punct[i] = 1 if _is_punct(text[i]) else 0
        else:
            cls = np.ascontiguousarray(rt.char_cat[cp])
            punct = np.ascontiguousarray(punct_table()[cp])
        kanji = ((cls == KANJI) | (cls == KANJINUMERIC)).astype(np.uint8)

        t = rt.c_tables()
        ob = self._obuf
        # _obuf_ptrs are raw addresses — stale after an unpickle into
        # another process (same hazard as c_tables "ptrs"): re-allocate
        # when the owning pid changed
        if ob is None or len(ob[0]) < n \
                or getattr(self, "_obuf_pid", None) != os.getpid():
            size = max(256, n)
            ob = (np.empty(size, dtype=np.int32),
                  np.empty(size, dtype=np.int32),
                  np.empty(size, dtype=np.int32),
                  np.empty(size, dtype=np.int8))
            self._obuf = ob
            self._obuf_ptrs = tuple(a.ctypes.data for a in ob)
            self._obuf_pid = os.getpid()
        out_start, out_end, out_wid, out_typ = ob

        ntok = lib("viterbi").viterbi_analyze(
            n, cp.ctypes.data, cls.ctypes.data, punct.ctypes.data,
            kanji.ctypes.data, *t["ptrs"], t["conn_ptr"], t["conn_dim"],
            1 if self.search_mode else 0, *self._obuf_ptrs)
        if ntok < 0:
            raise MemoryError("viterbi_analyze")

        pending: list[Token] = []
        for i in range(ntok):
            s = int(out_start[i])
            e = int(out_end[i])
            wid = int(out_wid[i])
            typ = int(out_typ[i])
            if self.extended_mode and typ == UNKNOWN:
                tag = self._pos_tag(wid, typ)
                for k in range(s, e):
                    ch = text[k]
                    if self.discard_punctuation and _is_punct(ch):
                        continue
                    pending.append(Token(ch, k, k + 1, tag, None))
            elif not self.discard_punctuation or e == s \
                    or not _is_punct(text[s]):
                reading = rt.lex_reading[wid] if typ == KNOWN else None
                pending.append(Token(text[s:e], s, e,
                                     self._pos_tag(wid, typ),
                                     self._base(wid, typ), reading))
        return pending

    def _backtrace(self, positions, text, end_pos_data: _Position,
                   from_idx: int) -> list[Token]:
        # [ref: KuromojiViterbiNBest.kt backtrace(); outputCompounds=false]
        conn = self.rt.conn
        pending: list[Token] = []
        pos = end_pos_data.pos
        best_idx = from_idx
        alt_token_start = None  # start offset of suppressed compound token
        last_left_word_id = -1

        while pos > 0:
            pos_data = positions[pos]
            back_pos = pos_data.backPos[best_idx]
            length = pos - back_pos
            back_type = pos_data.backType[best_idx]
            back_id = pos_data.backID[best_idx]
            next_best_idx = pos_data.backIndex[best_idx]

            if (self.search_mode and alt_token_start is None
                    and back_type != USER):
                penalty = self._compute_penalty(text, back_pos, length)
                if penalty > 0:
                    max_cost = pos_data.costs[best_idx] + penalty
                    if last_left_word_id != -1:
                        max_cost += conn[last_left_word_id][
                            self._right(back_id, back_type)]
                    self._prune_and_rescore(
                        positions, text, back_pos, pos,
                        pos_data.backIndex[best_idx])
                    least_cost, least_idx = 2**62, -1
                    for idx in range(pos_data.count):
                        c = pos_data.costs[idx]
                        if last_left_word_id != -1:
                            c += conn[last_left_word_id][
                                self._right(pos_data.backID[idx],
                                            pos_data.backType[idx])]
                        if c < least_cost:
                            least_cost, least_idx = c, idx
                    if (least_idx != -1 and least_cost <= max_cost
                            and pos_data.backPos[least_idx] != back_pos):
                        # decompose: switch to the second-best path;
                        # the compound itself is not emitted
                        alt_token_start = back_pos
                        best_idx = least_idx
                        next_best_idx = pos_data.backIndex[best_idx]
                        back_pos = pos_data.backPos[best_idx]
                        length = pos - back_pos
                        back_type = pos_data.backType[best_idx]
                        back_id = pos_data.backID[best_idx]

            if alt_token_start is not None and alt_token_start >= back_pos:
                alt_token_start = None

            if back_type == USER:
                # forced segmentation [ref: KuromojiViterbiNBest.kt
                # backtrace USER branch]: emit the entry's parts with
                # per-part readings; final list reversal restores order
                surface, lens, readings, pos_tag = \
                    self.user_dict.entries[back_id]
                cur = back_pos + length
                for k in range(len(lens) - 1, -1, -1):
                    cur -= lens[k]
                    pending.append(Token(
                        text[cur:cur + lens[k]], cur, cur + lens[k],
                        pos_tag, None,
                        readings[k] if k < len(readings) else None))
            elif self.extended_mode and back_type == UNKNOWN:
                # [ref: KuromojiViterbiNBest.kt backtrace extendedMode
                # branch]: unknown tokens emit per-character unigrams
                for k in range(length - 1, -1, -1):
                    ch = text[back_pos + k]
                    if self.discard_punctuation and _is_punct(ch):
                        continue
                    pending.append(Token(
                        ch, back_pos + k, back_pos + k + 1,
                        self._pos_tag(back_id, back_type), None))
            elif (not self.discard_punctuation or length == 0
                    or not _is_punct(text[back_pos])):
                reading = (self.rt.lex_reading[back_id]
                           if back_type == KNOWN else None)
                pending.append(Token(
                    text[back_pos:back_pos + length], back_pos,
                    back_pos + length, self._pos_tag(back_id, back_type),
                    self._base(back_id, back_type), reading))

            last_left_word_id = self._left(back_id, back_type)
            pos = back_pos
            best_idx = next_best_idx
        return pending

    def _prune_and_rescore(self, positions, text, start_pos: int,
                           end_pos: int, best_start_idx: int) -> None:
        # [ref: KuromojiViterbiNBest.kt pruneAndRescore()]
        for pos in range(end_pos, start_pos, -1):
            pos_data = positions.get(pos)
            if pos_data is None:
                continue
            for arc in range(pos_data.count):
                back_pos = pos_data.backPos[arc]
                if back_pos >= start_pos:
                    self._pos_at(positions, back_pos).add_forward(
                        pos, arc, pos_data.backID[arc],
                        pos_data.backType[arc])
            pos_data.count = 0

        conn = self.rt.conn
        for pos2 in range(start_pos, end_pos):
            pos_data = positions.get(pos2)
            if pos_data is None:
                continue
            if pos_data.count == 0:
                pos_data.forwardCount = 0
                continue
            if pos2 == start_pos:
                if start_pos == 0:
                    right_id = 0
                else:
                    right_id = self._right(pos_data.backID[best_start_idx],
                                           pos_data.backType[best_start_idx])
                path_cost = pos_data.costs[best_start_idx]
                for f in range(pos_data.forwardCount):
                    typ = pos_data.forwardType[f]
                    wid = pos_data.forwardID[f]
                    to_pos = pos_data.forwardPos[f]
                    new_cost = (path_cost + self._wcost(wid, typ)
                                + conn[self._left(wid, typ)][right_id]
                                + self._compute_penalty(
                                    text, pos2, to_pos - pos2))
                    self._pos_at(positions, to_pos).add(
                        new_cost, self._right(wid, typ), pos2, -1,
                        best_start_idx, wid, typ)
            else:
                for f in range(pos_data.forwardCount):
                    typ = pos_data.forwardType[f]
                    to_pos = pos_data.forwardPos[f]
                    self._add(positions, pos_data, pos2, to_pos,
                              pos_data.forwardID[f], typ, text, True)
            pos_data.forwardCount = 0


# ---------------------------------------------------------------------------
# Analyzer chain
# ---------------------------------------------------------------------------

# [ref: ja/JapaneseAnalyzer.kt DefaultSetHolder.DEFAULT_STOP_SET]
JA_STOP_WORDS = frozenset("""
の に は を た が で て と し れ さ ある いる も する から な こと として い
や れる など なっ ない この ため その あっ よう また もの という あり まで
られ なる へ か だ これ によって により おり より による ず なり られる
において ば なかっ なく しかし について せ だっ その後 できる それ う ので
なお のみ でき き つ における および いう さらに でも ら たり その他
に関する たち ます ん なら に対して 特に せる 及び これら とき では にて
ほか ながら うち そして とともに ただし かつて それぞれ または お ほど
ものの に対する ほとんど と共に といった です とも ところ ここ
""".split())

# [ref: ja/JapaneseAnalyzer.kt DefaultSetHolder.DEFAULT_STOP_TAGS]
JA_STOP_TAGS = frozenset("""
接続詞 助詞 助詞-格助詞 助詞-格助詞-一般 助詞-格助詞-引用 助詞-格助詞-連語
助詞-接続助詞 助詞-係助詞 助詞-副助詞 助詞-間投助詞 助詞-並立助詞
助詞-終助詞 助詞-副助詞／並立助詞／終助詞 助詞-連体化 助詞-副詞化
助詞-特殊 助動詞 記号 記号-一般 記号-読点 記号-句点 記号-空白 記号-括弧開
記号-括弧閉 その他-間投 フィラー 非言語音
""".split())

_KATAKANA_STEM_MIN = 4  # [ref: ja/JapaneseKatakanaStemFilter.kt]


def _katakana_stem(term: str) -> str:
    if len(term) < _KATAKANA_STEM_MIN:
        return term
    if all("゠" <= c <= "ヿ" for c in term):
        if term.endswith("ー"):
            return term[:-1]
    return term


class JapaneseAnalyzer:
    """Full kuromoji chain; callable ``text -> list[str]`` like the other
    analyzers; ``analyze_tokens`` keeps offsets/posinc for conformance
    tests. [ref: ja/JapaneseAnalyzer.kt createComponents]"""

    def __init__(self, mode: str = "search",
                 stop_words=JA_STOP_WORDS, stop_tags=JA_STOP_TAGS):
        self.tokenizer = JapaneseTokenizer(mode=mode)
        self.stop_words = stop_words
        self.stop_tags = stop_tags

    def analyze_tokens(self, text: str):
        """Returns [(term, start, end, pos_inc)] over the original text."""
        folded, origin = cjk_width_fold_offsets(text)
        out = []
        pos_inc = 1
        for tok in self.tokenizer.tokenize(folded):
            term = tok.base_form or tok.surface  # JapaneseBaseFormFilter
            if tok.pos_tag in self.stop_tags:    # JapanesePartOfSpeechStop
                pos_inc += 1
                continue
            if term.lower() in self.stop_words:  # StopFilter
                pos_inc += 1
                continue
            term = _katakana_stem(term)          # JapaneseKatakanaStemFilter
            term = term.lower()                  # LowerCaseFilter
            if origin is None:
                start, end = tok.start, tok.end
            else:
                start = origin[tok.start]
                end = origin[tok.end - 1] + 1
            out.append((term, start, end, pos_inc))
            pos_inc = 1
        return out

    def __call__(self, text: str) -> list[str]:
        return [t for t, _, _, _ in self.analyze_tokens(text)]

    def analyze_flat(self, texts):
        """Vectorized indexing interface (same contract as the other
        analyzer chains): per-doc lengths + flat token/doc/pos arrays.
        Latin-only fast path: over ASCII text the lattice reduces exactly
        to character-class-run tokenization (see oracle.japanese_preamble
        and the corpus sweep in tests/test_japanese_entry.py), so pure-
        ASCII batches skip the per-char Viterbi."""
        import re

        import pyarrow as pa

        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.to_pylist()
        ascii_runs = re.compile(r"[A-Za-z]+|[0-9]+")
        doc_lengths = np.empty(len(texts), dtype=np.int64)
        flat: list[str] = []
        doc_of_l: list[int] = []
        pos_l: list[int] = []
        for i, text in enumerate(texts):
            text = text or ""
            if text.isascii():
                toks = [m.lower() for m in ascii_runs.findall(text)]
            else:
                toks = self(text)
            flat.extend(toks)
            doc_of_l.extend([i] * len(toks))
            pos_l.extend(range(len(toks)))
            doc_lengths[i] = len(toks)
        return (doc_lengths, pa.array(flat, pa.string()),
                np.array(doc_of_l, dtype=np.int64),
                np.array(pos_l, dtype=np.int64))


# ---------------------------------------------------------------------------
# JapaneseNumberFilter [ref: ja/JapaneseNumberFilter.kt] — normalizes
# kansuji + Arabic/fullwidth digit runs to plain decimal numbers.
# ---------------------------------------------------------------------------

_JA_DIGITS = {"〇": 0, "一": 1, "二": 2, "三": 3, "四": 4, "五": 5,
              "六": 6, "七": 7, "八": 8, "九": 9}
_JA_EXponents = {"十": 1, "百": 2, "千": 3, "万": 4, "億": 8, "兆": 12,
                 "京": 16, "垓": 20}


def _ja_is_arabic(c: str) -> bool:
    return "0" <= c <= "9" or "０" <= c <= "９"


def _ja_arabic_value(c: str) -> int:
    return ord(c) - (ord("0") if "0" <= c <= "9" else ord("０"))


def _ja_is_numeral_char(c: str) -> bool:
    return (_ja_is_arabic(c) or c in _JA_DIGITS
            or _JA_EXponents.get(c, 0) > 0)


def _ja_is_punct_char(c: str) -> bool:
    return c in ".．,，"


def ja_is_numeral(s: str) -> bool:
    return bool(s) and all(_ja_is_numeral_char(c) for c in s)


def ja_is_numeral_punctuation(s: str) -> bool:
    return bool(s) and all(_ja_is_punct_char(c) for c in s)


class _NumBuf:
    __slots__ = ("s", "pos")

    def __init__(self, s: str):
        self.s = s
        self.pos = 0


def _parse_basic(b: _NumBuf):
    from decimal import Decimal
    out = []
    while b.pos < len(b.s):
        c = b.s[b.pos]
        if _ja_is_arabic(c):
            out.append(str(_ja_arabic_value(c)))
        elif c in _JA_DIGITS:
            out.append(str(_JA_DIGITS[c]))
        elif c in ".．":
            out.append(".")
        elif c in ",，":
            pass
        else:
            break
        b.pos += 1
    if not out:
        return None
    return Decimal("".join(out))


def _parse_kanji_exp(b: _NumBuf, lo: int, hi: int):
    from decimal import Decimal
    if b.pos >= len(b.s):
        return None
    power = _JA_EXponents.get(b.s[b.pos], 0)
    if lo <= power <= hi:
        b.pos += 1
        return Decimal(10) ** power
    return None


def _parse_medium_pair(b: _NumBuf):
    first = _parse_basic(b)
    second = _parse_kanji_exp(b, 1, 3)
    if first is None and second is None:
        return None
    if second is None:
        return first
    if first is None:
        return second
    return first * second


def _parse_medium(b: _NumBuf):
    from decimal import Decimal
    total = Decimal(0)
    r = _parse_medium_pair(b)
    if r is None:
        return None
    while r is not None:
        total += r
        r = _parse_medium_pair(b)
    return total


def _parse_large_pair(b: _NumBuf):
    first = _parse_medium(b)
    second = _parse_kanji_exp(b, 4, 99)
    if first is None and second is None:
        return None
    if second is None:
        return first
    if first is None:
        return second
    return first * second


def ja_normalize_number(s: str) -> str:
    """[ref: JapaneseNumberFilter.normalizeNumber] — plain-string
    decimal value; the input returned unchanged when unparseable."""
    from decimal import Decimal, InvalidOperation
    try:
        b = _NumBuf(s)
        total = Decimal(0)
        r = _parse_large_pair(b)
        if r is None:
            return s
        while r is not None:
            total += r
            r = _parse_large_pair(b)
        return format(total.normalize(), "f")
    except (InvalidOperation, OverflowError, ValueError):
        return s


def ja_number_filter(tokens: list) -> list:
    """Token-stream composition [ref: JapaneseNumberFilter
    incrementToken]: consecutive numeral tokens (numeral punctuation
    allowed after the first) merge into one token holding the
    normalized number, spanning the composed offsets."""
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if not ja_is_numeral(t.surface):
            out.append(t)
            i += 1
            continue
        start, end = t.start, t.end
        parts = []
        j = i
        while j < n and (ja_is_numeral(tokens[j].surface)
                         or (j > i
                             and ja_is_numeral_punctuation(
                                 tokens[j].surface))):
            parts.append(tokens[j].surface)
            end = tokens[j].end
            j += 1
        merged = Token(ja_normalize_number("".join(parts)), start, end,
                       t.pos_tag, None)
        out.append(merged)
        i = j
    return out


# ---------------------------------------------------------------------------
# JapaneseIterationMarkCharFilter [ref: ja/JapaneseIterationMarkCharFilter
# .kt] — expands odoriji (々 ゝ ゞ ヽ ヾ) to the repeated source chars,
# with dakuten voicing/devoicing for the kana marks.
# ---------------------------------------------------------------------------

_H2D = {}
_h2d_targets = [
    "が", "が", "ぎ", "ぎ", "ぐ", "ぐ", "げ",
    "げ", "ご", "ご", "ざ", "ざ", "じ", "じ",
    "ず", "ず", "ぜ", "ぜ", "ぞ", "ぞ", "だ",
    "だ", "ぢ", "ぢ", "っ", "づ", "づ", "で",
    "で", "ど", "ど", "な", "に", "ぬ", "ね",
    "の", "ば", "ば", "ぱ", "び", "び", "ぴ",
    "ぶ", "ぶ", "ぷ", "べ", "べ", "ぺ", "ぼ",
    "ぼ",
]
for _i, _t in enumerate(_h2d_targets):
    _H2D[chr(0x304B + _i)] = _t
_K2D = {chr(ord(k) + 0x60): chr(ord(v) + 0x60) for k, v in _H2D.items()}

_KANJI_ITER = "々"
_HIRA_ITER, _HIRA_V_ITER = "ゝ", "ゞ"
_KATA_ITER, _KATA_V_ITER = "ヽ", "ヾ"


def _iter_normalize(c: str, m: str) -> str:
    def dakuten(ch, table):
        return table.get(ch, ch)

    def is_dakuten(ch, table):
        return ch in table and table[ch] == ch

    if m in (_HIRA_ITER, _HIRA_V_ITER):
        if m == _HIRA_ITER:
            return chr(ord(c) - 1) if is_dakuten(c, _H2D) else c
        return dakuten(c, _H2D)
    if m in (_KATA_ITER, _KATA_V_ITER):
        if m == _KATA_ITER:
            return chr(ord(c) - 1) if is_dakuten(c, _K2D) else c
        return dakuten(c, _K2D)
    return c


def iteration_mark_fold(text: str, normalize_kanji: bool = True,
                        normalize_kana: bool = True) -> str:
    """Char-filter transform (1:1, offsets unchanged)."""
    def is_mark(c: str) -> bool:
        if normalize_kanji and c == _KANJI_ITER:
            return True
        if normalize_kana and c in (_HIRA_ITER, _HIRA_V_ITER,
                                    _KATA_ITER, _KATA_V_ITER):
            return True
        return False

    out = []
    n = len(text)
    span_end = 0      # iterationMarkSpanEndPosition
    span_size = 0
    i = 0
    while i < n:
        c = text[i]
        if c == "。" or ord(c) > 0xFFFF:
            span_end = i + 1
        if is_mark(c):
            if i < span_end:
                c = _iter_normalize(text[i - span_size], c)
            elif i == span_end:
                span_end += 1
            else:
                j = i
                size = 0
                while j < n and is_mark(text[j]):
                    size += 1
                    j += 1
                if i - size < span_end:
                    size = i - span_end
                span_size = size
                span_end = i + size
                c = _iter_normalize(text[i - size], c)
        out.append(c)
        i += 1
    return "".join(out)


# [ref: ja/JapaneseHiraganaUppercaseFilter.kt]
_HIRA_UPPER = str.maketrans("ぁぃぅぇぉっゃゅょゎゕゖ", "あいうえおつやゆよわかけ")
# [ref: ja/JapaneseKatakanaUppercaseFilter.kt]
_KATA_UPPER = str.maketrans(
    "ァィゥェォヵㇰヶㇱㇲッㇳㇴㇵㇶㇷㇸㇹㇺャュョㇻㇼㇽㇾㇿヮ",
    "アイウエオカクケシスツトヌハヒフヘホムヤユヨラリルレロワ")


def hiragana_uppercase(term: str) -> str:
    return term.translate(_HIRA_UPPER)


def katakana_uppercase(term: str) -> str:
    # small-pu digraph folds before the char map
    return term.replace("ㇷ゚", "プ").translate(_KATA_UPPER)


# ---------------------------------------------------------------------------
# Modified-Hepburn romanization [ref: ja/dict/ToStringUtil.kt
# getRomanization] and JapaneseReadingFormFilter.
# ---------------------------------------------------------------------------

# simple single-kana outputs
_ROMA_BASE = {
    "ア": "a", "エ": "e", "カ": "ka", "ケ": "ke", "サ": "sa", "セ": "se",
    "タ": "ta", "ナ": "na", "ヌ": "nu", "ネ": "ne", "ハ": "ha", "ヘ": "he",
    "マ": "ma", "ム": "mu", "メ": "me", "ヤ": "ya", "ユ": "yu", "ワ": "wa",
    "ヰ": "i", "ヱ": "e", "ヲ": "o", "ガ": "ga", "ゲ": "ge", "ザ": "za",
    "ゼ": "ze", "ダ": "da", "ヅ": "zu", "バ": "ba", "ブ": "bu", "ベ": "be",
    "パ": "pa", "プ": "pu", "ペ": "pe", "ヷ": "va", "ヸ": "vi", "ヹ": "ve",
    "ヺ": "vo", "ァ": "a", "ィ": "i", "ゥ": "u", "ェ": "e", "ォ": "o",
    "ヮ": "wa", "ャ": "ya", "ュ": "yu", "ョ": "yo",
}
# y-row palatalized onsets: kana -> romaji stem taking ャュョェ(+ウ)
_ROMA_Y = {
    "キ": "ky", "シ": "sh", "チ": "ch", "ニ": "ny", "ヒ": "hy", "ミ": "my",
    "リ": "ry", "ギ": "gy", "ジ": "j", "ヂ": "j", "ビ": "by", "ピ": "py",
}
_ROMA_Y_BASE = {
    "キ": "ki", "シ": "shi", "チ": "chi", "ニ": "ni", "ヒ": "hi",
    "ミ": "mi", "リ": "ri", "ギ": "gi", "ジ": "ji", "ヂ": "ji",
    "ビ": "bi", "ピ": "pi",
}
_ROMA_Y_VOWEL = {"ャ": "a", "ョ": "o", "ュ": "u", "ェ": "e"}
# o-row kana whose ウ lengthens to ō (and u-variants)
_ROMA_OU = {
    "オ": "ō", "コ": "kō", "ソ": "sō", "ト": "tō", "ノ": "nō", "ホ": "hō",
    "モ": "mō", "ヨ": "yō", "ロ": "rō", "ゴ": "gō", "ゾ": "zō", "ド": "dō",
    "ボ": "bō", "ポ": "pō",
}
_ROMA_OU_BASE = {
    "オ": "o", "コ": "ko", "ソ": "so", "ト": "to", "ノ": "no", "ホ": "ho",
    "モ": "mo", "ヨ": "yo", "ロ": "ro", "ゴ": "go", "ゾ": "zo", "ド": "do",
    "ボ": "bo", "ポ": "po",
}
_SOKUON_CONS = {}
for _g, _c in [("カキクケコ", "k"), ("サシスセソ", "s"), ("タチツテト", "t"),
               ("パピプペポ", "p")]:
    for _ch in _g:
        _SOKUON_CONS[_ch] = _c
_N_TO_M = set("バビブベボパピプペポマミムメモ")
_N_APOS = set("ヤユヨアイウエオ")
_L_ROW = {"ラ": ("ra", "la"), "リ": ("ri", "li"), "ル": ("ru", "lu"),
          "レ": ("re", "le"), "ロ": ("ro", "lo")}


def romanize_katakana(s: str) -> str:
    """Exact ToStringUtil.getRomanization port (modified Hepburn)."""
    out = []
    n = len(s)
    i = 0
    while i < n:
        ch = s[i]
        c2 = s[i + 1] if i + 1 < n else "\x00"
        c3 = s[i + 2] if i + 2 < n else "\x00"
        if ch == "ッ":
            cons = _SOKUON_CONS.get(c2)
            if cons:
                out.append(cons)
        elif ch == "イ":
            if c2 == "ィ":
                out.append("yi"); i += 1
            elif c2 == "ェ":
                out.append("ye"); i += 1
            else:
                out.append("i")
        elif ch == "ウ":
            w = {"ァ": "wa", "ィ": "wi", "ゥ": "wu", "ェ": "we",
                 "ォ": "wo", "ュ": "wyu"}.get(c2)
            if w:
                out.append(w); i += 1
            else:
                out.append("u")
        elif ch in _ROMA_Y:
            if c2 == "ョ" and c3 == "ウ":
                out.append(_ROMA_Y[ch] + "ō"); i += 2
            elif c2 == "ュ" and c3 == "ウ":
                out.append(_ROMA_Y[ch] + "ū"); i += 2
            elif c2 in _ROMA_Y_VOWEL:
                out.append(_ROMA_Y[ch] + _ROMA_Y_VOWEL[c2]); i += 1
            elif ch == "リ" and c2 == "゜":
                out.append("li"); i += 1
            else:
                out.append(_ROMA_Y_BASE[ch])
        elif ch in ("ク", "グ"):
            g = "k" if ch == "ク" else "g"
            w = {"ァ": "wa", "ィ": "wi", "ェ": "we", "ォ": "wo",
                 "ヮ": "wa"}.get(c2)
            if w:
                out.append(g + w); i += 1
            else:
                out.append(g + "u")
        elif ch in ("ス", "ズ"):
            if c2 == "ィ":
                out.append(("si" if ch == "ス" else "zi")); i += 1
            else:
                out.append("su" if ch == "ス" else "zu")
        elif ch == "ツ":
            w = {"ァ": "tsa", "ィ": "tsi", "ェ": "tse", "ォ": "tso",
                 "ュ": "tsyu"}.get(c2)
            if w:
                out.append(w); i += 1
            else:
                out.append("tsu")
        elif ch == "テ":
            w = {"ィ": "ti", "ゥ": "tu", "ュ": "tyu"}.get(c2)
            if w:
                out.append(w); i += 1
            else:
                out.append("te")
        elif ch == "デ":
            w = {"ィ": "di", "ュ": "dyu"}.get(c2)
            if w:
                out.append(w); i += 1
            else:
                out.append("de")
        elif ch in ("ト", "ド", "ホ") and c2 == "ゥ":
            out.append({"ト": "tu", "ド": "du", "ホ": "hu"}[ch]); i += 1
        elif ch == "フ":
            w = {"ャ": "fya", "ュ": "fyu", "ョ": "fyo", "ァ": "fa",
                 "ィ": "fi", "ェ": "fe", "ォ": "fo"}.get(c2)
            if c2 == "ィ" and c3 == "ェ":
                out.append("fye"); i += 2
            elif w:
                out.append(w); i += 1
            else:
                out.append("fu")
        elif ch in _L_ROW:
            ra, la = _L_ROW[ch]
            if ch == "リ" and (c2 == "ョ" or c2 == "ュ" or c2 == "ャ"
                               or c2 == "ェ"):
                pass  # unreachable: リ handled in _ROMA_Y above
            if c2 == "゜":
                out.append(la); i += 1
            elif ch == "ロ" and c2 == "ウ":
                out.append("rō"); i += 1
            else:
                out.append(ra)
        elif ch == "ン":
            if c2 in _N_TO_M:
                out.append("m")
            elif c2 in _N_APOS:
                out.append("n'")
            else:
                out.append("n")
        elif ch == "ヴ":
            if c2 == "ィ" and c3 == "ェ":
                out.append("vye"); i += 2
            else:
                out.append("v")
        elif ch in _ROMA_OU:
            if c2 == "ウ":
                out.append(_ROMA_OU[ch]); i += 1
            else:
                out.append(_ROMA_OU_BASE[ch])
        elif ch == "ー":
            pass
        else:
            out.append(_ROMA_BASE.get(ch, ch))
        i += 1
    return "".join(out)


def reading_form(tokens: list, use_romaji: bool = False) -> list:
    """JapaneseReadingFormFilter [ref: ja/JapaneseReadingFormFilter.kt]:
    term -> reading (katakana, or modified-Hepburn romaji); OOV terms
    containing hiragana are katakana-ized first; other OOV terms keep
    (or romanize) their surface."""
    out = []
    for t in tokens:
        reading = getattr(t, "reading", None)
        term = t.surface
        if reading is None and any("ぁ" <= c <= "ゖ" for c in term):
            reading = "".join(
                chr(ord(c) + 0x60) if "ぁ" <= c <= "ゖ" else c
                for c in term)
        if use_romaji:
            new = romanize_katakana(reading if reading is not None
                                    else term)
        else:
            new = reading if reading is not None else term
        out.append(Token(new, t.start, t.end, t.pos_tag, t.base_form))
    return out


# ---------------------------------------------------------------------------
# UserDictionary [ref: ja/dict/UserDictionary.kt, ja/dict/UserMorphData.kt]
# — caller-provided entries with forced segmentation; matches suppress
# the system dictionary at that position and win via WORD_COST=-100000.
# ---------------------------------------------------------------------------

USER = 2
_USER_WORD_COST = -100000
_USER_CONN_ID = 5


class UserDictionary:
    """Parses the reference's CSV format:
    ``surface,seg1 seg2 ...,reading1 reading2 ...,pos`` ('#' comments)."""

    def __init__(self, text: str):
        self.entries = []      # (surface, [part_len...], [reading...], pos)
        self.surfaces: dict[str, int] = {}
        for raw in text.splitlines():
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split(",")
            surface = parts[0].replace(" ", "")
            segs = parts[1].split()
            readings = parts[2].split() if len(parts) > 2 else []
            pos = parts[3] if len(parts) > 3 else ""
            if "".join(segs) != surface:
                raise ValueError(f"user dict segmentation mismatch: {raw}")
            self.surfaces[surface] = len(self.entries)
            self.entries.append((surface, [len(p) for p in segs],
                                 readings, pos))
        prefixes = set()
        for s in self.surfaces:
            for i in range(1, len(s)):
                prefixes.add(s[:i])
        self.prefixes = prefixes
        self.max_len = max((len(s) for s in self.surfaces), default=0)

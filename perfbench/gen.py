"""Seeded web-page corpus and query streams for the benchmark.

Everything here is a pure function of ``seed``: the same seed gives
byte-identical Parquet shards and identical query streams, another seed
gives different ones. The engine only ever sees the written Parquet
files and the query objects built from the streams.

Corpus model
------------
* A vocabulary of ``VOCAB`` distinct pseudo-words built from syllables;
  frequent ranks get the shorter words (as in natural text).
* Each document draws its length from a log-normal (so BM25 norms
  matter) and its tokens from a Zipf law over the vocabulary ranks.
* Sentences start capitalised and end in ``.``/``?``/``!``; commas and
  capitalised "proper nouns" are sprinkled in, so the StandardAnalyzer
  has real splitting and lowercasing to do.
* Schema: ``doc_id, url, warc_ts, html, text, lang`` (the paper's
  web-page table). One Parquet file per shard; shard == segment.

The generator keeps the token ids, so the benchmark knows the exact
ground truth (doc count, total tokens, per-term df) without asking the
engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# The corpus and query parameters below are chosen, not measured: none
# comes from a web crawl, a query log or a published study. Why each
# value was chosen is noted beside it.

# Zipf's law with s = 1 is the textbook model of word frequencies; 500k
# words keep most of the vocabulary rare, as in web text.
VOCAB = 500_000
ZIPF_S = 1.0
# Median 110 tokens, near the 120-token docs of the repository's
# bench.py; real page text is usually longer. Short docs put more docs
# into a one-CPU run, so per-doc costs (norms, doc-id bookkeeping) weigh
# more than on real pages. The log-normal spread makes norms vary.
DOC_LEN_MEDIAN = 110
DOC_LEN_SIGMA = 0.7
DOC_LEN_MIN, DOC_LEN_MAX = 12, 1500
SENTENCE_P = 1 / 13      # a token ends its sentence
COMMA_P = 1 / 17
PROPER_P = 0.03          # capitalised mid-sentence token

# df-rank bands the query streams draw from (ranks of the Zipf law).
# In the 20k-doc query index the cut-offs give df from nearly every doc
# down to ~140 (head), ~140 down to ~5 (mid) and ~5 down to 1 (tail),
# so each band stresses postings of a different length.
HEAD = (0, 1_500)
MID = (1_500, 40_000)
TAIL = (40_000, 300_000)

_ONSETS = ["", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p",
           "r", "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr",
           "pl", "pr", "sh", "sl", "st", "str", "th", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "io", "y"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng", "rk"]
_EPOCH = np.datetime64("2024-01-01T00:00:00", "us")


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible stream per purpose: every byte of the
    name goes into the seed, so no two names share a stream."""
    return np.random.default_rng([seed, *stream.encode("utf-8")])


def make_vocab(seed: int, n: int = VOCAB) -> np.ndarray:
    """``n`` distinct lowercase pseudo-words, index == Zipf rank."""
    rng = _rng(seed, "vocab")
    syl = np.array([o + v + c for o in _ONSETS for v in _VOWELS
                    for c in _CODAS], dtype=object)
    syl = np.unique(syl)
    m = int(n * 1.6)
    nsyl = rng.choice([1, 2, 3, 4], size=m, p=[0.12, 0.43, 0.33, 0.12])
    parts = []
    for j in range(4):
        pick = syl[rng.integers(0, len(syl), m)]
        pick[nsyl <= j] = ""
        parts.append(pa.array(pick, pa.string()))
    # distinct words in first-seen order (Arrow's unique keeps it)
    words = pc.unique(pc.binary_join_element_wise(*parts, ""))
    words = words.filter(pc.not_equal(words, ""))
    if len(words) < n:
        raise RuntimeError("vocabulary generator ran out of words")
    words = words.slice(0, n)
    # frequent ranks get the shorter words: sort by length, seeded
    # shuffle inside each length
    lens = pc.utf8_length(words).to_numpy()
    order = np.lexsort((rng.random(n), lens))
    keep = words.take(pa.array(order)).to_numpy(zero_copy_only=False)
    return keep


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    c = np.cumsum(w)
    return c / c[-1]


@dataclass
class Batch:
    """One generated shard: the Arrow table plus its ground truth."""
    table: pa.Table
    tokens: np.ndarray        # vocab id per token, doc-major
    doc_lens: np.ndarray      # vocabulary tokens per doc (a marker adds 1)
    doc_ids: np.ndarray


class Corpus:
    """Seeded corpus generator. A batch of docs is a pure function of
    ``(seed, first doc id, size, marker)``, so batches can be made in any
    order."""

    def __init__(self, seed: int):
        self.seed = seed
        self.vocab = make_vocab(seed)
        self._cdf = _zipf_cdf(VOCAB, ZIPF_S)
        self._vocab_arr = pa.array(self.vocab, pa.string())

    def batch(self, lo: int, n: int, marker: str | None = None) -> Batch:
        """Docs ``[lo, lo + n)``. ``marker`` (a token outside the
        vocabulary) ends every doc of the batch — the ingest visibility
        probe."""
        rng = _rng(self.seed, f"docs{lo}")
        doc_ids = np.arange(lo, lo + n, dtype=np.int64)
        lens = np.clip(np.round(rng.lognormal(np.log(DOC_LEN_MEDIAN),
                                              DOC_LEN_SIGMA, n)),
                       DOC_LEN_MIN, DOC_LEN_MAX).astype(np.int64)
        total = int(lens.sum())
        ids = np.searchsorted(self._cdf, rng.random(total), side="right")
        ids = np.minimum(ids, VOCAB - 1)
        words = self._vocab_arr.take(pa.array(ids))

        # decorations: sentence ends, commas, capitalisation
        starts = np.append(0, np.cumsum(lens))[:-1]
        last = np.zeros(total, bool)
        last[starts + lens - 1] = True
        end = (rng.random(total) < SENTENCE_P) | last
        comma = ~end & (rng.random(total) < COMMA_P)
        cap = np.zeros(total, bool)
        cap[1:] = end[:-1]
        cap[starts] = True
        cap |= rng.random(total) < PROPER_P
        words = pc.if_else(pa.array(cap), pc.utf8_capitalize(words), words)
        punct = np.array(["", ",", ".", "?", "!"], dtype=object)
        kind = np.zeros(total, np.int64)
        kind[comma] = 1
        kind[end] = rng.choice([2, 3, 4], size=int(end.sum()),
                               p=[0.85, 0.1, 0.05])
        words = pc.binary_join_element_wise(
            words, pa.array(punct[kind], pa.string()), "")
        if marker is not None:
            words = pc.if_else(pa.array(last),
                               pc.binary_join_element_wise(
                                   words, pa.scalar(" " + marker), ""),
                               words)
        offsets = pa.array(np.append(starts, total).astype(np.int32))
        text = pc.binary_join(pa.ListArray.from_arrays(offsets, words), " ")
        return Batch(_web_table(doc_ids, text), ids, lens, doc_ids)


def _web_table(doc_ids: np.ndarray, text: pa.Array) -> pa.Table:
    ids_s = pc.cast(pa.array(doc_ids), pa.string())
    hosts = pc.cast(pa.array(doc_ids % 997), pa.string())
    url = pc.binary_join_element_wise("https://site", hosts,
                                      ".example.com/p/", ids_s, "")
    title = pc.utf8_slice_codeunits(text, 0, 48)
    html = pc.cast(pc.binary_join_element_wise(
        "<html><head><title>", title, "</title></head><body><p>", text,
        "</p></body></html>", ""), pa.binary())
    ts = pa.array(_EPOCH + doc_ids.astype("timedelta64[s]"),
                  pa.timestamp("us"))
    return pa.table({"doc_id": pa.array(doc_ids), "url": url,
                     "warc_ts": ts, "html": html, "text": text,
                     "lang": pa.array(["en"] * len(doc_ids), pa.string())})


def write_batch(batch: Batch, out_dir: str) -> str:
    """One Parquet file per batch (shard); returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"docs-{int(batch.doc_ids[0]):08d}.parquet")
    pq.write_table(batch.table, path)
    return path


def marker_token(seed: int, lo: int) -> str:
    """Marker of the batch starting at doc ``lo``: letters+digits, so
    never a vocabulary word (the vocabulary is letters only)."""
    return f"mk{seed % 10_000:04d}x{lo:08d}"


# --- query streams ---------------------------------------------------------

# One block of the query stream: (kind, df band of each term; "P" is the
# band of a phrase's first word, "X" the band of the word a prefix
# cuts). A stream is a run of blocks, each shuffled, so every block has
# exactly this mix: term 30%, 2-term AND 25%, 3-term OR 20%, 2-term
# phrase 20%, prefix 5%. The mix is chosen, not taken from a query log:
# it gives every query path of the searcher (term, conjunction,
# disjunction, positions, prefix expansion) a share large enough to
# move the median. The draws a block
# makes from one band are stratified on log(rank), so a block spans each
# band's df range the same way whatever the seed.
BLOCK = (("term", "H"), ("term", "M"), ("term", "T"),
         ("term", "H"), ("term", "M"), ("term", "T"),
         ("and2", "HM"), ("and2", "MM"), ("and2", "HT"), ("and2", "MT"),
         ("and2", "HM"),
         ("or3", "HMT"), ("or3", "HMT"), ("or3", "MMT"), ("or3", "HTT"),
         ("phrase2", "P"), ("phrase2", "P"), ("phrase2", "P"),
         ("phrase2", "P"), ("prefix", "X"))
BANDS = {"H": HEAD, "M": MID, "T": TAIL, "P": (0, VOCAB), "X": MID}


def document_frequencies(batches: list[Batch]) -> np.ndarray:
    """Exact df per vocabulary id over the given shards."""
    df = np.zeros(VOCAB, np.int64)
    for b in batches:
        doc_of = np.repeat(np.arange(len(b.doc_lens)), b.doc_lens)
        key = np.unique(doc_of * VOCAB + b.tokens)
        df += np.bincount(key % VOCAB, minlength=VOCAB)
    return df


def query_stream(seed: int, vocab: np.ndarray, batches: list[Batch],
                 df: np.ndarray, n: int, stream: str = "cold") -> list[tuple]:
    """``n`` query specs ``(kind, terms)`` (lowercased terms) in blocks
    of ``BLOCK``. Phrases are real adjacent bigrams of the corpus. Specs
    are plain tuples; ``to_query`` builds the objects."""
    rng = _rng(seed, "queries-" + stream)
    present = np.flatnonzero(df > 0)      # vocab ids are Zipf ranks
    draws = [BANDS[c] for _, p in BLOCK for c in p]
    strata = {b: draws.count(b) for b in set(draws)}
    # phrase source: token positions that have a successor in their doc
    tok = np.concatenate([b.tokens for b in batches])
    last = np.zeros(len(tok), bool)
    last[np.cumsum(np.concatenate([b.doc_lens for b in batches])) - 1] = True
    ok_pos = np.flatnonzero(~last)

    def rank(band: tuple, u: float) -> float:
        lo, hi = max(band[0], 1), band[1]
        return lo * (hi / lo) ** u

    def word(band: tuple, j: int) -> str:
        u = (j + rng.random()) / strata[band]
        i = np.searchsorted(present, rank(band, u))
        return str(vocab[present[min(i, len(present) - 1)]])

    def bigram(band: tuple, j: int) -> list[str]:
        lo = rank(band, j / strata[band])
        hi = rank(band, (j + 1) / strata[band])
        for _ in range(10_000):
            p = ok_pos[rng.integers(len(ok_pos))]
            if lo <= tok[p] + 1 < hi:
                break
        return [str(vocab[tok[p]]), str(vocab[tok[p + 1]])]

    out: list[tuple] = []
    while len(out) < n:
        # each band's strata go to its draws in a random order
        order = {b: iter(rng.permutation(k)) for b, k in strata.items()}
        block = []
        for kind, pattern in BLOCK:
            picks = [(BANDS[c], int(next(order[BANDS[c]])))
                     for c in pattern]
            if kind == "phrase2":
                terms = bigram(*picks[0])
            else:
                terms = [word(b, j) for b, j in picks]
            block.append((kind, terms))
        for j in rng.permutation(len(block)):
            kind, terms = block[j]
            if kind == "prefix":   # a bounded expansion
                terms = [terms[0][:max(4, len(terms[0]) - 2)]]
            elif len(set(terms)) < len(terms):
                terms = list(dict.fromkeys(terms))
                if len(terms) == 1:
                    kind = "term"
            out.append((kind, tuple(terms)))
    return out[:n]


def to_query(spec: tuple):
    """Query object for one spec (engine's public query classes)."""
    from lucene_kmp_ray.search.query import (BooleanQuery, Occur,
                                             PhraseQuery, PrefixQuery,
                                             TermQuery)
    kind, terms = spec
    if kind == "term":
        return TermQuery(terms[0])
    if kind == "and2":
        return BooleanQuery.build(*[(Occur.MUST, TermQuery(t))
                                    for t in terms])
    if kind == "or3":
        return BooleanQuery.build(*[(Occur.SHOULD, TermQuery(t))
                                    for t in sorted(terms)])
    if kind == "phrase2":
        return PhraseQuery(tuple(terms))
    return PrefixQuery(terms[0])

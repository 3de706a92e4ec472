"""In-memory span recorder and the wrappers that put spans around the
engine's public entry points, from outside the engine.

A span is ``[name, start, end, parent, rid, pid]``; ``rid`` is the
request (operation) id the benchmark set when the span opened. A count
``[span, name, n]`` belongs to the span of the call that produced it.
Spans stay in memory and are written out when the run ends. Work done
in Ray workers is recorded by the same wrappers, installed in the
worker by the benchmark's shard loader; the worker appends its records
to a file each time one of its root spans closes, and the driver hangs
each worker root span under the driver span that was open when it
started (the call that waited for it).

Self time = span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Recorder:
    def __init__(self, sink: str | None = None):
        self.spans: list[list] = []
        self.counts: list[list] = []
        self.stack: list[int] = []
        self.rid = -1
        self.sink = sink          # worker side: append records here
        self._flushed = (0, 0)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rid,
                           os.getpid()])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()
        if self.sink and not self.stack:
            self.flush()

    def count(self, name: str, n: float, span: int | None = None) -> None:
        """Count ``n`` against ``span`` (default: the innermost open one)."""
        if span is None:
            span = self.stack[-1] if self.stack else -1
        self.counts.append([span, name, n])

    def flush(self) -> None:
        s0, c0 = self._flushed
        write(self.sink, self.spans[s0:], self.counts[c0:], "a")
        self._flushed = (len(self.spans), len(self.counts))


def write(path: str, spans: list[list], counts: list[list],
          mode: str = "w") -> None:
    """Spans and counts as JSON lines."""
    with open(path, mode) as f:
        for s in spans:
            f.write(json.dumps({"span": s}) + "\n")
        for c in counts:
            f.write(json.dumps({"count": c}) + "\n")


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def _segments(index_dir: str) -> list[dict]:
    with open(os.path.join(index_dir, "manifest.json")) as f:
        return json.load(f)["segments"]


def install(rec: Recorder) -> None:
    """Wrap the engine's layer entry points so each call records a span
    (and its counts) into ``rec``. Once per process."""
    from lucene_kmp_ray.analysis import standard
    from lucene_kmp_ray.index import builder, format as fmt, merge, reader
    from lucene_kmp_ray.search import ray_search, searcher
    from lucene_kmp_ray.similarity import bm25

    if getattr(fmt, "_perfbench_traced", False):
        return
    fmt._perfbench_traced = True

    def wrap(owner, attr, name, counts=None):
        """``counts(args, result)`` yields ``(name, n)`` pairs."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*a, **k):
            i = rec.open(name)
            try:
                out = orig(*a, **k)
                for cname, n in (counts(a, out) if counts else ()):
                    rec.count(cname, n, i)
            finally:
                rec.close(i)
            return out
        setattr(owner, attr, traced)

    def once(cname):
        return lambda a, out: [(cname, 1)]

    def written(a, out):
        seg_dir = os.path.join(a[0], "segments", fmt.seg_dirname(out["seg"]))
        return [("format.bytes_written", dir_bytes(seg_dir))]

    wrap(standard.StandardAnalyzer, "analyze_flat", "analysis.analyze",
         lambda a, out: [("analysis.tokens", len(out[1]))])
    wrap(fmt, "invert_field", "format.invert")
    wrap(fmt, "encode_term_table_arrays", "format.encode")
    for mod in (fmt, merge):
        wrap(mod, "write_segment", "format.write", written)
    for mod in (builder, merge):
        wrap(mod, "commit_index", "builder.commit")
    wrap(builder, "build_index_sharded", "builder.build")
    wrap(reader.IndexReader, "__init__", "reader.open", once("reader.opened"))
    wrap(reader.IndexReader, "term_stats", "reader.stats",
         once("reader.stats_calls"))
    wrap(reader.SegmentReader, "term_index", "reader.dict_lookup",
         once("reader.term_index_calls"))
    wrap(reader.SegmentReader, "term_row", "reader.term_row",
         once("reader.term_row_calls"))
    wrap(reader.SegmentReader, "postings", "reader.postings",
         once("reader.postings_calls"))
    wrap(reader.SegmentReader, "positions_for_entries", "reader.positions")
    wrap(bm25.BM25Scorer, "score", "similarity.score",
         lambda a, out: [("similarity.docs_scored", len(out))])
    wrap(searcher.Searcher, "rewrite", "searcher.rewrite")
    wrap(searcher.Searcher, "search", "searcher.search")
    wrap(ray_search.SearcherPool, "refresh", "serve.refresh")
    wrap(ray_search.SearcherPool, "search", "serve.search")

    decode = reader.decode_postings

    @functools.wraps(decode)
    def decode_counted(df, *a, **k):
        out = decode(df, *a, **k)
        rec.count("reader.decode_calls", 1)
        rec.count("reader.postings_decoded", int(df))
        return out
    reader.decode_postings = decode_counted

    run_merges = merge.run_merges

    @functools.wraps(run_merges)
    def merges_traced(index_dir, *a, **k):
        before = {m["seg"] for m in _segments(index_dir)}
        i = rec.open("merge.run")
        try:
            out = run_merges(index_dir, *a, **k)
            rec.count("merge.bytes_rewritten", sum(  # the segments it added
                dir_bytes(os.path.join(index_dir, m["dir"]))
                for m in out["segments"] if m["seg"] not in before), i)
        finally:
            rec.close(i)
        return out
    merge.run_merges = merges_traced

    # the dictionary load is the lazy first read of terms_table: it
    # belongs to opening the reader
    terms_table = reader.SegmentReader.terms_table.fget

    def terms_table_traced(self):
        if self._terms is not None:
            return terms_table(self)
        i = rec.open("reader.open")
        try:
            return terms_table(self)
        finally:
            rec.close(i)
    reader.SegmentReader.terms_table = property(terms_table_traced)


# --- worker side -------------------------------------------------------

_WORKER_REC: Recorder | None = None


def worker_recorder(trace_dir: str, rid: int) -> Recorder:
    """This worker process's recorder, installed on first use."""
    global _WORKER_REC
    if _WORKER_REC is None:
        _WORKER_REC = Recorder(os.path.join(trace_dir,
                                            f"worker-{os.getpid()}.jsonl"))
        install(_WORKER_REC)
    _WORKER_REC.rid = rid
    return _WORKER_REC


# --- analysis ----------------------------------------------------------

def collect(rec: Recorder, trace_dir: str) -> tuple[list[list], list[list]]:
    """Driver and worker records as one span list (worker roots hung
    under the driver span open at their start; every span carries its
    root's request id) and one count list indexing into it."""
    spans = [list(s) for s in rec.spans]
    counts = [list(c) for c in rec.counts]
    starts = np.array([s[1] for s in spans])
    ends = np.array([s[2] for s in spans])
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("worker-"):
            continue
        base = len(spans)
        with open(os.path.join(trace_dir, name)) as f:
            for line in f:
                d = json.loads(line)
                if "count" in d:
                    c = d["count"]
                    counts.append([c[0] + base if c[0] >= 0 else -1,
                                   c[1], c[2]])
                    continue
                s = d["span"]
                if s[3] >= 0:
                    s[3] += base
                else:
                    inside = np.flatnonzero((starts <= s[1]) &
                                            (ends >= s[1]))
                    if len(inside):       # innermost: the latest start
                        s[3] = int(inside[np.argmax(starts[inside])])
                if s[3] >= 0:
                    s[4] = spans[s[3]][4]
                spans.append(s)
    return spans, counts


def self_times(spans: list[list]) -> np.ndarray:
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur - child

#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the index builder and the BM25 engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loop, one client thread; Ray sized to ``nproc``):

* ``query_cold``  — seeded queries over a prebuilt multi-segment index,
  each pass through a freshly opened reader, so they miss its caches.
* ``ingest_mix``  — from a fresh copy of a base index per pass, per tick:
  append a shard, refresh a ``SearcherPool``, wait until a marker query
  sees the whole batch, run a few queries through the pool, run tiered
  merges.

A run is a fixed number of equal passes; the time metrics come from the
slowest pass.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the run repeats its operations with span wrappers
installed and reports per-layer metrics instead. Human-readable lines
(every named metric with its unit) precede the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # run as a script: import the package from the repository root, not
    # this directory's files as top-level modules
    sys.path[0] = ROOT

from perfbench import check, gen, loader, trace  # noqa: E402

DOCS_PER_SHARD = 2_500
BASE_SHARDS = 8            # query index: 20k docs in 8 segments
# ingest_mix sizes are chosen, not taken from a trace: a small base and
# batch keep the index under the tiered merge floor (so every tick
# merges) and a tick to a few seconds on one CPU; 8 queries per tick
# put reads between every two writes.
INGEST_BASE_DOCS = 1_500   # ingest_mix starts from one 1.5k-doc segment
INGEST_BATCH = 300         # docs appended per tick
INGEST_TICKS = 3           # ticks per pass
INGEST_QUERIES = 8         # pool queries per tick
# query_cold: queries per pass, four blocks of the mix; with two blocks
# the seed-to-seed spread of a pass's latency was ~8%
PASS_QUERIES = 80
WARM_QUERIES = 40          # untimed queries of a separate stream first
# A run is round(--seconds / PASS_S) passes of fixed work, each about
# PASS_S seconds on one CPU; a metric is read off the slowest pass.
PASS_S = 7.5
TOPK = 10
DF_SAMPLE = 64             # terms whose df is checked after the ticks
RAY_TMP_MAX = 44           # Ray's socket paths must stay < 108 bytes

END_TO_END = {             # name -> unit
    "setup_s": "s", "op_geomean_ms": "ms", "throughput_per_s": "1/s",
    "peak_rss_mb": "MB", "index_bytes_per_input_byte": "ratio"}

PER_LAYER = {
    "sources.read_s": "s", "analysis.analyze_s": "s",
    "analysis.tokens": "count", "format.invert_s": "s",
    "format.encode_s": "s", "format.write_s": "s",
    "format.bytes_written": "bytes", "builder.commit_s": "s",
    "builder.dispatch_s": "s", "merge.merge_s": "s",
    "merge.bytes_rewritten": "bytes", "reader.open_s": "s",
    "reader.stats_s": "s", "reader.stats_calls": "count",
    "reader.dict_lookup_s": "s", "reader.term_row_s": "s",
    "reader.term_row_hit_ratio": "ratio", "reader.postings_s": "s",
    "reader.postings_hit_ratio": "ratio",
    "reader.postings_decoded": "count", "reader.positions_s": "s",
    "similarity.score_s": "s", "similarity.docs_scored": "count",
    "searcher.rewrite_s": "s", "searcher.match_s": "s",
    "searcher.decoded_per_hit": "ratio", "searcher.scored_per_hit": "ratio",
    "serve.refresh_s": "s", "serve.first_search_s": "s",
    "serve.search_s": "s", "trace.self_gap_ratio": "ratio",
    "trace.overhead_ratio": "ratio"}

# span name -> per-layer time metric (self time per operation)
SPAN_METRIC = {
    "sources.read": "sources.read_s", "analysis.analyze": "analysis.analyze_s",
    "format.invert": "format.invert_s", "format.encode": "format.encode_s",
    "format.write": "format.write_s", "builder.commit": "builder.commit_s",
    "merge.run": "merge.merge_s", "reader.stats": "reader.stats_s",
    "reader.dict_lookup": "reader.dict_lookup_s",
    "reader.term_row": "reader.term_row_s",
    "reader.postings": "reader.postings_s",
    "reader.positions": "reader.positions_s",
    "similarity.score": "similarity.score_s",
    "searcher.rewrite": "searcher.rewrite_s",
    "searcher.search": "searcher.match_s",
    "serve.refresh": "serve.refresh_s",
    "builder.build": "builder.dispatch_s"}


def now() -> float:
    return time.perf_counter()


def median(xs) -> float:
    return float(statistics.median(xs))


def geomean(xs) -> float:
    """Geometric mean: every operation's relative change weighs the
    same, and no single kind of query sets it, as a median of a mix
    does."""
    return float(math.exp(statistics.fmean(math.log(x) for x in xs)))


def tail(xs) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    ``(value, percentile, n)``; the maximum when n < 11."""
    s = sorted(xs)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def nproc() -> int:
    """CPUs as the ``nproc`` command counts them: the affinity mask,
    capped by OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def text_bytes(batches) -> int:
    """UTF-8 bytes of the batches' ``text`` column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    return sum(pc.sum(pc.binary_length(
        pc.cast(x.table["text"], pa.binary()))).as_py() for x in batches)


def engine_pids() -> list[int]:
    """This process and every Ray Python worker it spawned."""
    children: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(p))
    me = os.getpid()
    todo, pids = [me], []
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, []))
        try:
            if p != me:
                # a worker renames itself "ray::<task>" once it runs;
                # the raylet's own arguments name default_worker.py too
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    argv = f.read().split(b"\0")
                if not (argv[0].startswith(b"ray::") or
                        (b"python" in os.path.basename(argv[0]) and
                         b"default_worker.py" in b" ".join(argv))):
                    continue
        except OSError:
            continue
        pids.append(p)
    return pids


def reset_peak_rss() -> None:
    """Restart the VmHWM of this process and its Ray workers from their
    current RSS, so the peak read later is that of the timed region and
    not of input generation or fixture builds."""
    for p in engine_pids():
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb() -> float:
    """Summed VmHWM of this process and its Ray workers."""
    kb = 0
    for p in engine_pids():
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            continue
    return kb / 1024.0


class Bench:
    def __init__(self, args, work: str):
        self.args = args
        self.seed = args.seed
        self.work = work
        self.nproc = nproc()
        self.attempted = 0
        self.failed = 0
        self.rec = None           # trace.Recorder while tracing
        self.trace_dir = None
        self.ray_tmp = None
        self.setup_units: list[float] = []
        self._dirs = 0

    # --- bookkeeping ---------------------------------------------------
    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        d = os.path.join(self.work, f"{tag}-{self._dirs}")
        os.makedirs(d)
        return d

    def call(self, fn, *a, **k):
        """One operation: counted as attempted; an exception counts as
        failed and yields None."""
        self.attempted += 1
        try:
            return fn(*a, **k)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def setup(self, wl) -> None:
        """One workload set-up, outside every operation (rid -1); its
        time goes into ``setup_s``."""
        self.set_rid(-1)
        t = now()
        wl.setup()
        self.setup_units.append(now() - t)

    def set_rid(self, rid: int) -> None:
        if self.rec is not None:
            self.rec.rid = rid

    def spec(self, seg: int, path: str) -> dict:
        s = {"seg": seg, "path": path}
        if self.trace_dir:
            s["trace_dir"] = self.trace_dir
        return s

    # --- engine start -----------------------------------------------
    def start_engine(self) -> tuple[float, float]:
        """Start Ray, spawn its workers and compile the C kernels; returns
        ``(ray.init seconds, spawn + compile seconds)``. Only the second
        counts in ``setup_s``: ray.init starts Ray's own daemons, which
        no engine change moves, and its run-to-run noise would swamp
        the rest."""
        import ray

        t0 = now()
        ray_tmp = os.path.join(ROOT, f".pbr{os.getpid()}")
        kw = {}
        if len(ray_tmp) <= RAY_TMP_MAX:
            kw["_temp_dir"] = self.ray_tmp = ray_tmp
        else:
            print("perfbench: checkout path too long for Ray's sockets; "
                  "Ray keeps its default temp dir", file=sys.stderr)
        ray.init(num_cpus=self.nproc, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * 1024 * 1024, **kw)
        t1 = now()
        noop = ray.remote(_noop)
        ray.get([noop.remote() for _ in range(self.nproc)])
        # C kernels compile into $TMPDIR (fresh per run) on first use
        from lucene_kmp_ray.search import csloppy, cspans
        from lucene_kmp_ray.util import cfor
        for mod in (cfor, cspans, csloppy):
            mod.lib()
        return t1 - t0, now() - t1

    def build(self, specs: list[dict], index_dir: str) -> dict:
        from lucene_kmp_ray.index.builder import build_index_sharded
        return build_index_sharded(specs, loader.read_shard, index_dir)

    # --- driver ----------------------------------------------------------
    def run(self) -> dict:
        init_s, engine_s = self.start_engine()
        t = now()
        self.corpus = gen.Corpus(self.seed)
        wl = WORKLOADS[self.args.workload](self)
        wl.prepare()
        prepare_s = now() - t
        self.setup(wl)
        t = now()
        wl.warm()
        warm_s = now() - t
        passes = max(2, round(self.args.seconds / PASS_S))
        out = [f"ray num_cpus {self.nproc}"]

        if not self.args.trace:
            reset_peak_rss()
            ops = wl.timed(passes)
            rss = peak_rss_mb()      # before the checker's DuckDB runs
            wl.check()
            metrics = wl.metrics(ops)
            metrics["peak_rss_mb"] = rss
            out += wl.report(ops)
            out.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
            units_of = END_TO_END
        else:
            metrics = self.traced(wl, passes)
            wl.check()
            units_of = PER_LAYER
        units = self.setup_units
        metrics["setup_s"] = setup_s = engine_s + median(units)
        out[1:1] = [f"setup_s {setup_s:.4f} s (worker spawn and kernel "
                    f"compile {engine_s:.3f} s + median of {len(units)} "
                    f"workload set-ups, one before each pass, "
                    f"{median(units):.3f} s; ray.init {init_s:.3f} s and "
                    f"inputs and fixtures {prepare_s:.3f} s not counted)",
                    f"warm-up before timing {warm_s:.3f} s (not counted)"]
        ratio = self.failed / max(self.attempted, 1)
        out.append(f"failed_ops_ratio {ratio:.4f} ratio "
                   f"({self.failed} of {self.attempted})")
        for line in out:
            print(f"{self.args.workload} {line}")
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": u}
                            for k, u in units_of.items()}}

    def traced(self, wl, passes: int) -> dict:
        """Half the passes untraced, then as many with spans on."""

        passes = max(1, passes // 2)
        plain = [x for p in wl.timed(passes) for x in p]
        n = len(plain)
        t_plain = sum(plain)
        self.trace_dir = self.fresh_dir("trace")
        self.rec = trace.Recorder()
        trace.install(self.rec)
        traced = [x for p in wl.timed(passes) for x in p]
        t_traced = sum(traced)
        spans, counts = trace.collect(self.rec, self.trace_dir)
        out = os.path.join(os.path.dirname(self.work),
                           f"spans-{wl.name}-{self.seed}.jsonl")
        trace.write(out, spans, counts)
        m = layer_metrics(spans, counts, n, wl.hits)
        calls = m.pop("_calls")
        # the reported time metrics turned back into seconds over the
        # traced operations, against the untraced seconds
        accounted = sum(m[k] * c for k, c in calls.items())
        m["trace.self_gap_ratio"] = (accounted - t_plain) / t_plain
        m["trace.overhead_ratio"] = (t_traced - t_plain) / t_plain
        print(f"{wl.name} spans written to {os.path.relpath(out, ROOT)}")
        print(f"{wl.name} traced {n} ops: untraced {t_plain:.3f} s, traced "
              f"{t_traced:.3f} s, reported layer times sum to "
              f"{accounted:.3f} s ({100 * m['trace.self_gap_ratio']:+.1f}% "
              f"of untraced); "
              f"tracing overhead {100 * m['trace.overhead_ratio']:+.1f}%")
        for k, u in PER_LAYER.items():
            print(f"{wl.name} {k} {m[k]:.6g} {u}")
        return m


def layer_metrics(spans: list[list], counts: list[list], n_ops: int,
                  hits: int) -> dict:
    """Per-layer metrics from the traced pass: self seconds and counts
    per operation, over the spans of the timed operations (rid >= 0).
    ``reader.open_s`` is per reader opened (IndexReader() plus the
    dictionary loads of its segments, in set-up or not);
    ``serve.first_search_s`` / ``serve.search_s`` are per pool search.
    ``_calls`` maps each time metric to the number of its units in the
    timed operations, so that value x units is its seconds there."""

    st = trace.self_times(spans)
    m = {k: 0.0 for k in PER_LAYER}
    open_s = first = searches = 0.0
    first_n = search_n = 0
    after_refresh = False
    for s, t in zip(spans, st):
        name = s[0]
        if name == "reader.open":
            open_s += t
        if s[4] < 0:
            continue
        if name in SPAN_METRIC:
            m[SPAN_METRIC[name]] += t / n_ops
        if name == "serve.refresh":
            after_refresh = True
        elif name == "serve.search" and after_refresh:
            first += t
            first_n += 1
            after_refresh = False
        elif name == "serve.search":
            searches += t
            search_n += 1
    c: dict[str, float] = {}
    for span, name, n in counts:
        if span >= 0 and spans[span][4] >= 0:
            c[name] = c.get(name, 0) + n
            # cache misses: a dictionary lookup made by term_row, a
            # decode made by postings
            parent = spans[spans[span][3]][0] if spans[span][3] >= 0 else ""
            if name == "reader.term_index_calls" and \
                    parent == "reader.term_row":
                c["term_row_misses"] = c.get("term_row_misses", 0) + n
            if name == "reader.decode_calls" and \
                    spans[span][0] == "reader.postings":
                c["postings_misses"] = c.get("postings_misses", 0) + n
    opened = sum(n for span, name, n in counts if name == "reader.opened")
    m["reader.open_s"] = open_s / max(opened, 1)
    m["serve.first_search_s"] = first / max(first_n, 1)
    m["serve.search_s"] = searches / max(search_n, 1)
    for k in ("analysis.tokens", "format.bytes_written",
              "merge.bytes_rewritten", "reader.stats_calls",
              "reader.postings_decoded", "similarity.docs_scored"):
        m[k] = c.get(k, 0) / n_ops
    rows = c.get("reader.term_row_calls", 0)
    m["reader.term_row_hit_ratio"] = \
        1 - c.get("term_row_misses", 0) / rows if rows else 0.0
    calls = c.get("reader.postings_calls", 0)
    m["reader.postings_hit_ratio"] = \
        1 - c.get("postings_misses", 0) / calls if calls else 0.0
    if hits:
        m["searcher.decoded_per_hit"] = c.get("reader.postings_decoded",
                                              0) / hits
        m["searcher.scored_per_hit"] = c.get("similarity.docs_scored",
                                             0) / hits
    m["_calls"] = {**dict.fromkeys(SPAN_METRIC.values(), n_ops),
                   "reader.open_s": c.get("reader.opened", 0),
                   "serve.first_search_s": first_n,
                   "serve.search_s": search_n}
    return m


# --- workloads -------------------------------------------------------------

class QueryCold:
    """A prebuilt multi-segment index and a closed loop of
    ``Searcher.search`` calls. Each pass opens a fresh reader (cold
    caches) and runs the same seeded query list."""
    name = "query_cold"

    def __init__(self, b: Bench):
        self.b = b
        self.hits = 0
        self.results: list | None = None

    def prepare(self) -> None:
        data = self.b.fresh_dir("data")
        batches = [self.b.corpus.batch(i * DOCS_PER_SHARD, DOCS_PER_SHARD)
                   for i in range(BASE_SHARDS)]
        self.paths = [gen.write_batch(x, data) for x in batches]
        self.index = self.b.fresh_dir("base")
        self.b.build([self.b.spec(i, p) for i, p in enumerate(self.paths)],
                     self.index)
        self.df = gen.document_frequencies(batches)
        self.tokens = int(sum(x.doc_lens.sum() for x in batches))
        self.input_bytes = text_bytes(batches)
        self.specs = gen.query_stream(self.b.seed, self.b.corpus.vocab,
                                      batches, self.df, PASS_QUERIES, "cold")
        self.warm_specs = gen.query_stream(self.b.seed, self.b.corpus.vocab,
                                           batches, self.df, WARM_QUERIES,
                                           "warm")
        self.warm_term = str(self.b.corpus.vocab[0])

    def setup(self) -> None:
        from lucene_kmp_ray.index.reader import IndexReader
        from lucene_kmp_ray.search.query import TermQuery
        from lucene_kmp_ray.search.searcher import Searcher
        self.searcher = Searcher(IndexReader(self.index))
        # loads every segment's dictionary
        self.searcher.search(TermQuery(self.warm_term), k=TOPK)

    def warm(self) -> None:
        """Queries of a separate stream: the first seconds of a query
        loop ran ~10% slower than the rest."""
        for spec in self.warm_specs:
            self.b.call(self.searcher.search, gen.to_query(spec), k=TOPK)

    def timed(self, passes: int) -> list[list[float]]:
        out: list[list[float]] = []
        self.results = None
        self.hits = 0
        for p in range(passes):
            self.b.setup(self)          # a fresh reader: the pass is cold
            ops: list[float] = []
            results: list = []
            for i, spec in enumerate(self.specs):
                q = gen.to_query(spec)
                self.b.set_rid(p * len(self.specs) + i)
                t = now()
                td = self.b.call(self.searcher.search, q, k=TOPK)
                dt = now() - t
                if td is None:
                    results.append(None)
                    continue
                ops.append(dt)
                self.hits += len(td.score_docs)
                results.append([(h.doc_id, float(h.score))
                                for h in td.score_docs])
            self.b.set_rid(-1)
            if self.results is None:
                self.results = results
            else:
                self.b.expect(results == self.results,
                              f"pass {p} returned other top-{TOPK} lists "
                              f"than pass 0")
            out.append(ops)
        return out

    def check(self) -> None:
        """Seeded sample of the first pass's queries vs the DuckDB
        mirrors."""
        import numpy as np

        rng = np.random.default_rng([self.b.seed, 11])
        by_kind: dict[str, list[int]] = {}
        for i, r in enumerate(self.results):
            kind = self.specs[i][0]
            if r is not None and kind in check.CHECKED_KINDS:
                by_kind.setdefault(kind, []).append(i)
        sample = [int(rng.choice(v)) for _, v in sorted(by_kind.items())]
        oracle = check.Oracle(self.paths, self.b.fresh_dir("duckdb"))
        try:
            for i in sample:
                kind, terms = self.specs[i]
                want = oracle.topk(kind, terms, TOPK)
                self.b.expect(check.same_topk(self.results[i], want),
                              f"top-{TOPK} of {kind} {terms}: engine "
                              f"{self.results[i][:3]} mirror {want[:3]}")
        finally:
            oracle.close()

    def metrics(self, passes: list[list[float]]) -> dict:
        return {"op_geomean_ms": max(geomean(p) for p in passes) * 1e3,
                "throughput_per_s":
                    min(len(p) / sum(p) for p in passes),
                "index_bytes_per_input_byte":
                    trace.dir_bytes(self.index) / self.input_bytes}

    def report(self, passes: list[list[float]]) -> list[str]:
        m = self.metrics(passes)
        ops = [x for p in passes for x in p]
        tv, pct, n = tail(ops)
        return [f"query_p50_ms {median(ops) * 1e3:.3f} ms (all passes)",
                f"query_geomean_ms {m['op_geomean_ms']:.3f} ms (slowest of "
                f"{len(passes)} passes; each pass: " +
                " ".join(f"{geomean(p) * 1e3:.1f}" for p in passes) + ")",
                f"query_tail_ms {tv * 1e3:.3f} ms (p{pct:.1f}, n={n})",
                f"queries_per_s {m['throughput_per_s']:.2f} queries/s "
                f"(slowest pass)",
                f"index_bytes_per_input_byte "
                f"{m['index_bytes_per_input_byte']:.4f} ratio",
                f"sizes: {BASE_SHARDS * DOCS_PER_SHARD} docs, {self.tokens} "
                f"tokens, {BASE_SHARDS} segments, {self.input_bytes} input "
                f"bytes, {trace.dir_bytes(self.index)} index bytes; "
                f"{self.working_set()}"]

    def working_set(self) -> str:
        terms = {t for _, ts in self.specs for t in ts}
        return (f"each pass: {len(self.specs)} queries over {len(terms)} "
                f"distinct terms through a fresh reader, vs 64 postings "
                f"lists / 64 term rows / 8 row groups cached per segment")


class IngestMix:
    """Appends beside reads through a SearcherPool. Each pass starts
    from a fresh copy of the base index and runs the same ticks."""
    name = "ingest_mix"

    def __init__(self, b: Bench):
        self.b = b
        self.hits = 0
        self.pool = None

    def prepare(self) -> None:
        self.data = self.b.fresh_dir("data")
        self.base = self.b.fresh_dir("base")
        batches = [self.b.corpus.batch(0, INGEST_BASE_DOCS)]
        self.b.build([self.b.spec(0, gen.write_batch(batches[0], self.data))],
                     self.base)
        self.base_batch = batches[0]
        self.base_docs = INGEST_BASE_DOCS
        self.input_bytes = text_bytes(batches)
        df = gen.document_frequencies(batches)
        self.specs = gen.query_stream(self.b.seed, self.b.corpus.vocab,
                                      batches, df,
                                      INGEST_TICKS * INGEST_QUERIES, "ingest")
        self.warm_term = str(self.b.corpus.vocab[0])
        self.batches = []
        for t in range(INGEST_TICKS):
            lo = self.base_docs + t * INGEST_BATCH
            marker = gen.marker_token(self.b.seed, lo)
            x = self.b.corpus.batch(lo, INGEST_BATCH, marker)
            self.batches.append((gen.write_batch(x, self.data), marker,
                                 set(x.doc_ids.tolist()), text_bytes([x]), x))

    def setup(self) -> None:
        """Fresh copy of the base index and a pool serving it."""
        from lucene_kmp_ray.search.query import TermQuery
        from lucene_kmp_ray.search.ray_search import SearcherPool
        if self.pool is not None:
            self.pool.shutdown()
        self.index = os.path.join(self.b.fresh_dir("serve"), "index")
        shutil.copytree(self.base, self.index)
        self.pool = SearcherPool(self.index, num_actors=self.b.nproc)
        self.pool.search({"w": TermQuery(self.warm_term)}, k=TOPK)

    def warm(self) -> None:
        pass  # every tick starts with a build, warmed by prepare()

    def timed(self, passes: int) -> list[list[float]]:
        from lucene_kmp_ray.index.merge import run_merges
        from lucene_kmp_ray.search.query import TermQuery
        out: list[list[float]] = []
        self.lags, self.merges, self.lat = [], [], []   # one list per pass
        for p in range(passes):
            self.b.setup(self)
            ops, lags, merges, lat = [], [], [], []
            for t, (path, marker, ids, _, _) in enumerate(self.batches):
                with open(os.path.join(self.index, "manifest.json")) as f:
                    seg = 1 + max(m["seg"] for m in json.load(f)["segments"])
                self.b.set_rid(p * INGEST_TICKS + t)
                t0 = now()
                man = self.b.call(self.b.build, [self.b.spec(seg, path)],
                                  self.index)
                ok = man is not None and self.b.call(self.pool.refresh)
                res = self.b.call(self.pool.search, {"m": TermQuery(marker)},
                                  k=INGEST_BATCH) if ok else None
                lag = now() - t0
                self.b.expect(res is not None and
                              set(res["doc_id"].tolist()) == ids,
                              f"marker {marker} did not return its batch")
                took = lag
                for j in range(INGEST_QUERIES):
                    spec = self.specs[t * INGEST_QUERIES + j]
                    q0 = now()
                    r = self.b.call(self.pool.search,
                                    {"q": gen.to_query(spec)}, k=TOPK)
                    if r is not None:
                        lat.append(now() - q0)
                        took += lat[-1]
                m0 = now()
                self.b.call(run_merges, self.index, policy="tiered")
                merges.append(now() - m0)
                took += merges[-1]
                lags.append(lag)
                ops.append(took)
            self.b.set_rid(-1)
            out.append(ops)
            self.lags.append(lags)
            self.merges.append(merges)
            self.lat.append(lat)
        return out

    def check(self) -> None:
        """The marker check runs on every tick. After the last pass the
        committed manifest's counts must equal the generator's, and so
        must the df of a seeded sample of terms."""
        import numpy as np

        from lucene_kmp_ray.index.reader import IndexReader
        batches = [self.base_batch] + [x[4] for x in self.batches]
        docs = sum(len(x.doc_lens) for x in batches)
        # every ingested doc ends in its batch's marker token
        tokens = int(sum(x.doc_lens.sum() for x in batches)) + \
            INGEST_BATCH * INGEST_TICKS
        with open(os.path.join(self.index, "manifest.json")) as f:
            man = json.load(f)
        self.b.expect(man["doc_count"] == docs and
                      man["sum_total_term_freq"] == tokens,
                      f"manifest counts {man['doc_count']}/"
                      f"{man['sum_total_term_freq']} vs {docs}/{tokens}")
        df = gen.document_frequencies(batches)
        rng = np.random.default_rng([self.b.seed, 7])
        ids = np.flatnonzero(df)
        pick = rng.choice(ids, size=min(DF_SAMPLE, len(ids)), replace=False)
        terms = [str(self.b.corpus.vocab[i]) for i in pick]
        got = IndexReader(self.index).term_stats(terms)
        bad = [t for t, i in zip(terms, pick) if got[t][0] != int(df[i])]
        self.b.expect(not bad, f"term df mismatch for {bad[:5]}")

    def metrics(self, passes: list[list[float]]) -> dict:
        docs = INGEST_BATCH * INGEST_TICKS
        return {"op_geomean_ms": max(geomean(x) for x in self.lags) * 1e3,
                "throughput_per_s": min(docs / (sum(a) + sum(m)) for a, m in
                                        zip(self.lags, self.merges)),
                "index_bytes_per_input_byte":
                    trace.dir_bytes(self.index) / (
                        self.input_bytes + sum(x[3] for x in self.batches))}

    def report(self, passes: list[list[float]]) -> list[str]:
        m = self.metrics(passes)
        lags = [x for p in self.lags for x in p]
        lat = [x for p in self.lat for x in p]
        tv, pct, n = tail(lat)
        with open(os.path.join(self.index, "manifest.json")) as f:
            segs = len(json.load(f)["segments"])
        return [f"visible_lag_s {median(lags):.4f} s (median of {len(lags)} "
                f"ticks; geometric mean of the slowest pass "
                f"{m['op_geomean_ms'] / 1e3:.4f} s; each pass: " +
                " ".join(f"{geomean(x):.3f}" for x in self.lags) + ")",
                f"ingest_docs_per_s {m['throughput_per_s']:.1f} docs/s "
                f"(slowest pass)",
                f"query_p50_ms {median(lat) * 1e3:.3f} ms",
                f"query_tail_ms {tv * 1e3:.3f} ms (p{pct:.1f}, n={n})",
                f"queries_per_s {len(lat) / sum(lat):.2f} queries/s",
                f"index_bytes_per_input_byte "
                f"{m['index_bytes_per_input_byte']:.4f} ratio",
                f"sizes: {self.base_docs} base docs + "
                f"{INGEST_BATCH * INGEST_TICKS} ingested per pass, "
                f"{len(passes)} passes, {segs} segments at the end, "
                f"{trace.dir_bytes(self.index)} index bytes; merge "
                f"{sum(map(sum, self.merges)):.3f} s over "
                f"{sum(map(len, self.merges))} ticks"]


WORKLOADS = {"query_cold": QueryCold, "ingest_mix": IngestMix}


def _noop() -> int:
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "lucene_kmp_ray")):
        print("perfbench: engine sources (lucene_kmp_ray/) not found beside "
              "perfbench/", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # fresh $TMPDIR per run: C kernels compile anew, no state carries over
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if x])

    import ray

    bench = Bench(args, work)
    try:
        result = bench.run()
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        if bench.ray_tmp:
            shutil.rmtree(bench.ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

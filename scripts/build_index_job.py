"""Index-build job entry — the ``ray job submit`` target (north rule).

    ray job submit --working-dir /root/repo -- \
        python scripts/build_index_job.py \
            --sf-dir /root/testdata/sf0.1 --out /tmp/idx \
            --segment-size 5000 --expand 10 --merge --check

On a real cluster the same command runs unchanged: the build fans out one
task per shard (segment), the merge one task per merge, the check one task
per segment; the driver only moves manifest JSON. Resumable: re-submitting
after a failure skips committed segments (per-partition lineage manifests).

Prints one JSON line of build metrics (docs, sec, docs/sec, segments,
merges, check status) — the per-segment metrics live in the segment
manifests (north rule: build metrics per segment).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--out", required=True)
    ap.add_argument("--segment-size", type=int, default=5_000)
    ap.add_argument("--expand", type=int, default=1,
                    help="deterministic corpus replication factor")
    ap.add_argument("--merge", action="store_true",
                    help="run one round of tiered merges after the build")
    ap.add_argument("--check", action="store_true",
                    help="run the CheckIndex integrity scan")
    ap.add_argument("--num-cpus", type=int, default=0,
                    help="0 = let Ray autodetect / use cluster")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        kw = dict(include_dashboard=False, logging_level="ERROR")
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(address="local", **kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from lucene_kmp_ray.index.builder import build_index_sharded
    from lucene_kmp_ray.sources.corpus import corpus_shards

    t0 = time.monotonic()
    shards, make_docs = corpus_shards(args.sf_dir, args.segment_size,
                                      expand=args.expand)
    man = build_index_sharded(shards, make_docs, args.out,
                              lineage_source=args.sf_dir)
    t_build = time.monotonic() - t0

    n_merges = 0
    if args.merge:
        from lucene_kmp_ray.index.merge import find_merges, run_merges
        plans = find_merges(man["segments"])
        n_merges = len(plans)
        if plans:
            man = run_merges(args.out, merges=plans)

    check_ok = None
    if args.check:
        from lucene_kmp_ray.index.check import check_index
        report = check_index(args.out)
        check_ok = report["ok"]
        if not check_ok:
            print("\n".join(report["errors"]), file=sys.stderr)

    out = {
        "docs": man["doc_count"],
        "segments": len(man["segments"]),
        "build_sec": round(t_build, 3),
        "docs_per_sec": round(man["doc_count"] / max(t_build, 1e-9), 1),
        "merges": n_merges,
        "check_ok": check_ok,
        "index_dir": args.out,
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0 if check_ok in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shard loader handed to ``build_index_sharded`` (runs in Ray workers).

A shard spec is ``{"seg": id, "path": parquet file}``; with a
``trace_dir`` key the loader also installs the span wrappers in the
worker and records the read as the ``sources.read`` span.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

COLUMNS = ["doc_id", "url", "text"]


def read_shard(spec: dict) -> pa.Table:
    trace_dir = spec.get("trace_dir")
    if not trace_dir:
        return pq.read_table(spec["path"], columns=COLUMNS)
    from . import trace
    rec = trace.worker_recorder(trace_dir, spec["seg"])
    i = rec.open("sources.read")
    try:
        return pq.read_table(spec["path"], columns=COLUMNS)
    finally:
        rec.close(i)

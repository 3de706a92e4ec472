"""Driver-style correctness check: run every queries() entry and compare
against its oracle_sql() via DuckDB (row count + schema + order-insensitive
value comparison). Usage:

    python scripts/check_oracle.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

# the repo root: this process imports from it, and the Ray workers get it
# on their PYTHONPATH, so they unpickle the package's classes from any cwd
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa
    if hasattr(obj, "to_pandas") and not isinstance(obj, pd.DataFrame):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df):
    """Sort columns by name and rows by all values — order-insensitive form."""
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name, ray_df, sql_df) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rowcount ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns ray={sorted(ray_df.columns)} "
                        f"sql={sorted(sql_df.columns)}")
        return problems
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        import numpy as np
        import pandas as pd
        for col in a.columns:
            av, bv = a[col], b[col]
            if pd.api.types.is_float_dtype(av) or pd.api.types.is_float_dtype(bv):
                ok = np.array_equal(av.to_numpy(dtype=float),
                                    bv.to_numpy(dtype=float), equal_nan=True)
            else:
                ok = av.astype(str).equals(bv.astype(str))
            if not ok:
                diff = (av.astype(str) != bv.astype(str)).to_numpy().nonzero()[0][:3]
                problems.append(
                    f"col {col} differs, e.g. rows {diff.tolist()}: "
                    f"ray={[av.iloc[i] for i in diff]} sql={[bv.iloc[i] for i in diff]}")
    return problems


def main():
    import duckdb
    import ray
    path = os.pathsep.join(filter(None, (ROOT, os.environ.get("PYTHONPATH"))))
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": path}})
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    args = sys.argv[1:]
    sf_dir = args[0] if args and args[0].startswith("/") else "/root/testdata/sf0.01"
    only = set(a for a in args if not a.startswith("/"))

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray side raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        if name not in sqls:
            print(f"ROWS-ONLY {name}: {len(ray_df)} rows (no oracle)")
            continue
        try:
            sql_df = con.sql(sqls[name]).df()
        except Exception as e:
            print(f"FAIL {name}: SQL raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name}: {len(ray_df)} rows")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()

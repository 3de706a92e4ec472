"""Output checks against ground truth and the DuckDB BM25 mirrors.

The mirrors are ``lucene_kmp_ray.oracle``'s SQL, run unchanged over the
generated corpus registered as the ``documents`` view. Every mirror
starts with the same CTE preamble (tokenize the whole corpus, postings,
norms, collection and term stats); it is evaluated once per run and
kept as tables, and each mirror's preamble is pointed at those tables.
The scoring SQL after the preamble is the mirror's own.
"""

from __future__ import annotations

import numpy as np

# preamble CTEs the term/AND/OR/phrase mirrors read, in dependency order
_MATERIALIZE = ("corpus", "toksrc", "tokens", "postings", "doclen",
                "normd", "stats", "tstats", "av")
SCORE_RTOL = 1e-6   # float32 resolution
SCORE_ATOL = 1e-9


def _split_ctes(with_sql: str) -> list[list[str]]:
    """``WITH a AS (...), b AS (...)`` → ``[[name, text], ...]``."""
    body = with_sql.strip()
    if not body.startswith("WITH "):
        raise ValueError("oracle preamble is not a WITH clause")
    body = body[len("WITH "):]
    parts, depth, start, quoted = [], 0, 0, False
    for i, ch in enumerate(body):
        if ch == "'":
            quoted = not quoted
        elif not quoted:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(body[start:i].strip())
                start = i + 1
    parts.append(body[start:].strip())
    return [[p.split(" AS ", 1)[0].split("(")[0].strip(), p] for p in parts]


class Oracle:
    """DuckDB over the generated Parquet shards."""

    def __init__(self, parquet_paths: list[str], temp_dir: str):
        import duckdb

        from lucene_kmp_ray import oracle

        self._oracle = oracle
        self.con = duckdb.connect(config={"threads": 1,
                                          "temp_directory": temp_dir})
        files = ", ".join(f"'{p}'" for p in parquet_paths)
        self.con.execute(
            "CREATE VIEW documents AS SELECT doc_id, text, lang, "
            f"'gen' AS source FROM read_parquet([{files}])")
        self._pre = oracle.preamble()
        ctes = _split_ctes(self._pre)
        names = [n for n, _ in ctes]
        for name in _MATERIALIZE:
            i = names.index(name)
            sql = "WITH " + ",\n".join(t for _, t in ctes)
            self.con.execute(f"CREATE TABLE m_{name} AS {sql} "
                             f"SELECT * FROM {name}")
            ctes[i][1] = f"{name} AS (SELECT * FROM m_{name})"
        self._fast_pre = "\nWITH " + ",\n".join(t for _, t in ctes) + "\n"

    def topk(self, kind: str, terms: tuple, k: int) -> list[tuple]:
        o = self._oracle
        fn = {"term": lambda: o.bm25_term_topk(terms[0], k),
              "and2": lambda: o.bm25_and_topk(list(terms), k),
              "or3": lambda: o.bm25_or_topk(sorted(terms), k),
              "phrase2": lambda: o.phrase_topk(list(terms), k)}[kind]
        sql = fn()
        if not sql.startswith(self._pre):
            raise ValueError("mirror does not start with the preamble")
        rows = self.con.execute(self._fast_pre + sql[len(self._pre):]) \
            .fetchall()
        return [(int(r[0]), float(r[2])) for r in rows]

    def close(self) -> None:
        self.con.close()


CHECKED_KINDS = ("term", "and2", "or3", "phrase2")


def same_topk(engine: list[tuple], mirror: list[tuple]) -> bool:
    """Doc ids in rank order and scores within float32 tolerance; ranks
    whose scores tie (within tolerance) may hold their docs in any
    order."""
    if len(engine) != len(mirror):
        return False
    if not engine:
        return True
    es = np.array([s for _, s in engine])
    ms = np.array([s for _, s in mirror])
    if not np.allclose(es, ms, rtol=SCORE_RTOL, atol=SCORE_ATOL):
        return False
    for i, ((ed, _), (md, _)) in enumerate(zip(engine, mirror)):
        if ed != md:
            tied = np.isclose(ms, ms[i], rtol=SCORE_RTOL, atol=SCORE_ATOL)
            if {d for d, t in zip((d for d, _ in engine), tied) if t} != \
                    {d for d, t in zip((d for d, _ in mirror), tied) if t}:
                return False
    return True

"""The one C loader (util/native.py): a failed compile raises at every
public entry point, with the compiler's stderr, and again on a second
call without running ``cc`` again; a unit's ``.so`` tag covers every
source and the flags; the engine kernels come from one library built by
one ``cc`` call; and no other module compiles or loads package C, or
branches on a kernel returning None."""

import ast
import os
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import lucene_kmp_ray
from lucene_kmp_ray.analysis.japanese import JapaneseAnalyzer
from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.merge import merge_segments
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   Searcher, TermQuery, csloppy, cspans)
from lucene_kmp_ray.search.spans import SpanNearQuery, SpanTermQuery
from lucene_kmp_ray.util import cfor, native
from lucene_kmp_ray.util.cfor import SortedTerms

PKG = Path(lucene_kmp_ray.__file__).parent
CC_ERROR = "cc: error: broken compiler of test_native"


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    """Two segments built with the working compiler."""
    root = str(tmp_path_factory.mktemp("native") / "idx")
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(8)]
    mans = []
    for seg in range(2):
        ids = range(seg * 50, seg * 50 + 50)
        mans.append(build_and_write_segment(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": [f"u{i}" for i in ids],
            "text": [" ".join(rng.choice(words, 12)) for _ in ids],
            "title": [" ".join(rng.choice(words, 3)) for _ in ids]}),
            seg, root, fields=("text", "title")))
    commit_index(root, mans)
    return root


@pytest.fixture
def broken_cc(tmp_path, monkeypatch):
    """A ``cc`` first on PATH that writes its ``-o`` file, prints
    ``CC_ERROR`` and fails; an empty temp dir; nothing loaded yet. Yields
    the temp dir and a function counting the compiler's runs."""
    bin_dir, tmp, log = tmp_path / "bin", tmp_path / "tmp", tmp_path / "cc.log"
    bin_dir.mkdir()
    tmp.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"""#!/bin/sh
echo run >> "{log}"
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then : > "$2"; fi
  shift
done
echo "{CC_ERROR}" >&2
exit 1
""")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(native, "_LOADED", {})
    yield tmp, lambda: len(log.read_text().splitlines()) if log.exists() \
        else 0


ENTRY_POINTS = {
    "SegmentReader.postings": lambda idx: IndexReader(
        idx).segment_readers[0].postings("w1"),
    "search_term": lambda idx: Searcher(IndexReader(idx)).search(
        TermQuery("w1"), k=5),
    "search_boolean": lambda idx: Searcher(IndexReader(idx)).search(
        BooleanQuery.build((Occur.MUST, TermQuery("w1")),
                           (Occur.SHOULD, TermQuery("w2", "title"))), k=5),
    "search_exact_phrase": lambda idx: Searcher(IndexReader(idx)).search(
        PhraseQuery(("w1", "w2")), k=5),
    "search_sloppy_phrase": lambda idx: Searcher(IndexReader(idx)).search(
        PhraseQuery(("w1", "w2"), slop=2), k=5),
    "search_span_near": lambda idx: Searcher(IndexReader(idx)).search(
        SpanNearQuery((SpanTermQuery("w1"), SpanTermQuery("w2")), 2, False),
        k=5),
    "merge_segments": lambda idx: merge_segments(idx, [0, 1], 7),
    "SortedTerms.find": lambda idx: SortedTerms(
        pa.array(["a", "b"])).find("b"),
    "JapaneseAnalyzer": lambda idx: JapaneseAnalyzer()(
        "多くの学生が試験に落ちた。"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_failed_compile_raises_at_every_entry_point(entry, index, broken_cc):
    tmp, cc_runs = broken_cc
    call = ENTRY_POINTS[entry]
    for attempt in (1, 2):
        with pytest.raises(native.KernelBuildError, match=CC_ERROR):
            call(index)
        assert cc_runs() == 1, attempt  # the second call reuses the error
    assert not [f for f in os.listdir(tmp)
                if f.endswith((".so", ".tmp"))], os.listdir(tmp)


@pytest.mark.parametrize("unit", sorted(native.UNITS))
def test_tag_covers_every_source_and_the_flags(unit, tmp_path, monkeypatch):
    sources = native.UNITS[unit][0]
    for s in sources:
        (tmp_path / s).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(PKG / s, tmp_path / s)
    monkeypatch.setattr(native, "_PKG", str(tmp_path))
    base = native.so_path(unit)
    seen = {base}
    for s in sources:
        path = tmp_path / s
        src = path.read_bytes()
        path.write_bytes(src + b"\n/* changed */\n")
        seen.add(native.so_path(unit))
        path.write_bytes(src)
        assert native.so_path(unit) == base
    assert len(seen) == len(sources) + 1
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DTAG_TEST",))
    assert native.so_path(unit) not in seen


def test_one_engine_library_from_one_cc_call(tmp_path, monkeypatch):
    """cfor, cspans and csloppy share the loader, and the engine unit
    builds with one ``cc`` call over its three sources."""
    assert cfor.lib is cspans.lib is csloppy.lib is native.lib
    runs = []
    real = subprocess.run

    def recording(cmd, *a, **k):
        runs.append(cmd)
        return real(cmd, *a, **k)

    monkeypatch.setattr(subprocess, "run", recording)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_LOADED", {})
    L = cfor.lib()
    assert cspans.lib() is L and csloppy.lib() is L
    for name in native.UNITS["engine"][1]:
        assert getattr(L, name).argtypes is not None, name
    assert len(runs) == 1 and runs[0][0] == "cc"
    assert [os.path.relpath(p, PKG) for p in runs[0][-3:]] == \
        list(native.UNITS["engine"][0])
    assert os.listdir(tmp_path) == [os.path.basename(native.so_path(
        "engine"))]


# --- the guard: no second loader, no branch on a missing kernel ----------

KERNEL_MODULES = ("util/native.py", "util/cfor.py", "search/cspans.py",
                  "search/csloppy.py")


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG).as_posix(), path.read_text()


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _kernel_names() -> set:
    names = {"lib"}
    for rel in KERNEL_MODULES:
        tree = ast.parse((PKG / rel).read_text())
        names |= {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    return names


def test_only_native_compiles_or_loads_c():
    bad = []
    for rel, src in _modules():
        if rel == "util/native.py":
            continue
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    mods.append(node.module or "")
                if "subprocess" in mods:
                    bad.append((rel, node.lineno, "imports subprocess"))
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name.endswith(("CDLL", "LoadLibrary", "PyDLL")) and not (
                    rel == "__init__.py" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "libc.so.6"):
                bad.append((rel, node.lineno, name))
            if name in ("os.system", "os.popen") or name.startswith(
                    ("os.exec", "os.spawn", "os.posix_spawn")):
                bad.append((rel, node.lineno, name))
            for arg in node.args:
                if isinstance(arg, (ast.List, ast.Tuple)) and arg.elts \
                        and isinstance(arg.elts[0], ast.Constant) \
                        and arg.elts[0].value == "cc":
                    bad.append((rel, node.lineno, "runs cc"))
    assert not bad, bad


def _scope_nodes(scope):
    """The nodes of one function (or module) body, not of the functions
    nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _none_test(node, kernel_call) -> bool:
    """``node`` is ``X is None`` / ``X is not None`` (either side), or a
    bare truth test, of a kernel call or a name bound to one."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and isinstance(node.ops[0], (ast.Is, ast.IsNot)):
        sides = [node.left, node.comparators[0]]
        none = [isinstance(s, ast.Constant) and s.value is None
                for s in sides]
        return any(none) and any(kernel_call(s) for s, n in
                                 zip(sides, none) if not n)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return kernel_call(node.operand)
    return kernel_call(node)


def test_nothing_branches_on_a_missing_kernel():
    kernels = _kernel_names()
    bad = []
    for rel, src in _modules():
        for pat in (r"lib\(\) is (not )?None", r"\bL is (not )?None",
                    r"warn_unavailable", r"_CACHED\b"):
            for m in re.finditer(pat, src):
                bad.append((rel, src.count("\n", 0, m.start()) + 1, pat))
        tree = ast.parse(src)
        aliases = set(kernels)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "") \
                    .rsplit(".", 1)[-1] in ("native", "cfor", "cspans",
                                             "csloppy"):
                aliases |= {a.asname for a in node.names
                            if a.asname and a.name in kernels}
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            bound = set()
            for node in _scope_nodes(scope):
                if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Call) and _dotted(
                        node.value.func).rsplit(".", 1)[-1] in aliases:
                    bound |= {t.id for t in node.targets
                              if isinstance(t, ast.Name)}

            def kernel_call(n):
                if isinstance(n, ast.Call):
                    return _dotted(n.func).rsplit(".", 1)[-1] in aliases
                return isinstance(n, ast.Name) and n.id in bound

            for node in _scope_nodes(scope):
                tests = []
                if isinstance(node, (ast.If, ast.IfExp, ast.While,
                                     ast.Assert)):
                    tests.append(node.test)
                if isinstance(node, ast.BoolOp):
                    tests += node.values
                if isinstance(node, ast.Compare):
                    tests.append(node)
                if any(_none_test(t, kernel_call) for t in tests):
                    bad.append((rel, node.lineno, ast.unparse(node)[:60]))
    assert not bad, bad

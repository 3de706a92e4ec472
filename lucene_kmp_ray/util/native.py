"""The one module that compiles and binds the package's C.

Every C kernel of the package lives in one of two build units (``UNITS``):

- ``engine``: ``util/_cfor.c`` (the block codec, the term dictionary
  search, the record decoder, the conjunction, the BM25 bulk scorer and
  the postings writer of the flush and the merge), ``search/_cspans.c``
  (the span-near walk) and ``search/_csloppy.c`` (the 2-term
  sloppy-phrase walk). Every index build, merge and query needs it. The
  write-side kernels stay in it: a separate unit would only move their
  compile, since every perfbench workload also builds an index and would
  compile both.
- ``viterbi``: ``analysis/_cviterbi.c``, the Japanese lattice. Only the
  Japanese analyzer calls it, so it is not built into the engine unit:
  with ``cc -O2`` on a 1-CPU VM it would add ~0.15 s (0.84 s against
  0.68 s) to every process's engine compile for code most processes
  never run.

A unit compiles with one ``cc`` call into one shared object in the temp
dir, named by the hash of its sources and ``CFLAGS``, so a build made from
other sources or with other flags is never reused. The build writes a
``.tmp`` file and renames it into place, so processes compiling at once
race safely. ``lib(unit)`` loads and binds it once per process.

A C compiler is required. When a unit fails to build, ``lib`` raises
``KernelBuildError`` carrying the compiler's stderr, and raises again on
every later call in that process without running ``cc`` again. Nothing
falls back to another implementation.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -ffp-contract=off: a compiler targeting FMA hardware (aarch64, or x86
# with -march=native) may otherwise fuse ``weight - weight / (1 + f *
# inv)`` into a multiply-add, whose single rounding breaks the bulk
# scorer's bit-identity with the reference's float32 scores.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_vp, _i64, _i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32

# unit -> (sources under lucene_kmp_ray/, {function: (restype, argtypes)}).
# Pointers are passed as raw integer addresses (void*): no per-call casts.
UNITS = {
    "engine": (
        ("util/_cfor.c", "search/_cspans.c", "search/_csloppy.c"),
        {
            "positions_select": (_i64, [_vp, _i64, _vp, _i64, _i64, _vp,
                                        _vp, _vp, _i64, _vp, _vp]),
            "encode_stream": (_i64, [_vp, _i64, _i32, _vp]),
            "decode_streams": (_i64, [_vp, _i64, _vp, _vp, _i64, _vp, _vp]),
            "term_search": (_i64, [_vp, _i32, _vp, _i64, _i64,
                                   ctypes.c_char_p, _i64, _i32]),
            "decode_record": (_i64, [_vp, _i64, _i64, _i32, _vp, _vp]),
            "conjoin": (_i64, [_i64, _vp, _vp, _vp, _vp, _i64]),
            "bulk_score": (_i64, [_i64, _vp, _vp, _i64, _vp, _vp, _i64, _vp,
                                  _vp, _i64, _i32, _i64, _vp, _vp]),
            "merge_terms": (_i64, [_i64] + [_vp] * 8),
            "write_postings": (_i64, [_i64] + [_vp] * 5 + [_i64]
                               + [_vp] * 8),
            "merge_postings": (_i64, [_i64, _vp, _i64, _vp, _i64]
                               + [_vp] * 7),
            "span_near_batch": (_i64, [_vp, _vp, _vp, _i64, _i64, _i64,
                                       _i32, _vp]),
            "sloppy2_batch": (_i64, [_vp] * 7 + [_i64] * 2 + [_vp]),
        },
    ),
    "viterbi": (
        ("analysis/_cviterbi.c",),
        {
            "viterbi_analyze": (_i64, [_i32]          # n
                                + [_vp] * 4           # cp, cls, punct, kanji
                                + [_vp] * 7           # trie
                                + [_vp] * 3           # lex left/right/cost
                                + [_vp] * 3           # unk off/left/cost
                                + [_vp] * 2           # invoke, group
                                + [_vp, _i32]         # conn, conn_dim
                                + [_i32]              # search_mode
                                + [_vp] * 4),         # out arrays
        },
    ),
}


class KernelBuildError(RuntimeError):
    """A build unit's C failed to compile or load."""


# unit -> (pid, loaded library or the build error's message)
_LOADED: dict = {}


def _sources(unit: str) -> list[str]:
    return [os.path.join(_PKG, s) for s in UNITS[unit][0]]


def so_path(unit: str) -> str:
    """Where ``unit``'s shared object lives: the temp dir, tagged by the
    hash of every source of the unit and of ``CFLAGS``."""
    h = hashlib.sha256()
    for path in _sources(unit):
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    h.update(" ".join(CFLAGS).encode())
    return os.path.join(tempfile.gettempdir(),
                        f"lkr_{unit}_{h.hexdigest()[:16]}.so")


def compile_unit(unit: str) -> str:
    """``unit``'s shared object, compiled in one ``cc`` call unless a
    build with the same tag is there. Raises KernelBuildError with the
    compiler's stderr; a failed build leaves no file behind."""
    so = so_path(unit)
    if os.path.exists(so):
        return so
    tmp = f"{so}.{os.getpid()}.tmp"
    try:
        r = subprocess.run(["cc", *CFLAGS, "-o", tmp, *_sources(unit)],
                           capture_output=True, timeout=120)
        if r.returncode != 0:
            raise KernelBuildError(
                f"cc exited with {r.returncode}: "
                + r.stderr.decode("utf-8", "replace").strip())
        os.replace(tmp, so)  # atomic: concurrent processes race safely
    except (OSError, subprocess.SubprocessError) as e:
        raise KernelBuildError(f"cc failed: {e!r}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return so


def lib(unit: str = "engine") -> ctypes.CDLL:
    """``unit``'s loaded library with every function bound, built on the
    first call in a process. Raises KernelBuildError when the unit does
    not build, on that call and every later one in the process."""
    pid = os.getpid()
    hit = _LOADED.get(unit)
    if hit is None or hit[0] != pid:
        try:
            L = ctypes.CDLL(compile_unit(unit))
            for name, (res, args) in UNITS[unit][1].items():
                fn = getattr(L, name)
                fn.restype, fn.argtypes = res, args
            hit = (pid, L)
        except (KernelBuildError, OSError, AttributeError) as e:
            hit = (pid, f"lucene_kmp_ray C unit {unit!r} did not build "
                        f"(a C compiler is required): {e}")
        _LOADED[unit] = hit
    if isinstance(hit[1], str):
        raise KernelBuildError(hit[1])
    return hit[1]

"""``__ray_entry__.cached_index``: an entry index is built once per stamp
(code digest + input-file stats), and only a build that returned is ever
handed out."""

import json
import os
import shutil
import tempfile

import pytest

import __ray_entry__ as E


@pytest.fixture
def env(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    os.makedirs(tmp_path / "tmp")
    sf = tmp_path / "sf_test"
    sf.mkdir()
    (sf / "documents.parquet").write_bytes(b"x" * 10)
    return str(sf)


class Build:
    """Writes a one-file index and counts its calls."""

    def __init__(self):
        self.dirs = []

    def __call__(self, d):
        self.dirs.append(d)
        os.makedirs(d)
        with open(os.path.join(d, "manifest.json"), "w") as f:
            json.dump({"doc_count": 1}, f)


def test_second_call_reuses(env):
    build = Build()
    p1 = E.cached_index("t", env, build)
    p2 = E.cached_index("t", env, build)
    assert p1 == p2 and len(build.dirs) == 1
    assert os.path.exists(os.path.join(p1, "manifest.json"))
    assert not os.path.exists(build.dirs[0])  # the tmp dir was renamed
    assert os.path.basename(p1).startswith("sf_test-")


def test_failed_build_leaves_nothing(env):
    seen = []

    def bad(d):
        seen.append(d)
        os.makedirs(d)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        E.cached_index("t", env, bad)
    kind_dir = os.path.dirname(seen[0])
    assert os.listdir(kind_dir) == []
    build = Build()
    p = E.cached_index("t", env, build)
    assert len(build.dirs) == 1 and os.path.dirname(p) == kind_dir


def test_input_stat_change_gives_new_path(env):
    build = Build()
    p1 = E.cached_index("t", env, build)
    doc = os.path.join(env, "documents.parquet")
    st = os.stat(doc)
    os.utime(doc, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    p2 = E.cached_index("t", env, build)
    assert p1 != p2 and len(build.dirs) == 2
    with open(doc, "ab") as f:  # a size change moves the stamp too
        f.write(b"y")
    assert E.cached_index("t", env, build) not in (p1, p2)


def test_kinds_do_not_share(env):
    build = Build()
    assert E.cached_index("a", env, build) != E.cached_index("b", env, build)
    assert len(build.dirs) == 2


def test_interrupted_copy_then_mutate_never_returned(env, tmp_path):
    src = tmp_path / "src_index"
    Build()(str(src))
    seen = []

    def copy_then_crash(d):
        seen.append(d)
        shutil.copytree(src, d)  # a complete-looking index ...
        raise KeyboardInterrupt  # ... whose mutation never ran

    with pytest.raises(KeyboardInterrupt):
        E.cached_index("mut", env, copy_then_crash)
    tmp = seen[0]
    final = tmp[:tmp.rindex(".tmp")]
    assert not os.path.exists(tmp) and not os.path.exists(final)
    # a copy left behind by a process that died mid-build
    shutil.copytree(src, f"{final}.tmp999999999")

    def copy_then_mutate(d):
        seen.append(d)
        shutil.copytree(src, d)
        with open(os.path.join(d, "mutated"), "w") as f:
            f.write("1")

    p = E.cached_index("mut", env, copy_then_mutate)
    assert p == final and len(seen) == 2
    assert os.path.exists(os.path.join(p, "mutated"))


def test_lost_rename_race_discards_own_build(env):
    seen = []

    def racing(d):
        seen.append(d)
        Build()(d)
        Build()(d[:d.rindex(".tmp")])  # another process finishes first

    p = E.cached_index("race", env, racing)
    assert p == seen[0][:seen[0].rindex(".tmp")]
    assert not os.path.exists(seen[0])
    assert os.path.exists(os.path.join(p, "manifest.json"))

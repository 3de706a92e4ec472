import os
import shutil

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "corrupts_index: the test damages an index on purpose, "
        "so the teardown CheckIndex skips it")


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def built_index(ray_session, tmp_path_factory):
    """sf0.001 corpus indexed once per session (5 segments of 100 docs)."""
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.sources.corpus import corpus_dataset

    idx = str(tmp_path_factory.mktemp("index") / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(corpus_dataset(SF_DIR), idx, segment_size=100,
                lineage_source=SF_DIR, fields=("text", "title"))
    return idx


@pytest.fixture(scope="session")
def corpus_texts():
    """doc_id-ordered raw texts of the sf0.001 corpus (brute-force oracle)."""
    from lucene_kmp_ray.sources.corpus import corpus_table
    return corpus_table(SF_DIR).sort_by("doc_id")["text"].to_pylist()


def _index_dirs(root: str) -> list[str]:
    """Index directories under ``root``: a ``manifest.json`` beside
    ``segments/`` (segment directories are not descended into)."""
    out = []
    for d, subdirs, files in os.walk(root):
        if "manifest.json" in files and "segments" in subdirs:
            out.append(d)
        subdirs[:] = [s for s in subdirs if s != "segments"]
    return sorted(out)


_checked: dict[str, tuple] = {}  # index dir -> file stamp it passed with


def _stamp(index_dir: str) -> tuple:
    return tuple((os.path.join(d, f), st.st_size, st.st_mtime_ns)
                 for d, _, files in sorted(os.walk(index_dir))
                 for f in sorted(files)
                 for st in [os.stat(os.path.join(d, f))])


@pytest.fixture(autouse=True)
def check_indexes_on_teardown(request):
    """CheckIndex on close (MockDirectoryWrapper's role): after each test,
    every index it left under its ``tmp_path``, and the session
    ``built_index`` it used, must pass ``check_index``. A test that
    damages an index on purpose is marked ``corrupts_index``."""
    # requested before the test runs, so both outlive this teardown
    tmp = request.getfixturevalue("tmp_path") \
        if "tmp_path" in request.fixturenames else None
    built = request.getfixturevalue("built_index") \
        if "built_index" in request.fixturenames else None
    yield
    if request.node.get_closest_marker("corrupts_index"):
        return
    dirs = _index_dirs(str(tmp)) if tmp is not None else []
    if built is not None:
        dirs.append(built)
    from lucene_kmp_ray.index.check import check_index
    for d in dirs:
        stamp = _stamp(d)
        if _checked.get(d) == stamp:
            continue
        report = check_index(d, parallel=False)
        assert report["ok"], (d, report["errors"])
        _checked[d] = stamp

import pytest

from diarsep import workers
from diarsep.workers import blas_threads, worker_count
from test_cli import fresh_python

needs_openblas = pytest.mark.skipif(blas_threads() is None, reason="numpy runs on no readable OpenBLAS here")


def pool_size(setting):
    """What blas_threads() reads in a fresh interpreter with OPENBLAS_NUM_THREADS=setting."""
    script = "from diarsep.workers import blas_threads\nprint(blas_threads())\n"
    result = fresh_python(script, env={"OPENBLAS_NUM_THREADS": setting})
    assert result.returncode == 0, result.stderr
    return result.stdout


@needs_openblas
def test_blas_threads_reads_a_pinned_pool():
    assert pool_size("1") == "1\n"


@needs_openblas
@pytest.mark.skipif(worker_count(2, 1) < 2, reason="OpenBLAS caps its pool at the usable CPUs")
def test_blas_threads_reads_a_threaded_pool():
    assert pool_size("2") == "2\n"


def test_blas_threads_is_none_without_a_mapped_openblas(monkeypatch):
    monkeypatch.setattr(workers, "_mapped_files", lambda: {"/usr/lib/libblas.so.3", "/usr/lib/libc.so.6"})
    assert blas_threads() is None
    monkeypatch.setattr(workers, "_mapped_files", set)
    assert blas_threads() is None

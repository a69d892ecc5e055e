import pytest

from ssnl.cli import _keep_heap, _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def cli_process_settings():
    """Every test runs under the process settings that ``ssnl.cli.main`` sets:
    glibc's fixed heap thresholds and one BLAS thread. Both are process-wide,
    so without this the first test that calls ``main`` would change them for
    every test after it, and a test's arithmetic and speed would depend on
    the order the tests run in. The third setting of ``main``, ``gc.freeze``,
    needs no fixture: it changes no arithmetic, only which objects the
    collector walks."""
    _keep_heap()
    _one_blas_thread()

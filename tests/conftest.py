"""Fixtures that apply to every test."""

import signal

import pytest

# A test that runs longer than this fails, so that a hang stops one test
# instead of the whole run. The slowest test takes about 5 s.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fails the test with TimeoutError once it has run TIME_LIMIT_S seconds;
    does nothing where there is no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

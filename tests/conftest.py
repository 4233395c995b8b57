"""Shared fixtures for the test-suite."""

from __future__ import annotations

import signal

import pytest

from repro.config import (
    MemoryConfig,
    MethodCacheConfig,
    PatmosConfig,
    SetAssocCacheConfig,
    StackCacheConfig,
)

#: Wall-clock budget of each test phase (setup, call, teardown), in seconds.
#: A phase that overruns it fails with the traceback of where it hung
#: instead of stalling the whole run.
TIMEOUT_S = 300


def _alarm_guard():
    """Hookwrapper body arming SIGALRM around one test phase.

    The alarm covers only the wrapped phase, so the failure it raises always
    lands inside pytest's per-phase call capture and is reported as a test
    failure, never as an internal error of the session.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test phase exceeded its {TIMEOUT_S} s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _alarm_guard()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _alarm_guard()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield from _alarm_guard()


@pytest.fixture
def config() -> PatmosConfig:
    """The default Patmos configuration."""
    return PatmosConfig()


@pytest.fixture
def small_config() -> PatmosConfig:
    """A configuration with tiny caches, for eviction/spill tests."""
    return PatmosConfig(
        method_cache=MethodCacheConfig(size_bytes=512, num_blocks=4),
        stack_cache=StackCacheConfig(size_bytes=128),
        static_cache=SetAssocCacheConfig(size_bytes=256, line_bytes=16,
                                         associativity=2),
        data_cache=SetAssocCacheConfig(size_bytes=128, line_bytes=16,
                                       associativity=4),
        memory=MemoryConfig(size_bytes=2 * 1024 * 1024, burst_words=4,
                            setup_cycles=6, cycles_per_word=2),
    )

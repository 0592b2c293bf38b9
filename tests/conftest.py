"""Shared fixtures and numeric-gradient helpers for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.graph.datasets import load_dataset, toy_graph
from scheduler_oracle import install_scheduler_oracle  # noqa: F401 (fixture)


@pytest.fixture
def deadline():
    """Fail a test that runs past 10 s instead of letting it hang."""
    def expire(signum, frame):
        # No traceback: the interrupted frame may carry no line number.
        pytest.fail("the test ran past its 10 s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def toy():
    return toy_graph()


@pytest.fixture
def small_graph():
    """A small learnable graph used across integration tests."""
    return load_dataset("reddit_sim", scale=0.12, seed=3)


@pytest.fixture
def medium_graph():
    return load_dataset("papers_sim", scale=0.2, seed=5)


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(array)`` w.r.t. ``array``."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        up = fn()
        flat[index] = original - eps
        down = fn()
        flat[index] = original
        grad_flat[index] = (up - down) / (2 * eps)
    return grad

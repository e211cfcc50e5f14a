"""Shared fixtures for the repro test suite."""

import logging
import random

import pytest

from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh event engine."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for queue disciplines."""
    return random.Random(1234)


@pytest.fixture
def repro_caplog(caplog, monkeypatch):
    """``caplog`` that also sees ``repro.*`` records.

    The CLI stops "repro" records at its own stdout handler
    (``propagate = False``); let them reach caplog's for the test.
    """
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    return caplog


@pytest.fixture(autouse=True)
def _reset_default_runner():
    """Keep the process-wide default runner from leaking between tests."""
    yield
    from repro.runner import set_default_runner

    set_default_runner(None)

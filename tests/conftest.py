"""Fixtures shared by the test modules."""

import threading
import types

import pytest

from roughvar import grid


@pytest.fixture()
def threads(monkeypatch):
    """The threads ``grid._in_halves`` starts, recorded; the process is taken to have 2 CPUs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    monkeypatch.setattr(grid, "threading", types.SimpleNamespace(Thread=Recorded))
    return started

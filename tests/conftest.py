"""Shared fixtures."""

import contextlib

import pytest

from jpatomo import detection


@pytest.fixture
def draws(monkeypatch):
    """Count record-engine passes: one entry per `detection._record_blocks`
    call, holding the number of blocks that call drew."""
    calls = []
    engine = detection._record_blocks

    def counted(*args, **kwargs):
        k = len(calls)
        calls.append(0)
        with contextlib.closing(engine(*args, **kwargs)) as blocks:
            for block in blocks:
                calls[k] += 1
                yield block

    monkeypatch.setattr(detection, "_record_blocks", counted)
    return calls

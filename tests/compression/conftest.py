"""Fixtures shared by the codec suites."""

import pytest

from repro.compression.szlike import codebook_cache


@pytest.fixture()
def settings(monkeypatch):
    """``settings(delta=..., refresh_interval=...)`` sets the codebook
    cache's module constants for this test."""

    def set_(**values):
        for name, value in values.items():
            monkeypatch.setattr(codebook_cache, name.upper(), value)

    return set_

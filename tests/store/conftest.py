"""Fixtures shared by the store tests."""

import json
from contextlib import contextmanager

import pytest


@pytest.fixture
def count_json_decodes(monkeypatch):
    """``with count_json_decodes() as decodes:`` — one item per JSON text decoded.

    Every route into the decoder (``json.load``, ``json.loads``, a
    ``JSONDecoder`` of one's own) ends in ``JSONDecoder.raw_decode``, so
    that is the one place counted.
    """

    @contextmanager
    def counting():
        decodes = []
        original = json.JSONDecoder.raw_decode

        def raw_decode(self, text, idx=0):
            decodes.append(text[:60])
            return original(self, text, idx)

        with monkeypatch.context() as patch:
            patch.setattr(json.JSONDecoder, "raw_decode", raw_decode)
            yield decodes

    return counting

"""The verify reports of the corpus's small families, against the golden.

``tests/corpus.py`` builds the tables and documents how to record the
golden again; its wide families are checked by a CI step.
"""

from __future__ import annotations

import json

import pytest

import corpus

GOLDEN = json.loads(corpus.GOLDEN.read_text())


def test_golden_covers_every_family():
    assert list(GOLDEN) == list(corpus.FAMILIES)
    assert all(len(e["tags"]) == 8 * e["count"] for e in GOLDEN.values())


@pytest.mark.parametrize("family", corpus.SMALL)
def test_small_family_reports_match_the_golden(family):
    got, labels = corpus.digest(family)
    assert corpus.difference(family, got, labels, GOLDEN[family]) is None

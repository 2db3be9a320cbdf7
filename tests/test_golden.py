"""The golden corpus (`golden_corpus`), replayed case by case under pytest."""

from __future__ import annotations

import pytest

from golden_corpus import CASES, expected, replay


def test_corpus_lists_every_case():
    assert sorted(expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert replay(CASES[name]) == expected()[name]

"""Fixtures shared by every test module."""

import pytest

from welchkit import serialize


@pytest.fixture(autouse=True)
def fresh_vector_set_cache():
    """Each test starts with no vector-set parse kept from an earlier test."""
    serialize._vector_set_from_text.cache_clear()

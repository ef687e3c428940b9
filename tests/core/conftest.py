"""Shared fixtures for core-layer tests."""

import pytest

from repro.io import MemStorage, store_corpus
from repro.sim import SimScheduler, paper_node
from repro.text import MIX_PROFILE, generate_corpus


@pytest.fixture(scope="session")
def small_storage():
    """Storage holding a deterministic ~47-document corpus under 'in/'."""
    corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=3)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="in/")
    return storage


@pytest.fixture()
def scheduler():
    return SimScheduler(paper_node(16))

"""Shared fixtures for operator tests: a small stored corpus."""

import pytest

from repro.io import MemStorage, corpus_paths, store_corpus
from repro.sim import SimScheduler, paper_node
from repro.text import MIX_PROFILE, Corpus, generate_corpus


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic ~47-document synthetic Mix sample."""
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)


@pytest.fixture()
def stored_corpus(small_corpus):
    """(storage, paths) for the small corpus."""
    storage = MemStorage()
    store_corpus(storage, small_corpus, prefix="in/")
    return storage, corpus_paths(storage, "in/")


@pytest.fixture()
def scheduler():
    return SimScheduler(paper_node(16))


@pytest.fixture(scope="session")
def tiny_texts():
    return [
        "the cat sat on the mat",
        "the dog chased the cat",
        "a bird sang in the tree",
        "dogs and cats are pets",
        "the tree grew near the house",
        "birds fly over the house",
        "cats chase birds sometimes",
        "the mat lay by the door",
        "a door opened into the house",
        "pets make a house a home",
    ]


@pytest.fixture(scope="session")
def tiny_corpus(tiny_texts):
    return Corpus.from_texts("tiny", tiny_texts)

"""Tests for storage backends and corpus persistence."""

import os

import pytest

from repro.errors import StorageError
from repro.io import (
    FsStorage,
    MemStorage,
    corpus_paths,
    load_corpus,
    read_document,
    store_corpus,
)
from repro.text import Corpus


@pytest.fixture(params=["mem", "fs"])
def storage(request, tmp_path):
    if request.param == "mem":
        return MemStorage()
    return FsStorage(str(tmp_path / "store"))


class TestStorageBackends:
    def test_write_then_read(self, storage):
        storage.write("a.txt", "hello")
        data, cost = storage.read("a.txt")
        assert data == "hello"
        assert cost.disk_read_bytes == 5
        assert cost.disk_opens == 1

    def test_write_cost_reports_bytes(self, storage):
        cost = storage.write("a.txt", "12345678")
        assert cost.disk_write_bytes == 8
        assert cost.disk_opens == 1

    def test_overwrite_replaces(self, storage):
        storage.write("a.txt", "one")
        storage.write("a.txt", "two")
        assert storage.read_data("a.txt") == "two"

    def test_missing_file_raises(self, storage):
        with pytest.raises(StorageError):
            storage.read("missing.txt")
        with pytest.raises(StorageError):
            storage.size("missing.txt")

    def test_exists(self, storage):
        assert not storage.exists("x")
        storage.write("x", "data")
        assert storage.exists("x")

    def test_size(self, storage):
        storage.write("x", "abcd")
        assert storage.size("x") == 4

    def test_delete_is_idempotent(self, storage):
        storage.write("x", "data")
        storage.delete("x")
        storage.delete("x")
        assert not storage.exists("x")

    def test_list_with_prefix_sorted(self, storage):
        storage.write("docs/b.txt", "b")
        storage.write("docs/a.txt", "a")
        storage.write("other/c.txt", "c")
        assert list(storage.list("docs/")) == ["docs/a.txt", "docs/b.txt"]

    def test_total_bytes(self, storage):
        storage.write("p/a", "12")
        storage.write("p/b", "345")
        assert storage.total_bytes("p/") == 5

    def test_nested_paths(self, storage):
        storage.write("a/b/c/d.txt", "deep")
        assert storage.read_data("a/b/c/d.txt") == "deep"


class TestFsStorageSpecifics:
    def test_escaping_root_rejected(self, tmp_path):
        store = FsStorage(str(tmp_path / "root"))
        with pytest.raises(StorageError):
            store.write("../evil.txt", "nope")

    def test_files_visible_on_real_filesystem(self, tmp_path):
        store = FsStorage(str(tmp_path / "root"))
        store.write("out.arff", "@relation r")
        assert (tmp_path / "root" / "out.arff").read_text() == "@relation r"

    @pytest.mark.parametrize("spelling", ["absolute", "relative", "trailing"])
    def test_list_matches_per_file_relpath(self, tmp_path, monkeypatch, spelling):
        # The listing slices each walked folder instead of calling
        # os.path.relpath per file; it must name exactly what relpath
        # would, for nested folders, prefix filters and any root spelling.
        monkeypatch.chdir(tmp_path)
        root = {"absolute": str(tmp_path / "root"), "relative": "root",
                "trailing": str(tmp_path / "root") + os.sep}[spelling]
        store = FsStorage(root)
        for path in ("z.txt", "a/b.txt", "a/b/c.txt", "a/b/c/d.txt",
                     "ab/e.txt", "abc.txt", "q/r/s/t/u.txt"):
            store.write(path, "x")

        def by_relpath(prefix):
            found = []
            for dirpath, _, names in os.walk(tmp_path / "root"):
                for name in names:
                    rel = os.path.relpath(
                        os.path.join(dirpath, name), tmp_path / "root"
                    ).replace(os.sep, "/")
                    if rel.startswith(prefix):
                        found.append(rel)
            return sorted(found)

        for prefix in ("", "a", "a/", "a/b", "a/b/", "ab", "q/r/s", "zz"):
            assert list(store.list(prefix)) == by_relpath(prefix), prefix
        assert len(list(store.list())) == 7


class TestCorpusIo:
    def make_corpus(self):
        return Corpus.from_texts("c", ["first doc", "second doc here"])

    def test_store_and_load_roundtrip(self, storage):
        corpus = self.make_corpus()
        cost = store_corpus(storage, corpus, prefix="in/")
        assert cost.disk_opens == 2
        assert cost.disk_write_bytes == corpus.total_bytes
        loaded = load_corpus(storage, "in/", name="c")
        assert [d.text for d in loaded] == [d.text for d in corpus]

    def test_corpus_paths(self, storage):
        store_corpus(storage, self.make_corpus(), prefix="in/")
        paths = corpus_paths(storage, "in/")
        assert len(paths) == 2
        assert all(p.startswith("in/doc-") for p in paths)

    def test_read_document_cost(self, storage):
        store_corpus(storage, self.make_corpus(), prefix="in/")
        doc, cost = read_document(storage, "in/doc-000000", doc_id=0)
        assert doc.text == "first doc"
        assert doc.doc_id == 0
        assert cost.disk_read_bytes == len("first doc")

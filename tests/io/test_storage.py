"""Tests for storage backends and corpus persistence."""

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.io import (
    FsStorage,
    MemStorage,
    corpus_paths,
    corpus_stream,
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

    def test_a_missing_root_lists_empty_and_is_not_created(self, tmp_path):
        root = tmp_path / "nosuch"
        store = FsStorage(str(root))
        assert list(store.list()) == []
        assert store.total_bytes() == 0
        assert not root.exists()

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


#: Byte pieces that stress text mode's decoding and newline translation:
#: CRLF, lone CR, LF, a BOM, 2/3/4-byte characters, and bytes that are
#: never (0xff) or not here (a truncated 2-byte lead) valid UTF-8.
_PIECES = [
    b"\r\n", b"\r", b"\n", b"\xef\xbb\xbf", b"word", b" ",
    "\u00e9".encode(), "\u20ac".encode(), "\U0001d11e".encode(),
    b"\xff", b"\xc3",
]


def _text_mode(path: str):
    """What a text-mode UTF-8 read returns, or ``None`` if it refuses."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        return None


def _binary_read(store: FsStorage, name: str):
    try:
        return store.read(name)[0]
    except StorageError:
        return None


class TestBinaryRead:
    """``FsStorage.read`` reads bytes and decodes once; it must return
    exactly the ``str`` a text-mode UTF-8 read returns, and refuse
    exactly the files that read refuses."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join),
        st.binary(max_size=64),
    ))
    @example(b"")
    @example(b"a\r\nb\rc\n")
    @example(b"ends in a carriage return\r")
    @example(b"\r\r\n\n\r")
    @example(b"\xef\xbb\xbfbom\r\n")
    @example("caf\u00e9 \u20ac \U0001d11e".encode())
    @example(b"bad \xff byte")
    @example(b"a" * 8191 + b"\r\n" + b"b" * 8190 + b"\r")
    def test_equals_text_mode(self, raw):
        with tempfile.TemporaryDirectory() as root:
            with open(os.path.join(root, "f.txt"), "wb") as handle:
                handle.write(raw)
            store = FsStorage(root)
            expected = _text_mode(os.path.join(root, "f.txt"))
            assert _binary_read(store, "f.txt") == expected

    def _bad_corpus(self, tmp_path):
        store = FsStorage(str(tmp_path / "corpus"))
        store.write("a.txt", "fine")
        with open(tmp_path / "corpus" / "b.txt", "wb") as handle:
            handle.write(b"ok so far \xc3( then not")
        store.write("c.txt", "never reached")
        return store

    def test_undecodable_file_names_path_offset_and_remedy_inline(
        self, tmp_path
    ):
        store = self._bad_corpus(tmp_path)
        with pytest.raises(
            StorageError, match=r"'b\.txt'.*byte offset 10.*re-encode.*UTF-8"
        ):
            list(corpus_stream(store, workers=1))

    def test_undecodable_file_names_path_through_reader_threads(
        self, tmp_path
    ):
        store = self._bad_corpus(tmp_path)
        delivered = []
        with pytest.raises(
            StorageError, match=r"'b\.txt'.*byte offset 10.*re-encode.*UTF-8"
        ):
            for doc in corpus_stream(store, workers=2):
                delivered.append(doc.name)
        assert delivered == ["a.txt"]

    def test_undecodable_file_is_not_retried(self, tmp_path):
        from repro.exec.resilience import RetryPolicy

        store = self._bad_corpus(tmp_path)
        stream = corpus_stream(
            store, workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        with pytest.raises(StorageError, match=r"'b\.txt'") as caught:
            list(stream)
        assert "attempt" not in str(caught.value)


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

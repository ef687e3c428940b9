"""Tests for the word-count step."""

import pytest

from repro.core.cost_model import WorkloadScale
from repro.dicts import make_dict
from repro.exec import SimScheduler, TaskCost, paper_node
from repro.ops import WordCountStep
from repro.ops.wordcount import PHASE_INPUT_WC
from tests.ops.test_columnar_blocks import df_dict, simulated_wordcount


class TestCountDocument:
    def test_counts_are_correct(self):
        step = WordCountStep(dict_kind="map")
        df = make_dict("map")
        cost = TaskCost()
        tf, n_tokens = step.count_document("the cat the dog", df, cost)
        assert n_tokens == 4
        assert tf.get("the") == 2
        assert tf.get("cat") == 1
        assert df.get("the") == 1  # document frequency counts documents

    def test_df_counts_documents_not_occurrences(self):
        step = WordCountStep(dict_kind="map")
        df = make_dict("map")
        cost = TaskCost()
        step.count_document("cat cat cat", df, cost)
        step.count_document("cat dog", df, cost)
        assert df.get("cat") == 2
        assert df.get("dog") == 1

    def test_cost_is_charged(self):
        step = WordCountStep(dict_kind="map")
        cost = TaskCost()
        step.count_document("some words here", make_dict("map"), cost)
        assert cost.cpu_s > 0
        assert cost.mem_bytes > 0

    def test_hash_kind_produces_same_counts(self):
        text = "a b a c b a"
        counts = {}
        for kind in ("map", "unordered_map", "dict"):
            step = WordCountStep(dict_kind=kind)
            tf, _ = step.count_document(text, make_dict(kind), TaskCost())
            counts[kind] = dict(tf.items())
        assert counts["map"] == counts["unordered_map"] == counts["dict"]


class TestMerge:
    def test_merge_df_pair_sums_counts(self):
        step = WordCountStep(dict_kind="map")
        a, b = make_dict("map"), make_dict("map")
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y", 1)
        merged = step.merge_df_pair(a, b, TaskCost())
        assert merged.get("x") == 5
        assert merged.get("y") == 1


class TestRunSimulated:
    def test_results_independent_of_worker_count(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep(dict_kind="map")
        single, _ = step.run_simulated(scheduler, storage, paths, workers=1)
        multi, _ = step.run_simulated(scheduler, storage, paths, workers=8)
        assert single.df.to_dict() == multi.df.to_dict()
        assert single.total_tokens == multi.total_tokens
        assert [t.to_dict() for t in single.doc_tfs] == [
            t.to_dict() for t in multi.doc_tfs
        ]

    def test_doc_tfs_align_with_paths(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep(dict_kind="map")
        result, _ = step.run_simulated(scheduler, storage, paths, workers=4)
        assert result.n_docs == len(paths)
        assert result.paths == paths
        # Spot-check: recount one document functionally.
        text = storage.read_data(paths[3])
        expected, _ = step.count_document(text, make_dict("map"), TaskCost())
        assert result.doc_tfs[3].to_dict() == expected.to_dict()

    def test_phases_labelled_input_wc(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        result, timings = WordCountStep().run_simulated(
            scheduler, storage, paths, workers=8
        )
        assert all(t.name == PHASE_INPUT_WC for t in timings)
        assert len(timings) >= 2  # count phase + at least one merge level

    def test_parallel_run_is_faster_in_virtual_time(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep(dict_kind="map")
        _, t1 = step.run_simulated(scheduler, storage, paths, workers=1)
        _, t16 = step.run_simulated(scheduler, storage, paths, workers=16)
        assert sum(t.elapsed_s for t in t16) < sum(t.elapsed_s for t in t1)

    def test_input_bytes_recorded(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        result, _ = WordCountStep().run_simulated(scheduler, storage, paths)
        assert result.input_bytes == sum(storage.size(p) for p in paths)

    def test_scale_multiplies_costs_not_results(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        unit = WordCountStep(dict_kind="map")
        scaled = WordCountStep(
            dict_kind="map", scale=WorkloadScale(doc_factor=10, vocab_factor=2)
        )
        unit_result, unit_timings = unit.run_simulated(
            scheduler, storage, paths, workers=1
        )
        scaled_result, scaled_timings = scaled.run_simulated(
            scheduler, storage, paths, workers=1
        )
        assert scaled_result.df.to_dict() == unit_result.df.to_dict()
        # Count phase is document-proportional: 10x the virtual time.
        assert scaled_timings[0].elapsed_s == pytest.approx(
            10 * unit_timings[0].elapsed_s, rel=1e-6
        )

    def test_resident_bytes_uses_scale_factors(self, tiny_texts):
        unit = simulated_wordcount(WordCountStep(dict_kind="map"), tiny_texts)
        scaled = simulated_wordcount(WordCountStep(
            dict_kind="map", scale=WorkloadScale(doc_factor=5, vocab_factor=2)
        ), tiny_texts)
        assert scaled.resident_bytes() > unit.resident_bytes()


class TestFunctionalRun:
    def test_run_on_texts(self, tiny_texts):
        result = WordCountStep(dict_kind="map").run(tiny_texts)
        assert result.n_docs == len(tiny_texts)
        df = df_dict(result)
        assert df["the"] > 0
        assert result.block.n_terms == len(df)
        assert df == df_dict(simulated_wordcount(WordCountStep(), tiny_texts))

    def test_hash_and_tree_agree(self, tiny_texts):
        # The dictionary kind acts in the simulator, not on a real run.
        tree = simulated_wordcount(WordCountStep(dict_kind="map"), tiny_texts)
        hashed = simulated_wordcount(
            WordCountStep(dict_kind="unordered_map"), tiny_texts
        )
        assert tree.df.to_dict() == hashed.df.to_dict()

    def test_memory_hashmap_exceeds_treemap(self, tiny_texts):
        """The Figure 4 memory effect: pre-sized tables dwarf tree nodes."""
        tree = simulated_wordcount(WordCountStep(dict_kind="map"), tiny_texts)
        hashed = simulated_wordcount(
            WordCountStep(dict_kind="unordered_map", reserve=4096), tiny_texts
        )
        assert hashed.resident_bytes() > 20 * tree.resident_bytes()

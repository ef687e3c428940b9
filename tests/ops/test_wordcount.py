"""Tests for the word-count step."""

import pytest

from repro.dicts import make_dict
from repro.exec import TaskCost
from repro.ops import WordCountStep
from repro.ops.wordcount import PHASE_INPUT_WC
from repro.sim import SimConfig, WorkloadScale
from repro.sim.operators import count_document, merge_df_pair, run_wordcount
from tests.ops.test_columnar_blocks import df_dict, simulated_wordcount


class TestCountDocument:
    def test_counts_are_correct(self):
        step = WordCountStep()
        df = make_dict("map")
        cost = TaskCost()
        tf, n_tokens = count_document(step, "the cat the dog", df, cost)
        assert n_tokens == 4
        assert tf.get("the") == 2
        assert tf.get("cat") == 1
        assert df.get("the") == 1  # document frequency counts documents

    def test_df_counts_documents_not_occurrences(self):
        step = WordCountStep()
        df = make_dict("map")
        cost = TaskCost()
        count_document(step, "cat cat cat", df, cost)
        count_document(step, "cat dog", df, cost)
        assert df.get("cat") == 2
        assert df.get("dog") == 1

    def test_cost_is_charged(self):
        cost = TaskCost()
        count_document(WordCountStep(), "some words here", make_dict("map"), cost)
        assert cost.cpu_s > 0
        assert cost.mem_bytes > 0

    def test_hash_kind_produces_same_counts(self):
        text = "a b a c b a"
        counts = {}
        for kind in ("map", "unordered_map", "dict"):
            tf, _ = count_document(
                WordCountStep(), text, make_dict(kind), TaskCost(),
                SimConfig(wc_dict_kind=kind),
            )
            counts[kind] = dict(tf.items())
        assert counts["map"] == counts["unordered_map"] == counts["dict"]


class TestMerge:
    def test_merge_df_pair_sums_counts(self):
        a, b = make_dict("map"), make_dict("map")
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y", 1)
        merged = merge_df_pair(a, b, TaskCost())
        assert merged.get("x") == 5
        assert merged.get("y") == 1


class TestRunSimulated:
    def test_results_independent_of_worker_count(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep()
        single, _ = run_wordcount(step, scheduler, storage, paths, workers=1)
        multi, _ = run_wordcount(step, scheduler, storage, paths, workers=8)
        assert single.df.to_dict() == multi.df.to_dict()
        assert single.total_tokens == multi.total_tokens
        assert [t.to_dict() for t in single.doc_tfs] == [
            t.to_dict() for t in multi.doc_tfs
        ]

    def test_doc_tfs_align_with_paths(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep()
        result, _ = run_wordcount(step, scheduler, storage, paths, workers=4)
        assert result.n_docs == len(paths)
        assert result.paths == paths
        # Spot-check: recount one document functionally.
        text = storage.read_data(paths[3])
        expected, _ = count_document(step, text, make_dict("map"), TaskCost())
        assert result.doc_tfs[3].to_dict() == expected.to_dict()

    def test_phases_labelled_input_wc(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        result, timings = run_wordcount(
            WordCountStep(), scheduler, storage, paths, workers=8
        )
        assert all(t.name == PHASE_INPUT_WC for t in timings)
        assert len(timings) >= 2  # count phase + at least one merge level

    def test_parallel_run_is_faster_in_virtual_time(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep()
        _, t1 = run_wordcount(step, scheduler, storage, paths, workers=1)
        _, t16 = run_wordcount(step, scheduler, storage, paths, workers=16)
        assert sum(t.elapsed_s for t in t16) < sum(t.elapsed_s for t in t1)

    def test_input_bytes_recorded(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        result, _ = run_wordcount(WordCountStep(), scheduler, storage, paths)
        assert result.input_bytes == sum(storage.size(p) for p in paths)

    def test_scale_multiplies_costs_not_results(self, stored_corpus, scheduler):
        storage, paths = stored_corpus
        step = WordCountStep()
        scaled = SimConfig(scale=WorkloadScale(doc_factor=10, vocab_factor=2))
        unit_result, unit_timings = run_wordcount(
            step, scheduler, storage, paths, workers=1
        )
        scaled_result, scaled_timings = run_wordcount(
            step, scheduler, storage, paths, workers=1, config=scaled
        )
        assert scaled_result.df.to_dict() == unit_result.df.to_dict()
        # Count phase is document-proportional: 10x the virtual time.
        assert scaled_timings[0].elapsed_s == pytest.approx(
            10 * unit_timings[0].elapsed_s, rel=1e-6
        )

    def test_resident_bytes_uses_scale_factors(self, tiny_texts):
        unit = simulated_wordcount(WordCountStep(), tiny_texts)
        scaled = simulated_wordcount(WordCountStep(), tiny_texts, SimConfig(
            scale=WorkloadScale(doc_factor=5, vocab_factor=2)
        ))
        assert scaled.resident_bytes() > unit.resident_bytes()


class TestFunctionalRun:
    def test_run_on_texts(self, tiny_texts):
        result = WordCountStep().run(tiny_texts)
        assert result.n_docs == len(tiny_texts)
        df = df_dict(result)
        assert df["the"] > 0
        assert result.block.n_terms == len(df)
        assert df == df_dict(simulated_wordcount(WordCountStep(), tiny_texts))

    def test_hash_and_tree_agree(self, tiny_texts):
        # The dictionary kind acts in the simulator, not on a real run.
        tree = simulated_wordcount(WordCountStep(), tiny_texts)
        hashed = simulated_wordcount(
            WordCountStep(), tiny_texts, SimConfig(wc_dict_kind="unordered_map")
        )
        assert tree.df.to_dict() == hashed.df.to_dict()

    def test_memory_hashmap_exceeds_treemap(self, tiny_texts):
        """The Figure 4 memory effect: pre-sized tables dwarf tree nodes."""
        tree = simulated_wordcount(WordCountStep(), tiny_texts)
        hashed = simulated_wordcount(
            WordCountStep(), tiny_texts,
            SimConfig(wc_dict_kind="unordered_map", reserve=4096),
        )
        assert hashed.resident_bytes() > 20 * tree.resident_bytes()

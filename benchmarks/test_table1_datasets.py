"""Table 1 — data set description.

Paper reference values::

    Input          Documents  Bytes     Distinct words
    Mix            23 432     62.8 MB   184 743
    NSF Abstracts  101 483    310.9 MB  267 914

The benchmark generates both corpora at benchmark scale, measures their
statistics, and extrapolates documents/bytes linearly and the vocabulary
along the calibrated Heaps curve.
"""

from repro.sim import format_comparison_rows
from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE


def _mb(n_bytes: float) -> str:
    return f"{n_bytes / (1024 * 1024):.1f} MB"


def _rows(workload):
    profile = workload.profile
    stats = workload.stats
    doc_factor = workload.scale.doc_factor
    extrapolated_vocab = profile.expected_vocabulary(
        stats.total_tokens * doc_factor
    )
    return [
        (
            f"{profile.name}: documents",
            f"{profile.paper_documents:,}",
            f"{stats.documents * doc_factor:,.0f}",
        ),
        (
            f"{profile.name}: bytes",
            _mb(profile.paper_bytes),
            _mb(stats.total_bytes * doc_factor),
        ),
        (
            f"{profile.name}: distinct words",
            f"{profile.paper_distinct_words:,}",
            f"{extrapolated_vocab:,} (measured {stats.distinct_words:,} at scale)",
        ),
    ]


def test_table1_dataset_description(benchmark, mix_workload, nsf_workload, report):
    def run():
        return _rows(mix_workload) + _rows(nsf_workload)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_comparison_rows(rows, title="Table 1 — data set description")
    report("table1_datasets", text)

    # Shape assertions: extrapolated statistics within 25% of the paper.
    for workload, profile in (
        (mix_workload, MIX_PROFILE),
        (nsf_workload, NSF_ABSTRACTS_PROFILE),
    ):
        stats = workload.stats
        bytes_full = stats.total_bytes * workload.scale.doc_factor
        assert abs(bytes_full - profile.paper_bytes) / profile.paper_bytes < 0.25
        vocab_full = profile.expected_vocabulary(
            stats.total_tokens * workload.scale.doc_factor
        )
        assert (
            abs(vocab_full - profile.paper_distinct_words)
            / profile.paper_distinct_words
            < 0.25
        )

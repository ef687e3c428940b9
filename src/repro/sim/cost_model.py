"""Cost constants and analytic projections for the simulated machine.

Every operator meters its real work (bytes tokenized, dictionary
operations, floating-point kernel invocations) and converts the counts
into virtual CPU seconds and DRAM traffic through the constants below.
The constants are calibrated — see DESIGN.md §5 — so that full-scale
virtual times land near the paper's anchors (sequential K-means seconds,
Figure 3/4 ratios); the *scaling behaviour* then follows entirely from
the structure of the computation and the machine model, it is never
hard-coded.

This module also provides the closed-form projections used by the
cost-based planner: Amdahl-style phase scaling and roofline caps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.machine import MachineSpec

__all__ = [
    "CostConstants",
    "DEFAULT_COSTS",
    "WorkloadScale",
    "UNIT_SCALE",
    "amdahl_speedup",
    "roofline_cap",
]


@dataclass(frozen=True)
class CostConstants:
    """Per-event virtual costs of the operators' non-dictionary work.

    All ``*_ns`` values are virtual nanoseconds on one core of the
    simulated node; ``*_bytes`` values are DRAM traffic per event.
    """

    # -- text / input ----------------------------------------------------------
    #: Scan+fold+split cost per input byte (tokenization).
    tokenize_ns_per_byte: float = 1.6
    #: Fixed per-token overhead in the word-count loop (hashing the string,
    #: string interning).
    token_fixed_ns: float = 18.0
    #: DRAM traffic per input byte during tokenization (read + token write).
    tokenize_bytes_per_byte: float = 2.0

    # -- TF/IDF transform --------------------------------------------------------
    #: Per (document, term) score computation: one log, two multiplies.
    tfidf_score_ns: float = 30.0
    #: Building a sorted sparse row: per-entry append + sort share.
    sparse_build_ns_per_entry: float = 14.0
    #: DRAM traffic per produced sparse entry (12 bytes + working data).
    sparse_build_bytes_per_entry: float = 32.0

    #: Per-comparison cost of sorting the vocabulary (hash dictionaries only;
    #: trees iterate in order for free).
    vocab_sort_ns_per_cmp: float = 20.0

    # -- ARFF serialization -------------------------------------------------------
    #: Formatting cost per output byte (number → text).
    arff_serialize_ns_per_byte: float = 3.0
    #: Parsing cost per input byte (text → number).
    arff_parse_ns_per_byte: float = 5.0
    #: DRAM traffic per ARFF byte processed.
    arff_bytes_per_byte: float = 3.0

    # -- K-means -----------------------------------------------------------------
    #: Per sparse multiply-add in the assignment kernel (one (term, cluster)
    #: pair): a gather from a multi-megabyte centroid array — essentially a
    #: cache miss per access, hence far above a raw FMA.
    kmeans_flop_ns: float = 40.0
    #: DRAM traffic per assignment multiply-add (partial L3 reuse).
    kmeans_flop_bytes: float = 16.0
    #: Per-element cost of accumulating a document into a partial centroid.
    centroid_accumulate_ns: float = 2.5
    #: Per-element cost of merging two partial centroid buffers (reducer
    #: combine; runs in a serial chain at the end of the parallel loop).
    centroid_merge_ns: float = 1.2
    #: DRAM traffic per merged centroid element (read both, write one).
    centroid_merge_bytes: float = 14.0
    #: Per-element cost of the final divide/normalize step.
    centroid_finalize_ns: float = 5.0

    # -- dense (WEKA-style) baseline ----------------------------------------------
    #: Per dense element visited in the baseline's distance loop. High: the
    #: baseline manipulates boxed per-attribute objects through virtual
    #: calls, as WEKA's ``Instance`` API does.
    dense_element_ns: float = 22.0
    #: Allocation churn per dense vector created (fresh objects every
    #: iteration, the anti-pattern the paper calls out).
    dense_alloc_ns_per_element: float = 4.0


#: Library-wide default calibration.
DEFAULT_COSTS = CostConstants()


@dataclass(frozen=True)
class WorkloadScale:
    """Extrapolation factors from a scaled-down corpus to full size.

    Benchmarks run the real computation on a scaled corpus (a few hundred
    documents) and the simulator multiplies the *metered costs* up at
    charge time, so that phase times are directly full-scale. The two
    factors matter separately because workload components scale
    differently: per-document work (tokenization, per-document
    dictionaries, K-means assignment) grows with the document count, while
    vocabulary-proportional work (the global dictionary index, centroid
    buffers, reducer merges) grows only with the Heaps curve — extrapolating
    both by the document ratio would wildly exaggerate the
    vocabulary-bound serial sections.
    """

    #: Multiplier for document-proportional costs.
    doc_factor: float = 1.0
    #: Multiplier for vocabulary-proportional costs.
    vocab_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.doc_factor <= 0 or self.vocab_factor <= 0:
            raise ValueError("scale factors must be positive")

    @classmethod
    def for_corpus(
        cls, full_docs: int, actual_docs: int, full_vocab: int, actual_vocab: int
    ) -> "WorkloadScale":
        """Factors from actual (scaled) corpus statistics to full-scale ones."""
        return cls(
            doc_factor=full_docs / actual_docs,
            vocab_factor=full_vocab / actual_vocab,
        )


#: No extrapolation: costs are charged exactly as metered.
UNIT_SCALE = WorkloadScale()


def amdahl_speedup(serial_fraction: float, workers: int) -> float:
    """Classic Amdahl projection for a phase with the given serial share."""
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError(f"serial fraction must be in [0, 1]: {serial_fraction}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / workers)


def roofline_cap(
    cpu_seconds: float, mem_bytes: float, machine: MachineSpec
) -> float:
    """Maximum speedup of a phase before it saturates socket bandwidth.

    The phase runs at ``max(cpu/T, mem/mem_bw)``; the cap is the ratio of
    its single-core time to the bandwidth floor.
    """
    single = max(cpu_seconds, mem_bytes / machine.core_mem_bw)
    floor = mem_bytes / machine.mem_bw
    if floor <= 0.0:
        return float("inf")
    return single / floor

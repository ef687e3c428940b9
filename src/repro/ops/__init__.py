"""Analytics operators: TF/IDF and K-means, each with one real path.

Their simulated runs (instrumented dictionaries, virtual time) and the
dense WEKA-style baseline are in :mod:`repro.sim`.
"""

from repro.ops.kmeans import PHASE_KMEANS, KMeansOperator, KMeansResult
from repro.ops.tfidf import (
    PHASE_TFIDF_OUTPUT,
    PHASE_TRANSFORM,
    TfIdfOperator,
    TfIdfResult,
)
from repro.ops.wordcount import PHASE_INPUT_WC, WordCountResult, WordCountStep

__all__ = [
    "WordCountStep",
    "WordCountResult",
    "TfIdfOperator",
    "TfIdfResult",
    "KMeansOperator",
    "KMeansResult",
    "PHASE_INPUT_WC",
    "PHASE_TRANSFORM",
    "PHASE_TFIDF_OUTPUT",
    "PHASE_KMEANS",
]

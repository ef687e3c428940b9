"""Word counts side by side in one process keep their own tokenizer.

In-process backends install the word-count worker state in the caller's
process; the serve daemon and perfbench's selftest run pipelines on
several threads at once. Each run installs its tokenizer in a slot of its
own and its tasks name that slot, so two runs with differently configured
tokenizers cannot read each other's.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

from repro.exec.inline import SequentialBackend
from repro.ops import kernels
from repro.ops.wordcount import WordCountStep
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

_TOKENIZERS = (
    Tokenizer(),
    Tokenizer(drop_stopwords=True, min_length=4, max_length=8),
)


def _count(texts, tokenizer):
    block = WordCountStep(tokenizer=tokenizer).run(
        texts, backend=SequentialBackend()
    ).block
    return block.terms, block.df_counts.tolist(), block.token_counts.tolist()


def test_two_threads_two_tokenizers_each_equal_to_its_solo_run():
    texts = [doc.text for doc in generate_corpus(MIX_PROFILE, scale=0.02, seed=5)]
    solo = [_count(texts, tokenizer) for tokenizer in _TOKENIZERS]
    assert solo[0][0] != solo[1][0]

    def repeat(tokenizer):
        return [_count(texts, tokenizer) for _ in range(6)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(_TOKENIZERS)) as pool:
            futures = [pool.submit(repeat, t) for t in _TOKENIZERS]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, solo):
        assert got == [want] * 6
    # Every run released its slot; only the direct-call default may remain.
    assert set(kernels._WORDCOUNT) <= {0}

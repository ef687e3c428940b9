"""A richer analytics pipeline: dedup → TF/IDF → top terms + k-NN labels.

The paper argues analytics workflows chain many diverse operators (§1).
This example composes four on one corpus; MinHash and k-NN come from
``text_ops/`` beside this script, not from the library:

1. **MinHash** near-duplicate detection removes boilerplate re-posts;
2. **TF/IDF** vectorises the surviving documents;
3. **top-k** reports the corpus's dominant vocabulary;
4. **k-NN** classifies unlabeled documents from a few labelled ones.

Run with::

    python examples/dedup_and_classify.py
"""

from repro import Corpus, KMeansOperator, TfIdfOperator
from repro.sparse import CsrMatrix
from repro.text import Tokenizer
from text_ops.knn import KnnClassifier
from text_ops.minhash import MinHasher

LABELLED = [
    ("db", "The query optimizer rewrites the join order using table statistics"),
    ("db", "An index scan beats a table scan when the predicate is selective"),
    ("db", "The buffer pool caches pages so the executor avoids disk reads"),
    ("os", "The scheduler preempts the running thread when its quantum expires"),
    ("os", "A page fault traps to the kernel which loads the page from swap"),
    ("os", "The file system journals metadata so crashes do not corrupt inodes"),
]

UNLABELLED = [
    "The planner chooses a hash join because the statistics show a large table",
    "The kernel scheduler migrates threads between cores to balance load",
    "Buffer pool pages are evicted with a clock algorithm to make room",
    "On a fault the kernel loads the missing frame from swap and resumes the thread",
]

# Two near-identical boilerplate documents that should be deduplicated.
BOILERPLATE = [
    "Subscribe to our weekly newsletter for the latest updates news and "
    "announcements about modern database systems and operating systems research",
    "Subscribe to our weekly newsletter for the latest updates news and "
    "announcements about modern database systems and operating system research",
]


def main() -> None:
    tokenizer = Tokenizer(drop_stopwords=True, min_length=2)
    texts = [text for _, text in LABELLED] + UNLABELLED + BOILERPLATE
    labels = [label for label, _ in LABELLED]

    # 1. Deduplicate.
    streams = [tokenizer.tokens(text) for text in texts]
    hasher = MinHasher(num_hashes=64, bands=32, shingle_width=2, seed=7)
    duplicates = hasher.find_duplicates(streams, threshold=0.5)
    drop = {pair.right for pair in duplicates}
    kept = [text for i, text in enumerate(texts) if i not in drop]
    print(f"deduplicated: dropped {len(drop)} of {len(texts)} documents "
          f"({', '.join(f'{p.left}~{p.right}@{p.similarity:.2f}' for p in duplicates)})")

    # 2. Vectorise the survivors.
    corpus = Corpus.from_texts("systems", kept)
    scores = TfIdfOperator(tokenizer=tokenizer).fit_transform(corpus)

    # 3. Dominant vocabulary: the corpus block's terms by document
    # frequency, ties broken alphabetically.
    block = scores.wordcount.block
    ranked = sorted(
        zip(block.terms, block.df_counts.tolist()),
        key=lambda entry: (-entry[1], entry[0]),
    )[:8]
    print("top document-frequency terms:",
          ", ".join(f"{term}({count})" for term, count in ranked))

    # 4. Classify the unlabeled documents from the labelled ones.
    n_train = len(LABELLED)
    train = CsrMatrix.from_rows(
        [scores.matrix.row(i) for i in range(n_train)],
        n_cols=scores.matrix.n_cols,
    )
    classifier = KnnClassifier(k=3).fit(train, labels)
    print("\npredictions:")
    for offset, text in enumerate(UNLABELLED):
        row = scores.matrix.row(n_train + offset)
        prediction = classifier.predict(row)
        print(f"  [{prediction}] {text}")

    # Bonus: unsupervised view of the same documents.
    clustering = KMeansOperator(n_clusters=2, max_iters=20, init="kmeans++").fit(
        scores.matrix
    )
    print(f"\nk-means (k=2) split sizes: {clustering.cluster_sizes()}")


if __name__ == "__main__":
    main()

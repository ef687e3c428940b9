"""Cluster real documents and inspect what each cluster is about.

This example uses the operators *functionally* — no simulation, just the
analytics — on a small hand-written corpus of short "news" items across
four topics, then prints each cluster's highest-TF/IDF terms. It shows
that the library is a working text-analytics toolkit, not only a
performance model.

Run with::

    python examples/news_clustering.py
"""

from collections import defaultdict

from repro import Corpus, KMeansOperator, TfIdfOperator
from repro.text import Tokenizer

SPORTS = [
    "The team won the league match and the coach praised the players after the game",
    "The striker scored twice and the team won the championship match of the season",
    "The coach said the players trained hard before the league game this season",
    "Fans watched the match as the team scored late to win the league game",
    "The captain led the players and the club won the championship this season",
    "The club signed a striker and the coach expects the team to win the league",
]

MARKETS = [
    "Shares fell as investors worried about interest rates and rising inflation",
    "The bank raised interest rates citing inflation and investors sold shares",
    "Earnings beat expectations and the stock price rose as investors bought shares",
    "Markets retreated as inflation data worried investors and bond yields rose",
    "The company raised its dividend and the stock price rose in heavy trading",
    "Analysts said inflation and interest rates will weigh on shares and markets",
]

SCIENCE = [
    "Astronomers used the space telescope to observe a distant galaxy and its stars",
    "The telescope captured images of stars forming in a nebula of gas and dust",
    "Researchers observed the planet's atmosphere with the space telescope instruments",
    "The probe returned samples and scientists studied dust from the early solar system",
    "Scientists observed two black holes merging and measured the gravitational waves",
    "The mission will observe how galaxies and stars formed in the early universe",
]

COOKING = [
    "Simmer the tomato sauce slowly and season the pasta with basil and garlic",
    "Knead the dough and bake the bread in a hot oven until the crust is golden",
    "Roast the vegetables with olive oil and season the dish with lemon and garlic",
    "Whisk the eggs with sugar and bake the cake in the oven until golden",
    "Marinate the chicken in garlic and oil then grill it and season the sauce",
    "Stir the onions slowly in butter and season the soup before serving the dish",
]

TOPICS = {"sports": SPORTS, "markets": MARKETS, "science": SCIENCE, "cooking": COOKING}


def top_terms(result, matrix, members, k=6):
    """Highest mean TF/IDF terms across a cluster's documents."""
    totals = defaultdict(float)
    for doc in members:
        for term_id, score in matrix.row(doc).items():
            totals[term_id] += score
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:k]
    return [result.vocabulary[term_id] for term_id, _ in ranked]


def main() -> None:
    texts, labels = [], []
    for topic, docs in TOPICS.items():
        texts.extend(docs)
        labels.extend([topic] * len(docs))
    corpus = Corpus.from_texts("news", texts)

    # Stop words and hapax terms matter on tiny documents: dropping both
    # leaves the topical vocabulary that actually links documents.
    tfidf = TfIdfOperator(
        tokenizer=Tokenizer(drop_stopwords=True, min_length=3),
        min_df=2,
    )
    scores = tfidf.fit_transform(corpus)
    print(f"{scores.n_docs} documents, vocabulary of {len(scores.vocabulary)} terms")

    # k-means++ with a few restarts, keeping the lowest-inertia solution —
    # the standard recipe for small, clumpy inputs.
    clustering = min(
        (
            KMeansOperator(
                n_clusters=4, max_iters=50, seed=seed, init="kmeans++"
            ).fit(scores.matrix)
            for seed in range(8)
        ),
        key=lambda result: result.inertia,
    )
    print(f"k-means converged after {clustering.n_iters} iterations "
          f"(best of 8 restarts, inertia {clustering.inertia:.2f})\n")

    members_by_cluster = defaultdict(list)
    for doc, cluster in enumerate(clustering.assignments):
        members_by_cluster[cluster].append(doc)

    pure = 0
    for cluster in sorted(members_by_cluster):
        members = members_by_cluster[cluster]
        topics = sorted({labels[doc] for doc in members})
        terms = top_terms(scores, scores.matrix, members)
        if len(topics) == 1:
            pure += len(members)
        print(f"cluster {cluster} ({len(members)} docs, topics: {', '.join(topics)})")
        print(f"   top terms: {', '.join(terms)}")
    print(f"\n{pure}/{len(texts)} documents sit in single-topic clusters")


if __name__ == "__main__":
    main()

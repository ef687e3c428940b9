"""MinHash near-duplicate detection operator.

Big-data corpora are full of near-duplicates (mirrors, boilerplate,
reposts); deduplication is a standard pre-processing operator for the
paper's pipeline. This implementation follows Broder's scheme: each
document's token-shingle set is summarised by ``num_hashes`` minimum hash
values; the estimated Jaccard similarity of two documents is the fraction
of agreeing signature positions. Candidate pairs are found by LSH
banding, so the operator never compares all O(n²) pairs.

Everything is deterministic: the hash family is seeded, and the paper's
per-document parallel-loop structure applies (signatures are computed per
document, independently).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OperatorError
from repro.exec.task import TaskCost
from repro.sim.cost_model import DEFAULT_COSTS, CostConstants
from repro.sim.scheduler import SimScheduler

__all__ = ["MinHasher", "DuplicatePair", "shingles"]

_MERSENNE = (1 << 61) - 1


def shingles(tokens: list[str], width: int = 3) -> set[str]:
    """Contiguous token n-grams of the given width (the whole document
    when shorter)."""
    if width < 1:
        raise OperatorError(f"shingle width must be >= 1, got {width}")
    if len(tokens) < width:
        return {" ".join(tokens)} if tokens else set()
    return {
        " ".join(tokens[i : i + width]) for i in range(len(tokens) - width + 1)
    }


@dataclass(frozen=True)
class DuplicatePair:
    """A candidate near-duplicate pair with its estimated similarity."""

    left: int
    right: int
    similarity: float


class MinHasher:
    """MinHash signatures + LSH banding for near-duplicate detection.

    Parameters
    ----------
    num_hashes:
        Signature length; must be divisible by ``bands``.
    bands:
        LSH bands; ``rows = num_hashes / bands`` tunes the similarity
        threshold (~``(1/bands)**(1/rows)``).
    """

    def __init__(
        self,
        num_hashes: int = 64,
        bands: int = 16,
        shingle_width: int = 3,
        seed: int = 0,
        costs: CostConstants = DEFAULT_COSTS,
    ) -> None:
        if num_hashes < 1:
            raise OperatorError(f"num_hashes must be >= 1, got {num_hashes}")
        if bands < 1 or num_hashes % bands:
            raise OperatorError(
                f"bands ({bands}) must divide num_hashes ({num_hashes})"
            )
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows = num_hashes // bands
        self.shingle_width = shingle_width
        self.costs = costs
        # A seeded affine hash family over a Mersenne prime.
        import random

        rng = random.Random(seed)
        self._a = [rng.randrange(1, _MERSENNE) for _ in range(num_hashes)]
        self._b = [rng.randrange(0, _MERSENNE) for _ in range(num_hashes)]

    def signature(
        self, tokens: list[str], cost: TaskCost | None = None
    ) -> tuple[int, ...]:
        """MinHash signature of one document's token stream."""
        doc_shingles = shingles(tokens, self.shingle_width)
        if not doc_shingles:
            return tuple([_MERSENNE] * self.num_hashes)
        hashed = [hash(s) & 0x7FFFFFFFFFFFFFFF for s in doc_shingles]
        minima = []
        for a, b in zip(self._a, self._b):
            minima.append(min((a * h + b) % _MERSENNE for h in hashed))
        if cost is not None:
            work = len(hashed) * self.num_hashes
            cost.cpu_s += work * 1.5e-9
            cost.mem_bytes += work * 8
        return tuple(minima)

    @staticmethod
    def estimate_similarity(
        sig_a: tuple[int, ...], sig_b: tuple[int, ...]
    ) -> float:
        """Fraction of agreeing positions ≈ Jaccard similarity."""
        if len(sig_a) != len(sig_b):
            raise OperatorError("signatures have different lengths")
        agree = sum(1 for x, y in zip(sig_a, sig_b) if x == y)
        return agree / len(sig_a)

    def find_duplicates(
        self,
        token_streams: list[list[str]],
        threshold: float = 0.5,
        scheduler: SimScheduler | None = None,
        workers: int | None = None,
    ) -> list[DuplicatePair]:
        """Near-duplicate pairs above ``threshold`` estimated similarity.

        Signatures are computed per document (a parallel loop when a
        scheduler is supplied); candidates come from LSH banding, then the
        full signatures verify each candidate pair.
        """
        if not 0.0 <= threshold <= 1.0:
            raise OperatorError(f"threshold must be in [0, 1]: {threshold}")
        costs = []
        signatures = []
        for tokens in token_streams:
            cost = TaskCost()
            signatures.append(self.signature(tokens, cost))
            costs.append(cost)
        if scheduler is not None:
            scheduler.simulate_phase(costs, workers=workers, name="minhash")

        buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for doc_id, signature in enumerate(signatures):
            for band in range(self.bands):
                key = (band, signature[band * self.rows : (band + 1) * self.rows])
                buckets.setdefault(key, []).append(doc_id)

        candidates = set()
        for members in buckets.values():
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    candidates.add((left, right))

        pairs = []
        for left, right in sorted(candidates):
            similarity = self.estimate_similarity(
                signatures[left], signatures[right]
            )
            if similarity >= threshold:
                pairs.append(DuplicatePair(left, right, similarity))
        pairs.sort(key=lambda p: (-p.similarity, p.left, p.right))
        return pairs

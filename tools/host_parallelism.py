"""How much parallel capacity does this host really have for our kernels?

Times one fixed, interpreter-bound kernel — ``kernels.count_chunk`` over
a generated Mix chunk — in one process alone, then in ``--processes``
processes running it at the same moment, and prints the ratio::

    PYTHONPATH=src python tools/host_parallelism.py [--processes 2]

A ratio near 1.0 means the processes ran on cores of their own; near
``--processes`` means they shared one core's worth of interpreter
throughput (SMT siblings, a throttled or oversubscribed VM). Any
``exec.speedup_vs_seq`` a ``processes`` run reports on this host is
bounded by ``processes / ratio`` — read it against that number. The
tool only measures; it always exits 0.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.ops import kernels  # noqa: E402
from repro.text.synth import MIX_PROFILE, generate_corpus  # noqa: E402
from repro.text.tokenizer import Tokenizer  # noqa: E402


def _texts(scale: float) -> list[str]:
    return [doc.text for doc in generate_corpus(MIX_PROFILE, scale=scale, seed=1)]


def _time_kernel(texts: list[str], repeats: int) -> list[float]:
    kernels.init_wordcount_worker(Tokenizer())
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernels.count_chunk(texts)
        seconds.append(time.perf_counter() - start)
    return seconds


def _worker(texts, repeats, barrier, results) -> None:
    barrier.wait()  # every process starts its first repeat together
    results.put(statistics.median(_time_kernel(texts, repeats)))


def measure(n_processes: int, scale: float, repeats: int) -> tuple[float, float]:
    """``(alone_s, concurrent_s)``: median seconds per kernel call in one
    process, and the mean of the per-process medians with ``n_processes``
    running at once. Both sides run in fresh child processes."""
    texts = _texts(scale)
    context = multiprocessing.get_context()

    def run(count: int) -> list[float]:
        barrier = context.Barrier(count)
        results = context.Queue()
        procs = [
            context.Process(target=_worker, args=(texts, repeats, barrier, results))
            for _ in range(count)
        ]
        for proc in procs:
            proc.start()
        medians = [results.get() for _ in procs]
        for proc in procs:
            proc.join()
        return medians

    alone = run(1)[0]
    concurrent = statistics.mean(run(n_processes))
    return alone, concurrent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.02,
                        help="Mix corpus scale of the chunk (default 0.02)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    alone, concurrent = measure(args.processes, args.scale, args.repeats)
    ratio = concurrent / alone
    rows = [
        ("host", f"{os.cpu_count()} logical CPU(s)"),
        ("count_chunk alone", f"{alone:.4f} s"),
        (f"count_chunk x{args.processes} concurrent", f"{concurrent:.4f} s each"),
        ("slowdown ratio", f"{ratio:.2f} (1.0 = cores scale, "
                           f"{args.processes} = one core's worth)"),
        (f"speedup ceiling at P={args.processes}",
         f"{args.processes / ratio:.2f}x"),
    ]
    for label, value in rows:
        print(f"{label + ':':<32}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

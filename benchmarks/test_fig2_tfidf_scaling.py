"""Figure 2 — self-relative scalability of the TF/IDF operator.

Paper shape: TF/IDF speeds up ~6x (Mix) and ~7x (NSF Abstracts) at 20
threads. Phase 1 (input + word count) parallelises over documents and
hides storage latency behind computation (the parallel-input
optimization); the ARFF output phase does not parallelise and, together
with the storage device, caps the curve.
"""

import pytest

from repro.bench import THREAD_SWEEP, run_paper_workflow
from repro.sim import format_speedup_table, self_relative_speedups, series_to_csv


def tfidf_seconds(workload, workers):
    result = run_paper_workflow(
        workload, mode="discrete", wc_dict_kind="map", workers=workers
    )
    breakdown = result.breakdown()
    return (
        breakdown["input+wc"] + breakdown["transform"] + breakdown["tfidf-output"]
    )


@pytest.fixture(scope="module")
def figure2_series(mix_workload, nsf_workload):
    return {
        "Mix": {T: tfidf_seconds(mix_workload, T) for T in THREAD_SWEEP},
        "NSF abstracts": {
            T: tfidf_seconds(nsf_workload, T) for T in THREAD_SWEEP
        },
    }


def test_fig2_tfidf_self_relative_speedup(benchmark, figure2_series, report):
    series = benchmark.pedantic(lambda: figure2_series, rounds=1, iterations=1)
    table = format_speedup_table(
        series,
        title=(
            "Figure 2 — TF/IDF self-relative speedup "
            "(paper: Mix ~6x, NSF ~7x at 20 threads)"
        ),
    )
    report("fig2_tfidf_scaling", table)
    report("fig2_tfidf_scaling_seconds_csv", series_to_csv(series))

    mix = self_relative_speedups(series["Mix"])
    nsf = self_relative_speedups(series["NSF abstracts"])

    # Shape 1: both data sets scale strongly (well beyond 3x)...
    assert mix[20] > 3.5
    assert nsf[20] > 3.5
    # ...but clearly sub-linear: the serial output phase binds.
    assert mix[20] < 10.0
    assert nsf[20] < 10.0
    # Shape 2: the larger corpus scales at least as well as the smaller.
    assert nsf[20] >= mix[20] - 0.5
    # Shape 3: monotone in thread count.
    for speedups in (mix, nsf):
        values = [speedups[T] for T in THREAD_SWEEP]
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))


def test_fig2_parallel_input_hides_io(benchmark, mix_workload):
    """Optimization 2: with many threads the input phase's I/O overlaps
    computation, so input+wc still speeds up >5x despite reading every
    file from the simulated disk."""
    one, many = benchmark.pedantic(
        lambda: (
            run_paper_workflow(mix_workload, workers=1).breakdown()["input+wc"],
            run_paper_workflow(mix_workload, workers=16).breakdown()["input+wc"],
        ),
        rounds=1,
        iterations=1,
    )
    assert one / many > 5.0

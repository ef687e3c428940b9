"""Trace a real multi-core run and draw its schedule as an ASCII Gantt.

Runs the fused TF/IDF → K-means pipeline on the process backend with span
tracing on, then shows what the simulator has always shown for virtual
runs — who ran what, when — but measured on the host's wall clock:

* one Gantt chart per phase (``render_phase_trace`` over
  ``phase_timings``, the simulator's adapter of a
  :class:`~repro.exec.spans.RunTrace`), lanes = real workers;
* the per-phase utilization / queue-wait / straggler summary;
* the top-3 straggler tasks of the whole run.

Run with::

    PYTHONPATH=src python examples/trace_real_run.py
"""

from __future__ import annotations

from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.sim.trace import phase_timings, render_phase_trace
from repro.text.synth import MIX_PROFILE, generate_corpus


def main() -> None:
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=0)
    print(f"corpus: {len(corpus)} documents (Mix profile at 1% scale)\n")

    with make_backend("process", workers=2) as backend:
        result = run_pipeline(
            corpus,
            backend=backend,
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=5),
            trace=True,
        )

    trace = result.trace
    assert trace is not None

    print(f"backend {result.backend_name}: {len(trace.spans)} spans, "
          f"total {result.total_s:.3f}s\n")

    # The same ASCII Gantt the simulator draws, now over measured spans.
    for timing in phase_timings(trace):
        print(render_phase_trace(timing))
        print()

    print("per-phase accounting:")
    for phase, stats in trace.phase_summary().items():
        print(f"  {phase:>10}: {stats.n_tasks:3d} tasks on "
              f"{stats.n_workers} worker(s), "
              f"utilization {stats.utilization:.0%}, "
              f"queue wait {stats.queue_wait_s * 1e3:.1f}ms, "
              f"straggler x{stats.straggler_ratio:.1f}, "
              f"serial tail {stats.serial_tail_s * 1e3:.1f}ms")

    print("\ntop-3 stragglers (slowest tasks of the run):")
    for span in trace.top_stragglers(3):
        print(f"  {span.phase}#{span.task_id} on worker {span.worker}: "
              f"{span.duration_s * 1e3:.1f}ms "
              f"({span.n_items} item(s), {span.out_bytes} bytes out)")


if __name__ == "__main__":
    main()

"""The simulator's commands, ``repro sim {workflow,plan,analyze}``: the
paper's workflow and planner on the simulated 16-core node, and corpus
statistics. ``repro/__main__.py`` routes ``sim`` here, so no engine
command (:mod:`repro.cli`) imports this package.
"""

from __future__ import annotations

import argparse
import os

from repro.cli import run_command
from repro.io.corpus_io import load_corpus
from repro.io.storage import FsStorage, MemStorage
from repro.sim import (
    SimScheduler,
    WorkflowPlanner,
    build_tfidf_kmeans_workflow,
    paper_node,
)
from repro.text.analysis import fit_heaps, zipf_profile

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the simulator's subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro sim",
        description="the paper's workflow on a simulated 16-core node, "
        "and corpus statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wf = sub.add_parser("workflow", help="run the fused/discrete workflow "
                        "with a simulated timing report")
    wf.add_argument("--input", required=True, help="corpus directory")
    wf.add_argument("--mode", choices=["merged", "discrete"], default="merged")
    wf.add_argument("--dict", dest="dict_kind", default="map",
                    choices=["map", "unordered_map", "dict"])
    wf.add_argument("--threads", type=int, default=16)
    wf.add_argument("--cores", type=int, default=16)
    wf.add_argument("--clusters", type=int, default=8)
    wf.add_argument("--max-iters", type=int, default=10)
    wf.add_argument("--output", default="clusters.txt",
                    help="assignments file (default: clusters.txt in the "
                    "working directory)")

    plan = sub.add_parser("plan", help="cost-based planning over a corpus")
    plan.add_argument("--input", required=True, help="corpus directory")
    plan.add_argument("--cores", type=int, default=16)
    plan.add_argument("--pilot-docs", type=int, default=64)
    plan.add_argument("--memory-budget-gb", type=float, default=None)

    analyze = sub.add_parser(
        "analyze", help="corpus statistics, Heaps fit and Zipf head"
    )
    analyze.add_argument("--input", required=True, help="corpus directory")
    analyze.add_argument("--top", type=int, default=10)
    return parser


def _cmd_workflow(args) -> int:
    # The workflow runs over an in-memory copy of the corpus, so what it
    # writes (the assignments, a discrete run's staged ARFF) never lands
    # in the corpus directory. Both storages meter a file the same way.
    corpus = FsStorage(args.input)
    storage = MemStorage()
    for path in corpus.list():
        storage.write(path, corpus.read_data(path))
    workflow = build_tfidf_kmeans_workflow(
        mode=args.mode,
        wc_dict_kind=args.dict_kind,
        n_clusters=args.clusters,
        max_iters=args.max_iters,
        output_path=args.output,
    )
    scheduler = SimScheduler(paper_node(max(args.cores, args.threads)))
    result = workflow.run(
        scheduler, storage, inputs={"tfidf.corpus_prefix": ""},
        workers=args.threads,
    )
    clusters = result.value("kmeans.clusters")
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(storage.read_data(args.output))
    print(f"{args.mode} workflow, {args.threads} thread(s) on "
          f"{scheduler.machine.name}:")
    for phase, seconds in result.breakdown().items():
        print(f"  {phase:>14}: {seconds:9.3f}s")
    print(f"  {'total':>14}: {result.total_s:9.3f}s "
          f"(peak memory {result.peak_resident_bytes / 1e6:.1f} MB)")
    print(f"cluster sizes: {clusters.cluster_sizes()}")
    return 0


def _cmd_plan(args) -> int:
    storage = FsStorage(args.input)
    planner = WorkflowPlanner(paper_node(args.cores))
    budget = (
        args.memory_budget_gb * 1e9 if args.memory_budget_gb is not None else None
    )
    plan = planner.plan(
        storage, "", pilot_docs=args.pilot_docs, memory_budget_bytes=budget
    )
    print(plan.explain())
    return 0


def _cmd_analyze(args) -> int:
    storage = FsStorage(args.input)
    corpus = load_corpus(storage, "", name=os.path.basename(args.input))
    if not len(corpus):
        raise FileNotFoundError(f"no documents found in {args.input}")
    stats = corpus.stats()
    print(f"documents:        {stats.documents:,}")
    print(f"bytes:            {stats.total_bytes:,} "
          f"({stats.mean_bytes_per_doc:.0f}/doc)")
    print(f"tokens:           {stats.total_tokens:,} "
          f"({stats.mean_tokens_per_doc:.0f}/doc)")
    print(f"distinct words:   {stats.distinct_words:,}")
    if stats.documents >= 2:
        fit = fit_heaps(corpus)
        print(f"Heaps fit:        V(N) = {fit.k:.1f} * N^{fit.beta:.3f} "
              f"(R^2={fit.r_squared:.3f})")
        print(f"  projected vocabulary at 10x the tokens: "
              f"{fit.predict(10 * stats.total_tokens):,.0f}")
    head = zipf_profile(corpus, top=args.top)
    print(f"top-{args.top} term frequencies: "
          + ", ".join(str(freq) for _, freq in head))
    return 0


_COMMANDS = {
    "workflow": _cmd_workflow,
    "plan": _cmd_plan,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    """``repro sim`` entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return run_command(_COMMANDS[args.command], args)

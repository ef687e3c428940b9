"""Extra text operators built on the library's substrates: top-k terms,
k-NN classification and MinHash near-duplicate detection.

They live beside their example (``dedup_and_classify.py``), not in
``repro``: no pipeline, benchmark or report uses them. Each meters its
work as :class:`~repro.exec.task.TaskCost` for the simulated node
(:mod:`repro.sim`).
"""

"""The real pipeline driver (:mod:`repro.core.pipeline`).

The paper's fused TF/IDF → K-means workflow on real backends: one driver
for every route (a fixed backend, a planned run), with tracing, caching,
tiling, the run ledger and graceful degradation around the same three
phases. The simulated workflow layer — operator DAGs, the fusion
rewriter, the virtual-time planner — is :mod:`repro.sim`.
"""

"""The layered end-to-end benchmark (see perf/README.md).

Self-contained on purpose: it drives the repo through its public API
only and imports neither ``repro.bench`` nor ``repro.workloads.traces``,
so refactoring those never moves the ruler.
"""

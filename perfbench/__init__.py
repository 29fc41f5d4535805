"""The repository's benchmark: workloads on the production code path.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root.  ``BENCHMARK.json`` at the root lists the
gated workloads (swim-day, swim-day-delay, serve-day) and the metrics;
``perfbench/workloads.json`` records why each workload was chosen, where its
traced time goes, and why block-1000 runs but is not gated.
"""

"""Performance harness for the epoch-LP pipeline.

The online scheduler solves one LP per epoch; the per-stream warm-start
state lives in :class:`repro.lp.warmstart.WarmStartContext`.  This package
holds :mod:`repro.perf.bench`, the ``python -m repro bench`` harness that
times the warm simplex epoch loop against cold re-solves of the same
models, the production HiGHS loop and sweep throughput into
``BENCH_epoch.json``.
"""

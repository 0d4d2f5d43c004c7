"""Reference implementations the runtime kernels are tested against.

Each oracle is the straightforward scalar reading of one sizing phase.
None of them is reachable from ``src/``: the runtime ships only the
vectorized kernels of :mod:`repro.sizing.kernels`, and the parity tests
(``tests/test_kernels.py``, ``tests/test_incremental.py``) plus the
sizing benchmark's "scalar" column compare the two.

* :mod:`oracles.smp` — the per-vertex Gauss-Seidel W-phase relaxation
  (paper eq. (11)), and a ``w_phase`` built on it that can stand in for
  :func:`repro.sizing.wphase.w_phase` inside a whole MINFLOTRANSIT run.
* :mod:`oracles.tilos` — TILOS with a per-candidate sensitivity scan,
  timed incrementally by default or with a full re-time per bump.

Import them as ``oracles`` with ``tests/`` on ``sys.path`` (pytest puts
it there through ``tests/conftest.py``; the benchmarks add it).
"""

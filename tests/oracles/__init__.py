"""Reference implementations the runtime is tested against.

None of them is reachable from ``src/``: the runtime ships one
implementation of each phase, and the parity tests and benchmarks
compare it with its oracle here.

* :mod:`oracles.smp` — the per-vertex Gauss-Seidel W-phase relaxation
  (paper eq. (11)), and a ``w_phase`` built on it that can stand in for
  :func:`repro.sizing.wphase.w_phase` inside a whole MINFLOTRANSIT run.
  ``tests/test_kernels.py`` and the sizing benchmark's "scalar" column
  compare it with :mod:`repro.sizing.kernels`.
* :mod:`oracles.tilos` — TILOS with a per-candidate sensitivity scan,
  timed incrementally by default or with a full re-time per bump
  (``tests/test_kernels.py``, ``tests/test_incremental.py``).
* :mod:`oracles.ssp` — the heapq successive-shortest-path flow solver
  ("ssp-legacy"), exact on integer data.  ``tests/test_flow.py``,
  ``tests/test_properties.py`` and ``tests/test_dphase_lps.py`` check
  both D-phase engines against it; the flow benchmark times it.
* :mod:`oracles.verify` — flow certificates: capacity and conservation
  feasibility, and reduced-cost optimality on the residual graph.
* :mod:`oracles.lagrangian` — Lagrangian-relaxation sizing, the paper's
  competing exact method [8] (``tests/test_lagrangian.py``).
* :mod:`oracles.recovery` — greedy slack recovery, a post-pass baseline
  (``tests/test_recovery_report.py``); the Lagrangian sizer finishes
  with it, and ``benchmarks/test_bench_recovery.py`` ranks both
  against MINFLOTRANSIT.

Import them as ``oracles`` with ``tests/`` on ``sys.path`` (pytest puts
it there through ``tests/conftest.py``; the benchmarks add it).
"""

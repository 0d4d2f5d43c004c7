"""Ablation benchmark: the baseline ladder on one circuit.

TILOS vs TILOS+recovery vs Lagrangian relaxation [8] vs MINFLOTRANSIT:
separates how much of MINFLOTRANSIT's area win is *global* budget
redistribution (the min-cost-flow D-phase) versus greedy slack
clean-up, and cross-validates against an independent exact method.
"""

from __future__ import annotations

import pytest
from oracles.lagrangian import lagrangian_size
from oracles.recovery import greedy_downsize

from benchmarks.conftest import get_context, once
from repro.sizing import minflotransit

_AREAS: dict[str, float] = {}


def test_recovery_pass(benchmark):
    context = get_context("c432eq", 0.4)
    seed = context.seed

    def run():
        return greedy_downsize(
            context.dag, seed.x, context.target, timer=context.timer
        )

    result = once(benchmark, run)
    _AREAS["tilos"] = seed.area
    _AREAS["recovery"] = result.area
    benchmark.extra_info["area"] = result.area
    assert result.area <= seed.area


def test_lagrangian_baseline(benchmark):
    context = get_context("c432eq", 0.4)

    def run():
        return lagrangian_size(context.dag, context.target)

    result = once(benchmark, run)
    _AREAS["lagrangian"] = result.area
    benchmark.extra_info["area"] = result.area
    assert result.meets_target


def test_minflo_vs_recovery(benchmark):
    context = get_context("c432eq", 0.4)
    seed = context.seed

    def run():
        return minflotransit(context.dag, context.target, x0=seed.x)

    result = once(benchmark, run)
    _AREAS["minflo"] = result.area
    benchmark.extra_info["area"] = result.area
    print()
    if "recovery" in _AREAS:
        tilos = _AREAS["tilos"]
        print(f"  TILOS            area {tilos:10.1f}")
        print(f"  TILOS + recovery area {_AREAS['recovery']:10.1f} "
              f"(-{100 * (1 - _AREAS['recovery'] / tilos):.1f}%)")
        if "lagrangian" in _AREAS:
            print(f"  Lagrangian [8]   area {_AREAS['lagrangian']:10.1f} "
                  f"(-{100 * (1 - _AREAS['lagrangian'] / tilos):.1f}%)")
        print(f"  MINFLOTRANSIT    area {result.area:10.1f} "
              f"(-{100 * (1 - result.area / tilos):.1f}%)")
        # Global redistribution beats (or matches) local slack harvest.
        assert result.area <= _AREAS["recovery"] * 1.02
    if "lagrangian" in _AREAS:
        # Two independent near-exact optimizers agree within 10%.
        assert result.area == pytest.approx(_AREAS["lagrangian"], rel=0.10)

"""|S(arc)| has no interior local maximum, so maximize_sensitivity
compares the two bounds instead of searching.

The sweep module docstring derives every case: every pairing under every
anchor, arc mode and feedback mode, with PlanoConcave on the face plane
under nominal feedback and phi growing proved by computation
(test_plano_concave_certificate.py). The golden-section search the
optimizer once ran is kept here as the oracle. With |S| evaluated in
50-digit arithmetic (bench/reference.py), no point of the search may beat
the bound the comparison picks by more than the library's own errors in
S at the two bounds, which the comparison reads.
"""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from curvedcomb import (
    ArcMode,
    ArcProfile,
    DriveModel,
    ElectrodeConfig,
    FeedbackMode,
    GapAnchor,
    GapState,
    MechanicalModel,
    SweepPlan,
    Variant,
    maximize_sensitivity,
)
from curvedcomb import sweep
from curvedcomb.model import _ENVELOPE
from curvedcomb.sweep import _arc_shape, _sensitivity_at_arc, _solve_of
from conftest import STD_H

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """A module of the benchmark (reference: the 50-digit closed forms;
    design: its seeded pools), imported from bench/."""
    sys.path.insert(0, str(BENCH))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(BENCH))


reference = _bench_module("reference")


# a rounding of S: where each evaluation is good to a few ulps, no point
# of the search beats the better bound by more
ROUNDING = 1e-12
# the search's golden ratio step and its absolute arc tolerance (m)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_ARC_TOL_M = 1e-10


def golden_section(plan: SweepPlan, variant: Variant, lo: float, hi: float) -> tuple:
    """The search maximize_sensitivity once ran: both bounds, then
    golden-section steps to a 1e-10 m bracket; the best |S| of all
    evaluations, the first on a tie. Returns (arc, S, evaluations)."""
    solve = _solve_of(plan, variant)
    evals: dict[float, float] = {}

    def f(arc: float) -> float:
        evals[arc] = s = _sensitivity_at_arc(solve, arc)
        return abs(s)

    f(lo)
    f(hi)
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > _ARC_TOL_M:
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    best = max(evals, key=lambda arc: abs(evals[arc]))
    return best, evals[best], evals


def exact_abs_s(plan: SweepPlan, variant: Variant, arc: float):
    """|S| at rest at one arc, in 50-digit arithmetic on the double inputs
    the library evaluates there."""
    r, phi = _arc_shape(plan, arc)
    config = ElectrodeConfig.for_variant(variant, ArcProfile(r, phi, plan.profile.thickness_m))
    d1, d2 = reference.side_gaps(config, plan.gap.gap_m, plan.gap_anchor)
    return abs(reference.exact_point(config, d1, d2, plan.mech, plan.drive, 0.0)["s"])


def _valid(plan: SweepPlan, variant: Variant, arc: float) -> bool:
    try:
        _sensitivity_at_arc(_solve_of(plan, variant), arc)
    except ValueError:
        return False
    return True


def _edge(plan: SweepPlan, variant: Variant, good: float, bad: float) -> float:
    """The valid arc nearest the validity limit between good and bad."""
    for _ in range(53):  # to about one ulp of the valid interval
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if _valid(plan, variant, mid) else (good, mid)
    return good


def log_uniform(q: str):
    lo, hi = _ENVELOPE[q]
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi)
    )


UNIT = st.floats(0.0, 1.0)
# a fraction of the valid interval, down to 1e-15 of either end
fractions = st.one_of(
    UNIT, st.integers(1, 15).map(lambda k: 10.0**-k),
    st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k),
)
# strategies built once: hypothesis validates each new strategy it draws from
CASES = st.sampled_from([
    (variant, feedback, mode, anchor)
    for feedback in FeedbackMode for variant in Variant
    for mode in ArcMode for anchor in GapAnchor
])
LOG = log_uniform("length")
MECH = MechanicalModel(2.6e-10, 1.0, 21)


@st.composite
def covered_solves(draw):
    """A (variant, plan, bounds) of the model envelope, with bounds
    anywhere in the variant's valid arcs, up to its validity limits."""
    variant, feedback, mode, anchor = draw(CASES)
    r = draw(LOG)
    # the plan's arc, log-uniform from 1e-9 m to 3 R (phi < pi) or 1 m
    arc = 10.0 ** (-9.0 + draw(UNIT) * (9.0 + math.log10(min(1.0, 3.0 * r))))
    assume(1e-9 <= r * (arc / r) <= 1.0)
    # thickness, permittivity, mass, stiffness and drive scale S by one
    # factor at every arc, so they stay at the reference cell's values
    plan = SweepPlan(
        (variant,), ArcProfile(r, arc / r, STD_H), GapState(draw(LOG)), MECH,
        DriveModel(1.0, feedback), mode, anchor,
    )
    # the plan's own arc anchors the valid interval; find both its limits
    assume(_valid(plan, variant, arc))
    lo_limit, hi_limit = 1e-9, 1.0
    if not _valid(plan, variant, lo_limit):
        lo_limit = _edge(plan, variant, arc, lo_limit)
    if not _valid(plan, variant, hi_limit):
        hi_limit = _edge(plan, variant, arc, hi_limit)
    u, v = sorted((draw(fractions), draw(fractions)))
    lo = lo_limit + u * (hi_limit - lo_limit)
    hi = lo_limit + v * (hi_limit - lo_limit)
    assume(lo < hi and _valid(plan, variant, lo) and _valid(plan, variant, hi))
    return variant, plan, (lo, hi)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=covered_solves())
def test_bound_comparison_matches_the_golden_section_search(case):
    variant, plan, (lo, hi) = case
    arc, s = maximize_sensitivity(variant, (lo, hi), plan)
    search_arc, search_s, evals = golden_section(plan, variant, lo, hi)
    assert arc in (lo, hi) and s == evals[arc]
    if variant is Variant.PLANAR:
        assert arc == lo
    if abs(s) >= abs(search_s) * (1.0 - ROUNDING):
        return
    # no interior maximum: the search's point is no better than the better
    # bound, and the comparison misjudges which bound that is by at most
    # the library's errors in S at the two
    exact = {x: exact_abs_s(plan, variant, x) for x in (lo, hi, search_arc)}
    misjudged = abs(abs(evals[lo]) - exact[lo]) + abs(abs(evals[hi]) - exact[hi])
    assert exact[arc] >= exact[search_arc] - misjudged, (search_arc, search_s)


@pytest.mark.parametrize("feedback", list(FeedbackMode))
@pytest.mark.parametrize("mode", list(ArcMode))
@pytest.mark.parametrize("anchor", list(GapAnchor))
def test_plano_concave_compares_its_bounds_in_every_case(monkeypatch, anchor, mode, feedback):
    """PlanoConcave compares its two bounds in all eight of its cases, the
    one proved by computation among them."""
    evaluations = _count_evaluations(monkeypatch)
    plan = SweepPlan(
        (Variant.PLANO_CONCAVE,), ArcProfile(100e-6, 0.2, STD_H), GapState(2e-6), MECH,
        DriveModel(1.0, feedback), mode, anchor,
    )
    maximize_sensitivity(Variant.PLANO_CONCAVE, (5e-6, 30e-6), plan)
    assert evaluations == [1, 1]


def _count_evaluations(monkeypatch) -> list:
    """The ArcProfile count of each S evaluation maximize_sensitivity makes,
    in order."""
    evaluations = []

    def profile_at(*args):
        evaluations[-1] += 1
        return profile_at_(*args)

    def counted(*args):
        evaluations.append(0)
        return _sensitivity_at_arc(*args)

    profile_at_ = sweep._profile_at
    monkeypatch.setattr(sweep, "_profile_at", profile_at)
    monkeypatch.setattr(sweep, "_sensitivity_at_arc", counted)
    return evaluations


def _design_pool(seed: int, tmp_path):
    return _bench_module("design").Workload(seed, str(tmp_path)).cells


@pytest.mark.parametrize("seed", range(1, 11))
def test_design_pool_solves_evaluate_each_bound_once(seed, tmp_path, monkeypatch):
    """Every solve of the benchmark's design pools evaluates S at its two
    bounds (one when they are equal), each through one checked ArcProfile."""
    evaluations = _count_evaluations(monkeypatch)
    for cell in _design_pool(seed, tmp_path):
        for variant, (lo, hi) in cell.bounds.items():
            evaluations.clear()
            maximize_sensitivity(variant, (lo, hi), cell.plan)
            assert evaluations == [1] * (1 if lo == hi else 2), variant


@pytest.mark.parametrize("seed", range(1, 11))
def test_design_pool_covered_solves_equal_the_search(seed, tmp_path):
    """On the benchmark's design pools every curved solve returns exactly
    the (arc, S) of the search, and every Planar solve its lower bound."""
    solves = 0
    for cell in _design_pool(seed, tmp_path):
        for variant, bounds in cell.bounds.items():
            got = maximize_sensitivity(variant, bounds, cell.plan)
            if variant is Variant.PLANAR:
                lo = bounds[0]
                assert got == (lo, _sensitivity_at_arc(_solve_of(cell.plan, variant), lo))
                continue
            assert got == golden_section(cell.plan, variant, *bounds)[:2]
            solves += 1
    assert solves == 48 * 6  # every curved pairing

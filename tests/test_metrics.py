"""Infidelity, decay budgets, scans, and the feasibility frontier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from rydqudit import metrics
from rydqudit.core import DressedIndex, ModelParams, PulseParams, QuditState
from rydqudit.propagator import PulseSchedule, run_schedule
from rydqudit.metrics import (
    FEASIBILITY_ERROR_CAPS,
    DecayParams,
    FrontierVerdict,
    ScanResult,
    ScanRow,
    decay_estimate,
    decay_survival,
    feasibility_frontier,
    infidelity,
    rydberg_population,
    scan,
)


@given(seed=st.integers(0, 300), gamma=st.floats(0.0, 2.0))
@settings(deadline=None, max_examples=25)
def test_infidelity_global_phase_invariance(seed, gamma):
    U = unitary_group.rvs(4, random_state=seed)
    assert infidelity(U, np.exp(1j * gamma) * U) == pytest.approx(0.0, abs=1e-12)


@given(a=st.integers(0, 100), b=st.integers(0, 100))
@settings(deadline=None, max_examples=25)
def test_infidelity_range_and_symmetry(a, b):
    U = unitary_group.rvs(4, random_state=a)
    V = unitary_group.rvs(4, random_state=b)
    x = infidelity(U, V)
    assert 0.0 <= x <= 1.0
    assert x == pytest.approx(infidelity(V, U), abs=1e-12)


def test_infidelity_permutation_symmetry():
    U = unitary_group.rvs(4, random_state=7)
    V = unitary_group.rvs(4, random_state=8)
    perm = np.random.default_rng(0).permutation(4)
    P = np.eye(4)[perm]
    assert infidelity(P @ U @ P.T, P @ V @ P.T) == pytest.approx(
        infidelity(U, V), abs=1e-12)


def test_infidelity_dimension_check():
    with pytest.raises(ValueError):
        infidelity(np.eye(4), np.eye(6))


def test_rydberg_population_halves_nonground_weight():
    assert rydberg_population(QuditState.uniform(3)) == pytest.approx(0.5)
    ground = QuditState.basis_state(3, DressedIndex.ground())
    assert rydberg_population(ground) == 0.0


def test_decay_params():
    d = DecayParams.from_physical(1e4, 2 * math.pi * 300e6)
    assert d.gamma_r == pytest.approx(5.305164769729845e-06, rel=1e-12)
    with pytest.raises(ValueError):
        DecayParams(-0.1)
    with pytest.raises(ValueError):
        DecayParams.from_physical(1.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: DecayParams(math.nan),
    lambda: DecayParams(math.inf),
    lambda: DecayParams.from_physical(1.0, math.inf),
    lambda: DecayParams.from_physical(1.0, math.nan),
    lambda: DecayParams.from_physical(math.nan, 1.0),
    lambda: DecayParams.from_physical(math.inf, 1.0),
    lambda: DecayParams.from_physical(1e300, 1e-300),
    lambda: DecayParams(-math.inf),
    lambda: DecayParams(10**400),
    lambda: DecayParams.from_physical(10**400, 1.0),
    lambda: DecayParams.from_physical(1.0, 10**400),
], ids=["nan", "inf", "inf-omega", "nan-omega", "nan-gamma", "inf-gamma", "overflow",
        "-inf", "huge-integer", "huge-integer-gamma", "huge-integer-omega"])
def test_decay_params_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_decay_survival_matches_estimate_for_static_excited_state():
    # a state parked on the dressed manifold has Rydberg population 1/2,
    # so the trajectory integral reproduces the closed form exactly
    params = ModelParams(2)
    pulse = PulseParams(40.0, omega_1r=1e-12, delta_01=0.3)
    schedule = PulseSchedule(params, (pulse,))
    initial = QuditState.basis_state(2, DressedIndex.branch(-1, 1))
    traj = run_schedule(initial, schedule, samples_per_pulse=16)
    decay = DecayParams(1e-3)
    assert decay_survival(traj, decay) == pytest.approx(
        decay_estimate(40.0, decay), rel=1e-9)


def test_decay_estimate_validation():
    with pytest.raises(ValueError):
        decay_estimate(-1.0, DecayParams(0.0))


def test_scan_rows_and_csv_determinism():
    decay = DecayParams(1e-6)
    r1 = scan("phase", [2], [1e-2], decay)
    r2 = scan("phase", [2], [1e-2], decay)
    assert r1.to_csv_text() == r2.to_csv_text()
    row = r1.rows[0]
    assert row.N == 2 and row.kind == "phase"
    assert 0.0 <= row.infidelity <= 1.0
    assert row.duration > 0 and row.pulse_count > 0
    assert 0.0 <= row.decay_probability < 1.0
    header = r1.to_csv_text().splitlines()[0]
    assert header == "N,ratio,kind,infidelity,duration,pulse_count,decay_probability"


def test_scan_csv_round_trip_precision():
    result = scan("prep", [2], [1e-2], DecayParams(1e-6), seed=3)
    line = result.to_csv_text().splitlines()[1].split(",")
    assert float(line[3]) == result.rows[0].infidelity
    assert float(line[4]) == result.rows[0].duration


def test_scan_validation():
    with pytest.raises(ValueError):
        scan("phase", [], [1e-3], DecayParams(0.0))
    with pytest.raises(ValueError):
        scan("mystery", [2], [1e-3], DecayParams(0.0))


def refuse_to_compile(*args, **kwargs):
    raise AssertionError("compiled a scan point")


@pytest.mark.parametrize("Ns,ratios,message", [
    ([2, 0], [1e-2], "atom count"),
    ([2, -3], [1e-2], "atom count"),
    ([2, 10**12], [1e-2], "atom count"),
    ([2], [1e-2, -1.0], "omega_01"),
    ([2], [1e-2, math.inf], "omega_01"),
], ids=["zero", "negative", "huge", "negative-ratio", "infinite-ratio"])
def test_scan_checks_every_atom_count_and_ratio_before_it_compiles(monkeypatch, Ns, ratios,
                                                                    message):
    monkeypatch.setattr(metrics, "_scan_point", refuse_to_compile)
    for kind in ("phase", "prep"):
        with pytest.raises(ValueError, match=message):
            scan(kind, Ns, ratios, DecayParams(0.0))


def test_scan_prep_seeded_targets_differ_by_n():
    result = scan("prep", [2, 3], [1e-2], DecayParams(0.0), seed=0)
    assert {r.N for r in result.rows} == {2, 3}


def _rows(kind, N, points):
    return [ScanRow(N, r, kind, eps, 1.0 / r, 4, dec) for r, eps, dec in points]


def test_feasibility_frontier_crossing_logic():
    # decay falls with ratio while infidelity rises; feasible iff the
    # crossing happens below the error cap
    good = _rows("phase", 3, [(1e-3, 1e-4, 5e-1), (1e-2, 1e-2, 5e-3), (1e-1, 1.0, 5e-4)])
    bad = _rows("phase", 9, [(1e-3, 0.2, 0.9), (1e-2, 0.5, 0.4), (1e-1, 0.9, 0.05)])
    verdicts = feasibility_frontier(ScanResult(tuple(good + bad)))
    by_n = {v.N: v for v in verdicts}
    assert by_n[3].feasible and by_n[3].crossing_ratio == 1e-2
    assert not by_n[9].feasible
    assert by_n[9].crossing_ratio == 1e-2  # crossing exists, error too large


def test_feasibility_frontier_no_crossing():
    rows = _rows("phase", 4, [(1e-3, 1e-4, 0.9), (1e-2, 1e-3, 0.5)])
    (v,) = feasibility_frontier(ScanResult(tuple(rows)))
    assert isinstance(v, FrontierVerdict)
    assert not v.feasible
    assert v.crossing_ratio is None and v.crossing_infidelity is None


def test_feasibility_frontier_judges_each_kind_against_its_frozen_cap():
    # a crossing at an infidelity of 0.3 is usable for a Hadamard, not for a phase gate
    assert FEASIBILITY_ERROR_CAPS["phase"] < 0.3 < FEASIBILITY_ERROR_CAPS["hadamard"]
    for kind, feasible in (("phase", False), ("hadamard", True)):
        rows = _rows(kind, 5, [(1e-2, 0.3, 0.01)])
        assert feasibility_frontier(ScanResult(tuple(rows)))[0].feasible is feasible


def test_feasibility_frontier_needs_a_cap_for_an_uncalibrated_kind():
    # a misspelt kind is not judged against a made-up cap
    rows = _rows("hadamrd", 8, [(1e-2, 0.55, 0.01)])
    with pytest.raises(ValueError, match="hadamrd"):
        feasibility_frontier(ScanResult(tuple(rows)))
    assert feasibility_frontier(ScanResult(tuple(_rows("hadamard", 8, [(1e-2, 0.55, 0.01)]))))[0].feasible

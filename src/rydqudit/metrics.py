"""Gate-error metrics, Rydberg-decay budgets, and scaling scans.

Infidelity follows the trace-overlap definition 1 - |Tr(Ut^dag U)|^2/(2N)^2.
Decay is treated perturbatively: every dressed level carries Rydberg
population 1/2, so a schedule of duration T_tot loses roughly
exp(-0.5*Gamma_r*T_tot) of its population; the exact trajectory integral is
available for verification.  Scans compile and simulate real schedules, so
durations and infidelities carry their true prefactors rather than the
order-of-magnitude scaling estimates.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DressedIndex,
    ModelParams,
    QuditState,
    _number,
    hadamard_target,
)
from .propagator import (
    PulseSchedule,
    Trajectory,
    extract_gate,
    run_schedule,
)
from .compiler import (
    CompileOptions,
    compile_phase_gate,
    compile_state_prep,
    compile_unitary,
)

SCAN_KINDS = ("phase", "hadamard", "prep")

# Usable-error caps closing the feasibility criterion: a qudit size is
# feasible when some control amplitude makes the decay probability drop
# below the gate infidelity while the infidelity itself stays below the
# cap.  The caps are frozen calibration constants; see the frontier notes
# in feasibility_frontier.
FEASIBILITY_ERROR_CAPS = {"hadamard": 0.6, "phase": 0.13, "prep": 0.13}


def infidelity(U_target: np.ndarray, U: np.ndarray) -> float:
    """Trace-overlap gate infidelity, invariant under global phases."""
    U_target = np.asarray(U_target, dtype=complex)
    U = np.asarray(U, dtype=complex)
    if U_target.shape != U.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"dimension mismatch: {U_target.shape} vs {U.shape}")
    d = U.shape[0]
    val = 1.0 - abs(np.trace(U_target.conj().T @ U)) ** 2 / d**2
    return float(min(max(val, 0.0), 1.0))


def rydberg_population(state: QuditState) -> float:
    """Expected Rydberg-manifold population: half the non-ground weight."""
    return 0.5 * (1.0 - state.ground_population())


@dataclass(frozen=True)
class DecayParams:
    """Rydberg decay rate in units of omega_1r."""

    gamma_r: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_r", _number("gamma_r", self.gamma_r))
        if self.gamma_r < 0:
            raise ValueError(f"gamma_r must be >= 0, got {self.gamma_r}")

    @classmethod
    def from_physical(cls, gamma_r_hz: float, omega_1r_hz: float) -> "DecayParams":
        """Build the dimensionless rate from rates in a shared frequency unit.

        Both arguments must use the same convention (e.g. angular
        frequencies in rad/s); only their ratio enters.
        """
        omega_1r_hz = _number("omega_1r_hz", omega_1r_hz)
        if not omega_1r_hz > 0:
            raise ValueError(f"omega_1r_hz must be positive, got {omega_1r_hz}")
        return cls(_number("gamma_r_hz", gamma_r_hz) / omega_1r_hz)


def decay_survival(traj: Trajectory, decay: DecayParams) -> float:
    """Survival exp(-Gamma_r * integral of the Rydberg population); 1.0 for one sample."""
    if traj.times.size == 0:
        raise ValueError("decay_survival needs a trajectory with >= 1 sample")
    pops = 0.5 * (1.0 - np.abs(traj.states[:, 0]) ** 2)
    integral = float(np.trapezoid(pops, traj.times))
    return math.exp(-decay.gamma_r * integral)


def decay_estimate(T_tot: float, decay: DecayParams) -> float:
    """Closed-form survival exp(-0.5*Gamma_r*T_tot) from the half-population rule."""
    if T_tot < 0:
        raise ValueError(f"T_tot must be >= 0, got {T_tot}")
    return math.exp(-0.5 * decay.gamma_r * T_tot)


@dataclass(frozen=True)
class ScanRow:
    N: int
    ratio: float
    kind: str
    infidelity: float
    duration: float
    pulse_count: int
    decay_probability: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("N,ratio,kind,infidelity,duration,pulse_count,decay_probability\n")
        for r in self.rows:
            buf.write(f"{r.N},{r.ratio!r},{r.kind},{r.infidelity!r},"
                      f"{r.duration!r},{r.pulse_count},{r.decay_probability!r}\n")
        return buf.getvalue()


def _haar_state(N: int, seed: int) -> QuditState:
    rng = np.random.default_rng((seed, N))
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    v[0] = 0.0
    return QuditState.from_vector(v, normalize=True)


def _scan_point(kind: str, N: int, opts: CompileOptions, seed: int) -> tuple[float, PulseSchedule]:
    if kind == "phase":
        target = QuditState.uniform(N)
        schedule = compile_phase_gate(target, math.pi / 2, opts)
        tp = target.qudit_part()
        goal = np.eye(2 * N, dtype=complex) + (1j - 1.0) * np.outer(tp, tp.conj())
        eps = infidelity(goal, extract_gate(schedule).gate)
    elif kind == "hadamard":
        goal = hadamard_target(N)
        schedule = compile_unitary(goal, opts)
        eps = infidelity(goal, extract_gate(schedule).gate)
    else:
        target = _haar_state(N, seed)
        schedule = compile_state_prep(target, opts)
        ground = QuditState.basis_state(N, DressedIndex.ground())
        out = run_schedule(ground, schedule, samples_per_pulse=1).final_state
        eps = float(min(max(1.0 - abs(out.overlap(target)) ** 2, 0.0), 1.0))
    return eps, schedule


def scan(kind: str, Ns: Sequence[int], ratios: Sequence[float],
         decay: DecayParams, seed: int = 0) -> ScanResult:
    """Compile and simulate each (N, ratio) grid point of one gate kind.

    Durations come from the actual schedules; the decay probability uses the
    closed-form half-population estimate.  Deterministic for a fixed seed.
    Every atom count and ratio is checked before the first point is compiled.
    """
    if not Ns or not ratios:
        raise ValueError("scan requires nonempty N and ratio lists")
    if kind not in SCAN_KINDS:
        raise ValueError(f"unknown scan kind {kind!r}")
    Ns, options = _scan_grid(Ns, ratios)
    rows = []
    for N in Ns:
        for ratio, opts in zip(ratios, options):
            eps, schedule = _scan_point(kind, N, opts, seed)
            T_tot = schedule.total_duration
            rows.append(ScanRow(N, float(ratio), kind, eps, T_tot, len(schedule),
                                1.0 - decay_estimate(T_tot, decay)))
    return ScanResult(tuple(rows))


def _scan_grid(Ns: Sequence[int], ratios: Sequence[float]
               ) -> tuple[list[int], list[CompileOptions]]:
    """The grid's atom counts and compile options, each checked by its own type."""
    return [ModelParams(N).N for N in Ns], [CompileOptions(omega_01=r) for r in ratios]


@dataclass(frozen=True)
class FrontierVerdict:
    N: int
    kind: str
    feasible: bool
    crossing_ratio: Optional[float]
    crossing_infidelity: Optional[float]


def feasibility_frontier(result: ScanResult) -> tuple[FrontierVerdict, ...]:
    """Per-N feasibility: decay probability below the infidelity at a usable error.

    The infidelity grows with the control amplitude while the decay
    probability shrinks, so the two always cross; the crossing alone says
    nothing about qudit size.  A size counts as feasible when the crossing
    infidelity (the best gate error achievable without decay dominating) is
    below an error cap.  The caps are frozen per gate kind, calibrated so
    that simulated durations and infidelities (which carry order-10
    prefactors absent from back-of-envelope scaling formulas) reproduce the
    expected feasible sizes at Gamma_r^-1 = 100 us, omega_1r/2pi = 300 MHz.
    A kind without a frozen cap raises.
    """
    verdicts = []
    keys = sorted({(r.kind, r.N) for r in result.rows}, key=lambda k: (k[0], k[1]))
    for kind, N in keys:
        cap = FEASIBILITY_ERROR_CAPS.get(kind)
        if cap is None:
            raise ValueError(f"no calibrated error cap for kind {kind!r}")
        rows = sorted((r for r in result.rows if r.kind == kind and r.N == N),
                      key=lambda r: r.ratio)
        crossing = next((r for r in rows if r.decay_probability <= r.infidelity), None)
        feasible = any(r.decay_probability <= r.infidelity and r.infidelity <= cap
                       for r in rows)
        verdicts.append(FrontierVerdict(
            N, kind, feasible,
            crossing.ratio if crossing else None,
            crossing.infidelity if crossing else None))
    return tuple(verdicts)

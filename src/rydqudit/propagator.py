"""Exact piecewise-constant time evolution of dressed states.

Each pulse has a constant Hamiltonian, so propagation is done by Hermitian
eigendecomposition (exact up to floating point) rather than time stepping;
schedule durations reach ~1e6 time units where steppers would drift.

On the ladder the control phase phi_01 is a gauge: build_control puts
exp(-i phi_01) on every q+1 <- q element, so H(phi_01) = Z H(0) Z^dag with
Z = diag(exp(-i phi_01 q)).  A schedule is therefore propagated with one
eigendecomposition per distinct (omega_1r, phi_1r, omega_01, delta_01),
kept for that call only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ContractViolation,
    ModelParams,
    PulseParams,
    QuditState,
    _diagonal,
    _excitations,
    build_total,
)

DEFAULT_SAMPLES_PER_PULSE = 64


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse list for a fixed atom count; the compilation artifact."""

    params: ModelParams
    pulses: tuple[PulseParams, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def __len__(self) -> int:
        return len(self.pulses)

    @property
    def total_duration(self) -> float:
        return float(sum(p.T for p in self.pulses))

    def concat(self, other: "PulseSchedule") -> "PulseSchedule":
        if other.params.N != self.params.N:
            raise ValueError("cannot concatenate schedules with different atom counts")
        return PulseSchedule(self.params, self.pulses + other.pulses)


@dataclass
class Trajectory:
    """Sampled states along a schedule; boundaries are always sample points."""

    times: np.ndarray
    states: np.ndarray          # shape (n_samples, 2N+1)
    boundary_indices: list[int] = field(default_factory=list)

    @property
    def final_state(self) -> QuditState:
        return QuditState(self.states[-1])


@dataclass
class GateReport:
    """Extracted gate with its error figures for one schedule."""

    gate: np.ndarray            # 2N x 2N restriction to the qudit space
    full_operator: np.ndarray   # (2N+1) x (2N+1) realized evolution operator
    leakage: float
    total_duration: float
    pulse_count: int
    infidelity: Optional[float] = None


def _evolve(H: np.ndarray, T, X: np.ndarray) -> np.ndarray:
    """exp(-i H t) X by Hermitian eigendecomposition of H, for a vector or a matrix X.

    With a 1-D array of times T and a vector X the result stacks the evolved
    vectors, one row per time, from a single eigendecomposition.
    """
    w, V = np.linalg.eigh(H)
    return _propagate(w, V, T, X)


def _propagate(w: np.ndarray, V: np.ndarray, T, X: np.ndarray) -> np.ndarray:
    """exp(-i H t) X from the eigensystem (w, V) of H, as _evolve documents.

    Computes V @ (exp(-i w t) * (V^dag @ X)), the phases broadcast over the
    columns of a matrix X.  A 1-D array of n times takes a vector X only:
    its n phase vectors are the columns of one (dim, n) matrix, so every
    sample comes from one matrix product, returned transposed to (n, dim).
    A real V (the 3^N oracle's) applies to the real and imaginary parts of
    a complex operand separately, so it is never upcast to a complex copy.
    """
    stacked = np.ndim(T) != 0
    if stacked and (np.ndim(T) != 1 or X.ndim != 1):
        raise ValueError("an array of times must be 1-D and needs a vector operand; "
                         "a matrix operand takes one scalar time")
    product = _real_product if V.dtype.kind == "f" and X.dtype.kind == "c" else np.matmul
    coef = product(V.conj().T, X)
    if stacked:
        return product(V, np.exp(np.multiply.outer(-1j * w, T)) * coef[:, None]).T
    return product(V, np.exp(-1j * w * T).reshape((-1,) + (1,) * (X.ndim - 1)) * coef)


def _real_product(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for a real M and a complex X, as two real products."""
    out = np.empty(M.shape[:1] + X.shape[1:], dtype=complex)
    out.real = M @ X.real
    out.imag = M @ X.imag
    return out


def _gauge(N: int, phi_01: float, ndim: int = 1) -> np.ndarray:
    """Diagonal of Z = diag(exp(-i phi_01 q)), with H(phi_01) = Z H(0) Z^dag.

    Shaped to scale the rows of an ndim-dimensional array (a column for a
    matrix), and, for ndim = 1, the components of every stacked state.
    """
    return np.exp(-1j * phi_01 * _excitations(N)).reshape((-1,) + (1,) * (ndim - 1))


def _schedule_evolver(params: ModelParams):
    """exp(-i H t) X for a pulse, one eigendecomposition per distinct key.

    Returns evolve(pulse, T, X) with _evolve's conventions for T and X.  The
    first pulse of each key (omega_1r, phi_1r, omega_01, delta_01) is
    diagonalised as it stands, so its result equals _evolve's; a later
    pulse of that key at another phi_01 reuses the eigensystem through the
    gauge Z of the phase difference.  The table lives as long as the
    returned function.
    """
    table: dict[tuple[float, float, float, float], tuple[float, np.ndarray, np.ndarray]] = {}

    def evolve(pulse: PulseParams, T, X: np.ndarray) -> np.ndarray:
        key = (pulse.omega_1r, pulse.phi_1r, pulse.omega_01, pulse.delta_01)
        if key not in table:
            table[key] = (pulse.phi_01, *np.linalg.eigh(build_total(params, pulse)))
        phi_01, w, V = table[key]
        z = _gauge(params.N, pulse.phi_01 - phi_01, X.ndim)
        return z * _propagate(w, V, T, z.conj() * X)

    return evolve


def evolve_pulse(state: QuditState, pulse: PulseParams, params: ModelParams) -> QuditState:
    """Apply exp(-i H T) for the pulse's constant Hamiltonian to the state."""
    psi = state.amplitudes
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ContractViolation("evolve_pulse requires a unit-norm state")
    if psi.size != params.dim:
        raise ValueError("state dimension does not match the model")
    if pulse.T == 0.0:
        return state
    return QuditState(_evolve(build_total(params, pulse), pulse.T, psi))


def run_schedule(initial: QuditState, schedule: PulseSchedule,
                 samples_per_pulse: int = DEFAULT_SAMPLES_PER_PULSE) -> Trajectory:
    """Piecewise-exact evolution with intra-pulse samples.

    Every pulse boundary is a sample point; intermediate samples reuse the
    pulse's eigendecomposition, which pulses differing only in phi_01 share.
    A pulse's interior samples come from one stacked product; its boundary
    sample, the state carried into the next pulse, is evolved on its own at
    t = T, so boundaries and the final state do not depend on
    samples_per_pulse and agree with a sequential evolve_pulse composition
    to machine precision.
    """
    if samples_per_pulse < 1:
        raise ValueError("samples_per_pulse must be >= 1")
    if initial.N != schedule.params.N:
        raise ValueError("initial state dimension does not match the schedule")
    evolve = _schedule_evolver(schedule.params)
    n = samples_per_pulse
    size = 1 + sum(n if p.T != 0.0 else 1 for p in schedule.pulses)
    times = np.empty(size)
    states = np.empty((size, schedule.params.dim), dtype=complex)
    psi = initial.amplitudes
    times[0], states[0] = 0.0, psi
    boundaries = [0]
    t0 = 0.0
    for pulse in schedule.pulses:
        k = boundaries[-1]
        if pulse.T == 0.0:
            times[k + 1], states[k + 1] = t0, psi
            boundaries.append(k + 1)
            continue
        # linspace stores the endpoint exactly, so rel[-1] == pulse.T
        rel = np.linspace(0.0, pulse.T, n + 1)[1:]
        times[k + 1:k + n + 1] = t0 + rel
        if n > 1:
            states[k + 1:k + n] = evolve(pulse, rel[:-1], psi)
        psi = evolve(pulse, pulse.T, psi)
        states[k + n] = psi
        boundaries.append(k + n)
        t0 += pulse.T
    return Trajectory(times, states, boundaries)


def schedule_operator(schedule: PulseSchedule) -> np.ndarray:
    """Realized (2N+1)-dimensional evolution operator of a schedule.

    One eigendecomposition per distinct (omega_1r, phi_1r, omega_01, delta_01)
    among the schedule's pulses; phi_01 enters through the gauge Z.
    """
    evolve = _schedule_evolver(schedule.params)
    U = np.eye(schedule.params.dim, dtype=complex)
    for pulse in schedule.pulses:
        if pulse.T == 0.0:
            continue
        U = evolve(pulse, pulse.T, U)
    return U


def extract_gate(schedule: PulseSchedule,
                 target: Optional[np.ndarray] = None) -> GateReport:
    """Propagate the 2N qudit basis vectors and read off the realized gate.

    Leakage records, per column, the population left on |g,0> plus any norm
    deficit of the full column; the report is deterministic.
    """
    U = schedule_operator(schedule)
    gate = U[1:, 1:].copy()
    cols = U[:, 1:]
    leak = np.abs(cols[0, :]) ** 2 + np.abs(1.0 - np.sum(np.abs(cols) ** 2, axis=0))
    infid = None
    if target is not None:
        from .metrics import infidelity
        infid = infidelity(target, gate)
    return GateReport(
        gate=gate,
        full_operator=U,
        leakage=float(np.max(leak)),
        total_duration=schedule.total_duration,
        pulse_count=len(schedule),
        infidelity=infid,
    )


def interaction_frame(trajectory: Trajectory, schedule: PulseSchedule) -> Trajectory:
    """Divide out the cumulative per-level diagonal phase of each pulse.

    Removes the trivial phase accumulation from the diagonal Hamiltonian
    terms so that slow coherent transfer dynamics become visible.
    """
    n_expected = 1 + len(schedule.pulses)
    if len(trajectory.boundary_indices) != n_expected:
        raise ValueError("trajectory does not match the schedule's pulse boundaries")
    framed = trajectory.states.copy()
    acc = np.zeros(schedule.params.dim)
    sample = 1
    t_start = 0.0
    for k, pulse in enumerate(schedule.pulses):
        diag = np.real(_diagonal(schedule.params.N, pulse.omega_1r, pulse.phi_1r,
                                 pulse.delta_01))
        end = trajectory.boundary_indices[k + 1] + 1
        dt = trajectory.times[sample:end] - t_start
        framed[sample:end] *= np.exp(1j * (acc + np.multiply.outer(dt, diag)))
        sample = end
        acc += diag * pulse.T
        t_start += pulse.T
    return Trajectory(trajectory.times.copy(), framed, list(trajectory.boundary_indices))

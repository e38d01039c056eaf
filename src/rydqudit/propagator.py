"""Exact piecewise-constant time evolution of dressed states.

Each pulse has a constant Hamiltonian, so propagation is done by Hermitian
eigendecomposition (exact up to floating point) rather than time stepping;
schedule durations reach ~1e6 time units where steppers would drift.

On the ladder the control phase phi_01 is a gauge: build_control puts
exp(-i phi_01) on every q+1 <- q element, so H(phi_01) = Z H(0) Z^dag with
Z = diag(exp(-i phi_01 q)).  Every pulse of one key (omega_1r, phi_1r,
omega_01, delta_01) therefore evolves through the eigensystem of that key at
phi_01 = 0, and _key_eigensystem keeps those eigensystems for the life of
the process, shared with the compiler.  A pulse's evolution depends on its
own parameters only: never on which pulse, schedule or call diagonalised its
key first.  The keys of a compiled schedule depend only on N, the control
ratio and the fold variant (fold detunings, phase pulses at delta_01 = +-1/2,
bare doublet pulses), so a new target at the same settings diagonalises
nothing.  Against one eigh per pulse, of the pulse's own Hamiltonian, the
gauge from phi_01 = 0 moves compiled operators by up to 1.7e-9 in max |dU|
(state prep at N = 12, ratio 1e-3, pulses up to 2.3e4 long) and by 1e-10 on
the N = 9 Hadamard.

run_schedule applies each pulse to the state through its key's eigensystem.
schedule_operator forms the pulse unitaries Z V exp(-i w T) V^dag Z^dag of
up to _CHUNK pulses at a time in one stacked product, fewer where the stack
would pass _STACK_BYTES (N >= 23), and multiplies them as a pairwise tree,
rather than applying each pulse to the operator in turn.  That changes only
the rounding: on the compiled schedules of tools/compile_digests.py the
operator moves by at most 8e-15 in max |dU| against the pulse-by-pulse
product.

A phase gate is O^-1 Phi O, and the compiler inverts each whole rotation
and bare pulse of O by a pulse whose Hamiltonian is -H of the original in
real arithmetic (_undoes), so its unitary is exp(-i H T)^dag.  The
inverted pass is then F^dag for the product F of the forward pass, and
schedule_operator evaluates such a mirrored block as F^dag (C F) without
forming its inverse pulses: the N = 9 Hadamard forms 351 of its 668.  A
block's forward run and core are formed together, in the same stacks, and
their products are split at the boundary between them.  The
rule is exact up to the rounding of phi + pi in the stored phases, and
against forming every pulse it moves the operators of
tools/compile_digests.py by at most 4.5e-15 in max |dU| (6.2e-15 on seeded
Haar unitaries at N <= 9).  The pairing reads fields only, never labels,
so a schedule read back from JSON pairs as the compiled one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    ModelParams,
    PulseParams,
    QuditState,
    _diagonal,
    _excitations,
    _integer,
    build_total,
    wrap_phase,
)

DEFAULT_SAMPLES_PER_PULSE = 64

# Pulses per stacked product in schedule_operator: _CHUNK, or as many
# (2N+1)^2 complex unitaries as fit in _STACK_BYTES where fewer do, so 32 up
# to N = 22, 17 at N = 30 and 3 at N = 64.  The temporaries then stay near
# 1 MB at N = 9 whatever the schedule's length; stacking all 668 pulses of
# the N = 9 Hadamard at once was slower and took 16 MB of traced memory.
_CHUNK = 32
_STACK_BYTES = 2 ** 20


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
    A stack of k eigensystems, V of shape (k, dim, dim), takes k times and k
    vectors, X of shape (k, dim), one of each per eigensystem, in one stacked
    product per factor; each row gets the bits of its own call.
    """
    if V.ndim == 3:
        coef = V.conj().transpose(0, 2, 1) @ X[:, :, None]
        return (V @ (np.exp(-1j * w * T[:, None])[:, :, None] * coef))[:, :, 0]
    stacked = np.ndim(T) != 0
    if stacked and (np.ndim(T) != 1 or X.ndim != 1):
        raise ValueError("an array of times must be 1-D and needs a vector operand; "
                         "a matrix operand takes one scalar time")
    coef = V.conj().T @ X
    if stacked:
        return (V @ (np.exp(np.multiply.outer(-1j * w, T)) * coef[:, None])).T
    return V @ (np.exp(-1j * w * T).reshape((-1,) + (1,) * (X.ndim - 1)) * coef)


def _gauge(N: int, phi_01: float) -> np.ndarray:
    """Diagonal of Z = diag(exp(-i phi_01 q)), with H(phi_01) = Z H(0) Z^dag."""
    return np.exp(-1j * phi_01 * _excitations(N))


@lru_cache(maxsize=4 * ModelParams.N_MAX + 2)
def _key_eigensystem(N: int, omega_1r: float, phi_1r: float, omega_01: float,
                     delta_01: float) -> tuple[np.ndarray, np.ndarray]:
    """eigh of build_total for one pulse key at phi_01 = 0 (read-only).

    Kept for the life of the process and shared by the simulator and the
    compiler.  A key field of -0.0 shares the entry of 0.0, whose matrix it
    builds bit for bit.  The cache holds the 4N + 2 keys of a gate compiled
    at the atom-count cap (4N - 4 fold keys, 2 phase keys, 4 doublet keys),
    so a schedule that repeats them in order, as a unitary's 2N phase gates
    do, misses only on its first pass.  One key takes (2N+1)^2 complex
    eigenvectors and 2N+1 eigenvalues: 5.9 kB at N = 9, 10 kB at N = 12 and
    267 kB at N = 64, so the 258 keys held at most take 69 MB at the cap.
    """
    w, V = np.linalg.eigh(build_total(ModelParams(N),
                                      PulseParams(1.0, omega_1r, phi_1r, omega_01, 0.0, delta_01)))
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


def run_schedule(initial: QuditState, schedule: PulseSchedule,
                 samples_per_pulse: int = DEFAULT_SAMPLES_PER_PULSE) -> Trajectory:
    """Piecewise-exact evolution with intra-pulse samples.

    Every pulse boundary is a sample point; intermediate samples reuse the
    eigendecomposition of the pulse's key (_key_eigensystem).
    A pulse's interior samples come from one stacked product; its boundary
    sample, the state carried into the next pulse, is evolved on its own at
    t = T, so boundaries and the final state do not depend on
    samples_per_pulse and agree with evolving the pulses one after another
    to machine precision.
    """
    n = _integer("samples_per_pulse", samples_per_pulse)
    if n < 1:
        raise ValueError("samples_per_pulse must be >= 1")
    if initial.N != schedule.params.N:
        raise ValueError("initial state dimension does not match the schedule")
    params = schedule.params
    size = 1 + sum(n if p.T != 0.0 else 1 for p in schedule.pulses)
    times = np.empty(size)
    states = np.empty((size, params.dim), dtype=complex)
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
        w, V = _key_eigensystem(params.N, pulse.omega_1r, pulse.phi_1r, pulse.omega_01,
                                pulse.delta_01)
        z = _gauge(params.N, pulse.phi_01)
        # linspace stores the endpoint exactly, so rel[-1] == pulse.T
        rel = np.linspace(0.0, pulse.T, n + 1)[1:]
        times[k + 1:k + n + 1] = t0 + rel
        if n > 1:
            states[k + 1:k + n] = z * _propagate(w, V, rel[:-1], z.conj() * psi)
        psi = z * _propagate(w, V, pulse.T, z.conj() * psi)
        states[k + n] = psi
        boundaries.append(k + n)
        t0 += pulse.T
    return Trajectory(times, states, boundaries)


def schedule_operator(schedule: PulseSchedule) -> np.ndarray:
    """Realized (2N+1)-dimensional evolution operator of a schedule.

    Each pulse's key (omega_1r, phi_1r, omega_01, delta_01) is read from
    _key_eigensystem; phi_01 enters through the gauge Z.  The non-zero
    pulses are split into blocks by _mirrored_runs.  A mirrored block, a
    forward run F, a core C and then pulses that undo F's in reverse order
    (_undoes), evolves by G = F^dag (C F): its inverse pulses are never
    formed, and their keys are never diagonalised.  Any other stretch is
    one block with no forward run, multiplied straight into the operator.
    A block's forward run and core are taken together, _stack_length
    pulses at a time: the stack's eigensystems are gathered from the cache,
    its unitaries Z V exp(-i w T) V^dag Z^dag are formed in one stacked
    product, and the parts before and after the forward/core boundary are
    each multiplied together as a pairwise tree.  Temporary memory grows
    neither with the schedule's length nor with its number of distinct keys.
    """
    params = schedule.params
    q, stack = _excitations(params.N), _stack_length(params.dim)
    pulses = [p for p in schedule.pulses if p.T != 0.0]
    U = np.eye(params.dim, dtype=complex)
    start = 0
    for forward, core in _mirrored_runs(pulses):
        middle, end = start + forward, start + forward + core
        F, G = None, None if forward else U
        for s in range(start, end, stack):
            e = min(s + stack, end)
            chunk = pulses[s:e]
            w, V = map(np.array, zip(*(_key_eigensystem(params.N, p.omega_1r, p.phi_1r,
                                                         p.omega_01, p.delta_01) for p in chunk)))
            T = np.array([p.T for p in chunk])
            ZV = np.exp(np.multiply.outer(-1j * np.array([p.phi_01 for p in chunk]), q)
                        )[:, :, None] * V
            steps = (ZV * np.exp(-1j * w * T[:, None])[:, None, :]) @ ZV.conj().transpose(0, 2, 1)
            for lo, hi in ((s, min(middle, e)), (max(middle, s), e)):
                if lo < hi:
                    P = _time_ordered_product(steps[lo - s:hi - s])
                    G = P if G is None else P @ G
                    if hi == middle:
                        F = G
        U = F.conj().T @ G @ U if forward else G
        start = end + forward
    return U


def _stack_length(dim: int) -> int:
    """Pulses per stacked product: _CHUNK, fewer once the stack passes _STACK_BYTES."""
    return min(_CHUNK, _STACK_BYTES // (16 * dim * dim))


def _undoes(q: PulseParams, p: PulseParams) -> bool:
    """Whether H(q) = -H(p) in real arithmetic, so that q's unitary is p's inverse.

    The fields must agree in T, omega_1r and omega_01, with delta_01 negated
    and both phases turned by pi as wrap_phase turns them (phi_01 only while
    the control laser is on: at omega_01 = 0 it is a gauge of a Hamiltonian
    that commutes with Z).  This is the rule by which invert_full_control
    inverts whole rotations and bare pulses; it reads no label.
    """
    return (q.T == p.T and q.omega_1r == p.omega_1r and q.omega_01 == p.omega_01
            and q.delta_01 == -p.delta_01 and q.phi_1r == wrap_phase(p.phi_1r + math.pi)
            and (p.omega_01 == 0.0 or q.phi_01 == wrap_phase(p.phi_01 + math.pi)))


def _mirrored_runs(pulses: list[PulseParams]) -> list[tuple[int, int]]:
    """Blocks (forward, core) that tile pulses in order, each 2 forward + core long.

    A block is a forward run of `forward` pulses, a core of `core` pulses,
    then `forward` pulses of which the k-th undoes (_undoes) the k-th last
    forward pulse; forward = 0 marks a stretch with no mirror.  One scan in
    linear time: each pulse is checked against the latest earlier pulse of
    its duration in the current stretch, and a match is grown outward, pulse
    by pulse, while the rule holds.  A match closes the stretch; the scan
    goes on after its last inverse pulse.
    """
    blocks: list[tuple[int, int]] = []
    floor = j = 0
    latest: dict[float, int] = {}
    while j < len(pulses):
        i = latest.get(pulses[j].T)
        if i is None or not _undoes(pulses[j], pulses[i]):
            latest[pulses[j].T] = j
            j += 1
            continue
        k = 1
        while i - k >= floor and j + k < len(pulses) and _undoes(pulses[j + k], pulses[i - k]):
            k += 1
        if i - k + 1 > floor:
            blocks.append((0, i - k + 1 - floor))
        blocks.append((k, j - i - 1))
        floor = j = j + k
        latest.clear()
    if floor < len(pulses):
        blocks.append((0, len(pulses) - floor))
    return blocks


def _time_ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] for a stack of matrices, as a pairwise tree."""
    while len(steps) > 1:
        paired = len(steps) - len(steps) % 2
        steps = np.concatenate((steps[1:paired:2] @ steps[:paired:2], steps[paired:]))
    return steps[0]


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

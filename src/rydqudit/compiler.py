"""Synthesis of pulse schedules realizing gates on the dressed-ladder qudit.

The construction works pairwise: tuning the control-laser detuning to the
energy gap of one level pair makes that pair degenerate in the rotating
diagonal, so it undergoes a clean two-level rotation while every other level
only accumulates diagonal phase.  Iterating such "folds" maps any qudit
state onto |-,1> (the full-control operator O); a pair of pi-rotations
through |g,0> then imprints a phase on |-,1> alone, and conjugating by O
yields the generalized phase gate e^{i Phi}|psi><psi| + (1 - |psi><psi|).
Arbitrary unitaries are products of such phase gates over their eigenbasis.

The compiler threads an effective state (diagonal terms plus the currently
resonant coupling only) through every emitted pulse and solves each pulse's
(phi_01, T) from the tracked Bloch vector, so accumulated spectator phases
are honored without symbolic bookkeeping.  Rotation senses and the phase
offset of the two-pulse phase gate are calibrated numerically once from the
2x2 effective problem instead of being assumed from sign conventions.

The measurement readout (compile_readout, measure_projection) uses the same
folds with smoothed edges: each fold's control amplitude ramps up and down in
piecewise-constant sin^2 steps, whose length is derived from the fold's
off-resonant detunings, and every step's detuning keeps the resonant pair
degenerate under the Schrieffer-Wolff light shifts |H_km|^2/Delta_km of the
off-resonant couplings, which the tracked effective state carries.  This
removes the readout error that is first order in omega_01/omega_1r.  Gate,
phase-pulse and state-prep schedules keep rectangular pulses.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, reduce
from typing import Optional

import numpy as np

from .core import (
    TAU,
    ContractViolation,
    ModelParams,
    PulseParams,
    QuditState,
    _diagonal,
    _excitations,
    _number,
    _pair_bloch,
    _position,
    build_control,
    build_total,
    control_element,
    require_unitary,
    wrap_phase,
)
from .propagator import (
    PulseSchedule,
    _evolve,
    _gauge,
    _key_eigensystem,
    _propagate,
)

_SIGNS = {"+": 1, "-": -1}

_SHAPED = ":shaped"      # label suffix of the readout's smoothed-edge fold pulses
_FOLD_RE = re.compile(rf"fold(~?)\(([+-]),q=(\d+)\)(:[ab]|{_SHAPED})?")
_G0_RE = re.compile(r"g0rot(~?)\(([+-])\)(:[ab])?")
_DOUBLET_LABELS = {"doublet:z", "doublet:y"}
_PHASE_LABELS = {"phase:a", "phase:b"}

# canonical positions of |-,1>, where full control and the readout leave the
# target, and of |+,1>
_MINUS1 = _position(-1, 1)
_PLUS1 = _position(+1, 1)

# skip thresholds: residual population left by a skipped pulse is < 1e-12
_WEIGHT_EPS = 1e-12
_POLE_EPS = 1e-12
# compile_unitary's skip_zero_phases omits eigenphases below this
_ZERO_PHASE_EPS = 1e-9


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of the synthesis: control amplitude and fold flavor."""

    omega_01: float = 1e-3          # in units of omega_1r
    fold_variant: str = "plain"     # "plain" or "tilde" (phase-cancelling halves)
    skip_zero_phases: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_01", _number("omega_01", self.omega_01))
        if not self.omega_01 > 0:
            raise ValueError(f"omega_01 must be positive, got {self.omega_01}")
        if self.fold_variant not in ("plain", "tilde"):
            raise ValueError(f"unknown fold variant {self.fold_variant!r}")


def _sgn(s: int) -> str:
    return "+" if s > 0 else "-"


def _pos_angle(x: float) -> float:
    """Reduce an angle to [0, 2pi), snapping values within 1e-12 of 2pi to 0."""
    r = x % TAU
    return 0.0 if r > TAU - 1e-12 else r


@lru_cache(maxsize=2048)    # holds the 16N+4 labels the compiler emits at N = 64
def _pulse_kind(label: str, N: int) -> tuple[Optional[tuple[int, int]], str]:
    """Resonant (target, other) canonical positions and kind of a pulse label.

    The kind is "rotation" (a whole fold or ground rotation), "half" (a
    phase-cancelling half, "~" in the label), "shaped" (a readout fold step),
    "phase" (a phase-gate pulse) or "bare" (a doublet pulse, whose effective
    model is the full Hamiltonian itself, so its pair is None).  An "inv:"
    prefix does not change either.  Unrecognized labels raise, on every call:
    the cache keeps results only.
    """
    base = label[4:] if label.startswith("inv:") else label
    if base in _PHASE_LABELS:
        return (_MINUS1, 0), "phase"
    if base in _DOUBLET_LABELS:
        return None, "bare"
    m = _FOLD_RE.fullmatch(base)
    if m is not None:
        s = _SIGNS[m.group(2)]
        q = int(m.group(3))
        if not 1 <= q <= N - 1:
            raise ValueError(f"fold level q={q} out of range for N={N}")
        pair = (_position(-s, q), _position(s, q + 1))
    else:
        m = _G0_RE.fullmatch(base)
        if m is None:
            raise ValueError(f"pulse label {label!r} does not identify a resonant pair")
        pair = (0, _position(_SIGNS[m.group(2)], 1))
    if base.endswith(_SHAPED):
        return pair, "shaped"
    return pair, "half" if m.group(1) == "~" else "rotation"


def _light_shifts(H: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Second-order level shifts sum_m |H_km|^2 / (H_kk - H_mm) of every level k.

    The Schrieffer-Wolff shifts of all off-diagonal couplings except the
    resonant pair's own, which the effective model keeps exactly.
    """
    d = np.real(np.diag(H))
    weight = np.abs(H) ** 2
    np.fill_diagonal(weight, 0.0)
    i, j = pair
    weight[i, j] = weight[j, i] = 0.0
    gap = d[:, None] - d[None, :]
    shifts = np.divide(weight, gap, out=np.zeros_like(weight), where=weight > 0)
    return shifts.sum(axis=1)


def effective_hamiltonian(params: ModelParams, pulse: PulseParams) -> np.ndarray:
    """Diagonal of the full Hamiltonian plus the pulse's resonant coupling only.

    Shaped readout pulses (label suffix ":shaped") also carry the light
    shifts of their off-resonant couplings on the diagonal.
    """
    pair, kind = _pulse_kind(pulse.label, params.N)
    if pair is None:
        return build_total(params, pulse)
    if kind == "shaped":
        return _light_shifted(build_total(params, pulse), pair)
    return _pair_hamiltonian(params, pulse, pair)


def _light_shifted(H: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Diagonal of H with its light shifts, plus the pair's coupling only."""
    Heff = np.diag(np.diag(H))
    Heff += np.diag(_light_shifts(H, pair))
    i, j = pair
    Heff[i, j] = H[i, j]
    Heff[j, i] = H[j, i]
    return Heff


def _pair_hamiltonian(params: ModelParams, pulse: PulseParams,
                      pair: tuple[int, int]) -> np.ndarray:
    """Effective Hamiltonian of an unshaped pulse resonant on pair, built directly.

    The cached diagonal of build_total plus the pair's two control elements,
    where the bare part is zero: bit for bit the diagonal and pair elements
    of build_total(params, pulse), without building it.
    """
    i, j = pair
    Heff = np.diag(_diagonal(params.N, pulse.omega_1r, pulse.phi_1r, pulse.delta_01))
    Heff[i, j] = control_element(params, pulse.omega_01, pulse.phi_01, i, j)
    Heff[j, i] = control_element(params, pulse.omega_01, pulse.phi_01, j, i)
    return Heff


def _advance(vecs: np.ndarray, params: ModelParams, pulses: list[tuple[PulseParams, ...]],
             pair: Optional[tuple[int, int]]) -> np.ndarray:
    """Carry a stack of effective states, row k through pulses[k], all resonant on pair.

    Every row has as many pulses, and the rows advance in lockstep, one step
    at a time.  pair holds the (target, other) positions of the emitting
    rotation, the pair _pulse_kind reads from the pulses' labels: each step
    is then the closed-form evolution under effective_hamiltonian
    (_pair_step), with no eigh.  pair is None for bare doublet pulses, whose
    eigensystems the simulator's _key_eigensystem holds.  Every operation
    acts on each row alone, so a row gets the bits it gets in a batch of
    one.  Returns the normalized rows; the stacked vector products of the
    norms run through the BLAS dot of np.linalg.norm, so each row's norm is
    bit for bit np.linalg.norm(row).
    """
    for step in zip(*pulses):
        if pair is None:
            w, V = map(np.array, zip(*(_key_eigensystem(params.N, p.omega_1r, p.phi_1r, 0.0, 0.0)
                                       for p in step)))
            vecs = _propagate(w, V, np.array([p.T for p in step]), vecs)
        else:
            vecs = _pair_step(vecs, params, step, pair)
    re, im = vecs.real, vecs.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    return vecs / norms[:, 0]


def _pair_step(vecs: np.ndarray, params: ModelParams, step: tuple[PulseParams, ...],
               pair: tuple[int, int]) -> np.ndarray:
    """Row k of vecs evolved through step[k] under diag(d) + h|i><j| + h*|j><i|.

    The pulses of one step share their key (omega_1r, phi_1r, omega_01,
    delta_01), so d is the key's cached diagonal and |h| its pair's coupling;
    a pulse's phi_01 enters through the gauge, h = h0 exp(-i phi_01 (q_i - q_j))
    with h0 the element at phi_01 = 0.  Every level but the pair picks up
    exp(-i d_k T).  The pair (i, j) evolves under m + D sigma_z
    + Re h sigma_x - Im h sigma_y, with m and D the mean and half difference
    of d_i and d_j, as exp(-i m T) [cos(W T) - i T sinc(W T / pi)
    (D sigma_z + Re h sigma_x - Im h sigma_y)], W = sqrt(D^2 + |h|^2);
    np.sinc gives the W = 0 limit T.  Returns the rows unnormalized.
    """
    key = step[0]
    i, j = pair
    d = _diagonal(params.N, key.omega_1r, key.phi_1r, key.delta_01).real
    h0 = _pair_coupling(params.N, key.omega_01, pair)[0]
    q = _excitations(params.N)
    T = np.array([p.T for p in step])
    h = h0 * np.exp(-1j * (q[i] - q[j]) * np.array([p.phi_01 for p in step]))
    mean, half = (d[i] + d[j]) / 2, (d[i] - d[j]) / 2
    turn = math.sqrt(half * half + abs(h0) ** 2) * T
    c, s = np.cos(turn), -1j * T * np.sinc(turn / math.pi)
    phase = np.exp(-1j * mean * T)
    a, b = vecs[:, i], vecs[:, j]
    out = vecs * np.exp(np.multiply.outer(-1j * T, d))
    out[:, i] = phase * (c * a + s * (half * a + h * b))
    out[:, j] = phase * (c * b + s * (h.conj() * a - half * b))
    return out


def replay_effective(initial: QuditState, schedule: PulseSchedule) -> QuditState:
    """Propagate a state through a schedule under the effective Hamiltonians.

    By construction of the synthesis this reproduces the intended mapping
    exactly; comparing against full propagation isolates the off-resonant
    error.
    """
    vec = initial.amplitudes
    for p in schedule.pulses:
        vec = _evolve(effective_hamiltonian(schedule.params, p), p.T, vec)
    return QuditState.from_vector(vec, normalize=True)


def _pair_axis(a0: float, sense: int, u: tuple[float, float, float]) -> tuple[float, float]:
    """Control phase and rotation angle taking the Bloch vector u onto +z,
    given the pair's azimuth offset a0 and sense from _pair_coupling."""
    theta = math.acos(max(-1.0, min(1.0, u[2])))
    beta = math.atan2(u[1], u[0])
    return wrap_phase(sense * wrap_phase(beta - math.pi / 2 - a0)), theta


@lru_cache(maxsize=256)
def _pair_coupling(N: int, omega_01: float, pair: tuple[int, int]
                   ) -> tuple[complex, float, float, int]:
    """The pair's control element h0 at phi_01 = 0, its rotation rate 2|h0|,
    and the offset a0 and sense of its realized axis azimuth.

    The azimuth at control phase phi_01 is a0 + sense * phi_01: a0 is read
    off h0 and the sense off the element at phi_01 = 0.5.  The rate, a0 and
    the sense are built-in numbers.
    """
    params = ModelParams(N)
    h0 = control_element(params, omega_01, 0.0, *pair)
    h1 = control_element(params, omega_01, 0.5, *pair)
    a0 = math.atan2(-h0.imag, h0.real)
    sense = 1 if wrap_phase(math.atan2(-h1.imag, h1.real) - a0) > 0 else -1
    return h0, 2.0 * float(abs(h0)), a0, sense


def _emit_pair_rotation(effs: np.ndarray, pair: tuple[int, int], delta_01: float,
                        name: str, opts: CompileOptions, params: ModelParams
                        ) -> tuple[list[tuple[PulseParams, ...]], np.ndarray]:
    """Pulses rotating each row's (target, other) pair Bloch vector onto +z.

    effs stacks normalized amplitude vectors, one row per target.  Each
    row's pair amplitudes are read as built-in complex numbers and solved in
    scalar arithmetic; the rows that emit advance together in one _advance.
    The realized in-plane axis azimuth is an affine function of phi_01 whose
    offset and sense are read off the control matrix element numerically
    (_pair_coupling), so the solution is immune to sign-convention drift.
    At u = -z the target level is empty and u_x, u_y are rounding noise, so
    the azimuth follows that noise rather than a fixed axis (ROADMAP item 6).
    Returns each row's pulses and the advanced stack.
    """
    omega_01 = opts.omega_01
    _, rate, a0, sense = _pair_coupling(params.N, omega_01, pair)
    emitted: list[tuple[PulseParams, ...]] = []
    rows = []
    for k, amplitudes in enumerate(effs[:, pair].tolist()):
        u, weight = _pair_bloch(amplitudes, 0, 1)
        if weight < _WEIGHT_EPS or u[2] > 1.0 - _POLE_EPS:
            emitted.append(())
            continue
        phi_01, theta = _pair_axis(a0, sense, u)
        T = theta / rate
        if opts.fold_variant == "tilde":
            head, _, tail = name.partition("(")
            base = f"{head}~({tail}"
            emitted.append((
                PulseParams(T / 2, 1.0, 0.0, omega_01, phi_01, delta_01, label=f"{base}:a"),
                PulseParams(T / 2, 1.0, math.pi, omega_01, phi_01, -delta_01, label=f"{base}:b"),
            ))
        else:
            emitted.append((PulseParams(T, 1.0, 0.0, omega_01, phi_01, delta_01, label=name),))
        rows.append(k)
    if 0 < len(rows) < len(effs):
        effs = effs.copy()
        effs[rows] = _advance(effs[rows], params, [emitted[k] for k in rows], pair)
    elif rows:
        effs = _advance(effs, params, emitted, pair)
    return emitted, effs


def _fold_levels(s: int, q: int) -> tuple[tuple[int, int], float]:
    """(target, other) positions of the fold {|s,q+1>, |sbar,q>} and its detuning.

    The target is |sbar,q>, sbar the opposite sign; the detuning matches the
    pair gap, s*(sqrt(q+1)+sqrt(q))/2 at omega_1r = 1.
    """
    return ((_position(-s, q), _position(s, q + 1)),
            s * (math.sqrt(q + 1) + math.sqrt(q)) / 2)


@cache
def _doublet_senses() -> tuple[int, int]:
    """Numerically calibrated precession senses of the two bare pulses.

    Returns (sense of the azimuth under phi_1r = pi, sense of the polar tilt
    angle atan2(u_x, u_z) under phi_1r = pi/2), both in the |-,1>-up frame.
    """
    params = ModelParams(1)
    start = QuditState.from_vector([0.0, 1.0, 1.0], normalize=True)   # u = +x
    dt = 1e-3
    senses = []
    for phi_1r, component, flip in ((math.pi, 1, 1), (math.pi / 2, 2, -1)):
        vec = _evolve(build_total(params, PulseParams(dt, 1.0, phi_1r)), dt, start.amplitudes)
        u, _ = _pair_bloch(vec / np.linalg.norm(vec), _MINUS1, _PLUS1)
        senses.append(1 if flip * u[component] > 0 else -1)
    return senses[0], senses[1]


def _doublet_pulses(eff: np.ndarray) -> tuple[PulseParams, ...]:
    """Bare pulses rotating the q=1 doublet of the normalized vector eff onto |-,1>.

    A phi_1r = pi pulse precesses the doublet about z, a phi_1r = pi/2 pulse
    about y; the azimuth is first brought to 0 or pi (whichever gives the
    shorter total duration), then the polar angle to 0.
    """
    u, weight = _pair_bloch(eff, _MINUS1, _PLUS1)
    if weight < _WEIGHT_EPS or u[2] > 1.0 - _POLE_EPS:
        return ()
    sense_z, sense_y = _doublet_senses()
    theta = math.acos(max(-1.0, min(1.0, u[2])))
    beta = math.atan2(u[1], u[0])
    best = None
    for goal, psi0 in ((0.0, theta), (math.pi, -theta)):
        az = _pos_angle((goal - beta) * sense_z)
        ay = _pos_angle(-psi0 * sense_y)
        if best is None or az + ay < best[0] - 1e-15:
            best = (az + ay, az, ay)
    _, az, ay = best
    pulses = []
    if az > 1e-12:
        pulses.append(PulseParams(az, 1.0, math.pi, label="doublet:z"))
    if ay > 1e-12:
        pulses.append(PulseParams(ay, 1.0, math.pi / 2, label="doublet:y"))
    return tuple(pulses)


def compile_full_control(target: QuditState, opts: CompileOptions,
                         space: str = "Hprime") -> PulseSchedule:
    """Schedule mapping the target state to |-,1> (Hprime) or |g,0> (Hfull).

    Folds run outward-in: for each level from N down to 2, both sign pairs
    are folded one step down; the residual q=1 doublet is then rotated onto
    |-,1> by bare pulses, or, for Hfull, both q=1 levels are rotated onto
    |g,0> through the control laser.
    """
    return _full_controls(ModelParams(target.N), [target], opts, space)[0]


def _full_controls(params: ModelParams, targets: list[QuditState], opts: CompileOptions,
                   space: str) -> list[PulseSchedule]:
    """compile_full_control of each target, all advanced in lockstep.

    At each fold step every target's pulses are solved on their own, and
    the targets that emit are advanced together (_emit_pair_rotation); the
    doublet rotations advance together per number of pulses.
    """
    if space not in ("Hprime", "Hfull"):
        raise ValueError(f"unknown space {space!r}")
    if space == "Hprime" and any(abs(t.amplitudes[0]) > 1e-10 for t in targets):
        raise ContractViolation("target must carry no |g,0> amplitude in Hprime")
    effs = np.array([t.amplitudes for t in targets], dtype=complex).reshape(-1, params.dim)
    pulses: list[list[PulseParams]] = [[] for _ in targets]
    rotations = [(*_fold_levels(s, q), f"fold({_sgn(s)},q={q})")
                 for q in range(params.N - 1, 0, -1) for s in (+1, -1)]
    if space == "Hfull":
        # both q=1 levels onto |g,0>, in {|s,1>, |g,0>} through the control laser
        rotations += [((0, _position(s, 1)), s / 2, f"g0rot({_sgn(s)})") for s in (+1, -1)]
    for pair, delta, name in rotations:
        emitted, effs = _emit_pair_rotation(effs, pair, delta, name, opts, params)
        for mine, new in zip(pulses, emitted):
            mine.extend(new)
    if space == "Hprime":
        doublets = [_doublet_pulses(eff) for eff in effs]
        for count in (1, 2):
            rows = [k for k, mine in enumerate(doublets) if len(mine) == count]
            if rows:
                effs[rows] = _advance(effs[rows], params, [doublets[k] for k in rows], None)
        for mine, new in zip(pulses, doublets):
            mine.extend(new)
    # the effective state's norm contract, checked once per pass
    final_pos = _MINUS1 if space == "Hprime" else 0
    if any(abs(QuditState(eff).amplitudes[final_pos]) ** 2 < 1.0 - 1e-9 for eff in effs):
        raise ContractViolation("full-control synthesis failed to concentrate the state")
    return [PulseSchedule(params, tuple(mine)) for mine in pulses]


def _invert_pulse(p: PulseParams, N: int) -> PulseParams:
    _, kind = _pulse_kind(p.label, N)
    if kind == "phase":
        raise ValueError(f"cannot invert pulse with label {p.label!r}")
    # whole rotations flip the dressing phase, the control axis and the
    # detuning; phase-cancelling halves, which already carry the sign
    # bookkeeping, flip the control axis only; bare pulses the dressing phase
    phi_1r = p.phi_1r if kind == "half" else p.phi_1r + math.pi
    phi_01 = p.phi_01 if kind == "bare" else p.phi_01 + math.pi
    delta_01 = -p.delta_01 if kind in ("rotation", "shaped") else p.delta_01
    label = p.label[4:] if p.label.startswith("inv:") else "inv:" + p.label
    return PulseParams(p.T, p.omega_1r, phi_1r, p.omega_01, phi_01, delta_01, label)


def invert_full_control(schedule: PulseSchedule) -> PulseSchedule:
    """Exact inverse of a full-control schedule in the effective model.

    Reverses the pulse order; fold and ground-rotation pulses get phi_01 + pi
    with phi_1r -> phi_1r + pi and delta_01 negated (axis flip alone for the
    phase-cancelling halves); bare doublet pulses get phi_1r + pi.  The map
    is an involution.
    """
    N = schedule.params.N
    return PulseSchedule(schedule.params,
                         tuple(_invert_pulse(p, N) for p in reversed(schedule.pulses)))


def _phase_pulses(x: float, omega_01: float, params: ModelParams) -> PulseSchedule:
    """The two-pulse phase block on |-,1>, first control phase x."""
    T = math.sqrt(2) * math.pi / (math.sqrt(params.N) * omega_01)
    return PulseSchedule(params, (
        PulseParams(T, 1.0, 0.0, omega_01, x, -0.5, label="phase:a"),
        PulseParams(T, 1.0, math.pi, omega_01, 0.0, 0.5, label="phase:b"),
    ))


@cache
def _phase_calibration() -> tuple[int, float]:
    """Sense and offset of the realized phase: chi = sense * phi_01 + offset.

    Calibrated once by advancing |-,1> through the two-pulse block under the
    effective model, resonant on the pair (|-,1>, |g,0>); the result depends
    only on the fixed conventions, not on N or the amplitudes.
    """
    params = ModelParams(2)
    start = np.eye(params.dim, dtype=complex)[_MINUS1]

    def realized(x: float) -> float:
        out = _advance(start[None], params, [_phase_pulses(x, 0.05, params).pulses],
                       (_MINUS1, 0))[0]
        amp = out[_MINUS1]
        if abs(abs(amp) - 1.0) > 1e-9:
            raise ContractViolation("phase-pulse calibration left the state")
        return cmath.phase(amp)

    chi0 = realized(0.0)
    if abs(chi0) < 1e-6:
        offset = 0.0
    elif abs(abs(chi0) - math.pi) < 1e-6:
        offset = math.pi
    else:
        raise ContractViolation(f"unexpected phase-pulse offset {chi0}")
    step = wrap_phase(realized(math.pi / 2) - offset)
    sense = 1 if step > 0 else -1
    if abs(step - sense * math.pi / 2) > 1e-6:
        raise ContractViolation("phase-pulse response is not affine in phi_01")
    return sense, offset


def compile_phase_gate(target: QuditState, Phi: float, opts: CompileOptions) -> PulseSchedule:
    """Generalized phase gate e^{i Phi}|target><target| + (1 - |target><target|).

    Full control carries the target onto |-,1>; two pi-rotations through
    |g,0>, both of duration sqrt(2)*pi/(sqrt(N)*Omega_01), imprint e^{i Phi}
    on |-,1> alone, their spectator phases cancelling pairwise and the first
    pulse's control phase encoding Phi through the calibrated affine
    response; the inverted full control then undoes the first step.
    """
    return _phase_gate(compile_full_control(target, opts, "Hprime"), Phi, opts)


def _phase_gate(forward: PulseSchedule, Phi: float, opts: CompileOptions) -> PulseSchedule:
    """The phase gate of Phi around a full-control schedule forward."""
    sense, offset = _phase_calibration()
    middle = _phase_pulses(wrap_phase(sense * (Phi - offset)), opts.omega_01, forward.params)
    return forward.concat(middle).concat(invert_full_control(forward))


def _fix_column_phase(v: np.ndarray) -> np.ndarray:
    m = int(np.argmax(np.abs(v)))
    return v / (v[m] / abs(v[m]))


def unitary_eigensystem(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a unitary matrix.

    Uses the complex Schur form, which is diagonal for normal matrices, so
    its columns are orthonormal eigenvectors even inside degenerate
    eigenspaces.  Eigenphases are wrapped to (-pi, pi] and sorted ascending
    (stable), and every vector's largest-magnitude component is made real
    positive, so identical inputs yield identical output bit for bit.  The
    decomposition is verified by reconstruction.
    """
    # Imported here, its only use, so that importing the package skips scipy.
    from scipy.linalg import schur

    U = require_unitary(U)
    Tm, Z = schur(U, output="complex")
    phases = np.angle(np.diag(Tm))
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    V = np.column_stack([_fix_column_phase(Z[:, j]) for j in order])
    recon = (V * np.exp(1j * phases)) @ V.conj().T
    if float(np.max(np.abs(recon - U))) > 1e-8:
        raise ContractViolation("eigendecomposition failed to reconstruct the unitary")
    return phases, V


def compile_unitary(U: np.ndarray, opts: CompileOptions) -> PulseSchedule:
    """Compile an arbitrary 2N x 2N qudit unitary as a product of phase gates.

    U is eigendecomposed deterministically and one generalized phase gate is
    emitted per eigenpair; with skip_zero_phases set, eigenphases below the
    tolerance emit nothing.  The gates' full-control passes are compiled in
    lockstep, each bit for bit as compile_phase_gate compiles it alone.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] % 2 or U.shape[0] < 2:
        raise ValueError(f"expected a 2N x 2N matrix, got shape {U.shape}")
    params = ModelParams(U.shape[0] // 2)
    phases, vectors = unitary_eigensystem(U)
    kept = [(float(alpha), v) for alpha, v in zip(phases, vectors.T)
            if not (opts.skip_zero_phases and abs(wrap_phase(alpha)) < _ZERO_PHASE_EPS)]
    targets = [QuditState.from_vector(np.concatenate(([0.0], v)), normalize=True)
               for _, v in kept]
    schedule = PulseSchedule(params)
    for (alpha, _), forward in zip(kept, _full_controls(params, targets, opts, "Hprime")):
        schedule = schedule.concat(_phase_gate(forward, alpha, opts))
    return schedule


def compile_state_prep(target: QuditState, opts: CompileOptions) -> PulseSchedule:
    """Schedule preparing the target qudit state from |g,0>."""
    if abs(target.amplitudes[0]) > 1e-10:
        raise ContractViolation("state-prep target must carry no |g,0> amplitude")
    return invert_full_control(compile_full_control(target, opts, "Hfull"))


# --- readout: folds with smoothed edges -----------------------------------
#
# A rectangular fold switches the control laser on and off suddenly, which
# leaves an admixture H_km/Delta_km of every off-resonant coupled level behind
# at each edge, and its off-resonant couplings shift the levels by
# |H_km|^2/Delta_km while it is on.  Both errors are first order in
# omega_01/omega_1r in the readout probability.  Readout folds therefore ramp
# the control amplitude up and down in _EDGE_STEPS piecewise-constant steps
# of a sin^2 profile, retune each step's delta_01 so the resonant pair stays
# degenerate under its light shifts, and track the light shifts in the
# effective state.

_EDGE_STEPS = 12
_EDGE_PROFILE = np.sin(math.pi * (np.arange(_EDGE_STEPS) + 0.5) / (2 * _EDGE_STEPS)) ** 2
# candidate step lengths (1/omega_1r); the cap keeps an edge under 60/omega_1r,
# a small part of a fold, which lasts ~pi/omega_01
_STEP_GRID = np.arange(1, 501) * 0.01


def _edge_step(N: int, s: int, q: int) -> float:
    """Step length (units of 1/omega_1r) of a readout fold's edges.

    An edge whose amplitude steps by a_k - a_{k-1} at times k*tau leaves on
    each off-resonant coupling of strength g at detuning Delta the
    first-order admixture (g/Delta)|sum_k (a_k - a_{k-1}) e^{i k Delta tau}|,
    where a sudden switch leaves g/Delta.  The step is the one on a 0.01 grid
    up to 5/omega_1r that minimizes the worst of these over the fold's
    couplings.  g/Delta is proportional to omega_01/omega_1r, so the choice
    depends on the fold alone.
    """
    pair, delta = _fold_levels(s, q)
    H = build_total(ModelParams(N), PulseParams(1.0, 1.0, 0.0, 1.0, 0.0, delta))
    d = np.real(np.diag(H))
    coupled = np.triu(np.abs(H) > 0, 1)
    coupled[min(pair), max(pair)] = False
    g = np.abs(H)[coupled]
    gap = np.abs(d[:, None] - d[None, :])[coupled]
    beat = np.exp(1j * np.outer(_STEP_GRID, gap))
    term = np.ones_like(beat)
    admixture = np.zeros_like(beat)
    for increment in np.diff(np.concatenate([[0.0], _EDGE_PROFILE, [1.0]])):
        admixture += increment * term
        term *= beat
    worst = np.max(g / gap * np.abs(admixture), axis=1)
    return float(_STEP_GRID[int(np.argmin(worst))])


def _propagator(H: np.ndarray, T: float) -> np.ndarray:
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * w * T)) @ V.conj().T


@dataclass(frozen=True, eq=False)
class _FoldPropagator:
    """A readout fold's evolution in one model (full or effective).

    Holds the edge products and the flat top's eigensystem at phi_01 = 0.
    A pulse's Hamiltonian at control phase phi_01 is Z H(0) Z^dag with
    Z = diag(exp(-i phi_01 q)), so they serve every phase.
    """

    rise: np.ndarray
    fall: np.ndarray
    w: np.ndarray
    V: np.ndarray

    def __call__(self, phi_01: float, T: float, x: np.ndarray) -> np.ndarray:
        """Apply the whole fold, with a flat top of duration T, to the state x."""
        z = _gauge(len(x) // 2, phi_01)
        return z * (self.fall @ _propagate(self.w, self.V, T, self.rise @ (z.conj() * x)))


@dataclass(frozen=True, eq=False)
class _ShapedFold:
    """One readout fold's pulses at phi_01 = 0 and its cached evolution.

    Each model's propagator is built on first use: compile_readout evolves
    only the effective model, and a fold that emits nothing needs neither.
    """

    pair: tuple[int, int]           # (target, other) positions
    edge_angle: float               # the pair's rotation angle under both edges together
    edge: tuple[PulseParams, ...]   # rising edge in time order
    flat: PulseParams               # flat top; its duration is set per fold
    bare: np.ndarray                # the steps' bare Hamiltonian
    control: np.ndarray             # their control term at full amplitude, phi_01 = 0

    def pulses(self, phi_01: float, T: float) -> tuple[PulseParams, ...]:
        edge = tuple(replace(p, phi_01=phi_01) for p in self.edge)
        return edge + (replace(self.flat, T=T, phi_01=phi_01),) + edge[::-1]

    @cached_property
    def full(self) -> _FoldPropagator:
        return self._propagator(lambda H: H)

    @cached_property
    def effective(self) -> _FoldPropagator:
        return self._propagator(lambda H: _light_shifted(H, self.pair))

    def _propagator(self, model) -> _FoldPropagator:
        steps = [_propagator(model(_step_hamiltonian(self.bare, self.control, float(a),
                                                     p.delta_01)), p.T)
                 for a, p in zip(_EDGE_PROFILE, self.edge)]
        w, V = np.linalg.eigh(model(_step_hamiltonian(self.bare, self.control, 1.0,
                                                      self.flat.delta_01)))
        return _FoldPropagator(reduce(lambda acc, u: u @ acc, steps),
                               reduce(lambda acc, u: u @ acc, steps[::-1]), w, V)


def _step_hamiltonian(bare: np.ndarray, control: np.ndarray, amplitude: float,
                      d: float) -> np.ndarray:
    """build_total at phi_01 = 0 of a readout step, assembled from its linear parts."""
    return bare + amplitude * control - np.diag(d * _excitations(len(bare) // 2))


@lru_cache(maxsize=256)
def _shaped_fold(params: ModelParams, omega_01: float, s: int, q: int) -> _ShapedFold:
    pair, delta = _fold_levels(s, q)
    step = _edge_step(params.N, s, q)
    label = f"fold({_sgn(s)},q={q}){_SHAPED}"
    bare = build_total(params, PulseParams(step, 1.0))
    control = build_control(params, omega_01, 0.0, 0.0)

    def segment(amplitude: float) -> PulseParams:
        # Newton on the pair's light-shifted gap, whose slope in delta_01 is 1
        d = delta
        for _ in range(3):
            H = _step_hamiltonian(bare, control, amplitude, d)
            shifted = np.real(np.diag(H)) + _light_shifts(H, pair)
            d -= shifted[pair[0]] - shifted[pair[1]]
        return PulseParams(step, 1.0, 0.0, amplitude * omega_01, 0.0, d, label)

    edge = tuple(segment(float(a)) for a in _EDGE_PROFILE)
    flat = segment(1.0)
    rate = _pair_coupling(params.N, omega_01, pair)[1]
    edge_angle = 2.0 * rate * sum(p.T * p.omega_01 for p in edge) / flat.omega_01
    return _ShapedFold(pair, edge_angle, edge, flat, bare, control)


def _readout(target: QuditState, opts: CompileOptions
             ) -> tuple[list[tuple[_ShapedFold, float, float]], PulseSchedule]:
    """The target's readout: its emitting folds and the closing doublet schedule.

    Each emitting fold is recorded once as (fold, phi_01, T), its control
    phase wrapped to (-pi, pi] and T the duration of its flat top.
    """
    params = ModelParams(target.N)
    if abs(target.amplitudes[0]) > 1e-10:
        raise ContractViolation("readout target must carry no |g,0> amplitude")
    eff = target.amplitudes
    folds: list[tuple[_ShapedFold, float, float]] = []
    for level in range(params.N, 1, -1):
        for s in (+1, -1):
            fold = _shaped_fold(params, opts.omega_01, s, level - 1)
            u, weight = _pair_bloch(eff / np.linalg.norm(eff), *fold.pair)
            if weight < _WEIGHT_EPS or u[2] > 1.0 - _POLE_EPS:
                continue
            _, rate, a0, sense = _pair_coupling(params.N, opts.omega_01, fold.pair)
            phi_01, turn = _pair_axis(a0, sense, u)
            if turn < fold.edge_angle:
                # the edges alone turn too far: go round the other way
                phi_01, turn = phi_01 + math.pi, TAU - turn
            turn += TAU * math.ceil(max(0.0, fold.edge_angle - turn) / TAU)
            phi_01, T = wrap_phase(phi_01), (turn - fold.edge_angle) / rate
            eff = fold.effective(phi_01, T, eff)
            folds.append((fold, phi_01, T))
    eff = eff / np.linalg.norm(eff)
    doublet = _doublet_pulses(eff)
    final = _advance(eff[None], params, [doublet], None)[0]
    if abs(QuditState(final).amplitudes[_MINUS1]) ** 2 < 1.0 - 1e-9:
        raise ContractViolation("readout synthesis failed to concentrate the state")
    return folds, PulseSchedule(params, doublet)


def compile_readout(target: QuditState, opts: CompileOptions) -> PulseSchedule:
    """Schedule carrying the target onto |-,1> for a projective measurement.

    The folds of compile_full_control (Hprime), each with its control
    amplitude ramped up and down in piecewise-constant sin^2 steps whose
    length is derived from the fold's off-resonant detunings.  Each step's
    delta_01 keeps the resonant pair degenerate under its light shifts, and
    the tracked effective state carries those shifts.  Folds are always
    plain; fold_variant is ignored.
    """
    folds, doublet = _readout(target, opts)
    pulses = [p for fold, phi_01, T in folds for p in fold.pulses(phi_01, T)]
    return PulseSchedule(doublet.params, tuple(pulses) + doublet.pulses)


def measure_projection(state: QuditState, target: QuditState,
                       opts: CompileOptions) -> float:
    """Projective-measurement probability |<target|state>|^2 via simulation.

    Carries the state through the readout of the target (compile_readout),
    which maps the target onto |-,1>, and reads its |-,1> population.  The
    folds are applied from their records through cached edge products and
    flat-top eigensystems, the doublet through the simulator's cached key
    eigensystems, so a warm call builds no fold pulse and diagonalises
    nothing.
    """
    if state.N != target.N:
        raise ValueError("state and target dimensions differ")
    folds, doublet = _readout(target, opts)
    psi = state.amplitudes
    for fold, phi_01, T in folds:
        psi = fold.full(phi_01, T, psi)
    psi = _advance(psi[None], doublet.params, [doublet.pulses], None)[0]
    return float(abs(psi[_MINUS1]) ** 2)

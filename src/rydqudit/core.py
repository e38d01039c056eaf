"""Dressed-state basis bookkeeping and Hamiltonian construction.

The blockaded N-atom array behaves as a single (2N+1)-level "artificial
molecule" with levels |g,0> and |±,q> for q = 1..N.  This module fixes the
canonical level ordering

    [|g,0>, |-,1>, |+,1>, |-,2>, |+,2>, ..., |-,N>, |+,N>]

and builds the bare (dressing-laser) and control-laser Hamiltonians in that
basis.  All frequencies are expressed in units of the dressing Rabi frequency
(omega_1r = 1 by convention) and all times in its inverse.

Pauli/Bloch conventions for an ordered pair (up, down):
    sigma_z = |up><up| - |down><down|
    sigma_x = |up><down| + h.c.
    sigma_y = -i |up><down| + h.c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import ClassVar

import numpy as np

TAU = 2.0 * math.pi


class ContractViolation(ValueError):
    """A numeric contract was violated (non-unit state, non-unitary matrix, ...)."""


def wrap_phase(x: float) -> float:
    """Normalize an angle to the interval (-pi, pi]; NaN and +-inf raise ValueError."""
    if not math.isfinite(x):
        raise ValueError(f"cannot wrap the non-finite angle {x!r}")
    r = math.remainder(float(x), TAU)
    return r if r > -math.pi else math.pi


def _number(name: str, value) -> float:
    """A finite int or float (not bool) as a built-in float; anything else raises ValueError.

    A Python integer beyond the float range counts as not finite.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (float, int, np.floating, np.integer)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _integer(name: str, value) -> int:
    """A Python or numpy integer (not bool) as a built-in int; anything else raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelParams:
    """Atom count of the artificial molecule; the dressing amplitude is a pulse field.

    N runs from 1 to N_MAX, the one bound every entry point checks before it
    sizes anything by N.  At N_MAX a dense (2N+1)^2 matrix takes 0.27 MB, and
    schedule_operator, which stacks 3 pulses at a time there, peaks at 14 MB
    of traced memory on 32 pulses with 32 keys not yet cached, 8.6 MB of it
    the key eigensystems that stay cached.
    """

    N: int
    N_MAX: ClassVar[int] = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer("atom count N", self.N))
        if not 1 <= self.N <= self.N_MAX:
            raise ValueError(f"atom count N must be between 1 and {self.N_MAX}, got {self.N}")

    @property
    def dim(self) -> int:
        return 2 * self.N + 1


def _position(sign: int, q: int) -> int:
    """Canonical position of the branch level |sign,q>, q >= 1."""
    return 2 * q - 1 + (1 if sign > 0 else 0)


@dataclass(frozen=True, order=True)
class DressedIndex:
    """One level of the dressed ladder: the ground level or a branch |sign,q>.

    ``q = 0`` with ``sign = 0`` denotes |g,0>; otherwise ``sign`` is +1 or -1
    and ``1 <= q``; both are integers (not bool), stored as int.
    """

    q: int
    sign: int

    def __post_init__(self) -> None:
        for name in ("q", "sign"):
            object.__setattr__(self, name, _integer(f"dressed index {name}", getattr(self, name)))
        if self.q == 0:
            if self.sign != 0:
                raise ValueError("the ground level carries no branch sign")
        elif self.q < 0 or self.sign not in (-1, 1):
            raise ValueError(f"invalid dressed index (q={self.q}, sign={self.sign})")

    @classmethod
    def ground(cls) -> "DressedIndex":
        return cls(0, 0)

    @classmethod
    def branch(cls, sign: int, q: int) -> "DressedIndex":
        return cls(q, sign)

    @property
    def is_ground(self) -> bool:
        return self.q == 0

    def position(self) -> int:
        """Offset of this level in the canonical ordering."""
        if self.is_ground:
            return 0
        return _position(self.sign, self.q)

    def __str__(self) -> str:
        if self.is_ground:
            return "g0"
        return f"{'+' if self.sign > 0 else '-'},{self.q}"


def _level_position(idx: DressedIndex, N: int) -> int:
    """Canonical position of idx on the ladder of N atoms; a level above q = N raises."""
    if idx.q > N:
        raise ValueError(f"level {idx} needs at least {idx.q} sites, got N={N}")
    return idx.position()


@lru_cache(maxsize=None)
def _excitations(N: int) -> np.ndarray:
    """Excitation number q = (p + 1) // 2 of every canonical position p (read-only)."""
    q = ((np.arange(2 * N + 1) + 1) // 2).astype(float)
    q.flags.writeable = False
    return q


def level_ordering(N: int) -> list[DressedIndex]:
    """Canonical list of the 2N+1 levels, ground first."""
    ModelParams(N)      # the atom-count rule, before anything is sized by N
    levels = [DressedIndex.ground()]
    for q in range(1, N + 1):
        levels.append(DressedIndex.branch(-1, q))
        levels.append(DressedIndex.branch(+1, q))
    return levels


_PULSE_FIELDS = ("T", "omega_1r", "phi_1r", "omega_01", "phi_01", "delta_01")


@dataclass(frozen=True, init=False)
class PulseParams:
    """One piecewise-constant control interval.

    ``T`` is the duration (units 1/omega_1r); the remaining fields are the
    amplitudes, phases and detuning of the two lasers during the interval,
    all six stored as built-in floats, phases normalized to (-pi, pi].
    ``label`` must be a built-in str.
    """

    T: float
    omega_1r: float = 1.0
    phi_1r: float = 0.0
    omega_01: float = 0.0
    phi_01: float = 0.0
    delta_01: float = 0.0
    label: str = ""

    def __init__(self, T: float, omega_1r: float = 1.0, phi_1r: float = 0.0, omega_01: float = 0.0,
                 phi_01: float = 0.0, delta_01: float = 0.0, label: str = "") -> None:
        T = _number("pulse field T", T)
        omega_1r = _number("pulse field omega_1r", omega_1r)
        phi_1r = _number("pulse field phi_1r", phi_1r)
        omega_01 = _number("pulse field omega_01", omega_01)
        phi_01 = _number("pulse field phi_01", phi_01)
        delta_01 = _number("pulse field delta_01", delta_01)
        if type(label) is not str:
            raise ValueError(f"pulse field label must be a string, got {label!r}")
        if T < 0:
            raise ValueError(f"pulse duration must be >= 0, got {T}")
        if omega_1r < 0:
            raise ValueError(f"pulse amplitude omega_1r must be >= 0, got {omega_1r}")
        if omega_01 < 0:
            raise ValueError(f"pulse amplitude omega_01 must be >= 0, got {omega_01}")
        # one store into the instance dict, a fraction of the cost of object.__setattr__
        v = self.__dict__
        v["T"], v["omega_1r"], v["phi_1r"], v["omega_01"], v["phi_01"], v["delta_01"], v["label"] = (
            T, omega_1r, wrap_phase(phi_1r), omega_01, wrap_phase(phi_01), delta_01, label)


@dataclass(frozen=True)
class QuditState:
    """Complex amplitude vector over the 2N+1 dressed levels (unit norm)."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 3 or amp.size % 2 == 0:
            raise ValueError(f"amplitude vector must have odd length 2N+1 >= 3, got shape {amp.shape}")
        ModelParams(amp.size // 2)      # the atom-count rule
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= 1e-10:     # so that a NaN norm fails too
            raise ContractViolation(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def N(self) -> int:
        return (self.amplitudes.size - 1) // 2

    @classmethod
    def from_vector(cls, amplitudes, normalize: bool = False) -> "QuditState":
        amp = np.asarray(amplitudes, dtype=complex)
        if normalize:
            norm = np.linalg.norm(amp)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amp = amp / norm
        return cls(amp)

    @classmethod
    def basis_state(cls, N: int, idx: DressedIndex) -> "QuditState":
        amp = np.zeros(ModelParams(N).dim, dtype=complex)
        amp[_level_position(idx, N)] = 1.0
        return cls(amp)

    @classmethod
    def uniform(cls, N: int) -> "QuditState":
        """Equal superposition of all 2N qudit levels (no ground component)."""
        amp = np.full(ModelParams(N).dim, 1.0 / math.sqrt(2 * N), dtype=complex)
        amp[0] = 0.0
        return cls(amp)

    def ground_population(self) -> float:
        return float(abs(self.amplitudes[0]) ** 2)

    def qudit_part(self) -> np.ndarray:
        """Amplitudes on the 2N qudit levels (ground dropped)."""
        return self.amplitudes[1:].copy()

    def overlap(self, other: "QuditState") -> complex:
        return complex(np.vdot(other.amplitudes, self.amplitudes))


def coupling_K(N: int, q: int) -> float:
    """Same-branch ladder coupling coefficient for the q -> q+1 transition."""
    if not 1 <= q <= N - 1:
        raise ValueError(f"coupling_K requires 1 <= q <= N-1, got q={q}, N={N}")
    return math.sqrt(N - q) / (2.0 * (math.sqrt(q + 1) - math.sqrt(q)))


def coupling_Q(N: int, q: int) -> float:
    """Cross-branch ladder coupling coefficient for the q -> q+1 transition."""
    if not 1 <= q <= N - 1:
        raise ValueError(f"coupling_Q requires 1 <= q <= N-1, got q={q}, N={N}")
    return math.sqrt(N - q) / (2.0 * (math.sqrt(q + 1) + math.sqrt(q)))


def jc_energy(q: int, sign: int, omega_1r: float, phi_1r: float) -> float:
    """Ladder energy of |sign,q> for the diagonal dressing phases 0 and pi.

    For phi_1r = 0 the spectrum is +/- omega_1r*sqrt(q)/2; phi_1r = pi flips
    the branches.  Other phases leave the bare Hamiltonian non-diagonal and
    are handled by the full builders, not this accessor.
    """
    if q < 1:
        raise ValueError(f"jc_energy requires q >= 1, got {q}")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    w = wrap_phase(phi_1r)
    if abs(w) < 1e-12:
        flip = 1.0
    elif abs(abs(w) - math.pi) < 1e-12:
        flip = -1.0
    else:
        raise ValueError(f"jc_energy is defined only for phi_1r in {{0, pi}}, got {phi_1r}")
    return flip * sign * omega_1r * math.sqrt(q) / 2.0


@lru_cache(maxsize=None)
def _couplings(N: int) -> MappingProxyType:
    """Coupling K_N^q, -Q_N^q or +/-sqrt(N/2) of build_control's pair (up, down) (read-only)."""
    pairs: dict[tuple[int, int], float] = {}
    for s in (+1, -1):
        for q in range(1, N):
            up = _position(s, q + 1)
            pairs[up, _position(s, q)] = coupling_K(N, q)
            pairs[up, _position(-s, q)] = -coupling_Q(N, q)
        pairs[_position(s, 1), 0] = s * math.sqrt(N / 2.0)
    return MappingProxyType(pairs)


def build_bare(params: ModelParams, omega_1r: float, phi_1r: float) -> np.ndarray:
    """Bare Hamiltonian of the dressed ladder for the dressing laser (omega_1r, phi_1r).

    Block diagonal: zero on |g,0>, and on each doublet {|+,q>, |-,q>} the
    block (omega_1r sqrt(q)/2) * n . sigma with n = (0, -sin phi, cos phi)
    and |+,q> as the "up" member.
    """
    H = np.zeros((params.dim, params.dim), dtype=complex)
    nx, ny, nz = 0.0, -math.sin(phi_1r), math.cos(phi_1r)
    lower, upper = nx - 1j * ny, nx + 1j * ny     # the axes of (up, down) and (down, up)
    for q in range(1, params.N + 1):
        up, down = _position(+1, q), _position(-1, q)
        scale = omega_1r * math.sqrt(q) / 2.0
        H[up, up] += scale * nz
        H[down, down] -= scale * nz
        H[up, down] += scale * lower
        H[down, up] += scale * upper
    return H


def build_control(params: ModelParams, omega_01: float, phi_01: float,
                  delta_01: float) -> np.ndarray:
    """Control-laser Hamiltonian in the dressed basis.

    Couplings (all carrying the in-plane axis n = (cos phi_01, sin phi_01, 0),
    prefactor omega_01/2, first-listed state "up"):
      +K_N^q   on {|s,q+1>, |s,q>}          (same branch)
      -Q_N^q   on {|s,q+1>, |-s,q>}         (cross branch)
      +/- sqrt(N/2) on {|+/-,1>, |g,0>}     (minus sign on the |-,1> pair)
    plus the diagonal detuning term -delta_01 * q on every |s,q>.  Element
    (up, down) is (omega_01/2 * coupling) * (cos phi_01 - i sin phi_01).
    """
    if omega_01 < 0:
        raise ValueError(f"omega_01 must be >= 0, got {omega_01}")
    H = np.zeros((params.dim, params.dim), dtype=complex)
    nx, ny = math.cos(phi_01), math.sin(phi_01)
    lower, upper = nx - 1j * ny, nx + 1j * ny     # the axes of (up, down) and (down, up)
    half = omega_01 / 2.0
    for (up, down), coupling in _couplings(params.N).items():
        H[up, down] += half * coupling * lower
        H[down, up] += half * coupling * upper
    # the diagonal of the |s,q> levels: every (dim + 1)-th element after |g,0>
    H.reshape(-1)[params.dim + 1::params.dim + 1] -= delta_01 * _excitations(params.N)[1:]
    return H


def build_total(params: ModelParams, pulse: PulseParams) -> np.ndarray:
    """Bare plus control Hamiltonian for one pulse's parameters."""
    return (build_bare(params, pulse.omega_1r, pulse.phi_1r)
            + build_control(params, pulse.omega_01, pulse.phi_01, pulse.delta_01))


@lru_cache(maxsize=256)
def _diagonal(N: int, omega_1r: float, phi_1r: float, delta_01: float) -> np.ndarray:
    """build_total's diagonal, which neither omega_01 nor phi_01 enters (read-only)."""
    d = np.diag(build_total(ModelParams(N), PulseParams(1.0, omega_1r, phi_1r, delta_01=delta_01))).copy()
    d.flags.writeable = False
    return d


def _pair_bloch(amplitudes: np.ndarray | list[complex], up: int, down: int
                ) -> tuple[tuple[float, float, float], float]:
    """Bloch coordinates of an amplitude vector projected onto the pair (up, down).

    ``amplitudes`` is any indexable sequence of complex numbers (an array
    or a list); ``up`` and ``down`` are its positions of the pair and fix
    the orientation.  Returns ``(u, weight)`` with ``weight`` the population
    on the pair and ``u`` the unit Bloch vector of the projected state (zero
    vector when the weight vanishes), all built-in floats, computed in
    built-in complex arithmetic that rounds as numpy's complex128 scalars do.
    """
    a_up = complex(amplitudes[up])
    a_down = complex(amplitudes[down])
    p_up, p_down = abs(a_up) ** 2, abs(a_down) ** 2
    weight = p_up + p_down
    if weight == 0.0:
        return (0.0, 0.0, 0.0), 0.0
    cross = a_up.conjugate() * a_down
    return (2.0 * cross.real / weight, 2.0 * cross.imag / weight,
            (p_up - p_down) / weight), weight


def qudit_ordering_permutation(N: int) -> np.ndarray:
    """Canonical position (ground dropped) of each Fourier-ordered qudit level.

    The Fourier ordering used by the generalized Hadamard gate is
    |q_1> = |-,N>, ..., |q_N> = |-,1>, |q_{N+1}> = |+,1>, ..., |q_{2N}> = |+,N>.
    Entry j-1 of the result is the canonical index of |q_j|.
    """
    ModelParams(N)      # the atom-count rule, before anything is sized by N
    return np.array([_position(-1, q) - 1 for q in range(N, 0, -1)]
                    + [_position(+1, q) - 1 for q in range(1, N + 1)])


def hadamard_target(N: int) -> np.ndarray:
    """Generalized Hadamard (2N-point DFT) gate in the canonical ordering."""
    perm = qudit_ordering_permutation(N)
    d = 2 * N
    j, p = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    dft = np.exp(1j * math.pi * j * p / N) / math.sqrt(d)
    U = np.zeros((d, d), dtype=complex)
    # entry <q_p| U |q_j> lands at canonical row perm[p], column perm[j]
    U[np.ix_(perm, perm)] = dft.T
    return U


def require_unitary(U: np.ndarray) -> np.ndarray:
    """Validate a square complex matrix as unitary within 1e-10 (max-abs)."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    if not dev <= 1e-10:     # so that a NaN deviation fails too
        raise ContractViolation(f"matrix deviates from unitarity by {dev:.3e}")
    return U

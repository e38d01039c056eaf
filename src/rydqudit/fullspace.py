"""Brute-force atom-basis oracle for the dressed-ladder model.

Works in the full 3^N product basis {|0>, |1>, |r>}^N (little-endian site
ordering) with pairwise van der Waals interactions, with no blockade
approximation.  Embedding the symmetrized dressed levels into this space
lets the ladder picture be checked against the microscopic Hamiltonian:
agreement is asymptotic in the interaction-to-drive ratio V/omega_1r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    build_total,
    level_ordering,
)
from .propagator import _evolve

FULLSPACE_SITE_CAP = 8  # 3^8 = 6561 dense levels, the largest desk-scale oracle


def blockade_radius(C6: float, omega_1r: float) -> float:
    """Distance below which the interaction exceeds the dressing drive."""
    if not omega_1r > 0:
        raise ValueError(f"omega_1r must be positive, got {omega_1r}")
    return (abs(C6) / omega_1r) ** (1.0 / 6.0)


@dataclass(frozen=True)
class Geometry:
    """Atom positions (units of the spacing a) with interaction parameters.

    C6 carries units of omega_1r * a^6, so pairwise interactions come out in
    omega_1r units directly from the coordinate distances.
    """

    positions: tuple[tuple[float, float, float], ...]
    a: float
    wavelength: float
    C6: float
    d: int

    def __post_init__(self) -> None:
        pos = tuple(tuple(float(c) for c in p) for p in self.positions)
        if not pos or any(len(p) != 3 for p in pos):
            raise ValueError("positions must be a nonempty list of 3-vectors")
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if pos[i] == pos[j]:
                    raise ValueError(f"positions {i} and {j} coincide")
        if not self.a > 0 or not self.wavelength > 0:
            raise ValueError("spacing and wavelength must be positive")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimensionality must be 1, 2 or 3, got {self.d}")
        object.__setattr__(self, "positions", pos)

    @property
    def N(self) -> int:
        return len(self.positions)

    @classmethod
    def from_dict(cls, doc: dict) -> "Geometry":
        try:
            return cls(tuple(tuple(p) for p in doc["positions"]),
                       float(doc["a"]), float(doc["lambda"]),
                       float(doc["C6"]), int(doc["d"]))
        except KeyError as exc:
            raise ValueError(f"geometry document missing key {exc}") from exc

    def to_dict(self) -> dict:
        return {"positions": [list(p) for p in self.positions], "a": self.a,
                "lambda": self.wavelength, "C6": self.C6, "d": self.d}


@dataclass(frozen=True)
class GeometryReport:
    """Verdicts and margins for the collision and blockade conditions."""

    collision_ok: bool          # a > lambda (light-assisted collisions negligible)
    collision_margin: float     # a - lambda
    blockade_ok: bool           # N^(1/d) * a < R_b, strict
    blockade_margin: float      # R_b - N^(1/d) * a
    blockade_radius: float

    @property
    def ok(self) -> bool:
        return self.collision_ok and self.blockade_ok


def validate_geometry(g: Geometry, omega_1r: float = 1.0) -> GeometryReport:
    """Check that the array fits inside a blockaded, collision-free volume."""
    rb = blockade_radius(g.C6, omega_1r)
    extent = g.N ** (1.0 / g.d) * g.a
    return GeometryReport(
        collision_ok=g.a > g.wavelength,
        collision_margin=g.a - g.wavelength,
        blockade_ok=extent < rb,
        blockade_margin=rb - extent,
        blockade_radius=rb,
    )


def _check_cap(N: int) -> None:
    if N > FULLSPACE_SITE_CAP:
        raise ValueError(f"full-space oracle is capped at {FULLSPACE_SITE_CAP} sites, got {N}")


def _site_levels(N: int) -> np.ndarray:
    """3^N x N base-3 digit table: row i holds the site levels of configuration i."""
    return (np.arange(3**N)[:, None] // 3 ** np.arange(N)) % 3


def build_full_hamiltonian(g: Geometry, pulse: PulseParams) -> np.ndarray:
    """Microscopic 3^N Hamiltonian: both lasers, detuning, van der Waals.

    Per site: (omega_1r/2) e^{-i phi_1r} |r><1|, (omega_01/2) e^{-i phi_01}
    |1><0| (plus conjugates) and -delta_01 on |1> and |r>; pairwise C6/r^6 on
    doubly-Rydberg configurations.
    """
    N = g.N
    _check_cap(N)
    dim = 3**N
    H = np.zeros((dim, dim), dtype=complex)
    pos = np.array(g.positions)
    vjk = np.zeros((N, N))
    for j in range(N):
        for k in range(j + 1, N):
            vjk[j, k] = g.C6 / float(np.sum((pos[j] - pos[k]) ** 2)) ** 3
    c1r = 0.5 * pulse.omega_1r * np.exp(-1j * pulse.phi_1r)
    c01 = 0.5 * pulse.omega_01 * np.exp(-1j * pulse.phi_01)
    levels = _site_levels(N)
    diag = -pulse.delta_01 * np.count_nonzero(levels, axis=1)
    ryd = levels == 2
    # pair energies are summed in (j, k) order, and only where both sites are
    # Rydberg, so each diagonal element sees the same additions as a loop
    for j in range(N):
        for k in range(j + 1, N):
            diag[ryd[:, j] & ryd[:, k]] += vjk[j, k]
    np.fill_diagonal(H, diag)
    configs = np.arange(dim)
    for j in range(N):
        for level, amplitude, coupling in ((0, pulse.omega_01, c01), (1, pulse.omega_1r, c1r)):
            if amplitude != 0.0:
                src = configs[levels[:, j] == level]
                H[src + 3**j, src] += coupling      # |1><0| or |r><1| on site j
    H += np.tril(H, -1).conj().T
    return H


def embed_dressed(N: int, idx: DressedIndex) -> np.ndarray:
    """Symmetric product-basis vector of one dressed level.

    |g,0> is the all-zero state; |+-,q> = (|e,q-1> +- |g,q>)/sqrt(2) with
    |g,q> (resp. |e,q-1>) the equal-amplitude sum over arrangements of q
    atoms in |1> (resp. q-1 in |1> and one in |r>).
    """
    _check_cap(N)
    if idx.q > N:
        raise ValueError(f"level {idx} needs at least {idx.q} sites, got N={N}")
    dim = 3**N
    vec = np.zeros(dim, dtype=complex)
    if idx.is_ground:
        vec[0] = 1.0
        return vec
    q = idx.q
    levels = _site_levels(N)
    n1 = np.count_nonzero(levels == 1, axis=1)
    nr = np.count_nonzero(levels == 2, axis=1)
    ground = (n1 == q) & (nr == 0)               # |g,q> component
    excited = (n1 == q - 1) & (nr == 1)          # |e,q-1> component
    vec[ground] = idx.sign / math.sqrt(2 * math.comb(N, q))
    vec[excited] = 1.0 / math.sqrt(2 * N * math.comb(N - 1, q - 1))
    return vec


def dressed_frame(N: int) -> np.ndarray:
    """3^N x (2N+1) matrix of embedded dressed levels in canonical order."""
    return np.column_stack([embed_dressed(N, idx) for idx in level_ordering(N)])


def _real_gauge(g: Geometry, pulse: PulseParams) -> tuple[np.ndarray, np.ndarray]:
    """Real H0 and unit diagonal d with build_full_hamiltonian = diag(d) H0 diag(d)^dag.

    Every |1><0| coupling carries e^{-i phi_01} and every |r><1| coupling
    e^{-i phi_1r}, and the rest of H is diagonal, so with both phases zero H0
    is real and d = e^{-i (phi_01 n_exc + phi_1r n_r)} per configuration,
    n_exc counting the sites not in |0> and n_r those in |r>.  Real symmetric
    eigh of H0 is several times cheaper than complex Hermitian eigh of H.
    """
    H0 = build_full_hamiltonian(g, replace(pulse, phi_1r=0.0, phi_01=0.0)).real.copy()
    levels = _site_levels(g.N)
    n_exc = np.count_nonzero(levels, axis=1)
    n_r = np.count_nonzero(levels == 2, axis=1)
    return H0, np.exp(-1j * (pulse.phi_01 * n_exc + pulse.phi_1r * n_r))


def _require_geometry(g: Geometry, omega_1r: float, allow_invalid: bool) -> None:
    if not allow_invalid and not validate_geometry(g, omega_1r).ok:
        raise ContractViolation("geometry violates the collision or blockade condition")


def compare_spectrum(g: Geometry, pulse: PulseParams,
                     allow_invalid_geometry: bool = False) -> float:
    """Max eigenvalue deviation between the microscopic model and the ladder.

    Diagonalizes the full Hamiltonian (as the real H0 of its phase gauge),
    matches each ladder eigenstate to the full eigenvector of largest overlap
    with its embedding, and reports the worst eigenvalue difference.  Finite
    interaction admixes multi-Rydberg configurations, so the deviation
    shrinks as V/omega_1r grows.
    """
    _require_geometry(g, pulse.omega_1r, allow_invalid_geometry)
    params = ModelParams(g.N, pulse.omega_1r) if pulse.omega_1r > 0 else ModelParams(g.N)
    B = dressed_frame(g.N)
    H0, d = _real_gauge(g, pulse)
    w_full, V0 = np.linalg.eigh(H0)
    w_ladder, V_ladder = np.linalg.eigh(build_total(params, pulse))
    # overlap of every full eigenvector d * V0[:, k] with each embedded ladder eigenvector
    overlaps = np.abs(V0.T @ (d.conj()[:, None] * (B @ V_ladder))) ** 2
    matched = w_full[np.argmax(overlaps, axis=0)]
    return float(np.max(np.abs(matched - w_ladder)))


def compare_evolution(g: Geometry, pulse: PulseParams, T: float,
                      initial: DressedIndex,
                      allow_invalid_geometry: bool = False) -> float:
    """Overlap of ladder-picture and microscopic evolution after time T.

    Both pictures start from the same embedded dressed level; returns
    |<full evolution|embedded ladder evolution>|.
    """
    if T < 0:
        raise ValueError(f"evolution time must be >= 0, got {T}")
    _require_geometry(g, pulse.omega_1r, allow_invalid_geometry)
    params = ModelParams(g.N, pulse.omega_1r) if pulse.omega_1r > 0 else ModelParams(g.N)
    B = dressed_frame(g.N)
    psi0_full = B[:, initial.position()]
    H0, d = _real_gauge(g, pulse)
    psi_full = d * _evolve(H0, T, d.conj() * psi0_full)
    e0 = np.zeros(params.dim, dtype=complex)
    e0[initial.position()] = 1.0
    psi_dressed = B @ _evolve(build_total(params, pulse), T, e0)
    return float(abs(np.vdot(psi_full, psi_dressed)))

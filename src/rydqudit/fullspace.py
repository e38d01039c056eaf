"""Brute-force atom-basis oracle for the dressed-ladder model.

Works in the full 3^N product basis {|0>, |1>, |r>}^N (little-endian site
ordering) with pairwise van der Waals interactions, with no blockade
approximation.  Embedding the symmetrized dressed levels into this space
lets the ladder picture be checked against the microscopic Hamiltonian:
agreement is asymptotic in the interaction-to-drive ratio V/omega_1r.

The oracle is dense and real: H0 of the phase gauge is assembled as a real
3^N x 3^N matrix (344 MB at N=8), and one `validate` diagonalises it
once.  Both comparisons read the eigenvectors only through their
projections onto the 2N+1 real parts of the dressed frame, so the
eigenvectors are dropped right after the eigh and what stays resident is
3^N x (2N+1) (0.9 MB at N=8).  At the 8-site cap a whole `validate` takes
about 40 s on 2 BLAS threads and 70 s on 1, with a peak RSS of 1.7 GB,
nearly all of it the dense eigh of size 6561 (2-vCPU Xeon, one run each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    _level_position,
    _number,
    build_total,
    level_ordering,
)
from .propagator import _evolve

FULLSPACE_SITE_CAP = 8  # 3^8 = 6561 dense levels, the largest desk-scale oracle
_SPAN_RTOL = 1e-9       # relative size below which a direction of the site span is flat


def blockade_radius(C6: float, omega_1r: float) -> float:
    """Distance below which the interaction exceeds the dressing drive."""
    if not omega_1r > 0:
        raise ValueError(f"omega_1r must be positive, got {omega_1r}")
    return (abs(C6) / omega_1r) ** (1.0 / 6.0)


def _pair_energy(C6: float, sites: np.ndarray, i: int, j: int) -> float:
    """C6/r^6 of the sites in rows i and j; ValueError if r^6 overflows or C6/r^6 is not finite."""
    try:
        r6 = float(np.sum((sites[i] - sites[j]) ** 2)) ** 3
    except OverflowError:
        raise ValueError(f"sites {i} and {j} are too far apart: r^6 overflows") from None
    energy = C6 / r6 if r6 != 0.0 else math.inf
    if not math.isfinite(energy):
        raise ValueError(f"sites {i} and {j} are too close: C6/r^6 is not finite")
    return energy


@dataclass(frozen=True)
class Geometry:
    """Atom positions (units of the spacing a) with interaction parameters.

    C6 carries units of omega_1r * a^6, so pairwise interactions come out in
    omega_1r units directly from the coordinate distances.  d is the array's
    dimensionality: the sites' affine span may not have more dimensions.
    The positions, a, wavelength and C6 are stored as float, and d, a number
    in {1, 2, 3}, as int.
    """

    positions: tuple[tuple[float, float, float], ...]
    a: float
    wavelength: float
    C6: float
    d: int

    def __post_init__(self) -> None:
        pos = tuple(tuple(_number("geometry field positions", c) for c in p)
                    for p in self.positions)
        if not pos or any(len(p) != 3 for p in pos):
            raise ValueError("positions must be a nonempty list of 3-vectors")
        for name in ("a", "wavelength", "C6"):
            object.__setattr__(self, name, _number(f"geometry field {name}", getattr(self, name)))
        sites = np.array(pos)
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                _pair_energy(self.C6, sites, i, j)
        if not self.a > 0 or not self.wavelength > 0:
            raise ValueError("spacing and wavelength must be positive")
        d = _number("geometry field d", self.d)
        if d not in (1, 2, 3):
            raise ValueError(f"dimensionality must be 1, 2 or 3, got {self.d!r}")
        object.__setattr__(self, "d", int(d))
        # the dimension of the sites' affine span, from singular values
        # relative to the largest
        spread = np.linalg.svd(sites - sites[0], compute_uv=False)
        span = int(np.count_nonzero(spread > _SPAN_RTOL * spread[0]))
        if span > self.d:
            raise ValueError(f"sites span {span} dimensions, more than d = {self.d}")
        object.__setattr__(self, "positions", pos)

    @property
    def N(self) -> int:
        return len(self.positions)

    @classmethod
    def from_dict(cls, doc: dict) -> "Geometry":
        try:
            return cls(tuple(tuple(p) for p in doc["positions"]),
                       doc["a"], doc["lambda"], doc["C6"], doc["d"])
        except KeyError as exc:
            raise ValueError(f"geometry document missing key {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed geometry document: {exc}") from exc

    def to_dict(self) -> dict:
        return {"positions": [list(p) for p in self.positions], "a": self.a,
                "lambda": self.wavelength, "C6": self.C6, "d": self.d}


@dataclass(frozen=True)
class GeometryReport:
    """Verdicts and margins for the collision and blockade conditions.

    Both conditions are taken over the pairs of actual site positions.  A
    single site has no pair: it passes both, with no collision margin
    (None) and a blockade margin of R_b.
    """

    collision_ok: bool          # closest pair * a > lambda (light-assisted collisions negligible)
    collision_margin: Optional[float]   # closest pair distance * a - lambda
    blockade_ok: bool           # farthest pair < R_b, strict, both in units of a
    blockade_margin: float      # R_b - farthest pair distance
    blockade_radius: float

    @property
    def ok(self) -> bool:
        return self.collision_ok and self.blockade_ok


def validate_geometry(g: Geometry, omega_1r: float = 1.0) -> GeometryReport:
    """Check that the array fits inside a blockaded, collision-free volume.

    Positions are in units of a and C6 in omega_1r * a^6 units, so R_b is in
    units of a: the farthest pair of sites must lie strictly inside R_b, and
    the closest pair, scaled by a, strictly beyond the wavelength.
    """
    rb = blockade_radius(g.C6, omega_1r)
    pos = np.array(g.positions)
    i, j = np.triu_indices(g.N, 1)
    dist = np.sqrt(np.sum((pos[i] - pos[j]) ** 2, axis=1))
    margin = float(dist.min()) * g.a - g.wavelength if dist.size else None
    farthest = float(dist.max()) if dist.size else 0.0
    return GeometryReport(
        collision_ok=margin is None or margin > 0,
        collision_margin=margin,
        blockade_ok=farthest < rb,
        blockade_margin=rb - farthest,
        blockade_radius=rb,
    )


def _check_cap(N: int) -> None:
    if N > FULLSPACE_SITE_CAP:
        raise ValueError(f"full-space oracle is capped at {FULLSPACE_SITE_CAP} sites, got {N}")


@lru_cache(maxsize=None)
def _site_levels(N: int) -> np.ndarray:
    """3^N x N base-3 digit table: row i holds the site levels of configuration i.

    Cached per N and read-only.
    """
    levels = (np.arange(3**N)[:, None] // 3 ** np.arange(N)) % 3
    levels.flags.writeable = False
    return levels


def build_full_hamiltonian(g: Geometry, pulse: PulseParams) -> np.ndarray:
    """Microscopic 3^N Hamiltonian: both lasers, detuning, van der Waals.

    Per site: (omega_1r/2) e^{-i phi_1r} |r><1|, (omega_01/2) e^{-i phi_01}
    |1><0| (plus conjugates) and -delta_01 on |1> and |r>; pairwise C6/r^6 on
    doubly-Rydberg configurations.
    """
    return _assemble(g, pulse, complex)


def _assemble(g: Geometry, pulse: PulseParams, dtype: type) -> np.ndarray:
    """build_full_hamiltonian as a complex or, at zero laser phases, a real matrix.

    The real matrix is the real part of the complex one, bit for bit.  Both
    triangles are written by index into zeros, and the diagonal is stored as
    diag + 0.0, so the -0.0 of -delta_01 * n at delta_01 = 0 is +0.0 in both.
    """
    N = g.N
    _check_cap(N)
    dim = 3**N
    H = np.zeros((dim, dim), dtype=dtype)
    pos = np.array(g.positions)
    vjk = np.zeros((N, N))
    for j in range(N):
        for k in range(j + 1, N):
            vjk[j, k] = _pair_energy(g.C6, pos, j, k)
    c1r = 0.5 * pulse.omega_1r * np.exp(-1j * pulse.phi_1r)
    c01 = 0.5 * pulse.omega_01 * np.exp(-1j * pulse.phi_01)
    if dtype is float:
        if pulse.phi_1r != 0.0 or pulse.phi_01 != 0.0:
            raise ValueError("a real full Hamiltonian needs both laser phases zero")
        c1r, c01 = c1r.real, c01.real
    levels = _site_levels(N)
    diag = -pulse.delta_01 * np.count_nonzero(levels, axis=1)
    ryd = levels == 2
    # pair energies are summed in (j, k) order, and only where both sites are
    # Rydberg, so each diagonal element sees the same additions as a loop
    for j in range(N):
        for k in range(j + 1, N):
            diag[ryd[:, j] & ryd[:, k]] += vjk[j, k]
    np.fill_diagonal(H, diag + 0.0)
    configs = np.arange(dim)
    for j in range(N):
        for level, amplitude, coupling in ((0, pulse.omega_01, c01), (1, pulse.omega_1r, c1r)):
            if amplitude != 0.0:
                src = configs[levels[:, j] == level]
                H[src + 3**j, src] += coupling              # |1><0| or |r><1| on site j
                H[src, src + 3**j] += np.conj(coupling)     # and its conjugate
    return H


def embed_dressed(N: int, idx: DressedIndex) -> np.ndarray:
    """Symmetric product-basis vector of one dressed level.

    |g,0> is the all-zero state; |+-,q> = (|e,q-1> +- |g,q>)/sqrt(2) with
    |g,q> (resp. |e,q-1>) the equal-amplitude sum over arrangements of q
    atoms in |1> (resp. q-1 in |1> and one in |r>).
    """
    _check_cap(N)
    _level_position(idx, N)     # rejects a level above q = N
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


@lru_cache(maxsize=None)
def dressed_frame(N: int) -> np.ndarray:
    """3^N x (2N+1) matrix of embedded dressed levels in canonical order.

    Cached per N and read-only.
    """
    B = np.column_stack([embed_dressed(N, idx) for idx in level_ordering(N)])
    B.flags.writeable = False
    return B


def _gauge_diagonal(g: Geometry, pulse: PulseParams) -> np.ndarray:
    """Unit diagonal d with build_full_hamiltonian = diag(d) H0 diag(d)^dag.

    Every |1><0| coupling carries e^{-i phi_01} and every |r><1| coupling
    e^{-i phi_1r}, and the rest of H is diagonal, so H0, the Hamiltonian
    with both phases zero, is real and d = e^{-i (phi_01 n_exc + phi_1r n_r)}
    per configuration, n_exc counting the sites not in |0> and n_r those in
    |r>.  Real symmetric eigh of H0 is several times cheaper than complex
    Hermitian eigh of H.
    """
    levels = _site_levels(g.N)
    n_exc = np.count_nonzero(levels, axis=1)
    n_r = np.count_nonzero(levels == 2, axis=1)
    return np.exp(-1j * (pulse.phi_01 * n_exc + pulse.phi_1r * n_r))


@lru_cache(maxsize=None)
def _frame_parts(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real orthonormal parts E of the dressed frame, its real map M0 and anchors.

    dressed_frame(N) = E M0, with M0 block diagonal: |+-,q> = (|e,q-1> +-
    |g,q>) / sqrt(2).  So column 0 of E is |g,0>, and at the canonical
    positions of |-,q> and |+,q> stand the normalized halves |e,q-1> and
    |g,q>.  M0 is orthogonal, and E = B M0^T is taken pair by pair from the
    frame's real part B: the two columns of a pair are equal on |e,q-1>'s
    support and opposite on |g,q>'s, so their sum and difference vanish
    exactly off the support of their half.  anchors holds one configuration
    in the support of each column; n_exc and n_r, and so the gauge diagonal,
    are constant on a column's support.  Cached per N and read-only.
    """
    B = dressed_frame(N).real
    half = 1.0 / math.sqrt(2.0)
    minus, plus = B[:, 1::2], B[:, 2::2]        # |-,q> and |+,q>, q = 1..N
    E = np.empty(B.shape)
    E[:, 0] = B[:, 0]
    E[:, 1::2] = half * (minus + plus)
    E[:, 2::2] = half * (plus - minus)
    M0 = np.zeros((2 * N + 1, 2 * N + 1))
    M0[0, 0] = 1.0
    e = np.arange(1, 2 * N, 2)
    M0[e, e] = M0[e, e + 1] = M0[e + 1, e + 1] = half
    M0[e + 1, e] = -half
    anchors = np.argmax(E != 0.0, axis=0)
    for arr in (E, M0, anchors):
        arr.flags.writeable = False
    return E, M0, anchors


def _gauged_frame(g: Geometry, pulse: PulseParams) -> np.ndarray:
    """M(phi) with d^* B = E M(phi), d the diagonal of _gauge_diagonal and B the dressed frame.

    d is constant on the support of each real part of the frame, so the
    gauge scales the rows of M0.
    """
    _, M0, anchors = _frame_parts(g.N)
    return _gauge_diagonal(g, pulse)[anchors].conj()[:, None] * M0


@lru_cache(maxsize=1)
def _real_eigensystem(g: Geometry, omega_1r: float, omega_01: float,
                      delta_01: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues w of the real H0 of _gauge_diagonal and projections P = V0^T E.

    V0 holds H0's eigenvectors and E the real parts of the dressed frame
    (_frame_parts); both comparisons need V0 only through P, so V0 is
    dropped as soon as P is formed.  H0 does not depend on the laser phases,
    T or the label, so `validate` diagonalises once and its spectrum and
    evolution comparisons share the result.  Only the last result is kept
    (3^N x (2N+1) floats: 0.1 MB at N=6 and 0.9 MB at N=8), beside the next
    miss's eigh.
    """
    w, V0 = np.linalg.eigh(_assemble(g, PulseParams(1.0, omega_1r, 0.0, omega_01, 0.0, delta_01),
                                     float))
    P = V0.T @ _frame_parts(g.N)[0]
    w.flags.writeable = False
    P.flags.writeable = False
    return w, P


def _require_geometry(g: Geometry, omega_1r: float, allow_invalid: bool) -> None:
    if not allow_invalid and not validate_geometry(g, omega_1r).ok:
        raise ContractViolation("geometry violates the collision or blockade condition")


def compare_spectrum(g: Geometry, pulse: PulseParams,
                     allow_invalid_geometry: bool = False) -> float:
    """Max eigenvalue deviation between the microscopic model and the ladder.

    Diagonalizes the full Hamiltonian (as the real H0 of its phase gauge,
    sharing the eigensystem with compare_evolution), matches each ladder
    eigenstate to the full eigenvector of largest overlap with its
    embedding, and reports the worst eigenvalue difference.  Finite
    interaction admixes multi-Rydberg configurations, so the deviation
    shrinks as V/omega_1r grows.
    """
    _require_geometry(g, pulse.omega_1r, allow_invalid_geometry)
    params = ModelParams(g.N)
    w_full, P = _real_eigensystem(g, pulse.omega_1r, pulse.omega_01, pulse.delta_01)
    w_ladder, V_ladder = np.linalg.eigh(build_total(params, pulse))
    # the overlap of the full eigenvector d * V0[:, k] with the embedded
    # ladder eigenvector B v is (V0^T d^* B v)_k = (P M(phi) v)_k
    Y = _gauged_frame(g, pulse) @ V_ladder
    overlaps = (P @ Y.real) ** 2 + (P @ Y.imag) ** 2
    matched = w_full[np.argmax(overlaps, axis=0)]
    return float(np.max(np.abs(matched - w_ladder)))


def compare_evolution(g: Geometry, pulse: PulseParams, T: float,
                      initial: DressedIndex,
                      allow_invalid_geometry: bool = False) -> float:
    """Overlap of ladder-picture and microscopic evolution after time T.

    Both pictures start from the same embedded dressed level; returns
    |<full evolution|embedded ladder evolution>|.  With H = diag(d) H0
    diag(d)^dag, H0 = V0 diag(w) V0^T and d^* B = E M(phi), the full
    evolution of B e is diag(d) V0 c with c = exp(-i w T) P M(phi) e, and its
    overlap with B x is c^dag P M(phi) x, so only P enters.
    """
    if T < 0:
        raise ValueError(f"evolution time must be >= 0, got {T}")
    start = _level_position(initial, g.N)
    _require_geometry(g, pulse.omega_1r, allow_invalid_geometry)
    params = ModelParams(g.N)
    w_full, P = _real_eigensystem(g, pulse.omega_1r, pulse.omega_01, pulse.delta_01)
    M = _gauged_frame(g, pulse)
    c = np.exp(-1j * w_full * T) * (P @ M[:, start])
    e0 = np.zeros(params.dim, dtype=complex)
    e0[start] = 1.0
    x = _evolve(build_total(params, pulse), T, e0)
    return float(abs(np.vdot(c, P @ (M @ x))))

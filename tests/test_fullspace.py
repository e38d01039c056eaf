"""Microscopic 3^N oracle versus the dressed-ladder model."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqudit.core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    build_total,
    level_ordering,
)
from rydqudit.fullspace import (
    FULLSPACE_SITE_CAP,
    Geometry,
    _real_gauge,
    blockade_radius,
    build_full_hamiltonian,
    compare_evolution,
    compare_spectrum,
    dressed_frame,
    embed_dressed,
    validate_geometry,
)
from rydqudit.propagator import _evolve


def triangle(C6, a=1.0, wavelength=0.5):
    h = math.sqrt(3) / 2
    return Geometry(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, h, 0.0)),
                    a, wavelength, C6, 2)


def chain(n, C6, a=1.0, wavelength=0.5):
    return Geometry(tuple((float(i), 0.0, 0.0) for i in range(n)), a, wavelength, C6, 1)


def test_blockade_radius():
    assert blockade_radius(1e6, 1.0) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        blockade_radius(1.0, 0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(((0, 0, 0), (0, 0, 0)), 1.0, 0.5, 1e6, 1)
    with pytest.raises(ValueError):
        Geometry(((0, 0, 0),), -1.0, 0.5, 1e6, 1)
    with pytest.raises(ValueError):
        Geometry(((0, 0, 0),), 1.0, 0.5, 1e6, 4)


def test_geometry_dict_round_trip():
    g = triangle(1e4)
    assert Geometry.from_dict(g.to_dict()) == g
    with pytest.raises(ValueError):
        Geometry.from_dict({"positions": [[0, 0, 0]]})


def test_geometry_report_verdicts():
    ok = chain(3, 1e6)
    rep = validate_geometry(ok)
    assert rep.ok and rep.collision_ok and rep.blockade_ok
    assert rep.blockade_radius == pytest.approx(10.0)
    # wavelength above the spacing: collision check fails
    rep2 = validate_geometry(chain(3, 1e6, a=1.0, wavelength=2.0))
    assert not rep2.collision_ok and not rep2.ok
    # weak interaction: the array outgrows the blockade radius
    rep3 = validate_geometry(chain(3, 2.0))
    assert not rep3.blockade_ok and not rep3.ok


@given(phi1=st.floats(-3.0, 3.0), phi2=st.floats(-3.0, 3.0), delta=st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=15)
def test_full_hamiltonian_hermitian(phi1, phi2, delta):
    pulse = PulseParams(1.0, 1.0, phi1, 0.3, phi2, delta)
    H = build_full_hamiltonian(chain(2, 1e4), pulse)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12


def test_full_hamiltonian_conserves_zero_count_without_control():
    # with the control laser off, the per-site |0><0| counter commutes with H
    g = chain(3, 1e4)
    pulse = PulseParams(1.0, 1.0, 0.7, 0.0, 0.0, 0.4)
    H = build_full_hamiltonian(g, pulse)
    dim = 3 ** g.N
    n0 = np.zeros(dim)
    for i in range(dim):
        n0[i] = sum(1 for j in range(g.N) if (i // 3**j) % 3 == 0)
    comm = H * n0[None, :] - n0[:, None] * H
    assert np.max(np.abs(comm)) <= 1e-12


def test_full_hamiltonian_site_cap():
    g = chain(9, 1e6, a=0.5)
    with pytest.raises(ValueError):
        build_full_hamiltonian(g, PulseParams(1.0))
    with pytest.raises(ValueError):
        embed_dressed(9, DressedIndex.ground())


def test_embedded_frame_is_orthonormal():
    for N in (2, 3, 4):
        B = dressed_frame(N)
        assert B.shape == (3**N, 2 * N + 1)
        assert np.max(np.abs(B.conj().T @ B - np.eye(2 * N + 1))) <= 1e-12


def test_embedding_structure_n2():
    # |-,1> at N=2: (|e,0> - |g,1>)/sqrt(2) over symmetrized arrangements
    vec = embed_dressed(2, DressedIndex.branch(-1, 1))
    idx_01 = 1          # site 0 in |1>
    idx_0r = 2          # site 0 in |r>
    assert vec[idx_01] == pytest.approx(-0.5)
    assert vec[idx_0r] == pytest.approx(0.5)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_projected_hamiltonian_approaches_ladder():
    # Rayleigh-Ritz projection of the microscopic H onto the embedded frame
    # reproduces the ladder Hamiltonian within ~10/(V/omega_1r)
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.3, 0.2)
    for V in (1e2, 1e3, 1e4):
        g = triangle(V)
        B = dressed_frame(g.N)
        projected = B.conj().T @ build_full_hamiltonian(g, pulse) @ B
        ladder = build_total(ModelParams(g.N), pulse)
        assert np.max(np.abs(projected - ladder)) <= 10.0 / V


def test_spectrum_deviation_monotone_in_blockade_strength():
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.0)
    devs = [compare_spectrum(triangle(V), pulse) for V in (1e2, 1e3, 1e4)]
    assert devs[0] > devs[1] > devs[2]


def test_invalid_geometry_rejected_unless_allowed():
    g = chain(3, 2.0)  # blockade violated
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.0)
    with pytest.raises(ContractViolation):
        compare_spectrum(g, pulse)
    assert compare_spectrum(g, pulse, allow_invalid_geometry=True) > 0.0


def test_compare_evolution_high_blockade():
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.0)
    overlap = compare_evolution(triangle(1e4), pulse, 10.0,
                                DressedIndex.branch(-1, 1))
    assert overlap >= 0.999
    with pytest.raises(ValueError):
        compare_evolution(triangle(1e4), pulse, -1.0, DressedIndex.ground())


def test_site_cap_constant():
    assert FULLSPACE_SITE_CAP == 8


def test_embed_rejects_level_above_site_count():
    with pytest.raises(ValueError):
        embed_dressed(3, DressedIndex.branch(+1, 5))
    with pytest.raises(ValueError):
        embed_dressed(2, DressedIndex.branch(-1, 3))
    assert np.linalg.norm(embed_dressed(3, DressedIndex.branch(+1, 3))) == pytest.approx(1.0)


# --- reference oracles: the straightforward per-configuration loops --------
#
# The library builds the 3^N Hamiltonian and the embedded levels with array
# code over the base-3 digit table; these loops are the definition they must
# reproduce bit for bit.

def _levels(i, N):
    return [(i // 3**j) % 3 for j in range(N)]


def ref_build_full_hamiltonian(g, pulse):
    N = g.N
    dim = 3**N
    H = np.zeros((dim, dim), dtype=complex)
    pos = np.array(g.positions)
    vjk = np.zeros((N, N))
    for j in range(N):
        for k in range(j + 1, N):
            vjk[j, k] = g.C6 / float(np.sum((pos[j] - pos[k]) ** 2)) ** 3
    c1r = 0.5 * pulse.omega_1r * np.exp(-1j * pulse.phi_1r)
    c01 = 0.5 * pulse.omega_01 * np.exp(-1j * pulse.phi_01)
    for i in range(dim):
        levels = _levels(i, N)
        excited = sum(1 for l in levels if l != 0)
        diag = -pulse.delta_01 * excited
        ryd = [j for j, l in enumerate(levels) if l == 2]
        for x in range(len(ryd)):
            for y in range(x + 1, len(ryd)):
                diag += vjk[ryd[x], ryd[y]]
        H[i, i] = diag
        for j, l in enumerate(levels):
            if l == 0 and pulse.omega_01 != 0.0:
                H[i + 3**j, i] += c01
            elif l == 1 and pulse.omega_1r != 0.0:
                H[i + 3**j, i] += c1r
    H += np.tril(H, -1).conj().T
    return H


def ref_embed_dressed(N, idx):
    dim = 3**N
    vec = np.zeros(dim, dtype=complex)
    if idx.is_ground:
        vec[0] = 1.0
        return vec
    q = idx.q
    for i in range(dim):
        levels = _levels(i, N)
        n1 = levels.count(1)
        nr = levels.count(2)
        if n1 == q and nr == 0:
            vec[i] += idx.sign
        elif n1 == q - 1 and nr == 1:
            vec[i] += 1.0
    n_g = math.comb(N, q)
    n_e = N * math.comb(N - 1, q - 1)
    for i in range(dim):
        levels = _levels(i, N)
        if levels.count(2) == 0 and vec[i] != 0:
            vec[i] /= math.sqrt(2 * n_g)
        elif vec[i] != 0:
            vec[i] /= math.sqrt(2 * n_e)
    return vec


def ref_compare_spectrum(g, pulse):
    """The complex Hermitian diagonalization of the full Hamiltonian."""
    B = dressed_frame(g.N)
    w_full, V_full = np.linalg.eigh(build_full_hamiltonian(g, pulse))
    w_ladder, V_ladder = np.linalg.eigh(build_total(ModelParams(g.N, pulse.omega_1r), pulse))
    overlaps = np.abs(V_full.conj().T @ (B @ V_ladder)) ** 2
    return float(np.max(np.abs(w_full[np.argmax(overlaps, axis=0)] - w_ladder)))


def ref_compare_evolution(g, pulse, T, initial):
    B = dressed_frame(g.N)
    psi_full = _evolve(build_full_hamiltonian(g, pulse), T, B[:, initial.position()])
    e0 = np.zeros(2 * g.N + 1, dtype=complex)
    e0[initial.position()] = 1.0
    psi_dressed = B @ _evolve(build_total(ModelParams(g.N, pulse.omega_1r), pulse), T, e0)
    return float(abs(np.vdot(psi_full, psi_dressed)))


def random_geometry(N, seed, C6):
    rng = np.random.default_rng(seed)
    return Geometry(tuple(tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(N)),
                    1.0, 0.5, C6, 3)


fs_phases = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
fs_pulses = st.builds(
    PulseParams, st.just(1.0),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)), fs_phases,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)), fs_phases,
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-2.0, max_value=2.0)))
fs_geometries = st.builds(random_geometry, st.integers(min_value=1, max_value=5),
                          st.integers(min_value=0, max_value=2**32 - 1),
                          st.floats(min_value=1.0, max_value=1e6))


@given(g=fs_geometries, pulse=fs_pulses)
@settings(deadline=None, max_examples=40)
def test_full_hamiltonian_matches_reference_bit_for_bit(g, pulse):
    for phi_1r, phi_01 in ((pulse.phi_1r, pulse.phi_01), (0.0, 0.0), (math.pi, 0.5)):
        p = PulseParams(pulse.T, pulse.omega_1r, phi_1r, pulse.omega_01, phi_01, pulse.delta_01)
        assert build_full_hamiltonian(g, p).tobytes() == ref_build_full_hamiltonian(g, p).tobytes()


def test_embedding_matches_reference_bit_for_bit():
    for N in range(1, 6):
        frame = np.column_stack([ref_embed_dressed(N, idx) for idx in level_ordering(N)])
        assert dressed_frame(N).tobytes() == frame.tobytes()


@given(g=fs_geometries, pulse=fs_pulses)
@settings(deadline=None, max_examples=40)
def test_real_gauge_reproduces_full_hamiltonian(g, pulse):
    H0, d = _real_gauge(g, pulse)
    assert H0.dtype == np.float64
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-15
    H = build_full_hamiltonian(g, pulse)
    gauged = d[:, None] * H0 * d.conj()[None, :]
    assert np.max(np.abs(gauged - H)) <= 1e-13 * np.max(np.abs(H))


@pytest.mark.parametrize("g", [triangle(1e2), triangle(1e4), chain(4, 1e4),
                               chain(2, 1e3)], ids=["tri-1e2", "tri-1e4", "chain4", "chain2"])
def test_real_gauge_oracle_matches_complex_diagonalization(g):
    for pulse in (PulseParams(1.0, 1.0, 0.7, 1e-2, -2.1, 0.2),
                  PulseParams(1.0, 0.8, -2.9, 0.3, 1.3, -0.4),
                  PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.0)):
        assert abs(compare_spectrum(g, pulse) - ref_compare_spectrum(g, pulse)) <= 1e-10
        for initial in (DressedIndex.ground(), DressedIndex.branch(-1, 1),
                        DressedIndex.branch(+1, g.N)):
            got = compare_evolution(g, pulse, 10.0, initial)
            assert abs(got - ref_compare_evolution(g, pulse, 10.0, initial)) <= 1e-12

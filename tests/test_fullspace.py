"""Microscopic 3^N oracle versus the dressed-ladder model."""

import itertools
import math
import tracemalloc
from dataclasses import replace

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
    _assemble,
    _gauge_diagonal,
    _pair_energy,
    _real_eigensystem,
    _site_levels,
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


def test_geometry_report_uses_the_site_positions():
    # margins come from the closest and the farthest pair of actual sites
    g = Geometry(((0.0, 0.0, 0.0), (0.6, 0.0, 0.0), (0.6, 2.4, 3.2)), 2.0, 1.0, 1e4, 3)
    rep = validate_geometry(g)
    assert rep.collision_margin == pytest.approx(0.6 * 2.0 - 1.0)
    assert rep.blockade_margin == pytest.approx(rep.blockade_radius - math.sqrt(0.36 + 16.0))
    assert rep.ok
    # the nominal extent N^(1/d) * a = 2 would call both of these valid
    far = Geometry(((0.0, 0.0, 0.0), (100.0, 0.0, 0.0)), 1.0, 0.5, 1e4, 1)
    assert validate_geometry(far).collision_ok and not validate_geometry(far).blockade_ok
    near = Geometry(((0.0, 0.0, 0.0), (0.3, 0.0, 0.0)), 1.0, 0.5, 1e4, 1)
    assert validate_geometry(near).blockade_ok and not validate_geometry(near).collision_ok
    # one site has no pair
    single = validate_geometry(Geometry(((0.0, 0.0, 0.0),), 1.0, 0.5, 1e4, 1))
    assert single.ok and single.collision_margin is None
    assert single.blockade_margin == single.blockade_radius


@pytest.mark.parametrize("C6", [1e2, 1e3, 1e4])
def test_criterion_6_triangle_is_a_valid_geometry(C6):
    assert validate_geometry(triangle(C6)).ok


@pytest.mark.parametrize("seed", range(8))
def test_jittered_3x2_arrays_are_valid_geometries(seed):
    # 3 x 2 lattices with +/-0.1 site offsets, as in the oracle benchmark
    rng = np.random.default_rng(seed)
    sites = tuple((x + rng.uniform(-0.1, 0.1), y + rng.uniform(-0.1, 0.1), 0.0)
                  for y in range(2) for x in range(3))
    assert validate_geometry(Geometry(sites, 1.0, 0.5, 1e4, 2)).ok


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


def test_compare_evolution_rejects_level_above_site_count():
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.0)
    g = Geometry(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 1.0, 0.5, 1e4, 1)
    with pytest.raises(ValueError, match=r"level \+,3 needs at least 3 sites"):
        compare_evolution(g, pulse, 1.0, DressedIndex.branch(+1, 3))
    assert compare_evolution(g, pulse, 1.0, DressedIndex.branch(+1, 2)) >= 0.999


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
    w_ladder, V_ladder = np.linalg.eigh(build_total(ModelParams(g.N), pulse))
    overlaps = np.abs(V_full.conj().T @ (B @ V_ladder)) ** 2
    return float(np.max(np.abs(w_full[np.argmax(overlaps, axis=0)] - w_ladder)))


def ref_compare_evolution(g, pulse, T, initial):
    B = dressed_frame(g.N)
    psi_full = _evolve(build_full_hamiltonian(g, pulse), T, B[:, initial.position()])
    e0 = np.zeros(2 * g.N + 1, dtype=complex)
    e0[initial.position()] = 1.0
    psi_dressed = B @ _evolve(build_total(ModelParams(g.N), pulse), T, e0)
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
    H0 = _assemble(g, replace(pulse, phi_1r=0.0, phi_01=0.0), float)
    d = _gauge_diagonal(g, pulse)
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


@given(g=fs_geometries, pulse=fs_pulses)
@settings(deadline=None, max_examples=40)
def test_real_gauge_is_the_real_part_of_the_zero_phase_hamiltonian_bit_for_bit(g, pulse):
    zero = replace(pulse, phi_1r=0.0, phi_01=0.0)
    assert _assemble(g, zero, float).tobytes() == build_full_hamiltonian(g, zero).real.tobytes()


def test_real_assembly_needs_zero_phases():
    with pytest.raises(ValueError, match="phases zero"):
        _assemble(chain(2, 1e4), PulseParams(1.0, 1.0, 0.3), float)


def test_real_gauge_allocates_little_beyond_h0():
    g, pulse = random_geometry(6, 8, 1e4), PulseParams(1.0, 1.0, 0.4, 1e-2, 0.9, 0.1)
    zero = replace(pulse, phi_1r=0.0, phi_01=0.0)
    _site_levels(g.N)
    tracemalloc.start()
    try:
        H0 = _assemble(g, zero, float)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * H0.nbytes


def test_per_site_count_tables_are_cached_and_read_only():
    for table in (_site_levels, dressed_frame):
        first = table(4)
        assert table(4) is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1


GEOMETRY_FIELDS = dict(positions=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), a=1.0,
                       wavelength=0.5, C6=1e4, d=1)


@pytest.mark.parametrize("name,value", [
    ("positions", ((0.0, 0.0, 0.0), (math.nan, 0.0, 0.0))),
    ("positions", ((0.0, 0.0, 0.0), (0.0, math.inf, 0.0))),
    ("a", math.inf), ("wavelength", math.inf), ("C6", math.nan), ("C6", -math.inf),
    ("d", 1.5), ("d", True), ("d", "2"),
    ("a", "1.0"), ("a", True), ("wavelength", None), ("C6", "1e4"), ("C6", np.bool_(True)),
    ("positions", ((0.0, 0.0, 0.0), ("1", True, 0.0))),
    ("positions", ((0.0, 0.0, 0.0), (1.0, None, 0.0))),
    pytest.param("C6", 10**400, id="C6-beyond-float-range"),
    pytest.param("d", np.bool_(True), id="d-numpy-bool"),
    pytest.param("d", None, id="d-null"),
    pytest.param("d", math.inf, id="d-inf"),
    pytest.param("d", 10**400, id="d-beyond-float-range"),
    pytest.param("a", 10**400, id="a-beyond-float-range"),
])
def test_geometry_rejects_non_finite_and_non_integer_inputs(name, value):
    with pytest.raises(ValueError):
        Geometry(**{**GEOMETRY_FIELDS, name: value})
    doc = Geometry(**GEOMETRY_FIELDS).to_dict()
    doc["lambda" if name == "wavelength" else name] = value
    with pytest.raises(ValueError):
        Geometry.from_dict(doc)


def test_geometry_stores_its_numbers_as_floats():
    g = Geometry(((0, 0, 0), (np.int64(1), 0, 0)), 1, np.float32(0.5), np.int64(10**4), 1)
    assert {type(c) for p in g.positions for c in p} == {float}
    assert type(g.a) is type(g.wavelength) is type(g.C6) is float
    assert g == Geometry(**GEOMETRY_FIELDS)


@pytest.mark.parametrize("separation,message", [
    (0.0, "too close"), (1e-60, "too close"), (1e-52, "too close"),
    (1e100, "too far apart"),
])
def test_geometry_rejects_unrepresentable_site_distances(separation, message):
    positions = ((0.0, 0.0, 0.0), (0.0, separation, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=f"sites 0 and 1 are {message}"):
        Geometry(**{**GEOMETRY_FIELDS, "positions": positions})
    doc = {**Geometry(**GEOMETRY_FIELDS).to_dict(), "positions": positions}
    with pytest.raises(ValueError, match=f"sites 0 and 1 are {message}"):
        Geometry.from_dict(doc)


def test_geometry_accepts_close_sites_with_a_finite_interaction():
    g = Geometry(**{**GEOMETRY_FIELDS, "positions": ((0.0, 0.0, 0.0), (1e-40, 0.0, 0.0))})
    assert np.all(np.isfinite(build_full_hamiltonian(g, PulseParams(1.0))))


def test_pair_energy_is_the_full_hamiltonians_pair_shift():
    # the geometry check and the full Hamiltonian read one C6/r^6 per pair
    g = random_geometry(4, 3, 1e4)
    H = build_full_hamiltonian(g, PulseParams(1.0))
    sites = np.array(g.positions)
    for j, k in itertools.combinations(range(g.N), 2):
        both = 2 * 3**j + 2 * 3**k       # sites j and k in |r>, the rest in |0>
        assert H[both, both] == _pair_energy(g.C6, sites, j, k)


def test_geometry_dict_dimension_and_malformed_values():
    doc = {**Geometry(**GEOMETRY_FIELDS).to_dict(), "d": 1.0}
    g = Geometry.from_dict(doc)
    assert g == Geometry(**GEOMETRY_FIELDS) and type(g.d) is int
    with pytest.raises(ValueError):
        Geometry.from_dict({**doc, "a": [1.0]})


# --- the one-entry eigensystem cache shared by compare_spectrum and compare_evolution

@pytest.fixture
def eigh_calls(monkeypatch):
    """Empties the cache, then records the dimension of every eigh."""
    _real_eigensystem.cache_clear()
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return calls


def full_eighs(calls, N):
    """Number of the recorded eigh calls on a 3^N matrix."""
    return calls.count(3**N)


def oracle_pair(g, pulse, T=10.0, initial=DressedIndex.branch(-1, 1)):
    return compare_spectrum(g, pulse), compare_evolution(g, pulse, T, initial)


def test_spectrum_and_evolution_share_one_diagonalization(eigh_calls):
    oracle_pair(chain(4, 1e4), PulseParams(1.0, 1.0, 0.7, 1e-2, -1.1, 0.02))
    assert full_eighs(eigh_calls, 4) == 1


def test_recomputed_eigensystem_gives_the_same_bits(eigh_calls):
    g, pulse = chain(4, 1e4), PulseParams(1.0, 1.0, 0.7, 1e-2, -1.1, 0.02)
    first = oracle_pair(g, pulse)
    hit = oracle_pair(g, pulse)
    _real_eigensystem.cache_clear()
    again = oracle_pair(g, pulse)
    assert full_eighs(eigh_calls, 4) == 2
    assert [x.hex() for x in first] == [x.hex() for x in hit] == [x.hex() for x in again]


def test_phase_and_time_changes_reuse_the_eigensystem(eigh_calls):
    g = triangle(1e4)
    initials = (DressedIndex.ground(), DressedIndex.branch(+1, g.N))
    cases = [(PulseParams(1.0, 1.0, 0.7, 1e-2, -2.1, 0.2), 10.0),
             (PulseParams(7.0, 1.0, -2.9, 1e-2, 1.3, 0.2, "x"), 3.5)]
    refs = [(ref_compare_spectrum(g, pulse),
             [ref_compare_evolution(g, pulse, T, initial) for initial in initials])
            for pulse, T in cases]
    eigh_calls.clear()
    oracle_pair(g, PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.2))
    for (pulse, T), (spectrum, overlaps) in zip(cases, refs):
        assert abs(compare_spectrum(g, pulse) - spectrum) <= 1e-10
        for initial, overlap in zip(initials, overlaps):
            assert abs(compare_evolution(g, pulse, T, initial) - overlap) <= 1e-12
    assert full_eighs(eigh_calls, g.N) == 1


def test_geometry_and_hamiltonian_changes_miss(eigh_calls):
    # each case changes one key element of the one before; each pair is one miss
    pulse = PulseParams(1.0, 1.0, 0.0, 1e-2, 0.0, 0.2)
    cases = [(triangle(1e4), pulse)]
    for change in (dict(omega_1r=0.8), dict(omega_01=2e-2), dict(delta_01=-0.2)):
        pulse = replace(pulse, **change)
        cases.append((triangle(1e4), pulse))
    cases.append((triangle(1e3), pulse))
    for g, pulse in cases:
        oracle_pair(g, pulse)
    assert full_eighs(eigh_calls, 3) == len(cases)


def test_eigensystem_arrays_are_read_only(eigh_calls):
    w, P = _real_eigensystem(chain(3, 1e4), 1.0, 1e-2, 0.0)
    assert P.shape == (27, 7)       # projections onto the frame, not eigenvectors
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        P[0, 0] = 0.0


# --- the declared dimensionality bounds the span of the sites --------------

PLANAR = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, math.sqrt(3) / 2, 0.0))


@pytest.mark.parametrize("positions,d", [
    (PLANAR, 1),
    (PLANAR[:2] + ((2.0, 1e-6, 0.0),), 1),
    (PLANAR + ((0.5, 0.3, 0.8),), 2),
], ids=["triangle-in-1d", "bent-chain-in-1d", "tetrahedron-in-2d"])
def test_geometry_rejects_sites_spanning_more_than_d(positions, d):
    fields = {**GEOMETRY_FIELDS, "positions": positions, "d": d}
    with pytest.raises(ValueError, match=f"sites span {d + 1} dimensions, more than d = {d}"):
        Geometry(**fields)
    with pytest.raises(ValueError, match="more than d"):
        Geometry.from_dict({**Geometry(**{**fields, "d": 3}).to_dict(), "d": d})


@pytest.mark.parametrize("positions,d", [
    (((0.0, 0.0, 0.0),), 1),
    (tuple((float(i), 2.0 * i, -0.5 * i) for i in range(4)), 1),
    (PLANAR[:2] + ((2.0, 1e-12, 0.0),), 1),
    (PLANAR, 2), (PLANAR, 3),
    (tuple((math.cos(k), math.sin(k), 0.0) for k in range(5)), 2),
], ids=["single-site", "tilted-chain", "chain-within-tolerance", "triangle", "triangle-in-3d",
        "circle"])
def test_geometry_accepts_sites_within_d(positions, d):
    g = Geometry(**{**GEOMETRY_FIELDS, "positions": positions, "d": d})
    assert Geometry.from_dict(g.to_dict()) == g

"""Basis bookkeeping and Hamiltonian construction."""

import json
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydqudit import compiler, core, propagator
from rydqudit.cli import schedule_from_json, schedule_to_json
from rydqudit.compiler import (
    CompileOptions,
    compile_phase_gate,
    compile_readout,
    compile_state_prep,
    compile_unitary,
)
from rydqudit.core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    QuditState,
    _pair_bloch,
    build_bare,
    build_control,
    build_total,
    control_element,
    coupling_K,
    coupling_Q,
    hadamard_target,
    jc_energy,
    level_ordering,
    qudit_ordering_permutation,
    require_unitary,
    wrap_phase,
)
from rydqudit.metrics import DecayParams
from rydqudit.propagator import PulseSchedule, schedule_operator

# frozen from the rationalized forms sqrt(N-q)*(sqrt(q+1) +- sqrt(q))/2
COUPLING_ORACLES = {
    ("K", 7, 1): 2.956795678960466,
    ("K", 4, 3): 1.8660254037844386,
    ("K", 5, 2): 2.724744871391589,
    ("Q", 7, 1): 0.5073059361772884,
    ("Q", 2, 1): 0.20710678118654757,
    ("Q", 7, 6): 0.09813078414070642,
}

ns = st.integers(min_value=1, max_value=9)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_coupling_oracles():
    for (kind, N, q), value in COUPLING_ORACLES.items():
        fn = coupling_K if kind == "K" else coupling_Q
        assert fn(N, q) == pytest.approx(value, abs=1e-14)


def test_coupling_domain():
    with pytest.raises(ValueError):
        coupling_K(3, 0)
    with pytest.raises(ValueError):
        coupling_K(3, 3)
    with pytest.raises(ValueError):
        coupling_Q(1, 1)


@given(N=st.integers(min_value=2, max_value=12), data=st.data())
def test_coupling_product_identity(N, data):
    q = data.draw(st.integers(min_value=1, max_value=N - 1))
    assert coupling_K(N, q) * coupling_Q(N, q) == pytest.approx((N - q) / 4, rel=1e-12)


def test_level_ordering_positions():
    levels = level_ordering(3)
    assert [str(l) for l in levels] == ["g0", "-,1", "+,1", "-,2", "+,2", "-,3", "+,3"]
    assert [l.position() for l in levels] == list(range(7))


def test_position_rule_matches_dressed_index():
    for q in range(1, 13):
        for s in (+1, -1):
            assert core._position(s, q) == DressedIndex.branch(s, q).position()


@pytest.mark.parametrize("N", [True, False, 2.5, 3.0, "3", None, np.float64(2.0), 0, -1,
                               np.int64(0), np.bool_(True), math.nan, math.inf,
                               ModelParams.N_MAX + 1, 10**5, np.int64(10**5)])
def test_model_params_rejects_what_is_not_an_atom_count(N):
    with pytest.raises(ValueError, match="atom count"):
        ModelParams(N)


def assert_refused_before_sizing(build, N):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="atom count"):
            build(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("N", [0, -3, ModelParams.N_MAX + 1, 10**6, 10**12])
@pytest.mark.parametrize("build", [
    QuditState.uniform,
    lambda N: QuditState.basis_state(N, DressedIndex.ground()),
], ids=["uniform", "basis_state"])
def test_states_apply_the_atom_count_rule_before_sizing_anything(build, N):
    assert_refused_before_sizing(build, N)


@pytest.mark.parametrize("N", [ModelParams.N_MAX + 1, 100])
def test_state_from_a_vector_applies_the_atom_count_rule(N):
    with pytest.raises(ValueError, match=f"atom count N must be between 1 and 64, got {N}"):
        QuditState.from_vector(np.ones(2 * N + 1), normalize=True)
    assert QuditState.from_vector(np.ones(2 * ModelParams.N_MAX + 1), normalize=True).N == 64


# level_ordering builds one Python object per level, so its cases stay small
@pytest.mark.parametrize("N", [0, -3, ModelParams.N_MAX + 1, 10**5])
def test_level_ordering_applies_the_atom_count_rule(N):
    assert_refused_before_sizing(level_ordering, N)


@pytest.mark.parametrize("N", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_model_params_stores_an_integer_atom_count(N):
    params = ModelParams(N)
    assert type(params.N) is int
    assert params == ModelParams(3) and params.dim == 7


def test_dressed_index_validation():
    with pytest.raises(ValueError):
        DressedIndex(0, 1)
    with pytest.raises(ValueError):
        DressedIndex(2, 0)


@pytest.mark.parametrize("q,sign", [
    (1.5, 1), (1.0, -1), (True, -1), (1, True), (0, False), (np.float64(2.0), 1),
    ("1", 1), (None, 0), (2, -1.0), (np.bool_(True), 1), (math.inf, 1), (1, math.nan),
    (1, np.bool_(False)),
])
def test_dressed_index_takes_integers_only(q, sign):
    with pytest.raises(ValueError, match="must be an integer"):
        DressedIndex(q, sign)


def test_dressed_index_stores_integers():
    for q, sign in ((np.int64(2), np.int32(-1)), (np.uint8(1), np.int8(1)), (0, np.int64(0))):
        idx = DressedIndex(q, sign)
        assert type(idx.q) is int and type(idx.sign) is int
        assert idx == DressedIndex(int(q), int(sign))
    assert str(DressedIndex.branch(np.int64(1), np.int64(3))) == "+,3"


@given(x=phases)
def test_wrap_phase_range(x):
    w = wrap_phase(x)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


@given(phi=phases)
def test_pulse_phases_stored_wrapped(phi):
    p = PulseParams(1.0, 1.0, phi, 0.5, phi + 1.0, 0.0)
    assert -math.pi < p.phi_1r <= math.pi
    assert -math.pi < p.phi_01 <= math.pi


def test_pulse_rejects_negative_duration():
    with pytest.raises(ValueError):
        PulseParams(-0.1)
    with pytest.raises(ValueError):
        PulseParams(float("nan"))


@pytest.mark.parametrize("label", [3, None, b"x", ["x"]], ids=["int", "none", "bytes", "list"])
def test_pulse_label_must_be_a_string(label):
    # the one label check: the schedule writer quotes any str and the reader
    # hands every label to this constructor
    with pytest.raises(ValueError, match="pulse field label must be a string"):
        PulseParams(1.0, label=label)
    with pytest.raises(ValueError, match="pulse field label must be a string"):
        replace(PulseParams(1.0, label="x"), label=label)


def test_replace_runs_the_pulse_constructor():
    p = PulseParams(1.0, 1.0, 0.5, 0.1, 0.2, 0.3, "x")
    with pytest.raises(ValueError, match="pulse duration must be >= 0, got -1.0"):
        replace(p, T=-1.0)
    with pytest.raises(ValueError, match="pulse field delta_01 must be a number"):
        replace(p, delta_01="0")
    wrapped = replace(p, phi_01=4 * math.pi)
    assert wrapped.phi_01 == wrap_phase(4 * math.pi) and -math.pi < wrapped.phi_01 <= math.pi
    assert wrapped == PulseParams(1.0, 1.0, 0.5, 0.1, wrapped.phi_01, 0.3, "x")


def test_pulse_survives_a_pickle_round_trip():
    # scan's process pool ships pulses between processes
    p = PulseParams(np.float32(2.5), 1, -4.0, 0.25, math.pi, -0.0, "phase:a")
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert [type(getattr(back, name)) for name in PULSE] == [float] * 6
    assert repr(back) == repr(p)


PULSE = dict(T=1.0, omega_1r=1.0, phi_1r=0.0, omega_01=0.1, phi_01=0.0, delta_01=0.0)
NOT_FINITE_NUMBERS = {"bool": True, "numpy-bool": np.bool_(True), "string": "1", "null": None,
                      "huge-integer": 10**400, "nan": math.nan, "inf": math.inf,
                      "-inf": -math.inf}
NUMBER_FIELDS = {
    **{f"pulse-{name}": (lambda v, name=name: PulseParams(**{**PULSE, name: v}),
                         f"pulse field {name}") for name in PULSE},
    "decay-gamma_r": (DecayParams, "gamma_r"),
    "compile-omega_01": (lambda v: CompileOptions(omega_01=v), "omega_01"),
}


@pytest.mark.parametrize("value", NOT_FINITE_NUMBERS.values(), ids=NOT_FINITE_NUMBERS.keys())
@pytest.mark.parametrize("build,field", NUMBER_FIELDS.values(), ids=NUMBER_FIELDS.keys())
def test_number_fields_reject_what_is_not_a_finite_number(build, field, value):
    with pytest.raises(ValueError, match=field):
        build(value)


def pulse_number_types(pulses) -> set:
    return {type(getattr(p, name)) for p in pulses for name in PULSE}


def test_pulse_fields_are_built_in_floats():
    for kind in (np.float32, np.float64, int):
        assert pulse_number_types([PulseParams(*map(kind, (2, 1, 3, 0, -1, 1)))]) == {float}
    target = QuditState.uniform(3)
    plain = CompileOptions(omega_01=1e-2)
    tilde = CompileOptions(omega_01=1e-2, fold_variant="tilde")
    compiled = {
        "prep": compile_state_prep(target, plain),
        "phase plain": compile_phase_gate(target, 1.0, plain),
        "phase tilde": compile_phase_gate(target, 1.0, tilde),
        "hadamard": compile_unitary(hadamard_target(3), plain),
        "readout": compile_readout(target, plain),
    }
    for kind, schedule in compiled.items():
        assert pulse_number_types(schedule.pulses) == {float}, kind
    doc = json.loads(schedule_to_json(compiled["prep"]))
    doc["pulses"][0].update(T=3, omega_1r=1, phi_1r=0, omega_01=0, phi_01=2, delta_01=-1)
    assert pulse_number_types(schedule_from_json(json.dumps(doc)).pulses) == {float}
    # a float32 pulse writes, and reads back as itself
    single = PulseSchedule(ModelParams(1), (PulseParams(np.float32(0.5),
                                                        omega_01=np.float32(0.25)),))
    assert schedule_from_json(schedule_to_json(single)) == single


def test_pulse_rejects_negative_amplitudes():
    # a negative dressing amplitude must not pass as "dressing laser off"
    with pytest.raises(ValueError, match="omega_1r"):
        PulseParams(1.0, -1.0, 0.0, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="omega_01"):
        PulseParams(1.0, 1.0, 0.0, -0.1, 0.0, 0.0)
    off = build_total(ModelParams(3), PulseParams(1.0, 0.0, 0.0, 0.1, 0.0, 0.0))
    assert np.array_equal(off, build_control(ModelParams(3), 0.1, 0.0, 0.0))


@given(N=ns, phi=phases)
def test_bare_hermitian(N, phi):
    H = build_bare(ModelParams(N), 1.0, phi)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12


@given(N=ns, phi=phases, delta=phases)
def test_control_hermitian(N, phi, delta):
    H = build_control(ModelParams(N), 0.7, phi, delta)
    assert np.max(np.abs(H - H.conj().T)) <= 1e-12


@given(N=ns, flip=st.booleans())
def test_bare_diagonal_matches_ladder_energies(N, flip):
    phi = math.pi if flip else 0.0
    H = build_bare(ModelParams(N), 1.0, phi)
    assert np.max(np.abs(H - np.diag(np.diag(H)))) <= 1e-12
    for q in range(1, N + 1):
        for s in (-1, 1):
            pos = DressedIndex.branch(s, q).position()
            assert H[pos, pos].real == pytest.approx(jc_energy(q, s, 1.0, phi), abs=1e-14)


def test_jc_energy_oracle():
    assert jc_energy(3, 1, 1.0, 0.0) == pytest.approx(0.8660254037844386, abs=1e-14)
    assert jc_energy(3, 1, 1.0, math.pi) == pytest.approx(-0.8660254037844386, abs=1e-14)
    with pytest.raises(ValueError):
        jc_energy(1, 1, 1.0, 0.3)


@given(N=ns, phi=phases, delta=phases)
def test_control_couples_only_adjacent_excitation_numbers(N, phi, delta):
    H = build_control(ModelParams(N), 0.9, phi, delta)
    for a in level_ordering(N):
        for b in level_ordering(N):
            if abs(a.q - b.q) != 1 and a != b:
                assert abs(H[a.position(), b.position()]) <= 1e-12


def test_control_matrix_elements_against_coupling_oracles():
    N = 7
    H = build_control(ModelParams(N), 1.0, 0.0, 0.0)
    up = DressedIndex.branch(+1, 2).position()
    same = DressedIndex.branch(+1, 1).position()
    cross = DressedIndex.branch(-1, 1).position()
    assert H[up, same].real == pytest.approx(0.5 * COUPLING_ORACLES[("K", 7, 1)], abs=1e-12)
    assert H[up, cross].real == pytest.approx(-0.5 * COUPLING_ORACLES[("Q", 7, 1)], abs=1e-12)
    g = DressedIndex.ground().position()
    plus1 = DressedIndex.branch(+1, 1).position()
    minus1 = DressedIndex.branch(-1, 1).position()
    assert H[plus1, g].real == pytest.approx(0.5 * math.sqrt(N / 2), abs=1e-12)
    assert H[minus1, g].real == pytest.approx(-0.5 * math.sqrt(N / 2), abs=1e-12)


def test_detuning_diagonal_scales_with_q():
    N = 4
    H = build_control(ModelParams(N), 0.0, 0.0, 0.3)
    for q in range(1, N + 1):
        for s in (-1, 1):
            pos = DressedIndex.branch(s, q).position()
            assert H[pos, pos].real == pytest.approx(-0.3 * q, abs=1e-14)
    assert H[0, 0] == 0.0


@given(N=st.integers(min_value=1, max_value=6), seed=st.integers(0, 1000))
def test_bloch_vector_unit_norm(N, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    state = QuditState.from_vector(v, normalize=True)
    u, weight = _pair_bloch(state.amplitudes, DressedIndex.branch(-1, 1).position(),
                            DressedIndex.branch(+1, 1).position())
    if weight > 0:
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_bloch_vector_orientation():
    state = QuditState.from_vector([0.0, 1.0, 0.0], normalize=True)
    u, w = _pair_bloch(state.amplitudes, DressedIndex.branch(-1, 1).position(),
                       DressedIndex.branch(+1, 1).position())
    assert w == pytest.approx(1.0)
    assert u == pytest.approx([0.0, 0.0, 1.0])


def test_basis_state_rejects_level_above_atom_count():
    with pytest.raises(ValueError, match=r"level \+,3 needs at least 3 sites, got N=2"):
        QuditState.basis_state(2, DressedIndex.branch(+1, 3))
    assert QuditState.basis_state(2, DressedIndex.branch(+1, 2)).amplitudes[4] == 1.0


def test_state_norm_contract():
    with pytest.raises(ContractViolation):
        QuditState(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        QuditState.from_vector([1.0, 0.0])


@given(N=st.integers(min_value=1, max_value=8))
@settings(deadline=None)
def test_hadamard_unitary_fourth_power_identity(N):
    U = hadamard_target(N)
    require_unitary(U)
    U4 = np.linalg.matrix_power(U, 4)
    phase = U4[0, 0] / abs(U4[0, 0])
    assert np.max(np.abs(U4 / phase - np.eye(2 * N))) <= 1e-10


def test_qudit_ordering_permutation_small():
    # N=2: |q_1>=|-,2>, |q_2>=|-,1>, |q_3>=|+,1>, |q_4>=|+,2>
    assert list(qudit_ordering_permutation(2)) == [2, 0, 1, 3]


def test_require_unitary_rejects():
    with pytest.raises(ContractViolation):
        require_unitary(np.array([[1.0, 0.0], [0.1, 1.0]]))


def test_numeric_contracts_reject_nan():
    with pytest.raises(ContractViolation):
        QuditState(np.array([math.nan, 1.0, 0.0]))
    with pytest.raises(ContractViolation):
        require_unitary(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_wrap_phase_rejects_nan_and_infinities():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_phase(x)


@given(N=ns, phi1=phases, phi2=phases, delta=phases)
def test_build_total_is_sum_of_parts(N, phi1, phi2, delta):
    params = ModelParams(N)
    pulse = PulseParams(1.0, 1.0, phi1, 0.4, phi2, delta)
    expected = build_bare(params, 1.0, phi1) + build_control(params, 0.4, wrap_phase(phi2), delta)
    assert np.max(np.abs(build_total(params, pulse) - expected)) <= 1e-12


# --- reference builders: the straightforward per-pair loops ----------------
#
# The library loops over canonical positions and a cached per-N table of
# control couplings; these loops over DressedIndex pairs, which compute every
# coupling anew, are the definition it must reproduce bit for bit.

def _ref_pair_block(H, up, down, nx, ny, nz, scale):
    H[up, up] += scale * nz
    H[down, down] -= scale * nz
    H[up, down] += scale * (nx - 1j * ny)
    H[down, up] += scale * (nx + 1j * ny)


def ref_build_bare(params, omega_1r, phi_1r):
    H = np.zeros((params.dim, params.dim), dtype=complex)
    nx, ny, nz = 0.0, -math.sin(phi_1r), math.cos(phi_1r)
    for q in range(1, params.N + 1):
        up = DressedIndex.branch(+1, q).position()
        down = DressedIndex.branch(-1, q).position()
        _ref_pair_block(H, up, down, nx, ny, nz, omega_1r * math.sqrt(q) / 2.0)
    return H


def ref_build_control(params, omega_01, phi_01, delta_01):
    if omega_01 < 0:
        raise ValueError(f"omega_01 must be >= 0, got {omega_01}")
    N, dim = params.N, params.dim
    H = np.zeros((dim, dim), dtype=complex)
    nx, ny = math.cos(phi_01), math.sin(phi_01)
    half = omega_01 / 2.0
    for s in (+1, -1):
        for q in range(1, N):
            up = DressedIndex.branch(s, q + 1).position()
            _ref_pair_block(H, up, DressedIndex.branch(s, q).position(),
                            nx, ny, 0.0, half * coupling_K(N, q))
            _ref_pair_block(H, up, DressedIndex.branch(-s, q).position(),
                            nx, ny, 0.0, -half * coupling_Q(N, q))
        _ref_pair_block(H, DressedIndex.branch(s, 1).position(), 0,
                        nx, ny, 0.0, s * half * math.sqrt(N / 2.0))
    for s in (+1, -1):
        for q in range(1, N + 1):
            p = DressedIndex.branch(s, q).position()
            H[p, p] -= delta_01 * q
    return H


def ref_control_element(params, omega_01, phi_01, row, col):
    return ref_build_control(params, omega_01, phi_01, 0.0)[row, col]


amplitudes = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


@given(N=st.integers(min_value=1, max_value=12), phi_1r=phases, phi_01=phases,
       delta=phases, omega_01=amplitudes,
       omega_1r=st.floats(min_value=1e-3, max_value=3.0))
@settings(deadline=None, max_examples=150)
def test_template_builders_match_reference_bit_for_bit(N, phi_1r, phi_01, delta,
                                                       omega_01, omega_1r):
    params = ModelParams(N)
    for phi in (phi_1r, 0.0, math.pi / 2, math.pi):
        assert (build_bare(params, omega_1r, phi).tobytes()
                == ref_build_bare(params, omega_1r, phi).tobytes())
    for phi in (phi_01, 0.0, 0.5, math.pi):
        for d in (delta, 0.0):
            got = build_control(params, omega_01, phi, d)
            assert got.tobytes() == ref_build_control(params, omega_01, phi, d).tobytes()
    pulse = PulseParams(1.0, omega_1r, phi_1r, omega_01, phi_01, delta)
    expected = (ref_build_bare(params, omega_1r, pulse.phi_1r)
                + ref_build_control(params, omega_01, pulse.phi_01, delta))
    assert build_total(params, pulse).tobytes() == expected.tobytes()


@given(N=st.integers(min_value=1, max_value=12), phi_01=phases, omega_01=amplitudes)
@settings(deadline=None, max_examples=40)
def test_control_element_matches_reference(N, phi_01, omega_01):
    params = ModelParams(N)
    for phi in (phi_01, 0.0, 0.5):
        H = ref_build_control(params, omega_01, phi, 0.0)
        for row in range(params.dim):
            for col in range(params.dim):
                if row != col:
                    got = control_element(params, omega_01, phi, row, col)
                    assert type(got) is type(H[row, col])
                    assert got.tobytes() == H[row, col].tobytes()


def test_templates_cannot_be_poisoned():
    params = ModelParams(4)
    for H in (build_bare(params, 1.0, 0.3), build_control(params, 0.2, 0.4, 0.1)):
        H[...] = 7.0
    assert build_bare(params, 1.0, 0.3).tobytes() == ref_build_bare(params, 1.0, 0.3).tobytes()
    assert (build_control(params, 0.2, 0.4, 0.1).tobytes()
            == ref_build_control(params, 0.2, 0.4, 0.1).tobytes())
    couplings = core._couplings(params.N)
    with pytest.raises(TypeError):
        couplings[2, 0] = 0.0
    with pytest.raises(TypeError):
        couplings[9, 9] = 1.0


# every cache that holds bits built by the builders, so that each pass of
# _schedules builds its schedules and operators anew
_COMPILER_CACHES = (core._diagonal, compiler._doublet_senses, compiler._pair_coupling,
                    compiler._phase_calibration, compiler._shaped_fold,
                    propagator._key_eigensystem)


def _schedules():
    """JSON text and realized operator bytes of a fixed set of compilations."""
    for cached in _COMPILER_CACHES:
        cached.cache_clear()
    rng = np.random.default_rng(5)
    amp = np.zeros(11, dtype=complex)
    amp[1:] = rng.normal(size=10) + 1j * rng.normal(size=10)
    prep_target = QuditState.from_vector(amp, normalize=True)
    opts = CompileOptions(omega_01=1e-2)
    schedules = [
        compile_unitary(hadamard_target(3), opts),
        compile_unitary(hadamard_target(3), CompileOptions(omega_01=1e-2, fold_variant="tilde")),
        compile_state_prep(prep_target, opts),
        compile_readout(QuditState.uniform(4), opts),
    ]
    return [(schedule_to_json(s), schedule_operator(s).tobytes()) for s in schedules]


def test_schedules_byte_identical_to_reference_builders(monkeypatch):
    real = _schedules()
    with monkeypatch.context() as m:
        m.setattr(core, "build_bare", ref_build_bare)
        m.setattr(core, "build_control", ref_build_control)
        m.setattr(compiler, "build_control", ref_build_control)
        m.setattr(compiler, "control_element", ref_control_element)
        reference = _schedules()
    # the reference pass filled every cache anew, so no bits of the first
    # pass reached its schedules or operators
    misses = {cached.__name__: cached.cache_info().misses for cached in _COMPILER_CACHES}
    for cached in _COMPILER_CACHES:
        cached.cache_clear()
    assert all(misses.values()), misses
    assert len(real) == len(reference) == 4
    for (text, op), (ref_text, ref_op) in zip(real, reference):
        assert text.encode() == ref_text.encode()
        assert op == ref_op

"""Schedule synthesis: effective-model exactness, inversion, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from rydqudit.core import (
    _diagonal,
    _pair_bloch,
    _position,
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    QuditState,
    build_total,
    control_element,
    hadamard_target,
    wrap_phase,
)
from rydqudit import compiler
from rydqudit.compiler import (
    _emit_pair_rotation,
    _fold_levels,
    _invert_pulse,
    _pair_hamiltonian,
    _pair_step,
    _pulse_kind,
    CompileOptions,
    compile_full_control,
    compile_phase_gate,
    compile_readout,
    compile_state_prep,
    compile_unitary,
    effective_hamiltonian,
    invert_full_control,
    measure_projection,
    replay_effective,
    unitary_eigensystem,
)
from rydqudit.metrics import infidelity
from rydqudit.propagator import (
    PulseSchedule,
    _evolve,
    _key_eigensystem,
    extract_gate,
    run_schedule,
    schedule_operator,
)

OPTS = CompileOptions(omega_01=1e-3)
MINUS1 = DressedIndex.branch(-1, 1)

# frozen resonance detunings s*(sqrt(q+1)+sqrt(q))/2 and the shared
# phase-pulse duration sqrt(2)*pi/(sqrt(N)*omega_01)
FOLD_DELTA_PLUS_Q1 = 1.2071067811865475
FOLD_DELTA_MINUS_Q2 = -1.5731321849709863
PHASE_T_N7_R1E3 = 1679.2519083627137


def random_qudit_state(N, seed, ground=0.0):
    rng = np.random.default_rng((seed, N))
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    v[0] = ground
    return QuditState.from_vector(v, normalize=True)


def fold(state, s, q):
    """One fold of a single state, as full control emits it: its pulses and
    the advanced amplitude vector."""
    (pulses,), (vec,) = _emit_pair_rotation(state.amplitudes[None], *_fold_levels(s, q),
                                            f"fold({'+' if s > 0 else '-'},q={q})", OPTS,
                                            ModelParams(state.N))
    return pulses, vec


def test_fold_resonance_oracle():
    state = random_qudit_state(2, 0)
    pulses, _ = fold(state, +1, 1)
    assert len(pulses) == 1
    assert pulses[0].delta_01 == pytest.approx(FOLD_DELTA_PLUS_Q1, abs=1e-12)
    assert pulses[0].label == "fold(+,q=1)"
    state3 = random_qudit_state(3, 0)
    pulses, _ = fold(state3, -1, 2)
    assert pulses[0].delta_01 == pytest.approx(FOLD_DELTA_MINUS_Q2, abs=1e-12)


def test_phase_pulse_duration_oracle():
    schedule = compile_phase_gate(QuditState.uniform(7), math.pi / 2, OPTS)
    phase_pulses = [p for p in schedule.pulses if p.label.startswith("phase:")]
    assert len(phase_pulses) == 2
    for p in phase_pulses:
        assert p.T == pytest.approx(PHASE_T_N7_R1E3, rel=1e-12)
    assert phase_pulses[0].delta_01 == pytest.approx(-0.5, abs=1e-12)
    assert phase_pulses[1].delta_01 == pytest.approx(0.5, abs=1e-12)


def test_fold_pair_validation():
    with pytest.raises(ValueError):
        _pulse_kind("fold(+,q=0)", 2)
    with pytest.raises(ValueError):
        CompileOptions(omega_01=0.0)
    with pytest.raises(ValueError):
        CompileOptions(fold_variant="other")


def emitted_label_pairs(N):
    """Every label the compiler emits at N, with its (target, other) pair
    read off the public level type, or None for the bare doublet pulses."""
    def pos(s, q):
        return DressedIndex.branch(s, q).position()

    pairs = {"phase:a": (MINUS1.position(), 0), "phase:b": (MINUS1.position(), 0),
             "doublet:z": None, "doublet:y": None}
    for s, sign in ((+1, "+"), (-1, "-")):
        for q in range(1, N):
            fold = (pos(-s, q), pos(s, q + 1))
            for label in (f"fold({sign},q={q})", f"fold~({sign},q={q}):a",
                          f"fold~({sign},q={q}):b", f"fold({sign},q={q}):shaped"):
                pairs[label] = fold
        for label in (f"g0rot({sign})", f"g0rot~({sign}):a", f"g0rot~({sign}):b"):
            pairs[label] = (DressedIndex.ground().position(), pos(s, 1))
    return {**pairs, **{"inv:" + label: pair for label, pair in pairs.items()}}


@pytest.mark.parametrize("N", [1, 2, 3, 9, 12])
def test_pulse_kind_pairs_match_dressed_index_positions(N):
    labels = emitted_label_pairs(N)
    assert len(labels) == 2 * (4 + 8 * (N - 1) + 6)
    for label, pair in labels.items():
        assert _pulse_kind(label, N)[0] == pair, label
    assert _pulse_kind("fold(+,q=2)", 3)[0] == (
        DressedIndex.branch(-1, 2).position(), DressedIndex.branch(+1, 3).position())
    assert _pulse_kind("inv:g0rot(-)", 3)[0] == (0, DressedIndex.branch(-1, 1).position())
    with pytest.raises(ValueError):
        _pulse_kind("mystery", N)
    with pytest.raises(ValueError):
        _pulse_kind(f"fold(+,q={N})", N)


@pytest.mark.parametrize("N", [2, 9])
def test_pulse_kind_raises_on_every_call(N):
    # the cache keeps results only, so a bad label is parsed and refused anew
    _pulse_kind.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="does not identify a resonant pair"):
            _pulse_kind("mystery", N)
        with pytest.raises(ValueError, match=f"q={N} out of range"):
            _pulse_kind(f"fold(+,q={N})", N)
    assert _pulse_kind.cache_info().currsize == 0
    assert _pulse_kind("inv:fold~(-,q=1):b", N) is _pulse_kind("inv:fold~(-,q=1):b", N)


def _per_call_pair_axis(h0, h1, u):
    """_pair_axis as it read the azimuth offset and sense off h0 and h1 on every call."""
    a0 = math.atan2(-h0.imag, h0.real)
    sense = 1 if wrap_phase(math.atan2(-h1.imag, h1.real) - a0) > 0 else -1
    theta = math.acos(max(-1.0, min(1.0, float(u[2]))))
    beta = math.atan2(float(u[1]), float(u[0]))
    return (a0, sense), (wrap_phase(sense * wrap_phase(beta - math.pi / 2 - a0)), theta)


@pytest.mark.parametrize("N", [2, 3, 9])
@pytest.mark.parametrize("ratio", [1e-3, 1e-2])
def test_pair_coupling_caches_the_per_call_axis_constants(N, ratio):
    params = ModelParams(N)
    rng = np.random.default_rng((23, N))
    bloch = [_pair_bloch(rng.normal(size=2) + 1j * rng.normal(size=2), 0, 1)[0]
             for _ in range(8)] + [(0.0, 0.0, 1.0), (1e-17, -2e-17, -1.0)]
    pairs = [_fold_levels(s, q)[0] for q in range(1, N) for s in (+1, -1)]
    pairs += [(0, _position(s, 1)) for s in (+1, -1)]
    for pair in pairs:
        h0 = control_element(params, ratio, 0.0, *pair)
        h1 = control_element(params, ratio, 0.5, *pair)
        cached_h0, rate, a0, sense = compiler._pair_coupling(N, ratio, pair)
        assert cached_h0 == h0 and rate == 2.0 * float(abs(h0))
        assert type(a0) is float and type(sense) is int
        for u in bloch:
            constants, axis = _per_call_pair_axis(h0, h1, u)
            assert (a0, sense) == constants
            assert compiler._pair_axis(a0, sense, u) == axis


def test_schedules_are_compiled_without_dressed_index_objects(monkeypatch):
    # levels inside a compile are canonical positions; the public type is
    # for callers only
    N = 3
    U = hadamard_target(N)
    opts = CompileOptions(omega_01=1e-2)
    target, state = random_qudit_state(N, 5), random_qudit_state(N, 6)

    def compile_all():
        compile_unitary(U, opts)
        compile_state_prep(target, opts)
        return measure_projection(state, target, opts)

    warm = compile_all()
    calls = []
    original = DressedIndex.__post_init__

    def counting(self):
        calls.append((self.q, self.sign))
        original(self)

    monkeypatch.setattr(DressedIndex, "__post_init__", counting)
    assert compile_all() == warm
    assert calls == []


def test_measure_projection_builds_no_readout_pulses(monkeypatch):
    # the readout's folds are propagated from their records, not from pulses
    N = 4
    opts = CompileOptions(omega_01=1e-2)
    target, state = random_qudit_state(N, 7), random_qudit_state(N, 8)
    warm = measure_projection(state, target, opts)
    labels = []
    original = PulseParams.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        labels.append(self.label)

    monkeypatch.setattr(PulseParams, "__init__", counting)
    assert measure_projection(state, target, opts) == warm
    assert not any(label.endswith(":shaped") for label in labels)
    compile_readout(target, opts)       # which the counter does see
    assert any(label.endswith(":shaped") for label in labels)


def test_warm_measure_projection_moves_one_state_and_diagonalises_nothing(monkeypatch):
    # the folds act on the state vector and the closing doublet reads the
    # cached key eigensystems, so a warm measurement needs no eigh
    N = 5
    opts = CompileOptions(omega_01=1e-2)
    target, state = random_qudit_state(N, 7), random_qudit_state(N, 8)
    warm = measure_projection(state, target, opts)
    eigh_calls, operand_ndims = [], []
    eigh, apply_fold = np.linalg.eigh, compiler._FoldPropagator.__call__

    def counting_eigh(*args, **kwargs):
        eigh_calls.append(1)
        return eigh(*args, **kwargs)

    def recording_fold(self, phi_01, T, x):
        operand_ndims.append(np.ndim(x))
        return apply_fold(self, phi_01, T, x)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(compiler._FoldPropagator, "__call__", recording_fold)
    assert measure_projection(state, target, opts) == warm
    assert eigh_calls == []
    assert operand_ndims and set(operand_ndims) == {1}


def test_measure_projection_rejects_a_state_of_another_atom_count():
    with pytest.raises(ValueError, match="dimensions differ"):
        measure_projection(random_qudit_state(2, 0), random_qudit_state(3, 0), OPTS)


def _advance_cases(N, pair, batch):
    """Seeded unnormalized rows of width 2N+1 at scales 1e-3 to 1e3, and one
    step of pulses per row resonant on pair (None: bare doublet pulses)."""
    rng = np.random.default_rng((29, N, batch))
    shape = (batch, 2 * N + 1)
    vecs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * 10.0 ** rng.uniform(-3, 3, size=(batch, 1))
    if pair is None:
        pulses = [(PulseParams(rng.uniform(0.1, 5.0), 1.0, rng.choice([math.pi, math.pi / 2]),
                               label="doublet:z"),) for _ in range(batch)]
    else:
        pulses = [(PulseParams(rng.uniform(1.0, 1e3), 1.0, 0.0, 1e-2,
                               rng.uniform(-math.pi, math.pi), 0.5, label="g0rot(+)"),)
                  for _ in range(batch)]
    return vecs, pulses


@pytest.mark.parametrize("N", [1, 9, 12])   # widths 3, 19 and 25
@pytest.mark.parametrize("resonant", [True, False])
def test_advance_rows_are_normalized_as_np_linalg_norm_in_any_batch(N, resonant):
    params = ModelParams(N)
    pair = (0, _position(+1, 1)) if resonant else None
    for batch in (1, 2, 18):
        vecs, pulses = _advance_cases(N, pair, batch)
        normalized = compiler._advance(vecs, params, [()] * batch, pair)
        stepped = compiler._advance(vecs, params, pulses, pair)
        for k, vec in enumerate(vecs):
            assert normalized[k].tobytes() == (vec / np.linalg.norm(vec)).tobytes()
            alone = compiler._advance(vecs[k:k + 1], params, pulses[k:k + 1], pair)[0]
            assert stepped[k].tobytes() == alone.tobytes()
            if resonant:
                raw = _pair_step(vecs[k:k + 1], params, pulses[k], pair)[0]
                assert alone.tobytes() == (raw / np.linalg.norm(raw)).tobytes()


def test_readout_fold_turns_the_other_way_when_its_edges_overshoot():
    # the first fold (+, q=2) of N = 3 must turn its pair by less than its
    # edges alone turn it, though by more than the skip threshold, so it
    # goes round the other way with a flat top longer than a half turn
    N = 3
    opts = CompileOptions(omega_01=1e-2)
    first = compiler._shaped_fold(ModelParams(N), opts.omega_01, +1, 2)
    target_level, other_level = first.pair
    amp = np.zeros(2 * N + 1, dtype=complex)
    amp[target_level] = 1.0
    amp[other_level] = 0.3 * first.edge_angle / 2
    amp[MINUS1.position()] = 0.5
    target = QuditState.from_vector(amp, normalize=True)
    (fold, _, T), *_ = compiler._readout(target, opts)[0]
    rate = compiler._pair_coupling(N, opts.omega_01, first.pair)[1]
    assert fold is first and T > math.pi / rate
    state = random_qudit_state(N, 0)
    p = measure_projection(state, target, opts)
    assert p == pytest.approx(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2, abs=1e-3)
    final = schedule_operator(compile_readout(target, opts)) @ state.amplitudes
    assert p == pytest.approx(abs(final[MINUS1.position()]) ** 2, abs=1e-9)


def test_readout_builds_each_fold_propagator_on_first_use():
    # compile_readout evolves the effective model only, measure_projection the
    # full one as well, and a fold that emits nothing needs neither
    N = 4
    opts = CompileOptions(omega_01=1e-2)
    target, state = random_qudit_state(N, 7), random_qudit_state(N, 8)
    compiler._shaped_fold.cache_clear()
    compile_readout(QuditState.basis_state(N, DressedIndex.branch(-1, 1)), opts)
    idle = [compiler._shaped_fold(ModelParams(N), opts.omega_01, s, q)
            for s in (+1, -1) for q in range(1, N)]
    assert not any({"full", "effective"} & set(vars(fold)) for fold in idle)
    compile_readout(target, opts)
    folds = [fold for fold, _, _ in compiler._readout(target, opts)[0]]
    assert folds and not any("full" in vars(fold) for fold in folds)
    assert all("effective" in vars(fold) for fold in folds)
    measure_projection(state, target, opts)
    assert all("full" in vars(fold) for fold in folds)


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("seed", range(4))
def test_full_control_effective_exactness(variant, seed):
    N = 4
    opts = CompileOptions(omega_01=1e-3, fold_variant=variant)
    target = random_qudit_state(N, seed)
    schedule = compile_full_control(target, opts)
    out = replay_effective(target, schedule)
    assert abs(out.amplitudes[MINUS1.position()]) ** 2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_fold_stage_monotonicity(seed):
    # after the folds the effective state lives on the q=1 doublet only
    N = 5
    eff = random_qudit_state(N, seed)
    for level in range(N, 1, -1):
        for s in (+1, -1):
            eff = QuditState(fold(eff, s, level - 1)[1])
    doublet = {MINUS1.position(), DressedIndex.branch(+1, 1).position()}
    for pos in range(2 * N + 1):
        if pos not in doublet:
            assert abs(eff.amplitudes[pos]) ** 2 <= 1e-10


def test_full_control_hfull_reaches_ground():
    target = random_qudit_state(4, 2)
    schedule = compile_full_control(target, OPTS, space="Hfull")
    out = replay_effective(target, schedule)
    assert out.ground_population() == pytest.approx(1.0, abs=1e-10)


def test_full_control_rejects_ground_amplitude_in_hprime():
    state = QuditState.from_vector([0.5, 0.5, 0.5, 0.5, 0.0], normalize=True)
    with pytest.raises(ContractViolation):
        compile_full_control(state, OPTS)


def test_pulse_count_bounds():
    N = 5
    target = random_qudit_state(N, 1)
    o = compile_full_control(target, OPTS)
    assert len(o) <= 2 * N
    p = compile_phase_gate(target, 1.0, OPTS)
    assert len(p) <= 4 * N + 2
    u = compile_unitary(unitary_group.rvs(2 * N, random_state=0), OPTS)
    assert len(u) <= 2 * N * (4 * N + 2)


@pytest.mark.parametrize("variant", ["plain", "tilde"])
def test_inversion_is_exact_inverse_effectively(variant):
    N = 4
    opts = CompileOptions(omega_01=1e-3, fold_variant=variant)
    target = random_qudit_state(N, 3)
    schedule = compile_full_control(target, opts)
    roundtrip = schedule.concat(invert_full_control(schedule))
    out = replay_effective(target, roundtrip)
    assert abs(out.overlap(target)) == pytest.approx(1.0, abs=1e-10)


def test_inversion_is_involution():
    target = random_qudit_state(3, 5)
    schedule = compile_full_control(target, OPTS)
    double = invert_full_control(invert_full_control(schedule))
    assert len(double) == len(schedule)
    for p, q in zip(double.pulses, schedule.pulses):
        assert p.label == q.label
        for name in ("T", "omega_1r", "phi_1r", "omega_01", "phi_01", "delta_01"):
            # phases are wrapped twice, so equality holds to rounding only
            assert getattr(p, name) == pytest.approx(getattr(q, name), abs=1e-12)


def test_inversion_labels_and_unknown_label():
    target = random_qudit_state(3, 5)
    inverted = invert_full_control(compile_full_control(target, OPTS))
    assert all(p.label.startswith("inv:") for p in inverted.pulses)
    bad = PulseSchedule(ModelParams(3), (PulseParams(1.0, label="mystery"),))
    with pytest.raises(ValueError):
        invert_full_control(bad)
    bad = PulseSchedule(ModelParams(3), (PulseParams(1.0, label="inv:phase:a"),))
    with pytest.raises(ValueError):
        invert_full_control(bad)


# each pulse kind's inversion rule: (phi_1r, phi_01, delta_01) before wrapping
INVERSION_RULES = {
    "rotation": lambda p: (p.phi_1r + math.pi, p.phi_01 + math.pi, -p.delta_01),
    "half": lambda p: (p.phi_1r, p.phi_01 + math.pi, p.delta_01),
    "bare": lambda p: (p.phi_1r + math.pi, p.phi_01, p.delta_01),
}


@pytest.mark.parametrize("label,rule", [
    ("fold(-,q=2)", "rotation"),
    ("g0rot(+)", "rotation"),
    ("fold~(+,q=1):a", "half"),
    ("g0rot~(-):b", "half"),
    ("fold(+,q=2):shaped", "rotation"),
    ("doublet:z", "bare"),
    ("doublet:y", "bare"),
    ("inv:fold~(-,q=1):b", "half"),
])
def test_inversion_rule_of_each_pulse_kind(label, rule):
    p = PulseParams(123.25, 0.75, -2.5, 1.5e-2, 0.875, -1.3125, label)
    inverse = _invert_pulse(p, 3)
    phi_1r, phi_01, delta_01 = INVERSION_RULES[rule](p)
    assert inverse.label == (label[4:] if label.startswith("inv:") else "inv:" + label)
    assert [getattr(inverse, name).hex() for name in ("T", "omega_1r", "omega_01")] == [
        p.T.hex(), p.omega_1r.hex(), p.omega_01.hex()]
    assert [inverse.phi_1r.hex(), inverse.phi_01.hex(), inverse.delta_01.hex()] == [
        wrap_phase(phi_1r).hex(), wrap_phase(phi_01).hex(), delta_01.hex()]


@pytest.mark.parametrize("label", ["phase:b", "fold(+,q=3)", "g0rot(?)"])
def test_inversion_rejects_phase_and_out_of_range_labels(label):
    with pytest.raises(ValueError):
        _invert_pulse(PulseParams(1.0, label=label), 3)


def test_inverted_o_composes_to_identity_full_simulation():
    # schedule_operator evaluates a pass followed by its inverse as F^dag F,
    # the identity by construction; run_schedule evolves every inverse pulse
    # through its own Hamiltonian, so its columns test the inversion rule
    N = 3
    target = random_qudit_state(N, 7)
    schedule = compile_full_control(target, OPTS)
    both = schedule.concat(invert_full_control(schedule))
    identity = np.eye(2 * N + 1, dtype=complex)
    U = np.array([run_schedule(QuditState(column), both, samples_per_pulse=1).final_state.amplitudes
                  for column in identity]).T
    assert np.max(np.abs(U - identity)) <= 1e-12
    assert np.max(np.abs(extract_gate(both).full_operator - U)) <= 1e-12


@pytest.mark.parametrize("Phi", [math.pi / 2, -2.0, 3.0])
def test_phase_gate_effective_phase_imprint(Phi):
    N = 3
    target = random_qudit_state(N, 9)
    schedule = compile_phase_gate(target, Phi, OPTS)
    out = replay_effective(target, schedule)
    amp = out.overlap(target)
    assert abs(amp) == pytest.approx(1.0, abs=1e-10)
    assert wrap_phase(np.angle(amp) - Phi) == pytest.approx(0.0, abs=1e-9)


def test_phase_gate_spectral_contract():
    N = 3
    target = random_qudit_state(N, 11)
    Phi = 1.2
    schedule = compile_phase_gate(target, Phi, OPTS)
    report = extract_gate(schedule)
    goal = np.eye(2 * N, dtype=complex) + (np.exp(1j * Phi) - 1.0) * np.outer(
        target.qudit_part(), target.qudit_part().conj())
    eps = infidelity(goal, report.gate)
    w = np.angle(np.linalg.eigvals(report.gate))
    # one eigenphase near Phi, the rest near 0, within the infidelity scale
    delta = 50 * math.sqrt(eps)
    near_phi = np.abs(np.vectorize(wrap_phase)(w - Phi)) < delta
    near_zero = np.abs(w) < delta
    assert np.count_nonzero(near_phi) == 1
    assert np.count_nonzero(near_zero) == 2 * N - 1


def test_phase_gate_leaves_orthogonal_state_unchanged():
    N = 3
    target = random_qudit_state(N, 13)
    schedule = compile_phase_gate(target, 2.0, OPTS)
    U = extract_gate(schedule).full_operator
    rng = np.random.default_rng(4)
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    v[0] = 0.0
    v -= np.vdot(target.amplitudes, v) * target.amplitudes
    psi = QuditState.from_vector(v, normalize=True)
    out = U @ psi.amplitudes
    assert 1.0 - abs(np.vdot(psi.amplitudes, out)) ** 2 <= 1e-4


def test_unitary_eigensystem_deterministic_and_valid():
    U = unitary_group.rvs(6, random_state=42)
    p1, v1 = unitary_eigensystem(U)
    p2, v2 = unitary_eigensystem(U.copy())
    assert np.array_equal(p1, p2)
    assert np.array_equal(v1, v2)
    assert np.all(np.diff(p1) >= 0)
    recon = (v1 * np.exp(1j * p1)) @ v1.conj().T
    assert np.max(np.abs(recon - U)) <= 1e-8
    with pytest.raises(ContractViolation):
        unitary_eigensystem(np.eye(3) * 1.1)


def test_unitary_eigensystem_degenerate_input():
    # heavily degenerate spectrum: the identity with one flipped phase
    U = np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)
    phases, vectors = unitary_eigensystem(U)
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    assert np.max(np.abs(recon - U)) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_unitary_reconstruction_error_scale(seed):
    # infidelity of a compiled random 4x4 unitary stays below c*N^3*ratio^2
    N = 2
    ratio = 1e-2
    U = unitary_group.rvs(2 * N, random_state=seed)
    schedule = compile_unitary(U, CompileOptions(omega_01=ratio))
    eps = infidelity(U, extract_gate(schedule).gate)
    assert eps <= 50 * N**3 * ratio**2


def test_compile_unitary_skip_zero_phases():
    N = 2
    target = random_qudit_state(N, 17)
    Phi = 0.8
    U = np.eye(2 * N, dtype=complex) + (np.exp(1j * Phi) - 1.0) * np.outer(
        target.qudit_part(), target.qudit_part().conj())
    full = compile_unitary(U, CompileOptions(omega_01=1e-3, skip_zero_phases=False))
    skipped = compile_unitary(U, CompileOptions(omega_01=1e-3, skip_zero_phases=True))
    assert len(skipped) < len(full)
    eps = infidelity(U, extract_gate(skipped).gate)
    assert eps <= 1e-3


def sequential_unitary(U, opts):
    """compile_unitary's definition: one compile_phase_gate per kept eigenpair, in order."""
    phases, vectors = unitary_eigensystem(U)
    schedule = PulseSchedule(ModelParams(len(U) // 2))
    for alpha, v in zip(phases, vectors.T):
        if opts.skip_zero_phases and abs(wrap_phase(alpha)) < compiler._ZERO_PHASE_EPS:
            continue
        state = QuditState.from_vector(np.concatenate(([0.0], v)), normalize=True)
        schedule = schedule.concat(compile_phase_gate(state, float(alpha), opts))
    return schedule


LOCKSTEP_UNITARIES = {
    "hadamard-N3": lambda: hadamard_target(3),
    "haar-N4": lambda: unitary_group.rvs(8, random_state=4),
    "identity-N2": lambda: np.eye(4, dtype=complex),
    "hadamard-N1": lambda: hadamard_target(1),
}


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("case", LOCKSTEP_UNITARIES, ids=LOCKSTEP_UNITARIES.keys())
def test_compile_unitary_equals_its_phase_gates_in_sequence(case, variant, skip):
    # the phase gates' forward passes are compiled in lockstep; each must be
    # the bytes of its own compile_phase_gate
    from rydqudit.cli import schedule_to_json

    U = LOCKSTEP_UNITARIES[case]()
    opts = CompileOptions(omega_01=1e-2, fold_variant=variant, skip_zero_phases=skip)
    schedule = compile_unitary(U, opts)
    assert schedule_to_json(schedule) == schedule_to_json(sequential_unitary(U, opts))
    if case == "identity-N2":
        assert (len(schedule) == 0) == skip     # skipping leaves an empty batch
    if case == "hadamard-N1":
        assert schedule.pulses and not any("fold" in p.label for p in schedule.pulses)


def test_warm_compiles_make_no_eigh(monkeypatch):
    # fold pulses advance in closed form, doublet pulses read the key cache
    hadamard = (hadamard_target(9), CompileOptions(omega_01=1e-2))
    prep = (random_qudit_state(12, 5), CompileOptions(omega_01=1e-3))
    warm = [_fields(compile_unitary(*hadamard)), _fields(compile_state_prep(*prep))]
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert [_fields(compile_unitary(*hadamard)), _fields(compile_state_prep(*prep))] == warm
    assert calls == []


def test_compile_unitary_validation():
    with pytest.raises(ValueError):
        compile_unitary(np.eye(3), OPTS)
    with pytest.raises(ContractViolation):
        compile_unitary(np.eye(4) * 1.01, OPTS)


@pytest.mark.parametrize("seed", range(3))
def test_state_prep_effective(seed):
    N = 4
    target = random_qudit_state(N, seed)
    schedule = compile_state_prep(target, OPTS)
    ground = QuditState.basis_state(N, DressedIndex.ground())
    out = replay_effective(ground, schedule)
    assert abs(out.overlap(target)) == pytest.approx(1.0, abs=1e-10)


def test_state_prep_rejects_ground_component():
    state = QuditState.from_vector([0.5, 0.5, 0.5, 0.5, 0.0], normalize=True)
    with pytest.raises(ContractViolation):
        compile_state_prep(state, OPTS)


@pytest.mark.parametrize("seed", range(3))
def test_measure_projection_matches_born_rule(seed):
    N = 3
    state = random_qudit_state(N, seed)
    target = random_qudit_state(N, seed + 100)
    p = measure_projection(state, target, OPTS)
    direct = abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2
    assert p == pytest.approx(direct, abs=1e-3)


@pytest.mark.parametrize("seed", [2, 3])
def test_measure_projection_worst_case_over_draws(seed):
    # drawn as the criterion-5 acceptance test draws its state pairs
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        vs = rng.normal(size=(2, 11)) + 1j * rng.normal(size=(2, 11))
        vs[:, 0] = 0.0
        state = QuditState.from_vector(vs[0], normalize=True)
        target = QuditState.from_vector(vs[1], normalize=True)
        p = measure_projection(state, target, OPTS)
        worst = max(worst, abs(p - abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2))
    assert worst <= 1e-3


@pytest.mark.parametrize("seed", range(2))
def test_readout_schedule_simulates_to_measure_projection(seed):
    N = 4
    state = random_qudit_state(N, seed)
    target = random_qudit_state(N, seed + 100)
    schedule = compile_readout(target, OPTS)
    out = replay_effective(target, schedule)
    assert abs(out.amplitudes[MINUS1.position()]) == pytest.approx(1.0, abs=1e-10)
    final = schedule_operator(schedule) @ state.amplitudes
    p = measure_projection(state, target, OPTS)
    assert p == pytest.approx(abs(final[MINUS1.position()]) ** 2, abs=1e-9)
    control = [pulse for pulse in schedule.pulses if pulse.omega_01 > 0]
    assert all(pulse.label.endswith(":shaped") for pulse in control)
    assert any(pulse.omega_01 < OPTS.omega_01 for pulse in control)


def test_schedule_determinism():
    target = random_qudit_state(4, 21)
    a = compile_phase_gate(target, 1.3, OPTS)
    b = compile_phase_gate(target, 1.3, OPTS)
    assert a.pulses == b.pulses


@given(Phi=st.floats(min_value=-3.1, max_value=3.1))
@settings(deadline=None, max_examples=15)
def test_phase_gate_effective_phase_property(Phi):
    N = 2
    target = random_qudit_state(N, 23)
    schedule = compile_phase_gate(target, Phi, CompileOptions(omega_01=1e-2))
    out = replay_effective(target, schedule)
    assert wrap_phase(np.angle(out.overlap(target)) - Phi) == pytest.approx(0.0, abs=1e-9)


def test_doublet_stage_example_plus1():
    # |+,1> target: a single pi bare rotation at phi_1r = pi/2
    schedule = compile_full_control(
        QuditState.basis_state(1, DressedIndex.branch(+1, 1)), OPTS)
    assert [p.label for p in schedule.pulses] == ["doublet:y"]
    assert schedule.pulses[0].T == pytest.approx(math.pi, rel=1e-12)


def test_full_control_on_target_already_at_minus1():
    schedule = compile_full_control(
        QuditState.basis_state(2, MINUS1), OPTS)
    assert len(schedule) == 0


# --- the direct effective advance against the label-driven build_total one ---

def label_effective(params, pulse):
    """The effective Hamiltonian as built from the label: build_total's
    diagonal plus the labelled pair's elements, or all of it for a doublet."""
    H = build_total(params, pulse)
    pair = _pulse_kind(pulse.label, params.N)[0]
    if pair is None:
        return H
    Heff = np.diag(np.diag(H))
    i, j = pair
    Heff[i, j] = H[i, j]
    Heff[j, i] = H[j, i]
    return Heff


def label_advance(vecs, params, pulses, pair=None):
    """_advance one row at a time, each pulse's Hamiltonian built from its label."""
    out = []
    for vec, mine in zip(vecs, pulses):
        for p in mine:
            vec = _evolve(label_effective(params, p), p.T, vec)
        out.append(vec / np.linalg.norm(vec))
    return np.array(out)


def pair_rotations(params, w, seed):
    """Every fold and g0rot pulse at N and dressing amplitude w, as emitted
    and inverted, plain and as tilde halves, at seeded phi_01 values:
    (pair, pulse) tuples."""
    rng = np.random.default_rng((seed, params.N))
    rotations = [(_fold_levels(s, q), f"fold({'+' if s > 0 else '-'},q={q})")
                 for q in range(1, params.N) for s in (+1, -1)]
    rotations += [(((DressedIndex.ground().position(), DressedIndex.branch(s, 1).position()),
                    s / 2),
                   f"g0rot({'+' if s > 0 else '-'})") for s in (+1, -1)]
    for (pair, delta), name in rotations:
        delta *= w      # the resonances above are at w = 1
        head, _, tail = name.partition("(")
        for ratio, phi in [(1e-3, 0.0), *((r, rng.uniform(-math.pi, math.pi))
                                         for r in (1e-3, 1e-2, 1e-2))]:
            T = rng.uniform(1.0, 1e4)
            omega_01 = ratio * w
            emitted = [
                PulseParams(T, w, 0.0, omega_01, phi, delta, label=name),
                PulseParams(T / 2, w, 0.0, omega_01, phi, delta, label=f"{head}~({tail}:a"),
                PulseParams(T / 2, w, math.pi, omega_01, phi, -delta, label=f"{head}~({tail}:b"),
                # a replayed document may drive another dressing amplitude
                PulseParams(T, 0.5 * w, 0.0, omega_01, phi, delta, label=name),
            ]
            for p in emitted + [_invert_pulse(p, params.N) for p in emitted]:
                yield pair, p


@pytest.mark.parametrize("N, w", [(2, 1.0), (3, 1.0), (9, 1.0), (3, 2.5)],
                         ids=["N2", "N3", "N9", "N3-w2.5"])
def test_direct_assembly_matches_label_effective_bytes(N, w):
    params = ModelParams(N)
    count = 0
    for pair, pulse in pair_rotations(params, w, seed=31):
        reference = label_effective(params, pulse).tobytes()
        assert _pair_hamiltonian(params, pulse, pair).tobytes() == reference, pulse.label
        assert effective_hamiltonian(params, pulse).tobytes() == reference, pulse.label
        count += 1
    assert count == 32 * (2 * (params.N - 1) + 2)


@pytest.mark.parametrize("N, w", [(2, 1.0), (3, 1.0), (9, 1.0), (3, 2.5)],
                         ids=["N2", "N3", "N9", "N3-w2.5"])
def test_closed_form_step_matches_eigh_of_the_pair_hamiltonian(N, w):
    # every level as a row, so the step returns the transposed propagator;
    # the pulses include detuned tilde :b halves, inversions and w/2 drives
    params = ModelParams(N)
    rows = np.eye(params.dim, dtype=complex)
    for pair, pulse in pair_rotations(params, w, seed=31):
        step = _pair_step(rows, params, (pulse,) * params.dim, pair)
        exact = _evolve(_pair_hamiltonian(params, pulse, pair), pulse.T, rows)
        d = _diagonal(N, pulse.omega_1r, pulse.phi_1r, pulse.delta_01).real
        bound = 1e-12 * (1.0 + np.max(np.abs(d)) * pulse.T)
        assert np.max(np.abs(step.T - exact)) <= bound, pulse.label


def test_closed_form_step_without_coupling_or_detuning():
    # h = 0 and d_i = d_j, so W = 0: sinc's limit keeps the rows finite
    params = ModelParams(3)
    pair = (0, _position(+1, 1))
    pulse = PulseParams(7.0, 1.0, 0.0, 0.0, 0.4, 0.5, label="g0rot(+)")
    d = _diagonal(params.N, pulse.omega_1r, pulse.phi_1r, pulse.delta_01).real
    assert d[pair[0]] == d[pair[1]] == 0.0
    step = _pair_step(np.eye(params.dim, dtype=complex), params, (pulse,) * params.dim, pair)
    assert np.all(np.isfinite(step))
    assert np.count_nonzero(step - np.diag(np.diag(step))) == 0
    assert np.max(np.abs(np.diag(step) - np.exp(-1j * d * pulse.T))) <= 1e-15


@pytest.mark.parametrize("N", [1, 2, 3, 9])
@pytest.mark.parametrize("omega_1r", [1.0, 0.7])
def test_cached_doublet_eigensystem_matches_fresh_eigh(N, omega_1r):
    params = ModelParams(N)
    for label, phi_1r in (("doublet:z", math.pi), ("doublet:y", math.pi / 2)):
        for pulse in (PulseParams(2.0 / omega_1r, omega_1r, phi_1r, label=label),
                      PulseParams(0.3, omega_1r, phi_1r + math.pi, label="inv:" + label)):
            w, V = np.linalg.eigh(build_total(params, pulse))
            cached = _key_eigensystem(N, pulse.omega_1r, pulse.phi_1r, 0.0, 0.0)
            assert cached[0].tobytes() == w.tobytes()
            assert cached[1].tobytes() == V.tobytes()
            assert not cached[0].flags.writeable and not cached[1].flags.writeable


def _fields(schedule):
    return [(p.label, *(getattr(p, name).hex() for name in
                        ("T", "omega_1r", "phi_1r", "omega_01", "phi_01", "delta_01")))
            for p in schedule.pulses]


def _compile_cases(N, ratio, variant):
    opts = CompileOptions(omega_01=ratio, fold_variant=variant)
    target = random_qudit_state(N, 41)
    return {
        "prep": lambda: compile_state_prep(target, opts),
        "phase": lambda: compile_phase_gate(target, -2.3, opts),
        "readout": lambda: compile_readout(target, opts),
    }


def assert_fields_close(direct, reference):
    """Labels and the fields no pulse solves for bit-equal; T equal to 1e-9
    relative and phi_01 to 1e-8, wrapped."""
    assert len(direct.pulses) == len(reference.pulses)
    for a, b in zip(direct.pulses, reference.pulses):
        fixed = [(p.label, *(getattr(p, name).hex() for name in
                             ("omega_1r", "phi_1r", "omega_01", "delta_01"))) for p in (a, b)]
        assert fixed[0] == fixed[1]
        assert abs(a.T - b.T) <= 1e-9 * b.T, a.label
        assert abs(wrap_phase(a.phi_01 - b.phi_01)) <= 1e-8, a.label


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("ratio", [1e-3, 1e-2])
@pytest.mark.parametrize("N", [2, 3, 5])
def test_schedules_equal_the_label_driven_advance(N, ratio, variant, monkeypatch):
    # the closed-form step differs from eigh by rounding; a readout tracks
    # its folds without _advance and keeps every byte
    cases = _compile_cases(N, ratio, variant)
    _diagonal.cache_clear()
    _key_eigensystem.cache_clear()
    compiler._pair_coupling.cache_clear()
    cold = {kind: make() for kind, make in cases.items()}
    warm = {kind: _fields(make()) for kind, make in cases.items()}
    monkeypatch.setattr(compiler, "_advance", label_advance)
    reference = {kind: make() for kind, make in cases.items()}
    assert {kind: _fields(schedule) for kind, schedule in cold.items()} == warm
    assert _fields(cold["readout"]) == _fields(reference["readout"])
    for kind in ("prep", "phase"):
        assert_fields_close(cold[kind], reference[kind])


def first_south_pole_fold(U, opts):
    """Position in compile_unitary(U, opts) of the first fold whose pair's
    Bloch vector starts at u_z < -1 + 1e-12, or None.

    There the target level is empty, and _pair_axis takes phi_01 from the
    rounding noise in u_x and u_y (ROADMAP item 6).
    """
    params = ModelParams(len(U) // 2)
    start = 0
    for v in unitary_eigensystem(U)[1].T:
        target = QuditState.from_vector(np.concatenate(([0.0], v)), normalize=True)
        forward = compile_full_control(target, opts)
        vec = target.amplitudes
        for k, p in enumerate(forward.pulses):
            pair = _pulse_kind(p.label, params.N)[0]
            if pair is not None and _pair_bloch(vec, *pair)[0][2] < -1.0 + 1e-12:
                return start + k
            vec = _evolve(effective_hamiltonian(params, p), p.T, vec)
        start += 2 * len(forward) + 2       # forward pass, phase pulses, inverse
    return None


def replayed_gate(schedule):
    """The qudit block of the schedule's operator under replay_effective."""
    basis = np.eye(schedule.params.dim, dtype=complex)
    return np.array([replay_effective(QuditState(e), schedule).amplitudes[1:]
                     for e in basis[1:]]).T


@pytest.mark.parametrize("variant", ["plain", "tilde"])
@pytest.mark.parametrize("N", [2, 3])
def test_hadamard_equals_the_label_driven_advance(N, variant, monkeypatch):
    # up to the first fold at the south pole the schedules agree to rounding;
    # from there phi_01 follows the noise, so both must realise the gate
    U = hadamard_target(N)
    opts = CompileOptions(omega_01=1e-2, fold_variant=variant)
    direct = compile_unitary(U, opts)
    first = first_south_pole_fold(U, opts)
    assert (first is None) == (N == 2)
    monkeypatch.setattr(compiler, "_advance", label_advance)
    reference = compile_unitary(U, opts)
    head = slice(0, first)
    assert_fields_close(PulseSchedule(direct.params, direct.pulses[head]),
                        PulseSchedule(reference.params, reference.pulses[head]))
    for schedule in (direct, reference):
        assert np.max(np.abs(replayed_gate(schedule) - U)) <= 1e-10

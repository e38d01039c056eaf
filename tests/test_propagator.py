"""Piecewise-exact propagation against an adaptive integrator oracle."""

import math
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rydqudit.compiler import (
    CompileOptions,
    _invert_pulse,
    _pulse_kind,
    compile_phase_gate,
    compile_state_prep,
    compile_unitary,
)
from rydqudit.core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    QuditState,
    build_total,
    hadamard_target,
    wrap_phase,
)
from rydqudit.propagator import (
    PulseSchedule,
    _evolve,
    _gauge,
    _key_eigensystem,
    _mirrored_runs,
    _propagate,
    _stack_length,
    extract_gate,
    interaction_frame,
    run_schedule,
    schedule_operator,
)


def random_pulse(rng, label=""):
    return PulseParams(
        T=float(rng.uniform(0.1, 8.0)),
        omega_1r=1.0,
        phi_1r=float(rng.uniform(-math.pi, math.pi)),
        omega_01=float(rng.uniform(0.0, 0.5)),
        phi_01=float(rng.uniform(-math.pi, math.pi)),
        delta_01=float(rng.uniform(-1.5, 1.5)),
        label=label,
    )


@cache
def hadamard_schedule(N, fold_variant="plain"):
    return compile_unitary(hadamard_target(N), CompileOptions(omega_01=1e-2,
                                                              fold_variant=fold_variant))


def random_state(rng, N):
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    return QuditState.from_vector(v, normalize=True)


PREP_N4 = compile_state_prep(QuditState.uniform(4), CompileOptions(omega_01=1e-2))
# a zero-duration pulse, two pulses sharing one diagonal, and phi_1r = -0.0
REPEATED_KEYS = PulseSchedule(ModelParams(2), (PulseParams(1.5, 1.0, 0.4, 0.2, 0.1, -0.3),
                                               PulseParams(0.0, 1.0, 0.4, 0.1, 1.7, -0.3),
                                               PulseParams(2.0, 0.8, -0.0, 0.0, 0.0, 0.0),
                                               PulseParams(0.7, 1.0, 0.4, 0.3, -2.2, -0.3)))
SCHEDULE_IDS = ["hadamard-n3", "prep-n4", "repeated-keys"]


@pytest.mark.parametrize("seed", range(5))
def test_evolve_pulse_matches_adaptive_integrator(seed):
    # a one-pulse schedule, through both paths that evolve pulses
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    params = ModelParams(N)
    pulse = random_pulse(rng)
    psi0 = random_state(rng, N)
    H = build_total(params, pulse)
    sol = solve_ivp(lambda t, y: -1j * (H @ y), (0.0, pulse.T), psi0.amplitudes,
                    method="DOP853", rtol=1e-12, atol=1e-12)
    schedule = PulseSchedule(params, (pulse,))
    out = run_schedule(psi0, schedule, samples_per_pulse=3).final_state
    assert np.max(np.abs(out.amplitudes - sol.y[:, -1])) <= 1e-8
    out = schedule_operator(schedule) @ psi0.amplitudes
    assert np.max(np.abs(out - sol.y[:, -1])) <= 1e-8


def test_evolve_pulse_contracts():
    # dimension mismatch is a configuration error
    one_pulse = PulseSchedule(ModelParams(2), (PulseParams(1.0),))
    state = QuditState.basis_state(3, DressedIndex.ground())
    with pytest.raises(ValueError):
        run_schedule(state, one_pulse)
    # a denormalized state is no QuditState, and does not come out of a run as one
    bad = QuditState.basis_state(2, DressedIndex.ground())
    with pytest.raises(ContractViolation):
        QuditState(bad.amplitudes * 1.5)
    object.__setattr__(bad, "amplitudes", bad.amplitudes * 1.5)
    with pytest.raises(ContractViolation):
        run_schedule(bad, one_pulse).final_state


@pytest.mark.parametrize("samples", [True, 2.5, "4", 0])
def test_samples_per_pulse_must_be_a_positive_integer(samples):
    # the one number rule: a bool, a float or a string is no sample count
    state = QuditState.basis_state(2, DressedIndex.ground())
    with pytest.raises(ValueError, match="samples_per_pulse"):
        run_schedule(state, PulseSchedule(ModelParams(2), (PulseParams(1.0),)), samples)


@given(seed=st.integers(0, 500), n_pulses=st.integers(1, 6))
@settings(deadline=None, max_examples=30)
def test_norm_conservation(seed, n_pulses):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    schedule = PulseSchedule(ModelParams(N),
                             tuple(random_pulse(rng) for _ in range(n_pulses)))
    traj = run_schedule(random_state(rng, N), schedule, samples_per_pulse=4)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


@given(seed=st.integers(0, 500))
@settings(deadline=None, max_examples=25)
def test_composition(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    params = ModelParams(N)
    a = PulseSchedule(params, tuple(random_pulse(rng) for _ in range(2)))
    b = PulseSchedule(params, tuple(random_pulse(rng) for _ in range(2)))
    psi0 = random_state(rng, N)
    direct = run_schedule(psi0, a.concat(b), samples_per_pulse=2).final_state
    staged = run_schedule(run_schedule(psi0, a, samples_per_pulse=2).final_state,
                          b, samples_per_pulse=2).final_state
    assert np.max(np.abs(direct.amplitudes - staged.amplitudes)) <= 1e-10


@given(seed=st.integers(0, 500))
@settings(deadline=None, max_examples=25)
def test_time_reversal_under_hamiltonian_negation(seed):
    # evolving under -H for the same duration must undo the pulse
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    params = ModelParams(N)
    pulse = random_pulse(rng)
    psi0 = random_state(rng, N)
    H = build_total(params, pulse)
    forward = _evolve(H, pulse.T, psi0.amplitudes)
    w, V = np.linalg.eigh(-H)
    back = V @ (np.exp(-1j * w * pulse.T) * (V.conj().T @ forward))
    assert np.max(np.abs(back - psi0.amplitudes)) <= 1e-10


def test_first_sample_is_initial_state_and_boundaries():
    rng = np.random.default_rng(3)
    params = ModelParams(2)
    pulses = (random_pulse(rng), PulseParams(0.0), random_pulse(rng))
    schedule = PulseSchedule(params, pulses)
    psi0 = random_state(rng, 2)
    traj = run_schedule(psi0, schedule, samples_per_pulse=5)
    assert np.array_equal(traj.states[0], psi0.amplitudes)
    assert len(traj.boundary_indices) == len(pulses) + 1
    # boundary samples sit at the cumulative durations
    t = 0.0
    for k, p in enumerate(pulses):
        t += p.T
        assert traj.times[traj.boundary_indices[k + 1]] == pytest.approx(t)


def test_final_state_matches_sequential_evolve():
    rng = np.random.default_rng(11)
    params = ModelParams(3)
    schedule = PulseSchedule(params, tuple(random_pulse(rng) for _ in range(4)))
    psi = random_state(rng, 3)
    traj = run_schedule(psi, schedule, samples_per_pulse=7)
    psi = psi.amplitudes
    for p in schedule.pulses:
        psi = _evolve(build_total(params, p), p.T, psi)
    assert np.max(np.abs(traj.final_state.amplitudes - psi)) <= 1e-12


@given(seed=st.integers(0, 200))
@settings(deadline=None, max_examples=20)
def test_schedule_operator_unitary(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    schedule = PulseSchedule(ModelParams(N),
                             tuple(random_pulse(rng) for _ in range(3)))
    U = schedule_operator(schedule)
    dim = 2 * N + 1
    assert np.max(np.abs(U.conj().T @ U - np.eye(dim))) <= 1e-9


def test_extract_gate_report_fields():
    rng = np.random.default_rng(5)
    params = ModelParams(2)
    schedule = PulseSchedule(params, tuple(random_pulse(rng) for _ in range(3)))
    report = extract_gate(schedule)
    assert report.leakage >= 0.0
    assert report.pulse_count == 3
    assert report.total_duration == pytest.approx(schedule.total_duration)
    assert report.gate.shape == (4, 4)
    assert report.full_operator.shape == (5, 5)
    # with the control laser off the ground level decouples, so the
    # restriction is unitary and its self-infidelity vanishes
    bare = PulseSchedule(params, (PulseParams(2.0, 1.0, 0.5),
                                  PulseParams(1.0, 1.0, -1.0, 0.0, 0.0, 0.3)))
    target = schedule_operator(bare)[1:, 1:]
    with_target = extract_gate(bare, target=target)
    assert with_target.infidelity == pytest.approx(0.0, abs=1e-12)
    assert with_target.leakage <= 1e-12


def test_interaction_frame_cancels_pure_diagonal_evolution():
    # detuning-only pulse: framed trajectory must be constant
    params = ModelParams(2)
    pulse = PulseParams(5.0, omega_1r=1e-12, omega_01=0.0, delta_01=0.7)
    schedule = PulseSchedule(params, (pulse,))
    psi0 = random_state(np.random.default_rng(7), 2)
    traj = run_schedule(psi0, schedule, samples_per_pulse=9)
    framed = interaction_frame(traj, schedule)
    assert np.max(np.abs(framed.states - psi0.amplitudes)) <= 1e-9


def reference_interaction_frame(trajectory, schedule):
    # the per-sample definition: one Hamiltonian build per pulse, one sample at a time
    framed = trajectory.states.copy()
    acc = np.zeros(schedule.params.dim)
    sample = 1
    t_start = 0.0
    for k, pulse in enumerate(schedule.pulses):
        diag = np.real(np.diag(build_total(schedule.params, pulse)))
        end = trajectory.boundary_indices[k + 1]
        while sample <= end:
            dt = trajectory.times[sample] - t_start
            framed[sample] *= np.exp(1j * (acc + diag * dt))
            sample += 1
        acc += diag * pulse.T
        t_start += pulse.T
    return framed


@pytest.mark.parametrize("schedule,samples", [
    (hadamard_schedule(3), 3), (PREP_N4, 5), (REPEATED_KEYS, 4)], ids=SCHEDULE_IDS)
def test_interaction_frame_matches_per_sample_reference_bit_for_bit(schedule, samples):
    psi0 = random_state(np.random.default_rng(11), schedule.params.N)
    traj = run_schedule(psi0, schedule, samples_per_pulse=samples)
    framed = interaction_frame(traj, schedule)
    assert framed.states.tobytes() == reference_interaction_frame(traj, schedule).tobytes()
    assert framed.times.tobytes() == traj.times.tobytes()
    assert framed.boundary_indices == traj.boundary_indices


def reference_evolver(params):
    # one eigh of its own per distinct key, taken at phi_01 = 0; every pulse
    # of the key reaches it through the gauge of its own phi_01
    table = {}

    def evolve(pulse, T, X):
        key = (pulse.omega_1r, pulse.phi_1r, pulse.omega_01, pulse.delta_01)
        if key not in table:
            table[key] = np.linalg.eigh(build_total(params, replace(pulse, phi_01=0.0)))
        w, V = table[key]
        z = _gauge(params.N, pulse.phi_01)
        return z * _propagate(w, V, T, z.conj() * X)

    return evolve


def reference_samples(psi, schedule, samples):
    # one scalar evolve per sample: the chain of boundary states and, apart, the interior
    evolve = reference_evolver(schedule.params)
    chain, interior = [psi], []
    for p in schedule.pulses:
        if p.T != 0.0:
            rel = np.linspace(0.0, p.T, samples + 1)[1:]
            interior += [evolve(p, t, psi) for t in rel[:-1]]
            psi = evolve(p, p.T, psi)
        chain.append(psi)
    return np.array(chain), np.array(interior).reshape(-1, psi.size)


@pytest.mark.parametrize("samples", [1, 2, 5])
@pytest.mark.parametrize("schedule", [hadamard_schedule(3), PREP_N4, REPEATED_KEYS],
                         ids=SCHEDULE_IDS)
def test_run_schedule_matches_per_sample_evolution(schedule, samples):
    psi0 = random_state(np.random.default_rng(11), schedule.params.N).amplitudes
    traj = run_schedule(QuditState(psi0), schedule, samples_per_pulse=samples)
    chain, interior = reference_samples(psi0, schedule, samples)
    boundary = np.zeros(len(traj.times), dtype=bool)
    boundary[traj.boundary_indices] = True
    # boundaries, and so the state carried between pulses, are bit-exact
    assert traj.states[boundary].tobytes() == chain.tobytes()
    if samples == 1:
        assert boundary.all() and traj.states.tobytes() == chain.tobytes()
    # interior samples come from one stacked product per pulse
    assert traj.states[~boundary].shape == interior.shape
    assert np.max(np.abs(traj.states[~boundary] - interior), initial=0.0) <= 1e-14


def test_interaction_frame_requires_matching_schedule():
    params = ModelParams(2)
    schedule = PulseSchedule(params, (PulseParams(1.0),))
    traj = run_schedule(QuditState.basis_state(2, DressedIndex.ground()),
                        schedule, samples_per_pulse=2)
    other = PulseSchedule(params, (PulseParams(1.0), PulseParams(1.0)))
    with pytest.raises(ValueError):
        interaction_frame(traj, other)


def test_schedule_concat_rejects_mismatched_n():
    with pytest.raises(ValueError):
        PulseSchedule(ModelParams(2)).concat(PulseSchedule(ModelParams(3)))


# --- one eigendecomposition per distinct pulse Hamiltonian -----------------


def distinct_keys(schedule):
    return {(p.omega_1r, p.phi_1r, p.omega_01, p.delta_01)
            for p in schedule.pulses if p.T != 0.0}


def reference_operator(schedule):
    # one eigh per pulse, of that pulse's own Hamiltonian
    U = np.eye(schedule.params.dim, dtype=complex)
    for p in schedule.pulses:
        if p.T != 0.0:
            U = _evolve(build_total(schedule.params, p), p.T, U)
    return U


def count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def diagonalised(calls):
    # matrices, not calls: a stacked eigh diagonalises its leading dimensions
    return sum(math.prod(shape[:-2]) for shape in calls)


def haar_qudit(seed, N):
    v = random_state(np.random.default_rng(seed), N).amplitudes.copy()
    v[0] = 0.0
    return QuditState.from_vector(v, normalize=True)


def paired(schedule):
    # positions of the non-zero pulses that schedule_operator pairs, not forms
    pulses = [p for p in schedule.pulses if p.T != 0.0]
    skipped, start = [], 0
    for forward, core in _mirrored_runs(pulses):
        start += forward + core
        skipped += range(start, start + forward)
        start += forward
    assert start == len(pulses)     # the blocks tile the schedule
    return skipped


def formed(schedule):
    # the pulses schedule_operator forms: every block's forward run and core
    pulses = [p for p in schedule.pulses if p.T != 0.0]
    skipped = set(paired(schedule))
    return PulseSchedule(schedule.params, [p for k, p in enumerate(pulses) if k not in skipped])


def test_schedule_operator_makes_one_eigh_per_distinct_key(monkeypatch):
    # one eigh per distinct key of the pulses it forms; the paired inverse
    # pulses, whose keys a plain unitary holds apart, are never formed
    schedule = hadamard_schedule(3)
    keys = distinct_keys(schedule)
    assert (len(schedule), len(keys)) == (80, 14)
    formed_keys = distinct_keys(formed(schedule))
    assert len(formed_keys) == 8
    preps = {ratio: [compile_state_prep(haar_qudit(seed, 5), CompileOptions(omega_01=ratio))
                     for seed in (1, 2)] for ratio in (1e-3, 1e-2)}
    first, second = preps[1e-3]
    assert distinct_keys(first) == distinct_keys(second)
    assert len(formed(first)) == len(first)     # a state prep holds no mirror
    _key_eigensystem.cache_clear()
    calls = count_eigh(monkeypatch)
    schedule_operator(schedule)
    assert diagonalised(calls) == len(formed_keys)
    # the eigensystems outlive the call: a second call diagonalises nothing,
    # and a trajectory through the same schedule only the inverse pulses' keys
    schedule_operator(schedule)
    assert diagonalised(calls) == len(formed_keys)
    run_schedule(QuditState.uniform(3), schedule, samples_per_pulse=2)
    assert diagonalised(calls) == len(keys)
    schedule_operator(schedule)
    run_schedule(QuditState.uniform(3), schedule, samples_per_pulse=2)
    assert diagonalised(calls) == len(keys)
    # a prep target's keys depend on N and the ratio only, not on the target
    del calls[:]
    schedule_operator(first)
    assert diagonalised(calls) == len(distinct_keys(first))
    schedule_operator(second)
    run_schedule(QuditState.uniform(5), second, samples_per_pulse=2)
    assert diagonalised(calls) == len(distinct_keys(first))
    # a new ratio moves the fold keys, which are diagonalised again
    del calls[:]
    other = preps[1e-2][0]
    schedule_operator(other)
    assert diagonalised(calls) == len(distinct_keys(other) - distinct_keys(first)) > 0


def test_key_cache_holds_the_keys_of_a_gate_at_the_atom_count_cap(monkeypatch):
    # a phase gate at N = N_MAX has 4N + 2 distinct keys, and a unitary
    # repeats them in order once per phase gate: a trajectory through them
    # twice diagonalises each key once
    n_keys = 4 * ModelParams.N_MAX + 2
    keys = [PulseParams(0.5, 1.0, 0.0, 0.1, 0.3, 0.01 * k) for k in range(n_keys)]
    schedule = PulseSchedule(ModelParams(2), tuple(keys + keys))
    _key_eigensystem.cache_clear()
    calls = count_eigh(monkeypatch)
    run_schedule(QuditState.uniform(2), schedule, samples_per_pulse=1)
    assert diagonalised(calls) == n_keys == 258


def test_run_schedule_is_invariant_under_batching():
    # a pulse evolves through its own key at phi_01 = 0, whatever came before
    # it, so running a schedule in two parts gives the bits of one run
    for schedule in (hadamard_schedule(3), PREP_N4, REPEATED_KEYS):
        psi0 = random_state(np.random.default_rng(3), schedule.params.N)
        whole = run_schedule(psi0, schedule, samples_per_pulse=3)
        n = len(schedule.pulses)
        for cut in sorted({1, 2, n // 3, n // 2, n - 1}):
            head = PulseSchedule(schedule.params, schedule.pulses[:cut])
            tail = PulseSchedule(schedule.params, schedule.pulses[cut:])
            _key_eigensystem.cache_clear()
            mid = run_schedule(psi0, head, samples_per_pulse=3)
            end = run_schedule(mid.final_state, tail, samples_per_pulse=3)
            joined = np.concatenate((mid.states, end.states[1:]))
            assert joined.tobytes() == whole.states.tobytes()
            U = schedule_operator(tail) @ schedule_operator(head)
            assert np.max(np.abs(U - schedule_operator(schedule))) <= 1e-13


@pytest.mark.parametrize("N", [3, 5])
def test_schedule_operator_matches_per_pulse_eigh(N):
    schedule = hadamard_schedule(N)
    assert len(distinct_keys(schedule)) < len(schedule)
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - reference_operator(schedule))) <= 1e-9


def test_repeated_key_at_other_phases_matches_per_pulse_eigh():
    rng = np.random.default_rng(17)
    base = random_pulse(rng)
    pulses = [replace(base, phi_01=float(phi), T=float(rng.uniform(0.1, 8.0)))
              for phi in (0.3, -2.0, 0.3, math.pi, 0.0, -0.0, 1.1)]
    schedule = PulseSchedule(ModelParams(4), pulses)
    assert len(distinct_keys(schedule)) == 1
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - reference_operator(schedule))) <= 1e-12


# --- chunked products --------------------------------------------------------


def chunk_schedule(n, seed, keys):
    # n non-zero pulses cycling through `keys` random keys, each at its own
    # phi_01 and T, with a zero-duration pulse of random parameters leading
    # and after every third one
    rng = np.random.default_rng((seed, n))
    N = int(rng.integers(1, 5))
    bases = [random_pulse(rng) for _ in range(keys)]
    pulses = []
    for i in range(n):
        base = bases[i % keys]
        pulses.append(replace(base, phi_01=float(rng.uniform(-math.pi, math.pi)),
                              T=float(rng.uniform(0.1, 8.0))))
        if i % 3 == 2:
            pulses.append(replace(random_pulse(rng), T=0.0))
    return PulseSchedule(ModelParams(N), [replace(random_pulse(rng), T=0.0)] + pulses)


# the stack length of every chunk schedule, whose N is at most 4
STACK = _stack_length(ModelParams(4).dim)
CHUNK_LENGTHS = [0, 1, STACK - 1, STACK, STACK + 1, 2 * STACK + 1]


@pytest.mark.parametrize("keys", [1, 3, None], ids=["one-key", "three-keys", "all-distinct"])
@pytest.mark.parametrize("n", CHUNK_LENGTHS)
def test_chunked_operator_matches_per_pulse_eigh(n, keys):
    schedule = chunk_schedule(n, 23, keys or max(n, 1))
    assert _stack_length(schedule.params.dim) == STACK
    assert sum(p.T != 0.0 for p in schedule.pulses) == n
    assert len(distinct_keys(schedule)) == min(n, keys or n)
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - reference_operator(schedule))) <= 1e-12


@pytest.mark.parametrize("N", [1, 4])
def test_schedule_without_nonzero_pulses_is_the_exact_identity(N):
    identity = np.eye(2 * N + 1, dtype=complex)
    for pulses in ((), (PulseParams(0.0, 1.0, 0.3, 0.2, 0.1, -0.4),) * 3):
        U = schedule_operator(PulseSchedule(ModelParams(N), pulses))
        assert U.dtype == complex and U.tobytes() == identity.tobytes()


# --- mirrored runs ----------------------------------------------------------


def keyed_reference(schedule):
    # one pulse at a time through its key's cached eigensystem and gauge, as
    # run_schedule evolves: neither chunked nor paired.  reference_operator
    # differs from this route by the gauge's rounding, up to 2e-9 on the N = 12
    # phase gate, which would hide a pairing fault of that size
    N = schedule.params.N
    U = np.eye(schedule.params.dim, dtype=complex)
    for p in schedule.pulses:
        if p.T != 0.0:
            w, V = _key_eigensystem(N, p.omega_1r, p.phi_1r, p.omega_01, p.delta_01)
            z = _gauge(N, p.phi_01)
            U = z[:, None] * _propagate(w, V, p.T, z.conj()[:, None] * U)
    return U


@cache
def paired_schedule(name):
    if name.startswith("hadamard"):
        _, N, variant = name.split("-")
        return hadamard_schedule(int(N), variant)
    if name == "phase-n12":
        # pulses up to 3.7e4 long
        return compile_phase_gate(haar_qudit(4, 12), -2.3, CompileOptions(omega_01=1e-3))
    return PREP_N4


@pytest.mark.parametrize("name", ["hadamard-3-plain", "hadamard-3-tilde", "hadamard-5-plain",
                                  "hadamard-5-tilde", "phase-n12", "prep-n4"])
def test_paired_operator_matches_the_per_pulse_product(name):
    schedule = paired_schedule(name)
    # a state prep inverts a full control whole, with no core to mirror around
    assert bool(paired(schedule)) == (name != "prep-n4")
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - keyed_reference(schedule))) <= 1e-12


def mirror_schedule(N, forward, core, seed):
    # random whole rotations and bare pulses, inverted by the compiler's own
    # rule around a random core, between two unpaired pulses
    rng = np.random.default_rng(seed)
    run = [replace(random_pulse(rng), omega_1r=1.0, label="fold(+,q=2)") if k % 3 else
           replace(random_pulse(rng), omega_01=0.0, delta_01=0.0, label="doublet:z")
           for k in range(forward)]
    middle = [random_pulse(rng, "phase:a"), random_pulse(rng, "phase:b")]
    middle += [random_pulse(rng) for _ in range(core - 2)]
    mirror = [_invert_pulse(p, N) for p in reversed(run)]
    schedule = PulseSchedule(ModelParams(N), [random_pulse(rng)] + run + middle + mirror
                             + [random_pulse(rng)])
    assert _mirrored_runs(list(schedule.pulses)) == [(0, 1), (forward, core), (0, 1)]
    return schedule


@pytest.mark.parametrize("forward", [STACK - 1, STACK, STACK + 1])
def test_random_mirror_around_a_random_core_is_paired(forward):
    schedule = mirror_schedule(4, forward, 2, (29, forward))
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - keyed_reference(schedule))) <= 1e-12


@pytest.mark.parametrize("N,stack,forward", [(4, 32, 15), (30, 17, 16)],
                         ids=["straddle", "byte-cap"])
def test_mirrored_block_across_stack_boundaries(N, stack, forward):
    # a forward run ending inside a stack, its core of one stack's length
    # running on across the stack boundary; at N = 30 the stack is capped by
    # bytes below 32 pulses
    assert _stack_length(2 * N + 1) == stack
    schedule = mirror_schedule(N, forward, stack, (31, N))
    U = schedule_operator(schedule)
    assert np.max(np.abs(U - keyed_reference(schedule))) <= 1e-12


def test_hadamard_n9_pairs_every_inverse_full_control_pass():
    schedule = hadamard_schedule(9)
    pulses = schedule.pulses
    blocks = _mirrored_runs(list(pulses))
    assert len(blocks) == 18 and 0 not in [forward for forward, _ in blocks]
    start = 0
    for forward, core in blocks:
        labels = [p.label for p in pulses[start:start + 2 * forward + core]]
        assert labels[0] == "fold(+,q=8)"
        head, tail = labels[:forward], labels[:forward + core - 1:-1]
        assert tail == ["phase:b" if label == "phase:a" else "inv:" + label for label in head]
        # the core is the phase block, unless its second pulse undoes its
        # first (an eigenphase at pi), when the phase block joins the mirror
        if core:
            assert labels[forward:forward + core] == ["phase:a", "phase:b"]
            assert labels[forward - 1] == "doublet:y"
        else:
            assert labels[forward - 1:forward + 1] == ["phase:a", "phase:b"]
        start += 2 * forward + core
    skipped = [pulses[k].label for k in paired(schedule)]
    inverses = [p.label for p in pulses if p.label.startswith("inv:")]
    assert sorted(label for label in skipped if label != "phase:b") == sorted(inverses)
    assert len(pulses) - len(skipped) <= 352


@pytest.mark.parametrize("N", [3, 5])
def test_tilde_folds_pair_no_rotation(N):
    # a tilde half is not -H of its mirror image, so only the bare doublet
    # pulses (and a phase block at an eigenphase of pi) pair
    schedule = hadamard_schedule(N, "tilde")
    kinds = {_pulse_kind(schedule.pulses[k].label, N)[1] for k in paired(schedule)}
    assert "bare" in kinds and kinds <= {"bare", "phase"}


@pytest.mark.parametrize("field", ["T", "omega_1r", "phi_1r", "omega_01", "phi_01", "delta_01"])
def test_one_ulp_off_stops_the_mirror(field):
    schedule = hadamard_schedule(3)
    pulses = list(schedule.pulses)
    (f0, c0), *rest = _mirrored_runs(pulses)
    # the first inverse pulse of the first mirror with the control laser on
    depth = next(d for d in range(f0) if pulses[f0 + c0 + d].omega_01 != 0.0)
    k = f0 + c0 + depth
    value = getattr(pulses[k], field)
    pulses[k] = replace(pulses[k], **{field: math.nextafter(value, 0.0 if value else 1.0)})
    assert _mirrored_runs(pulses) == [(0, f0 - depth), (depth, c0), (0, f0 - depth)] + rest
    moved = PulseSchedule(schedule.params, pulses)
    assert np.max(np.abs(schedule_operator(moved) - keyed_reference(moved))) <= 1e-12


def test_bare_pulses_pair_whatever_their_control_phase():
    # at omega_01 = 0 the control phase is a gauge of a Hamiltonian that
    # commutes with it, so it does not enter the rule
    rng = np.random.default_rng(31)
    bare = replace(random_pulse(rng), omega_01=0.0, delta_01=0.0)
    core = random_pulse(rng)
    undo = replace(bare, phi_1r=wrap_phase(bare.phi_1r + math.pi),
                   phi_01=float(rng.uniform(-math.pi, math.pi)))
    schedule = PulseSchedule(ModelParams(3), [bare, core, undo])
    assert _mirrored_runs(list(schedule.pulses)) == [(1, 1)]
    assert np.max(np.abs(schedule_operator(schedule) - keyed_reference(schedule))) <= 1e-12


def traced_peak(schedule):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    schedule_operator(schedule)
    return tracemalloc.get_traced_memory()[1] - before


def test_schedule_operator_memory_does_not_grow_with_length():
    schedule = hadamard_schedule(9)
    assert len(schedule) == 668
    tracemalloc.start()
    try:
        schedule_operator(schedule)     # fills the builders' caches
        single = traced_peak(schedule)
        double = traced_peak(schedule.concat(schedule))
    finally:
        tracemalloc.stop()
    assert single <= 2 * 2 ** 20
    assert double <= 1.1 * single


def keyed_schedule(n, keys, seed):
    # n pulses at N = 12 cycling through `keys` random keys, each at its own
    # phi_01 and T
    rng = np.random.default_rng((seed, keys))
    bases = [random_pulse(rng) for _ in range(keys)]
    return PulseSchedule(ModelParams(12), [
        replace(bases[i % keys], phi_01=float(rng.uniform(-math.pi, math.pi)),
                T=float(rng.uniform(0.1, 8.0))) for i in range(n)])


def test_schedule_operator_memory_does_not_grow_with_distinct_keys():
    # each chunk stacks its own pulses' eigensystems from the cache, never
    # a copy of every key the schedule holds
    few, many = keyed_schedule(256, 64, 3), keyed_schedule(256, 128, 3)
    assert len(distinct_keys(few)) == 64 and len(distinct_keys(many)) == 128
    tracemalloc.start()
    try:
        for schedule in (few, many):
            schedule_operator(schedule)     # fills the key cache, which holds both sets
        peaks = [traced_peak(schedule) for schedule in (few, many)]
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


@given(N=st.integers(1, 12),
       phi_01=st.one_of(st.floats(-math.pi, math.pi), st.sampled_from([0.0, math.pi, -0.0])),
       phi_1r=st.floats(-math.pi, math.pi).filter(lambda x: x != 0.0),
       omega_01=st.floats(0.0, 2.0),
       delta_01=st.floats(-2.0, 2.0).filter(lambda x: x != 0.0))
@settings(deadline=None, max_examples=60)
def test_control_phase_is_a_gauge(N, phi_01, phi_1r, omega_01, delta_01):
    params = ModelParams(N)
    pulse = PulseParams(1.0, 1.0, phi_1r, omega_01, phi_01, delta_01)
    H = build_total(params, pulse)
    H0 = build_total(params, replace(pulse, phi_01=0.0))
    z = _gauge(N, phi_01)
    gauged = z[:, None] * H0 * z.conj()[None, :]
    # the phase phi_01 * q of the q-th level is rounded, so the bound grows with N
    eps = np.finfo(float).eps
    assert np.max(np.abs(H - gauged)) <= 2 * eps * (N * abs(phi_01) + 1) * np.max(np.abs(H))


@pytest.mark.parametrize("N,seed", [(3, 0), (5, 1)])
def test_run_schedule_final_state_matches_schedule_operator(N, seed):
    schedule = hadamard_schedule(N)
    psi = random_state(np.random.default_rng(seed), N)
    final = run_schedule(psi, schedule, samples_per_pulse=2).final_state
    expected = schedule_operator(schedule) @ psi.amplitudes
    assert np.max(np.abs(final.amplitudes - expected)) <= 1e-12


# --- stacked times ----------------------------------------------------------


def test_stacked_times_match_one_call_per_time():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    w, V = np.linalg.eigh(A + A.conj().T)
    X = rng.normal(size=9) + 1j * rng.normal(size=9)
    T = np.array([0.0, 0.3, 7.0])
    per_time = np.array([_propagate(w, V, t, X) for t in T])
    assert np.max(np.abs(_propagate(w, V, T, X) - per_time)) <= 1e-14


@pytest.mark.parametrize("shape", [(5, 5), (5, 3)], ids=["square", "non-square"])
def test_stacked_times_need_a_vector_operand(shape):
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    w, V = np.linalg.eigh(A + A.conj().T)
    X = np.eye(*shape, dtype=complex)
    with pytest.raises(ValueError, match="vector operand"):
        _propagate(w, V, np.array([0.5, 1.0]), X)
    # one time per call is the matrix operand's contract
    assert _propagate(w, V, 1.0, X).shape == shape

"""The benchmark's workloads: seeded inputs, one op each, and the checks.

Each workload has a pool of inputs.  Reference inputs come from a fixed key
and are the same for every seed; ``schedule_T`` and ``error_max`` are taken
over them, so those two figures compare across seeds.  Seeded inputs come
from ``--seed`` and are run and checked like the others.  The program only
ever sees the generated inputs.

An op calls the public functions of rydqudit through the package namespace
at call time, so that the traced run's wrappers see every call.  The checks
run after the op's clock has stopped and use the benchmark's own formulas.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

import rydqudit as rq

REFERENCE_KEY = 2502_06465


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Input:
    key: str            # names the input; repeats of one key must agree bit for bit
    reference: bool     # True for the fixed inputs behind schedule_T and error_max
    data: Any


@dataclass(frozen=True)
class Outcome:
    error: float            # physics error of this op
    duration: float         # total schedule duration, units of 1/omega_1r
    digest: str             # SHA-256 of the op's deterministic output
    schedule_sha256: str | None


class Steps:
    """Wall time of the named steps of one op."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _haar_qudit(rng: np.random.Generator, N: int) -> np.ndarray:
    """Haar-random unit vector on the 2N qudit levels; no |g,0> amplitude."""
    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
    v[0] = 0.0
    return v / np.linalg.norm(v)


def _pulse_bits(schedule) -> list[tuple]:
    return [(p.label, p.T.hex(), p.omega_1r.hex(), p.phi_1r.hex(), p.omega_01.hex(),
             p.phi_01.hex(), p.delta_01.hex()) for p in schedule.pulses]


def _check_round_trip(schedule, back) -> None:
    require(back.params.N == schedule.params.N
            and _pulse_bits(back) == _pulse_bits(schedule),
            "JSON round trip changed the schedule")


def _duration(schedule) -> float:
    return math.fsum(p.T for p in schedule.pulses)


class HadamardN9:
    """Generalized Hadamard at N=9, ratio 1e-2: ROADMAP's headline scan point."""

    name = "hadamard_n9"
    N = 9
    RATIO = 1e-2
    INFIDELITY_CEILING = 0.5    # seed value 0.287; a broken synthesis gives ~1

    def inputs(self, seed: int) -> list[Input]:
        del seed    # the input is fixed
        return [Input("hadamard", True, rq.hadamard_target(self.N))]

    def op(self, goal: np.ndarray, step: Steps):
        with step("compile"):
            schedule = rq.compile_unitary(goal, rq.CompileOptions(omega_01=self.RATIO))
        text = rq.schedule_to_json(schedule)
        back = rq.schedule_from_json(text)
        with step("simulate"):
            report = rq.extract_gate(back, goal)
        return schedule, text, back, report

    def check(self, goal: np.ndarray, out) -> Outcome:
        schedule, text, back, report = out
        _check_round_trip(schedule, back)
        U = np.asarray(report.full_operator)
        unitarity = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
        require(unitarity <= 1e-9, f"realized operator deviates from unitarity by {unitarity:.2e}")
        gate = U[1:, 1:]
        d = gate.shape[0]
        infid = 1.0 - abs(np.trace(goal.conj().T @ gate)) ** 2 / d**2
        require(0.0 <= infid <= self.INFIDELITY_CEILING,
                f"gate infidelity {infid:.3e} outside [0, {self.INFIDELITY_CEILING}]")
        return Outcome(infid, _duration(schedule), _sha256(text), _sha256(text))


class PrepTrajectory:
    """Haar state prep at N=12, ratio 1e-3, sampled, framed, written as CSV,
    then a projective measurement of a second state onto the target."""

    name = "prep_trajectory"
    N = 12
    RATIO = 1e-3
    SAMPLES_PER_PULSE = 64                      # the simulate command's default
    GAMMA_R_HZ, OMEGA_1R_HZ = 1e4, 2 * math.pi * 300e6   # Gamma^-1 = 100 us, 300 MHz
    POOL = 8                                    # reference inputs, and as many seeded
    PREP_CEILING = 1e-2                         # seed values 1e-4 .. 1e-3

    def __init__(self, out_dir: str) -> None:
        self.csv_path = os.path.join(out_dir, "trajectory.csv")

    def _pair(self, rng: np.random.Generator):
        target = rq.QuditState.from_vector(_haar_qudit(rng, self.N), normalize=True)
        state = rq.QuditState.from_vector(_haar_qudit(rng, self.N), normalize=True)
        return target, state

    def inputs(self, seed: int) -> list[Input]:
        pool = [Input(f"ref{k}", True, self._pair(np.random.default_rng((REFERENCE_KEY, k))))
                for k in range(self.POOL)]
        rng = np.random.default_rng(seed)
        pool += [Input(f"seed{k}", False, self._pair(rng)) for k in range(self.POOL)]
        return pool

    def op(self, data, step: Steps):
        target, state = data
        opts = rq.CompileOptions(omega_01=self.RATIO)
        with step("compile"):
            schedule = rq.compile_state_prep(target, opts)
        text = rq.schedule_to_json(schedule)
        back = rq.schedule_from_json(text)
        ground = rq.QuditState.basis_state(self.N, rq.DressedIndex.ground())
        with step("simulate"):
            traj = rq.run_schedule(ground, back, self.SAMPLES_PER_PULSE)
        framed = rq.interaction_frame(traj, back)
        decay = rq.DecayParams.from_physical(self.GAMMA_R_HZ, self.OMEGA_1R_HZ)
        survival = rq.decay_survival(traj, decay)
        csv = rq.cli.trajectory_to_csv(framed, mask_phases=True)
        rq.cli.write_atomic(self.csv_path, csv)
        probability = rq.measure_projection(state, target, opts)
        return schedule, text, back, traj, framed, survival, csv, probability

    def check(self, data, out) -> Outcome:
        target, state = data
        schedule, text, back, traj, framed, survival, csv, probability = out
        _check_round_trip(schedule, back)
        for states in (traj.states, framed.states):
            drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
            require(drift <= 1e-9, f"evolution changed the norm by {drift:.2e}")
        prep = 1.0 - abs(np.vdot(target.amplitudes, traj.states[-1])) ** 2
        require(0.0 <= prep <= self.PREP_CEILING, f"prep infidelity {prep:.3e} too large")
        require(0.0 < survival <= 1.0, f"decay survival {survival!r} outside (0, 1]")
        require(csv.count("\n") == len(traj.times) + 1, "CSV row count differs from samples")
        require(os.path.getsize(self.csv_path) == len(csv.encode()), "CSV file size differs")
        require(-1e-9 <= probability <= 1.0 + 1e-9,
                f"measurement probability {probability!r} outside [0, 1]")
        deviation = abs(probability - abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
        return Outcome(max(prep, deviation), _duration(schedule), _sha256(text), _sha256(text))


class OracleN6:
    """The validate command's work on a blockaded 6-atom array."""

    name = "oracle_n6"
    SPACING, WAVELENGTH, C6, DIM = 1.0, 0.5, 1e4, 2
    JITTER = 0.1            # uniform site offset, units of the spacing
    POOL = 2                # reference geometries, and as many seeded
    RATIO = 1e-2
    EVOLUTION_TIME = 10.0
    DEVIATION_CEILING = 0.05    # seed values 3e-3 .. 5e-3
    OVERLAP_FLOOR = 0.99        # seed values 1 - 6e-7

    def _geometry(self, rng: np.random.Generator):
        # a 3 x 2 lattice with seeded offsets; every pair stays well inside R_b
        sites = [(x + rng.uniform(-self.JITTER, self.JITTER),
                  y + rng.uniform(-self.JITTER, self.JITTER), 0.0)
                 for y in range(2) for x in range(3)]
        return rq.Geometry(tuple(sites), self.SPACING, self.WAVELENGTH, self.C6, self.DIM)

    def inputs(self, seed: int) -> list[Input]:
        pool = [Input(f"ref{k}", True, self._geometry(np.random.default_rng((REFERENCE_KEY, k))))
                for k in range(self.POOL)]
        rng = np.random.default_rng(seed)
        pool += [Input(f"seed{k}", False, self._geometry(rng)) for k in range(self.POOL)]
        return pool

    def op(self, geometry, step: Steps):
        pulse = rq.PulseParams(T=self.EVOLUTION_TIME, omega_1r=1.0, omega_01=self.RATIO)
        report = rq.validate_geometry(geometry)
        # no schedule is compiled here: "compile" times the static check
        with step("compile"):
            deviation = rq.compare_spectrum(geometry, pulse)
        with step("simulate"):
            overlap = rq.compare_evolution(geometry, pulse, self.EVOLUTION_TIME,
                                           rq.DressedIndex.branch(-1, 1))
        return report, deviation, overlap

    def check(self, geometry, out) -> Outcome:
        report, deviation, overlap = out
        pos = np.array(geometry.positions)
        dist = [float(np.linalg.norm(pos[i] - pos[j])) * geometry.a
                for i in range(len(pos)) for j in range(i + 1, len(pos))]
        blockade_radius = geometry.C6 ** (1.0 / 6.0)     # omega_1r = 1
        valid = min(dist) > geometry.wavelength and max(dist) < blockade_radius
        require(valid, "a pair of sites is closer than the wavelength or beyond R_b")
        require(report.ok, "validate_geometry rejects a valid geometry")
        require(0.0 <= overlap <= 1.0 + 1e-12, f"overlap {overlap!r} outside [0, 1]")
        require(overlap >= self.OVERLAP_FLOOR, f"overlap {overlap!r} below {self.OVERLAP_FLOOR}")
        require(0.0 <= deviation <= self.DEVIATION_CEILING,
                f"spectrum deviation {deviation!r} outside [0, {self.DEVIATION_CEILING}]")
        digest = _sha256(f"{deviation!r} {overlap!r}")
        return Outcome(max(deviation, 1.0 - overlap), self.EVOLUTION_TIME, digest, None)


class Runner:
    """Runs ops, checks them, and counts attempts and failures."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.outcomes = {}      # input key -> Outcome of its first successful op

    def run(self, inp, op_id=None):
        """One op, traced when op_id is given: (seconds, step seconds), or None."""
        self.attempted += 1
        steps = Steps()
        try:
            if op_id is not None:
                self.tracer.begin(op_id)
            t0 = time.perf_counter()
            try:
                out = self.workload.op(inp.data, steps)
            finally:
                elapsed = time.perf_counter() - t0
                if op_id is not None:
                    self.tracer.end()
            outcome = self.workload.check(inp.data, out)
            first = self.outcomes.setdefault(inp.key, outcome)
            require(outcome == first, f"a repeated op on input {inp.key} changed its output")
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return elapsed, steps.seconds


def make(name: str, out_dir: str):
    """The workload called ``name``; KeyError if there is none."""
    return {
        HadamardN9.name: HadamardN9,
        PrepTrajectory.name: lambda: PrepTrajectory(out_dir),
        OracleN6.name: OracleN6,
    }[name]()

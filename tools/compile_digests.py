"""Digests of what the compiler emits, to compare two checkouts bit for bit.

Usage: python3 tools/compile_digests.py [CHECKOUT_ROOT] [--dump FILE.npz]
       python3 tools/compile_digests.py --compare PARENT.npz CHANGE.npz

Imports rydqudit from CHECKOUT_ROOT/src (default: the checkout holding this
script) and prints one JSON object with one entry per case: the SHA-256 of
each schedule's JSON document and of its schedule_operator bytes, float.hex
of each measure_projection value, and the repr of the phase-pulse and
doublet calibrations.  The cases are state prep, a Haar phase gate
(Phi = -2.3), a uniform phase gate (pi/2) and a readout at N in {1, 2, 3, 5,
9}, ratio in {1e-3, 1e-2}, plain and tilde folds; Hadamard with and without
skip_zero_phases at N <= 3 and N = 9, ratio 1e-2, and with tilde folds at N
in {3, 5, 9} (at N = 9 many folds start at the south pole, where phi_01
follows rounding noise, so a rounding slip shows there first); seeded Haar
unitaries at N in {3, 5}, both ratios, plain and tilde folds; the identity with skip_zero_phases, which compiles no phase gate;
measure_projection with plain folds; state prep, readout and
measure_projection at N = 12, ratio 1e-3, plain folds, the size the
benchmark's prep_trajectory runs; and one inverted full-control schedule.
It also prints the SHA-256 of build_total's bytes at N in {1, 2, 3, 9, 12,
64}, omega_1r in {0, 0.7, 1, 2.5} and phi_1r in {0, pi/2, pi, -2}, without
and with a control term (omega_01 = 0.3, phi_01 = 0.7, delta_01 = 0.2), one
SHA-256 per such N of compiler._pair_coupling (h0's bytes, the rate, a0 and
the sense) over every coupled pair of core._couplings, in both orientations,
at omega_01 in {1e-3, 0.3}, and float.hex of the 3^N
oracle's compare_spectrum and compare_evolution (T = 10 from |-,1>) for the
equilateral triangle at C6 = 1e3, a seeded jittered
2x2 square at C6 = 1e4 and a seeded jittered 3x2 array at C6 = 1e4 (the
6-site arrays of the benchmark's oracle_n6), under a pulse with nonzero
phi_1r, phi_01 and delta_01, and the SHA-256 of run_schedule's
pulse-boundary states for the N = 12 state prep from |g,0> and the N = 3
Hadamard from a seeded state.  These calls keep one signature across
checkouts.  One more entry, _schedule_round_trip_failures, counts the
schedule cases whose JSON document does not come back byte for byte from
schedule_to_json(schedule_from_json(text)); it reads 0.

The bits depend on the numpy and LAPACK build, so compare two checkouts on
one machine, never against a stored file.  BLAS runs on one thread unless
the environment says otherwise:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/compile_digests.py ../parent > parent.json
    python3 tools/compile_digests.py > change.json
    cmp parent.json change.json

A change that moves operators by rounding changes their digests.  --dump
also writes each case's operator, each measure_projection value, the
boundary states of each run_schedule case and each oracle value to an .npz
file, and --compare reads two such files and prints, as JSON, per kind the
largest move (max |dU| over the operators, |dp| over the measurements,
max |dpsi| over the boundary states, |dx| over the oracle values), the case
where it occurs, and how many cases moved at all:

    python3 tools/compile_digests.py ../parent --dump parent.npz > parent.json
    python3 tools/compile_digests.py --dump change.npz > change.json
    python3 tools/compile_digests.py --compare parent.npz change.npz
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import json
import math
import sys

NS = (1, 2, 3, 5, 9)
RATIOS = (1e-3, 1e-2)
VARIANTS = ("plain", "tilde")
HAMILTONIAN_NS = (1, 2, 3, 9, 12, 64)
OMEGA_1RS = (0.0, 0.7, 1.0, 2.5)
PHI_1RS = (0.0, math.pi / 2, math.pi, -2.0)
CONTROLS = {"off": (0.0, 0.0, 0.0), "on": (0.3, 0.7, 0.2)}   # omega_01, phi_01, delta_01
PAIR_OMEGAS = (1e-3, 0.3)   # omega_01 of the _pair_coupling digests
ORACLE_PULSE = (1.0, 1.0, 0.7, 1e-2, -2.1, 0.2)   # T, omega_1r, phi_1r, omega_01, phi_01, delta_01
_MEASURE = "measure_projection "   # name prefix of the measurement cases
_TRAJECTORY = "run_schedule "       # of the boundary-state cases
_ORACLE = ("compare_spectrum ", "compare_evolution ")
# kind of case, the label of its largest move and its name prefixes; the
# empty prefix of the operators matches the names no other kind claims
_KINDS = (("measurements", "max_abs_dp", (_MEASURE,)),
          ("trajectories", "max_abs_dpsi", (_TRAJECTORY,)),
          ("oracle", "max_abs_dx", _ORACLE),
          ("operators", "max_abs_dU", ("",)))


def _kind(name: str) -> str:
    return next(kind for kind, _, prefixes in _KINDS if name.startswith(prefixes))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare(parent_path: str, change_path: str) -> None:
    """Print the largest move of each kind of case between two dumps."""
    import numpy as np

    with np.load(parent_path) as parent, np.load(change_path) as change:
        unmatched = sorted(set(parent.files) ^ set(change.files))
        if unmatched:
            sys.exit(f"the dumps hold different cases: {unmatched}")
        report = {}
        for kind, label, _ in _KINDS:
            names = sorted(n for n in parent.files if _kind(n) == kind)
            if not names:
                continue
            moves = {n: float(np.max(np.abs(change[n] - parent[n]))) for n in names}
            worst = max(names, key=moves.__getitem__)
            report[kind] = {"cases": len(names), "moved": sum(m != 0.0 for m in moves.values()),
                            label: moves[worst], "worst_case": worst}
    print(json.dumps(report, indent=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("root", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."),
                        help="checkout whose src/ to import (default: this script's)")
    parser.add_argument("--dump", metavar="FILE.npz",
                        help="also write each operator and measurement to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT.npz", "CHANGE.npz"),
                        help="compare two dumps instead of computing digests")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import numpy as np
    import rydqudit as rq
    from rydqudit import compiler, core
    from rydqudit.cli import schedule_from_json, schedule_to_json

    if not os.path.abspath(rq.__file__).startswith(src + os.sep):
        sys.exit(f"rydqudit was imported from {rq.__file__}, not from {src}")

    def haar(N: int, seed: int) -> rq.QuditState:
        rng = np.random.default_rng((seed, N))
        v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
        v[0] = 0.0
        return rq.QuditState.from_vector(v, normalize=True)

    def haar_unitary(N: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng((seed, N))
        Z = rng.normal(size=(2 * N, 2 * N)) + 1j * rng.normal(size=(2 * N, 2 * N))
        Q, R = np.linalg.qr(Z)
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    out = {}
    values = {}     # each case's operator or measurement, for --dump
    round_trip_failures = []

    def measure(N: int, ratio: float) -> None:
        name = f"{_MEASURE}N={N} ratio={ratio!r}"
        values[name] = rq.measure_projection(haar(N, 4), haar(N, 3),
                                             rq.CompileOptions(omega_01=ratio))
        out[name] = float.hex(values[name])

    def boundaries(name: str, initial: rq.QuditState, schedule: rq.PulseSchedule) -> None:
        traj = rq.run_schedule(initial, schedule, samples_per_pulse=2)
        values[name] = traj.states[traj.boundary_indices]
        out[name] = _sha256(values[name].tobytes())

    def digest(name: str, schedule: rq.PulseSchedule) -> None:
        text = schedule_to_json(schedule)
        if schedule_to_json(schedule_from_json(text)) != text:
            round_trip_failures.append(name)
        values[name] = rq.schedule_operator(schedule)
        out[name] = {
            "schedule_sha256": _sha256(text.encode()),
            "operator_sha256": _sha256(values[name].tobytes()),
        }

    for N in NS:
        for ratio in RATIOS:
            for variant in VARIANTS:
                opts = rq.CompileOptions(omega_01=ratio, fold_variant=variant)
                case = f"N={N} ratio={ratio!r} {variant}"
                digest(f"prep {case}", rq.compile_state_prep(haar(N, 1), opts))
                digest(f"phase haar {case}", rq.compile_phase_gate(haar(N, 2), -2.3, opts))
                digest(f"phase uniform {case}",
                       rq.compile_phase_gate(rq.QuditState.uniform(N), math.pi / 2, opts))
                digest(f"readout {case}", rq.compile_readout(haar(N, 3), opts))
            measure(N, ratio)
    opts = rq.CompileOptions(omega_01=1e-3)
    prep = rq.compile_state_prep(haar(12, 1), opts)
    digest("prep N=12 ratio=0.001 plain", prep)
    boundaries(f"{_TRAJECTORY}prep N=12 ratio=0.001 plain",
               rq.QuditState.basis_state(12, rq.DressedIndex.ground()), prep)
    digest("readout N=12 ratio=0.001 plain", rq.compile_readout(haar(12, 3), opts))
    measure(12, 1e-3)
    for N in (1, 2, 3, 9):
        for skip in (False, True):
            opts = rq.CompileOptions(omega_01=1e-2, skip_zero_phases=skip)
            hadamard = rq.compile_unitary(rq.hadamard_target(N), opts)
            digest(f"hadamard N={N} skip_zero_phases={skip}", hadamard)
            if N == 3 and not skip:
                boundaries(f"{_TRAJECTORY}hadamard N=3 ratio=0.01", haar(3, 4), hadamard)
    for N in (3, 5, 9):
        opts = rq.CompileOptions(omega_01=1e-2, fold_variant="tilde")
        digest(f"hadamard N={N} ratio=0.01 tilde", rq.compile_unitary(rq.hadamard_target(N), opts))
    for N in (3, 5):
        for ratio in RATIOS:
            for variant in VARIANTS:
                opts = rq.CompileOptions(omega_01=ratio, fold_variant=variant)
                digest(f"unitary haar N={N} ratio={ratio!r} {variant}",
                       rq.compile_unitary(haar_unitary(N, 6), opts))
    digest("identity N=3 skip_zero_phases=True",
           rq.compile_unitary(np.eye(6), rq.CompileOptions(omega_01=1e-2, skip_zero_phases=True)))
    forward = rq.compile_full_control(haar(5, 5), rq.CompileOptions(omega_01=1e-2,
                                                                    fold_variant="tilde"))
    digest("inverted full control N=5 ratio=0.01 tilde", rq.invert_full_control(forward))
    for N in HAMILTONIAN_NS:
        for omega_1r in OMEGA_1RS:
            for phi_1r in PHI_1RS:
                for control, (omega_01, phi_01, delta_01) in CONTROLS.items():
                    pulse = rq.PulseParams(1.0, omega_1r, phi_1r, omega_01, phi_01, delta_01)
                    H = rq.build_total(rq.ModelParams(N), pulse)
                    out[f"build_total N={N} omega_1r={omega_1r!r} phi_1r={phi_1r!r} "
                        f"control={control}"] = _sha256(H.tobytes())
        pairs = [pair for up, down in core._couplings(N) for pair in ((up, down), (down, up))]
        couplings = []
        for omega_01 in PAIR_OMEGAS:
            for pair in pairs:
                h0, rate, a0, sense = compiler._pair_coupling(N, omega_01, pair)
                couplings += [np.complex128(h0).tobytes(), np.array([rate, a0, sense]).tobytes()]
        out[f"_pair_coupling N={N}"] = _sha256(b"".join(couplings))
    h = math.sqrt(3) / 2
    jitter = np.random.default_rng(7).uniform(-0.1, 0.1, size=(4, 2))
    jitter_3x2 = np.random.default_rng(8).uniform(-0.1, 0.1, size=(6, 2))
    geometries = {
        "triangle C6=1e3": rq.Geometry(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, h, 0.0)),
                                       1.0, 0.5, 1e3, 2),
        "jittered square seed=7 C6=1e4": rq.Geometry(
            tuple((float(x + dx), float(y + dy), 0.0)
                  for (x, y), (dx, dy) in zip(((0, 0), (1, 0), (0, 1), (1, 1)), jitter)),
            1.0, 0.5, 1e4, 2),
        "jittered 3x2 seed=8 C6=1e4": rq.Geometry(
            tuple((float(x + dx), float(y + dy), 0.0)
                  for (x, y), (dx, dy) in zip(((x, y) for y in range(2) for x in range(3)),
                                              jitter_3x2)),
            1.0, 0.5, 1e4, 2),
    }
    pulse = rq.PulseParams(*ORACLE_PULSE)
    for name, g in geometries.items():
        values[f"compare_spectrum {name}"] = rq.compare_spectrum(g, pulse)
        values[f"compare_evolution {name}"] = rq.compare_evolution(
            g, pulse, 10.0, rq.DressedIndex.branch(-1, 1))
        for prefix in _ORACLE:
            out[prefix + name] = float.hex(values[prefix + name])
    out["_phase_calibration"] = repr(compiler._phase_calibration())
    out["_doublet_senses"] = repr(compiler._doublet_senses())
    out["_schedule_round_trip_failures"] = len(round_trip_failures)
    print(json.dumps(out, indent=1, sort_keys=True))
    if args.dump:
        np.savez(args.dump, **values)


if __name__ == "__main__":
    main()

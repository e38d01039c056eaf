"""Command-line front end: compile, simulate, scan, validate.

Owns the interchange formats: schedule documents and reports as JSON,
trajectories and scans as CSV.  All floats are serialized with repr, the
shortest string that round-trips (at most 17 significant digits), so
round-trips are lossless and identical inputs give byte-identical files;
output files are written atomically.  A schedule document is written by
filling fixed templates, byte for byte what json.dumps(indent=2) writes.

Exit codes: 0 success, 2 configuration error, 3 numeric/contract failure.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Optional

import click
import numpy as np

from .core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    QuditState,
    _PULSE_FIELDS,
    _number,
    hadamard_target,
    level_ordering,
)
from .propagator import (
    DEFAULT_SAMPLES_PER_PULSE,
    PulseSchedule,
    Trajectory,
    extract_gate,
    interaction_frame,
    run_schedule,
)
from .compiler import (
    CompileOptions,
    compile_phase_gate,
    compile_state_prep,
    compile_unitary,
)
from .metrics import (
    DecayParams,
    ScanResult,
    _scan_grid,
    decay_estimate,
    decay_survival,
    feasibility_frontier,
    scan,
)
from .fullspace import (
    FULLSPACE_SITE_CAP,
    Geometry,
    compare_evolution,
    compare_spectrum,
    validate_geometry,
)

SCHEDULE_FORMAT_VERSION = 1
UNIT_NOTE = "omega_1r = 1"

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------- serialization

_pulse_values = operator.itemgetter(*_PULSE_FIELDS)
# json.dumps(document, indent=2) + "\n" as two fixed templates: the document
# around its "pulses" value, and one pulse entry
_DOCUMENT = ('{\n  "format_version": %d,\n  "N": %%d,\n  "unit_note": %s,\n  "pulses": %%s\n}\n'
             % (SCHEDULE_FORMAT_VERSION, json.dumps(UNIT_NOTE)))
_ENTRY = '\n    {\n      "label": %s' + "".join(f',\n      "{k}": %r' for k in _PULSE_FIELDS) + "\n    }"


def schedule_to_json(schedule: PulseSchedule) -> str:
    """JSON text of a schedule document; each pulse number is a finite float, so %r writes as json."""
    entries = ",".join([_ENTRY % (encode_basestring_ascii(p.label), p.T, p.omega_1r, p.phi_1r,
                                  p.omega_01, p.phi_01, p.delta_01) for p in schedule.pulses])
    return _DOCUMENT % (schedule.params.N, f"[{entries}\n  ]" if entries else "[]")


def schedule_from_json(text: str) -> PulseSchedule:
    """Schedule of a format-v1 document; a wrong JSON type or a missing key raises ValueError.

    N and the pulse fields go to ModelParams and PulseParams as read, which
    check them.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("a schedule document must be a JSON object")
    version = doc.get("format_version")
    if version != SCHEDULE_FORMAT_VERSION:
        raise ValueError(f"unsupported schedule format_version {version!r}")
    try:
        params, pulses = ModelParams(doc["N"]), doc["pulses"]
    except KeyError as exc:
        raise ValueError(f"schedule document missing key {exc}") from None
    if type(pulses) is not list:
        raise ValueError("schedule pulses must be a JSON array")
    return PulseSchedule(params, tuple(_pulse_from_entry(p) for p in pulses))


def _pulse_from_entry(entry: dict) -> PulseParams:
    if type(entry) is not dict:
        raise ValueError(f"a pulse entry must be a JSON object, got {entry!r}")
    try:
        return PulseParams(*_pulse_values(entry), entry.get("label", ""))
    except KeyError as exc:
        raise ValueError(f"pulse entry missing key {exc}") from None


def _resolve_output(path: str) -> str:
    base = os.environ.get("RYDQUDIT_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def write_atomic(path: str, text: str) -> None:
    path = _resolve_output(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trajectory_to_csv(traj: Trajectory, mask_phases: bool = False) -> str:
    n_levels = traj.states.shape[1]
    N = (n_levels - 1) // 2
    names = ["g0"] + [f"{s}{q}" for q in range(1, N + 1) for s in ("m", "p")]
    header = "time," + ",".join(f"abs_{n},arg_{n}" for n in names)
    states = traj.states
    table = np.empty((states.shape[0], 1 + 2 * n_levels))
    table[:, 0] = traj.times
    mags, phases = table[:, 1::2], table[:, 2::2]
    # np.hypot, unlike np.abs on an array, gives the bits of the scalar abs();
    # np.arctan2(imag, real) is np.angle
    np.hypot(states.real, states.imag, out=mags)
    np.arctan2(states.imag, states.real, out=phases)
    if mask_phases:
        phases[mags < 1e-3] = 0.0
    # row by row, so only one row's Python floats exist at a time
    lines = [header] + [",".join(map(repr, row.tolist())) for row in table]
    return "\n".join(lines) + "\n"


def parse_state(spec: str, N: int) -> QuditState:
    """Named preset ("uniform", "minus1", "basis:+,2") or two-column file."""
    if spec == "uniform":
        return QuditState.uniform(N)
    if spec == "minus1":
        return QuditState.basis_state(N, DressedIndex.branch(-1, 1))
    if spec == "g0":
        return QuditState.basis_state(N, DressedIndex.ground())
    if spec.startswith("basis:"):
        body = spec[len("basis:"):]
        sign_str, _, q_str = body.partition(",")
        if sign_str not in ("+", "-") or not q_str.isdigit():
            raise ValueError(f"malformed basis preset {spec!r}, expected basis:+,q")
        q = int(q_str)
        if not 1 <= q <= N:
            raise ValueError(f"basis level q={q} out of range for N={N}")
        return QuditState.basis_state(N, DressedIndex.branch(1 if sign_str == "+" else -1, q))
    data = np.loadtxt(spec, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("state file must have two columns: real and imaginary parts")
    if not np.isfinite(data).all():
        raise ValueError("state file holds a non-finite amplitude")
    amp = data[:, 0] + 1j * data[:, 1]
    if amp.size == 2 * N:
        amp = np.concatenate([[0.0], amp])
    if amp.size != 2 * N + 1:
        raise ValueError(f"state file has {data.shape[0]} rows, expected 2N or 2N+1 for N={N}")
    return QuditState.from_vector(amp, normalize=True)


def _phase_gate_target(target: QuditState, phi: float) -> np.ndarray:
    phi = _number("--phi", phi)
    tp = target.qudit_part()
    return (np.eye(2 * target.N, dtype=complex)
            + (np.exp(1j * phi) - 1.0) * np.outer(tp, tp.conj()))


def _load_unitary(path: str) -> np.ndarray:
    """Matrix of a JSON array of rows of [re, im] entries, bare or under "matrix"."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        rows = doc["matrix"] if isinstance(doc, dict) else doc
    except KeyError as exc:
        raise ValueError(f"unitary document missing key {exc}") from None
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise ValueError("a unitary must be a JSON array of rows")

    def entry(i: int, j: int, c) -> complex:
        name = f"unitary entry [{i}][{j}]"
        if type(c) is not list or len(c) != 2:
            raise ValueError(f"{name} must be [re, im] of finite numbers, got {c!r}")
        return complex(_number(name, c[0]), _number(name, c[1]))

    return np.array([[entry(i, j, c) for j, c in enumerate(row)] for i, row in enumerate(rows)])


def _exit_codes(fn):
    """Map contract failures to exit 3 and configuration problems to exit 2."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ContractViolation as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
    return wrapper


def _decay_from_flags(gamma_r: Optional[float], gamma_r_hz: Optional[float],
                      omega1r_hz: Optional[float]) -> DecayParams:
    if gamma_r is not None:
        return DecayParams(gamma_r)
    if gamma_r_hz is not None and omega1r_hz is not None:
        return DecayParams.from_physical(gamma_r_hz, omega1r_hz)
    if gamma_r_hz is not None or omega1r_hz is not None:
        raise ValueError("--gamma-r-hz and --omega1r-hz must be given together")
    return DecayParams(0.0)


# ---------------------------------------------------------------------- commands

@click.group()
def main() -> None:
    """Compile and verify laser pulse schedules for dressed-ladder qudits."""


@main.command("compile")
@click.option("--gate", type=click.Choice(["phase", "hadamard", "prep", "unitary"]),
              required=True, help="Kind of operation to synthesize.")
@click.option("--n", "-N", "n_atoms", type=int, required=True, help="Atom count N.")
@click.option("--ratio", type=float, required=True, help="omega_01/omega_1r.")
@click.option("--phi", type=float, default=math.pi / 2, show_default="pi/2",
              help="Phase-gate angle (phase gate only).")
@click.option("--target", "target_spec", default="uniform", show_default=True,
              help="Target state preset or file (phase gate and prep).")
@click.option("--unitary", "unitary_file", type=click.Path(exists=True), default=None,
              help="JSON matrix file (gate kind 'unitary').")
@click.option("--fold-variant", type=click.Choice(["plain", "tilde"]), default="plain",
              show_default=True)
@click.option("--skip-zero-phases", is_flag=True, default=False,
              help="Omit phase gates whose eigenphase vanishes (unitary kind).")
@click.option("--output", "-o", default="schedule.json", show_default=True)
@_exit_codes
def cmd_compile(gate: str, n_atoms: int, ratio: float, phi: float, target_spec: str,
                unitary_file: Optional[str], fold_variant: str,
                skip_zero_phases: bool, output: str) -> None:
    """Synthesize a pulse schedule and write it as a JSON document."""
    n_atoms = ModelParams(n_atoms).N     # the atom-count rule, before anything is sized by N
    opts = CompileOptions(omega_01=ratio, fold_variant=fold_variant,
                          skip_zero_phases=skip_zero_phases)
    if gate == "phase":
        schedule = compile_phase_gate(parse_state(target_spec, n_atoms), phi, opts)
    elif gate == "hadamard":
        schedule = compile_unitary(hadamard_target(n_atoms), opts)
    elif gate == "prep":
        schedule = compile_state_prep(parse_state(target_spec, n_atoms), opts)
    else:
        if unitary_file is None:
            raise ValueError("gate kind 'unitary' requires --unitary FILE")
        U = _load_unitary(unitary_file)
        if U.shape[0] != 2 * n_atoms:
            raise ValueError(f"matrix dimension {U.shape[0]} does not match N={n_atoms}")
        schedule = compile_unitary(U, opts)
    write_atomic(output, schedule_to_json(schedule))
    click.echo(f"{len(schedule)} pulses, total duration {schedule.total_duration!r}")


@main.command("simulate")
@click.argument("schedule_file", type=click.Path(exists=True))
@click.option("--initial", "initial_spec", default=None,
              help="Initial state for the trajectory (preset or file).")
@click.option("--trajectory", "trajectory_out", default=None,
              help="Trajectory CSV output path.")
@click.option("--report", "report_out", default="report.json", show_default=True)
@click.option("--samples-per-pulse", type=click.IntRange(min=1),
              default=DEFAULT_SAMPLES_PER_PULSE, show_default=True)
@click.option("--frame", type=click.Choice(["lab", "interaction"]), default="lab",
              show_default=True, help="Divide out diagonal phases if 'interaction'.")
@click.option("--mask-phases", is_flag=True, default=False,
              help="Zero the exported phases where the amplitude is below 1e-3.")
@click.option("--expect", type=click.Choice(["phase", "hadamard"]), default=None,
              help="Target gate for the infidelity entry of the report.")
@click.option("--phi", type=float, default=math.pi / 2, show_default="pi/2")
@click.option("--target", "target_spec", default="uniform", show_default=True)
@click.option("--gamma-r", type=float, default=None,
              help="Rydberg decay rate in omega_1r units.")
@click.option("--gamma-r-hz", type=float, default=None)
@click.option("--omega1r-hz", type=float, default=None)
@_exit_codes
def cmd_simulate(schedule_file: str, initial_spec: Optional[str],
                 trajectory_out: Optional[str], report_out: str,
                 samples_per_pulse: int, frame: str, mask_phases: bool,
                 expect: Optional[str], phi: float, target_spec: str,
                 gamma_r: Optional[float], gamma_r_hz: Optional[float],
                 omega1r_hz: Optional[float]) -> None:
    """Simulate a schedule: gate report JSON plus optional trajectory CSV."""
    with open(schedule_file) as fh:
        schedule = schedule_from_json(fh.read())
    N = schedule.params.N
    decay = _decay_from_flags(gamma_r, gamma_r_hz, omega1r_hz)
    target_gate = None
    if expect == "phase":
        target_gate = _phase_gate_target(parse_state(target_spec, N), phi)
    elif expect == "hadamard":
        target_gate = hadamard_target(N)
    report = extract_gate(schedule, target=target_gate)
    survival = decay_estimate(schedule.total_duration, decay)
    if initial_spec is not None:
        traj = run_schedule(parse_state(initial_spec, N), schedule, samples_per_pulse)
        survival = decay_survival(traj, decay)
        if trajectory_out is not None:
            out = interaction_frame(traj, schedule) if frame == "interaction" else traj
            write_atomic(trajectory_out, trajectory_to_csv(out, mask_phases))
    elif trajectory_out is not None:
        raise ValueError("--trajectory requires --initial")
    doc = {
        "infidelity": report.infidelity,
        "leakage": report.leakage,
        "T_tot": report.total_duration,
        "pulse_count": report.pulse_count,
        "survival": survival,
        "decay_probability": 1.0 - survival,
    }
    write_atomic(report_out, json.dumps(doc, indent=2) + "\n")
    click.echo(f"pulse_count {report.pulse_count}, T_tot {report.total_duration!r}"
               + ("" if report.infidelity is None else f", infidelity {report.infidelity!r}"))


@main.command("scan")
@click.option("--kind", type=click.Choice(["phase", "hadamard", "prep"]), required=True)
@click.option("--n", "-N", "n_list", type=int, multiple=True, required=True)
@click.option("--ratio", "ratio_list", type=float, multiple=True, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--gamma-r", type=float, default=None)
@click.option("--gamma-r-hz", type=float, default=None)
@click.option("--omega1r-hz", type=float, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel workers for grid points.")
@click.option("--output", "-o", default="scan.csv", show_default=True)
@click.option("--frontier", "frontier_out", default=None,
              help="Also write per-N feasibility verdicts as JSON.")
@_exit_codes
def cmd_scan(kind: str, n_list: tuple[int, ...], ratio_list: tuple[float, ...],
             seed: int, gamma_r: Optional[float], gamma_r_hz: Optional[float],
             omega1r_hz: Optional[float], jobs: int, output: str,
             frontier_out: Optional[str]) -> None:
    """Compile + simulate a (N, ratio) grid and export it as CSV."""
    _scan_grid(n_list, ratio_list)      # every atom count and ratio, before any worker starts
    decay = _decay_from_flags(gamma_r, gamma_r_hz, omega1r_hz)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # one scan per grid point, concatenated in scan's own N-major order
        grid = [(N, r) for N in n_list for r in ratio_list]
        point = functools.partial(scan, kind, decay=decay, seed=seed)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(point, [[N] for N, _ in grid], [[r] for _, r in grid]))
        result = ScanResult(tuple(row for part in parts for row in part.rows))
    else:
        result = scan(kind, list(n_list), list(ratio_list), decay, seed)
    write_atomic(output, result.to_csv_text())
    if frontier_out is not None:
        verdicts = [
            {"N": v.N, "kind": v.kind, "feasible": v.feasible,
             "crossing_ratio": v.crossing_ratio,
             "crossing_infidelity": v.crossing_infidelity}
            for v in feasibility_frontier(result)
        ]
        write_atomic(frontier_out, json.dumps(verdicts, indent=2) + "\n")
    click.echo(f"{len(result.rows)} grid points written")


@main.command("validate")
@click.argument("geometry_file", type=click.Path(exists=True))
@click.option("--ratio", type=float, default=1e-2, show_default=True,
              help="omega_01/omega_1r during the comparison pulse.")
@click.option("--evolution-time", type=float, default=10.0, show_default=True)
@click.option("--initial", "initial_spec", default="basis:-,1", show_default=True)
@click.option("--allow-invalid", is_flag=True, default=False,
              help="Run the comparison even if the geometry checks fail.")
@click.option("--output", "-o", default="validate.json", show_default=True)
@_exit_codes
def cmd_validate(geometry_file: str, ratio: float, evolution_time: float,
                 initial_spec: str, allow_invalid: bool, output: str) -> None:
    """Check the geometry and compare the ladder model with the 3^N oracle."""
    with open(geometry_file) as fh:
        geometry = Geometry.from_dict(json.load(fh))
    if geometry.N > FULLSPACE_SITE_CAP:
        raise ValueError(f"full comparison is capped at {FULLSPACE_SITE_CAP} sites")
    report = validate_geometry(geometry)
    state = parse_state(initial_spec, geometry.N)
    idx = next((i for i in level_ordering(geometry.N)
                if abs(state.amplitudes[i.position()]) > 1 - 1e-12), None)
    if idx is None:
        raise ValueError("--initial must name a single dressed basis level")
    pulse = PulseParams(T=evolution_time, omega_1r=1.0, omega_01=ratio)
    dev = compare_spectrum(geometry, pulse, allow_invalid_geometry=allow_invalid)
    overlap = compare_evolution(geometry, pulse, evolution_time, idx,
                                allow_invalid_geometry=allow_invalid)
    doc = {
        "N": geometry.N,
        "blockade_radius": report.blockade_radius,
        "collision_ok": report.collision_ok,
        "collision_margin": report.collision_margin,
        "blockade_ok": report.blockade_ok,
        "blockade_margin": report.blockade_margin,
        "spectrum_deviation": dev,
        "evolution_overlap": overlap,
    }
    write_atomic(output, json.dumps(doc, indent=2) + "\n")
    click.echo(f"geometry {'ok' if report.ok else 'INVALID'}, "
               f"spectrum deviation {dev!r}, evolution overlap {overlap!r}")


if __name__ == "__main__":
    main()

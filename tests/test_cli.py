"""Command-line interface: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rydqudit
from rydqudit import cli
from rydqudit.cli import (
    main,
    parse_state,
    schedule_from_json,
    schedule_to_json,
    trajectory_to_csv,
    write_atomic,
)
from rydqudit.core import DressedIndex, ModelParams, PulseParams, QuditState, hadamard_target
from rydqudit.compiler import (
    CompileOptions,
    compile_phase_gate,
    compile_readout,
    compile_state_prep,
    compile_unitary,
)
from rydqudit.propagator import PulseSchedule, Trajectory, extract_gate, run_schedule


@pytest.fixture
def runner():
    return CliRunner()


def sample_schedule():
    return compile_phase_gate(QuditState.uniform(2), 1.1, CompileOptions(omega_01=1e-2))


def test_schedule_json_round_trip_exact():
    schedule = sample_schedule()
    text = schedule_to_json(schedule)
    parsed = schedule_from_json(text)
    assert parsed.params.N == schedule.params.N
    assert parsed.pulses == schedule.pulses
    assert schedule_to_json(parsed) == text


def reference_json(schedule: PulseSchedule) -> str:
    """The document as json.dumps writes it, which the template writer must match byte for byte."""
    document = {
        "format_version": 1,
        "N": schedule.params.N,
        "unit_note": "omega_1r = 1",
        "pulses": [{"label": p.label, "T": p.T, "omega_1r": p.omega_1r, "phi_1r": p.phi_1r,
                    "omega_01": p.omega_01, "phi_01": p.phi_01, "delta_01": p.delta_01}
                   for p in schedule.pulses],
    }
    return json.dumps(document, indent=2) + "\n"


def assert_writes_reference_and_round_trips(schedule: PulseSchedule) -> None:
    text = schedule_to_json(schedule)
    assert text == reference_json(schedule)
    back = schedule_from_json(text)
    assert back == schedule
    assert schedule_to_json(back) == text


def test_template_writer_matches_json_dumps_on_compiled_schedules():
    opts = CompileOptions(omega_01=1e-2)
    target = QuditState.uniform(3)
    schedules = {
        "empty": PulseSchedule(ModelParams(4), ()),
        "phase": compile_phase_gate(target, 1.1, opts),
        "hadamard": compile_unitary(hadamard_target(3), opts),
        "prep": compile_state_prep(target, opts),
        "readout": compile_readout(target, opts),
    }
    assert schedule_to_json(schedules["empty"]).endswith('"pulses": []\n}\n')
    for kind, schedule in schedules.items():
        assert len(schedule) > 0 or kind == "empty"
        assert_writes_reference_and_round_trips(schedule)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.one_of(
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "≈", "😀",
                     "\ud800"]),
    st.text(),
), min_size=1, max_size=4))
def test_template_writer_quotes_labels_as_json_does(labels):
    schedule = PulseSchedule(ModelParams(2), tuple(PulseParams(1.0, label=label) for label in labels))
    assert_writes_reference_and_round_trips(schedule)


finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-7, 1e16, 1e300, -1e300, math.pi, -math.pi,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite_floats, min_size=6, max_size=6))
def test_template_writer_writes_floats_as_json_does(values):
    T, omega_1r, phi_1r, omega_01, phi_01, delta_01 = values
    pulse = PulseParams(abs(T), abs(omega_1r), phi_1r, abs(omega_01), phi_01, delta_01, "x")
    assert_writes_reference_and_round_trips(PulseSchedule(ModelParams(1), (pulse,)))


def test_schedule_json_structure():
    doc = json.loads(schedule_to_json(sample_schedule()))
    assert doc["format_version"] == 1
    assert doc["unit_note"] == "omega_1r = 1"
    assert doc["N"] == 2
    assert set(doc["pulses"][0]) == {"label", "T", "omega_1r", "phi_1r",
                                     "omega_01", "phi_01", "delta_01"}


def test_schedule_json_rejects_unknown_version():
    with pytest.raises(ValueError):
        schedule_from_json('{"format_version": 99, "N": 2, "pulses": []}')


def test_parse_state_presets():
    assert parse_state("uniform", 3).ground_population() == 0.0
    m = parse_state("minus1", 2)
    assert abs(m.amplitudes[DressedIndex.branch(-1, 1).position()]) == 1.0
    b = parse_state("basis:+,2", 3)
    assert abs(b.amplitudes[DressedIndex.branch(+1, 2).position()]) == 1.0
    with pytest.raises(ValueError):
        parse_state("basis:?,1", 3)
    with pytest.raises(ValueError):
        parse_state("basis:+,9", 3)


def test_parse_state_file(tmp_path):
    path = tmp_path / "state.txt"
    rows = ["0.5 0.0", "0.0 0.5", "0.5 0.0", "0.0 -0.5"]  # 2N columns, N=2
    path.write_text("\n".join(rows) + "\n")
    state = parse_state(str(path), 2)
    assert state.ground_population() == 0.0
    assert state.amplitudes[2] == pytest.approx(0.5j)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_state(str(bad), 2)


def test_trajectory_csv_masking():
    schedule = PulseSchedule(ModelParams(1), (PulseParams(1.0, omega_1r=1e-12,
                                                          delta_01=0.3),))
    initial = QuditState.from_vector([0.0, 1e-4, 1.0], normalize=True)
    traj = run_schedule(initial, schedule, samples_per_pulse=2)
    masked = trajectory_to_csv(traj, mask_phases=True)
    unmasked = trajectory_to_csv(traj, mask_phases=False)
    last_masked = masked.strip().splitlines()[-1].split(",")
    last_plain = unmasked.strip().splitlines()[-1].split(",")
    # |-,1> amplitude ~1e-4 < 1e-3: its phase column must be zeroed
    assert float(last_masked[4]) == 0.0
    assert float(last_plain[4]) != 0.0


def ref_trajectory_to_csv(traj, mask_phases=False):
    """The cell-by-cell formatter that trajectory_to_csv must reproduce byte for byte."""
    n_levels = traj.states.shape[1]
    N = (n_levels - 1) // 2
    names = ["g0"] + [f"{s}{q}" for q in range(1, N + 1) for s in ("m", "p")]
    lines = ["time," + ",".join(f"abs_{n},arg_{n}" for n in names)]
    for t, st in zip(traj.times, traj.states):
        cells = [repr(float(t))]
        for a in st:
            mag = abs(a)
            ph = 0.0 if (mask_phases and mag < 1e-3) else float(np.angle(a))
            cells.append(repr(float(mag)))
            cells.append(repr(ph))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mask_phases", [False, True])
def test_trajectory_csv_matches_reference_bytes(mask_phases):
    schedule = sample_schedule()
    trajectories = [run_schedule(QuditState.uniform(2), schedule, samples_per_pulse=4)]
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-3, 1e-300):
        states = scale * (rng.normal(size=(500, 7)) + 1j * rng.normal(size=(500, 7)))
        states[:5] = [0.0, -0.0, 1e-3, -1e-3 + 0j, complex(-0.0, -0.0), 1j, -1.0]
        trajectories.append(Trajectory(np.sort(rng.uniform(0.0, 1e5, 500)), states))
    for traj in trajectories:
        text = trajectory_to_csv(traj, mask_phases)
        assert text.encode() == ref_trajectory_to_csv(traj, mask_phases).encode()


def test_write_atomic_and_env_override(tmp_path, monkeypatch):
    direct = tmp_path / "sub" / "a.txt"
    write_atomic(str(direct), "hello")
    assert direct.read_text() == "hello"
    monkeypatch.setenv("RYDQUDIT_OUTPUT_DIR", str(tmp_path / "envdir"))
    write_atomic("b.txt", "world")
    assert (tmp_path / "envdir" / "b.txt").read_text() == "world"
    assert not any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())


def test_compile_deterministic_bytes(runner, tmp_path):
    args = ["compile", "--gate", "phase", "-N", "3", "--ratio", "1e-2",
            "--phi", "0.7", "--target", "uniform"]
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (out1, out2):
        res = runner.invoke(main, args + ["-o", str(out)])
        assert res.exit_code == 0, res.output
    assert out1.read_bytes() == out2.read_bytes()


def test_compile_then_simulate_round_trip(runner, tmp_path):
    sched_path = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "phase", "-N", "2",
                               "--ratio", "1e-2", "-o", str(sched_path)])
    assert res.exit_code == 0, res.output
    report_path = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", str(sched_path),
                               "--expect", "phase", "--phi", str(math.pi / 2),
                               "--report", str(report_path)])
    assert res.exit_code == 0, res.output
    report = json.loads(report_path.read_text())
    # parsed schedule must reproduce the in-memory simulation to 1e-12
    in_memory = extract_gate(schedule_from_json(sched_path.read_text()))
    direct = extract_gate(compile_phase_gate(QuditState.uniform(2), math.pi / 2,
                                             CompileOptions(omega_01=1e-2)))
    assert report["leakage"] == pytest.approx(direct.leakage, abs=1e-12)
    assert report["T_tot"] == pytest.approx(direct.total_duration, abs=1e-12)
    assert report["pulse_count"] == direct.pulse_count
    assert np.max(np.abs(in_memory.full_operator - direct.full_operator)) <= 1e-12


def test_compile_prep_and_hadamard(runner, tmp_path):
    res = runner.invoke(main, ["compile", "--gate", "prep", "-N", "2",
                               "--ratio", "1e-2", "--target", "minus1",
                               "-o", str(tmp_path / "p.json")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["compile", "--gate", "hadamard", "-N", "2",
                               "--ratio", "1e-2", "-o", str(tmp_path / "h.json")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "h.json").read_text())
    assert doc["N"] == 2 and len(doc["pulses"]) > 0


def test_compile_unitary_from_file(runner, tmp_path):
    U = np.diag(np.exp(1j * np.array([0.3, -0.5, 1.0, 0.0])))
    matrix = [[[c.real, c.imag] for c in row] for row in U]
    mat_path = tmp_path / "u.json"
    mat_path.write_text(json.dumps({"matrix": matrix}))
    res = runner.invoke(main, ["compile", "--gate", "unitary", "-N", "2",
                               "--ratio", "1e-2", "--unitary", str(mat_path),
                               "-o", str(tmp_path / "u_sched.json")])
    assert res.exit_code == 0, res.output


def test_simulate_trajectory_output(runner, tmp_path):
    sched_path = tmp_path / "s.json"
    runner.invoke(main, ["compile", "--gate", "phase", "-N", "2",
                         "--ratio", "1e-2", "-o", str(sched_path)])
    traj_path = tmp_path / "t.csv"
    res = runner.invoke(main, ["simulate", str(sched_path), "--initial", "uniform",
                               "--trajectory", str(traj_path),
                               "--frame", "interaction", "--mask-phases",
                               "--samples-per-pulse", "4",
                               "--report", str(tmp_path / "r.json")])
    assert res.exit_code == 0, res.output
    lines = traj_path.read_text().splitlines()
    assert lines[0].startswith("time,abs_g0,arg_g0,abs_m1")


@pytest.mark.parametrize("initial", [[], ["--initial", "uniform"]], ids=["report", "trajectory"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_sample_per_pulse(runner, tmp_path, samples, initial):
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(sample_schedule()))
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", str(sched_path), *initial,
                               "--samples-per-pulse", samples, "--report", str(report)])
    assert res.exit_code == 2
    assert "--samples-per-pulse" in res.output
    assert not report.exists()


def test_exit_code_config_errors(runner, tmp_path):
    res = runner.invoke(main, ["compile", "--gate", "phase", "-N", "3",
                               "--ratio", "1e-2", "--target", "basis:+,9",
                               "-o", str(tmp_path / "x.json")])
    assert res.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 5, "N": 2, "pulses": []}')
    res = runner.invoke(main, ["simulate", str(bad)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["compile", "--gate", "unitary", "-N", "2",
                               "--ratio", "1e-2"])
    assert res.exit_code == 2


def test_simulate_rejects_negative_amplitude(runner, tmp_path):
    doc = json.loads(schedule_to_json(sample_schedule()))
    doc["pulses"][0]["omega_1r"] = -1.0
    bad = tmp_path / "neg.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["simulate", str(bad)])
    assert res.exit_code == 2
    assert "omega_1r" in res.output


def test_exit_code_numeric_failure(runner, tmp_path):
    # non-unitary matrix input must exit 3
    U = np.eye(4) * 1.2
    matrix = [[[c.real, c.imag] for c in row] for row in U]
    mat_path = tmp_path / "nu.json"
    mat_path.write_text(json.dumps({"matrix": matrix}))
    res = runner.invoke(main, ["compile", "--gate", "unitary", "-N", "2",
                               "--ratio", "1e-2", "--unitary", str(mat_path)])
    assert res.exit_code == 3


@pytest.mark.parametrize("row", ["nan 0", "inf 0", "0 -inf"])
def test_state_files_reject_non_finite_amplitudes(runner, tmp_path, row):
    path = tmp_path / "state.txt"
    path.write_text(row + "\n1 0\n0 0\n0 0\n0 0\n")     # N=2, 2N+1 rows
    with pytest.raises(ValueError, match="non-finite"):
        parse_state(str(path), 2)
    sched_path = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "prep", "-N", "2", "--ratio", "1e-2",
                               "--target", str(path), "-o", str(sched_path)])
    assert res.exit_code == 2, res.output
    assert not sched_path.exists()
    sched_path.write_text(schedule_to_json(sample_schedule()))
    report, traj = tmp_path / "r.json", tmp_path / "t.csv"
    res = runner.invoke(main, ["simulate", str(sched_path), "--initial", str(path),
                               "--trajectory", str(traj), "--report", str(report)])
    assert res.exit_code == 2, res.output
    assert not report.exists() and not traj.exists()


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_phi_must_be_finite(runner, tmp_path, phi):
    sched_path = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "phase", "-N", "2", "--ratio", "1e-2",
                               "--phi", phi, "-o", str(sched_path)])
    assert res.exit_code == 2, res.output
    assert phi in res.output and not sched_path.exists()
    sched_path.write_text(schedule_to_json(sample_schedule()))
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", str(sched_path), "--expect", "phase",
                               "--phi", phi, "--report", str(report)])
    assert res.exit_code == 2, res.output
    assert "--phi" in res.output and not report.exists()


@pytest.mark.parametrize("args", [
    ["compile", "--gate", "phase", "-N", "2", "--ratio", "inf"],
    ["compile", "--gate", "phase", "-N", "2", "--ratio", "1e400"],
    ["scan", "--kind", "phase", "-N", "2", "--ratio", "inf"],
], ids=["compile-inf", "compile-1e400", "scan-inf"])
def test_non_finite_ratio_is_a_configuration_error(runner, tmp_path, args):
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["-o", str(out)])
    assert res.exit_code == 2, res.output
    assert "omega_01" in res.output
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("[[1, 0], [0, 1]]", "entry [0][0]"),
    ("[[[1, 0], [0, 0]], [[0, 0], [1]]]", "entry [1][1]"),
    ('{"matrix": 5}', "array of rows"),
    ("[[[1, 0], [0, 0]], 7]", "array of rows"),
    ("[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]", "entry [1][1]"),
    ("[[[1, 0], [0, 0]], [[0, 0], [0, Infinity]]]", "entry [1][1]"),
    ("[[[1, 0], [0, 0]], [[0, 0], [1" + "0" * 400 + ", 0]]]", "entry [1][1]"),
    ('[[[1, 0], [0, 0]], [[0, 0], [true, 0]]]', "entry [1][1]"),
    ('{"rows": [[[1, 0]]]}', "unitary document missing key 'matrix'"),
], ids=["bare-numbers", "short-entry", "matrix-not-array", "row-not-array", "nan",
        "infinity", "huge-integer", "bool", "missing-matrix"])
def test_compile_rejects_malformed_unitary_files(runner, tmp_path, text, message):
    mat_path = tmp_path / "u.json"
    mat_path.write_text(text)
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "unitary", "-N", "1", "--ratio", "1e-2",
                               "--unitary", str(mat_path), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not out.exists()


def test_scan_command_and_jobs_determinism(runner, tmp_path):
    base = ["scan", "--kind", "phase", "-N", "2", "-N", "3", "--ratio", "1e-2",
            "--ratio", "2e-2", "--gamma-r", "1e-6"]
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    res = runner.invoke(main, base + ["-o", str(seq)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, base + ["--jobs", "2", "-o", str(par)])
    assert res.exit_code == 0, res.output
    assert seq.read_bytes() == par.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_scan_rejects_fewer_than_one_job(runner, tmp_path, jobs):
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["scan", "--kind", "phase", "-N", "2", "--ratio", "1e-2",
                               "--jobs", jobs, "-o", str(out)])
    assert res.exit_code == 2
    assert "--jobs" in res.output
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--gamma-r", "nan"],
    ["--gamma-r", "inf"],
    ["--gamma-r-hz", "1.0", "--omega1r-hz", "inf"],
    ["--gamma-r-hz", "nan", "--omega1r-hz", "1e9"],
], ids=["nan", "inf", "inf-omega", "nan-hz"])
def test_decay_flags_reject_non_finite_rates(runner, tmp_path, flags):
    scan_out = tmp_path / "s.csv"
    res = runner.invoke(main, ["scan", "--kind", "phase", "-N", "2", "--ratio", "1e-2",
                               "-o", str(scan_out), *flags])
    assert res.exit_code == 2, res.output
    assert not scan_out.exists()
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(schedule_to_json(sample_schedule()))
    report_path = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", str(sched_path), "--initial", "uniform",
                               "--report", str(report_path), *flags])
    assert res.exit_code == 2, res.output
    assert "finite" in res.output
    assert not report_path.exists()


def test_scan_frontier_output(runner, tmp_path):
    res = runner.invoke(main, ["scan", "--kind", "phase", "-N", "2",
                               "--ratio", "1e-2", "--gamma-r", "1e-6",
                               "-o", str(tmp_path / "s.csv"),
                               "--frontier", str(tmp_path / "f.json")])
    assert res.exit_code == 0, res.output
    verdicts = json.loads((tmp_path / "f.json").read_text())
    assert verdicts[0]["N"] == 2 and verdicts[0]["kind"] == "phase"


def test_validate_command(runner, tmp_path):
    geom = {"positions": [[0, 0, 0], [1, 0, 0], [0.5, 0.8660254037844386, 0]],
            "a": 1.0, "lambda": 0.5, "C6": 1e6, "d": 2}
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps(geom))
    out = tmp_path / "v.json"
    res = runner.invoke(main, ["validate", str(geom_path), "--ratio", "1e-2",
                               "--evolution-time", "5", "-o", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["collision_ok"] and doc["blockade_ok"]
    assert doc["evolution_overlap"] > 0.999


def test_validate_blockade_violation_exits_3(runner, tmp_path):
    # R_b = 2^(1/6) ~ 1.12 < 2, the distance of the two sites
    geom = {"positions": [[0, 0, 0], [2, 0, 0]], "a": 1.0, "lambda": 0.5,
            "C6": 2.0, "d": 1}
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps(geom))
    res = runner.invoke(main, ["validate", str(geom_path),
                               "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 3
    res = runner.invoke(main, ["validate", str(geom_path), "--allow-invalid",
                               "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("positions,failed", [
    ([[0, 0, 0], [100, 0, 0]], "blockade_ok"),      # R_b = 1e4^(1/6) ~ 4.6
    ([[0, 0, 0], [0.3, 0, 0]], "collision_ok"),     # closer than lambda = 0.5
], ids=["beyond-blockade-radius", "closer-than-wavelength"])
def test_validate_judges_the_site_positions(runner, tmp_path, positions, failed):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({"positions": positions, "a": 1.0, "lambda": 0.5,
                                     "C6": 1e4, "d": 1}))
    out = tmp_path / "v.json"
    res = runner.invoke(main, ["validate", str(geom_path), "-o", str(out)])
    assert res.exit_code == 3, res.output
    res = runner.invoke(main, ["validate", str(geom_path), "--allow-invalid", "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert "geometry INVALID" in res.output
    doc = json.loads(out.read_text())
    assert not doc[failed]
    assert doc[failed.replace("ok", "margin")] < 0


def test_validate_single_site_reports_no_collision_margin(runner, tmp_path):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({"positions": [[0, 0, 0]], "a": 1.0, "lambda": 0.5,
                                     "C6": 1e4, "d": 1}))
    out = tmp_path / "v.json"
    res = runner.invoke(main, ["validate", str(geom_path), "-o", str(out)])
    assert res.exit_code == 0, res.output

    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["collision_ok"] and doc["collision_margin"] is None
    assert doc["blockade_ok"] and doc["blockade_margin"] == doc["blockade_radius"]


TRIANGLE = {"positions": [[0, 0, 0], [1, 0, 0], [0.5, 0.8660254037844386, 0]],
            "a": 1.0, "lambda": 0.5, "C6": 1e4, "d": 2}


@pytest.mark.parametrize("change,message", [
    ({"C6": math.nan}, "C6 must be finite"),
    ({"positions": [[0, 0, 0], [math.nan, 0, 0], [0.5, 0.8, 0]]}, "positions must be finite"),
    ({"positions": [[0, 0, 0], [math.inf, 0, 0], [0.5, 0.8, 0]]}, "positions must be finite"),
    ({"d": 1.5}, "dimensionality"),
], ids=["nan-C6", "nan-position", "inf-position", "fractional-d"])
def test_validate_rejects_non_finite_and_non_integer_geometry(runner, tmp_path, change, message):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({**TRIANGLE, **change}))
    for extra in ([], ["--allow-invalid"]):
        res = runner.invoke(main, ["validate", str(geom_path), "-o", str(tmp_path / "v.json")]
                            + extra)
        assert res.exit_code == 2, res.output
        assert message in res.output
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("change,field", [
    ({"C6": "1e4"}, "C6"),
    ({"a": "1.0"}, "a"),
    ({"lambda": True}, "wavelength"),
    ({"C6": None}, "C6"),
    ({"positions": [[0, 0, 0], ["1", True, 0], [0.5, 0.8, 0]]}, "positions"),
    ({"positions": [[0, 0, 0], [1, None, 0], [0.5, 0.8, 0]]}, "positions"),
], ids=["string-C6", "string-a", "bool-lambda", "null-C6", "string-position",
        "null-position"])
def test_validate_rejects_geometry_values_that_are_not_json_numbers(runner, tmp_path, change,
                                                                    field):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({**TRIANGLE, **change}))
    res = runner.invoke(main, ["validate", str(geom_path), "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 2, res.output
    assert f"geometry field {field} must be a number" in res.output
    assert not (tmp_path / "v.json").exists()


def test_validate_rejects_a_geometry_integer_beyond_the_float_range(runner, tmp_path):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({**TRIANGLE, "C6": 10**400}))
    res = runner.invoke(main, ["validate", str(geom_path), "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 2, res.output
    assert "geometry field C6 must be finite" in res.output


def test_validate_rejects_sites_spanning_more_than_d(runner, tmp_path):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({**TRIANGLE, "d": 1}))
    for extra in ([], ["--allow-invalid"]):
        res = runner.invoke(main, ["validate", str(geom_path), "-o", str(tmp_path / "v.json")]
                            + extra)
        assert res.exit_code == 2, res.output
        assert "sites span 2 dimensions, more than d = 1" in res.output
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("separation,message", [
    (1e-60, "sites 0 and 1 are too close"),       # r^6 underflows to 0
    (1e-52, "sites 0 and 1 are too close"),       # C6/r^6 overflows
    (1e100, "sites 0 and 1 are too far apart"),   # r^6 overflows
], ids=["r6-zero", "interaction-inf", "r6-overflow"])
def test_validate_rejects_unrepresentable_site_distances(runner, tmp_path, separation, message):
    geom = {"positions": [[0, 0, 0], [separation, 0, 0]], "a": 1.0, "lambda": 0.5,
            "C6": 1e4, "d": 1}
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps(geom))
    for extra in ([], ["--allow-invalid"]):
        res = runner.invoke(main, ["validate", str(geom_path), "-o", str(tmp_path / "v.json")]
                            + extra)
        assert res.exit_code == 2, res.output
        assert message in res.output
    assert not (tmp_path / "v.json").exists()


def test_validate_reuses_the_oracle_eigensystem(runner, tmp_path, monkeypatch):
    from rydqudit import fullspace
    fullspace._real_eigensystem.cache_clear()
    full_eighs = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        if a.shape[0] == 3**3:
            full_eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps(TRIANGLE))

    def validate(name, *extra):
        out = tmp_path / name
        res = runner.invoke(main, ["validate", str(geom_path), "-o", str(out), *extra])
        assert res.exit_code == 0, res.output
        return out.read_bytes()

    first = validate("first.json")
    assert len(full_eighs) == 1
    assert validate("second.json") == first
    assert len(full_eighs) == 1             # served from the cache
    other = validate("other.json", "--ratio", "3e-2")
    assert len(full_eighs) == 2
    fullspace._real_eigensystem.cache_clear()
    assert validate("cleared.json", "--ratio", "3e-2") == other
    assert len(full_eighs) == 3


def run_python(tmp_path, *args):
    """Run a fresh interpreter that imports rydqudit from this checkout."""
    src = os.path.dirname(os.path.dirname(rydqudit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


IMPORT_PROBE = """
import math
import sys
import rydqudit as rq

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

assert not loaded("click"), loaded("click")
assert not loaded("scipy"), loaded("scipy")
# the set-up that perfbench/setup_probe.py times: a first N=2 phase gate
rq.compile_phase_gate(rq.QuditState.uniform(2), math.pi / 2, rq.CompileOptions(omega_01=1e-2))
assert not loaded("click"), loaded("click")
assert not loaded("scipy"), loaded("scipy")
from rydqudit import schedule_from_json
assert rq.schedule_to_json is rq.cli.schedule_to_json
assert schedule_from_json is rq.cli.schedule_from_json
assert loaded("click") and not loaded("scipy")
schedule = rq.compile_unitary(rq.hadamard_target(2), rq.CompileOptions(omega_01=1e-2))
assert len(schedule.pulses) > 0
assert "scipy.linalg" in sys.modules
"""


def test_import_loads_neither_click_nor_scipy(tmp_path):
    # A fresh interpreter: this suite has loaded click and scipy already.
    res = run_python(tmp_path, "-c", IMPORT_PROBE)
    assert res.returncode == 0, res.stderr


def test_module_entry_point_runs_without_warnings(tmp_path):
    res = run_python(tmp_path, "-m", "rydqudit.cli", "--help")
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.startswith("Usage:")


MISSING = object()     # a key that malformed_schedule deletes
MALFORMED_SCHEDULES = {
    "fractional-N": ({"N": 2.9}, "atom count N must be an integer"),
    "bool-N": ({"N": True}, "atom count N must be an integer"),
    "string-N": ({"N": "2"}, "atom count N must be an integer"),
    "pulse-not-object": ({"pulses": [5]}, "pulse entry must be a JSON object"),
    "pulses-not-array": ({"pulses": 5}, "pulses must be a JSON array"),
    "string-field": ({"pulse": {"T": "1e3"}}, "pulse field T must be a number"),
    "bool-field": ({"pulse": {"omega_01": True}}, "pulse field omega_01 must be a number"),
    "null-field": ({"pulse": {"phi_01": None}}, "pulse field phi_01 must be a number"),
    "label-not-string": ({"pulse": {"label": 3}}, "pulse field label must be a string"),
    "huge-integer-field": ({"pulse": {"T": 10 ** 400}}, "pulse field T must be finite"),
    "missing-N": ({"N": MISSING}, "schedule document missing key 'N'"),
    "missing-pulses": ({"pulses": MISSING}, "schedule document missing key 'pulses'"),
    "missing-field": ({"pulse": {"phi_1r": MISSING}}, "pulse entry missing key 'phi_1r'"),
}


def malformed_schedule(change):
    doc = json.loads(schedule_to_json(sample_schedule()))
    for target, update in ((doc["pulses"][0], change.pop("pulse", {})), (doc, change)):
        target.update(update)
        for key in [key for key, value in update.items() if value is MISSING]:
            del target[key]
    return json.dumps(doc)


@pytest.mark.parametrize("change,message", MALFORMED_SCHEDULES.values(),
                         ids=MALFORMED_SCHEDULES.keys())
def test_schedule_document_rejects_wrong_json_types(runner, tmp_path, change, message):
    text = malformed_schedule(dict(change))
    with pytest.raises(ValueError, match=message):
        schedule_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = runner.invoke(main, ["simulate", str(path), "--report", str(tmp_path / "r.json")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "r.json").exists()


def refuse_to_size(*args, **kwargs):
    raise AssertionError("reached code that sizes arrays by N")


@pytest.mark.parametrize("gate", ["phase", "hadamard", "prep"])
def test_atom_count_beyond_the_cap_exits_2_before_sizing_anything(runner, tmp_path, monkeypatch,
                                                                   gate):
    # at N = 100000 a dense ladder matrix would take 640 GB; every array sized
    # by N is built behind these names, so reaching one fails the test instead
    for name in ("parse_state", "hadamard_target", "extract_gate", "run_schedule"):
        monkeypatch.setattr(cli, name, refuse_to_size)
    doc = json.loads(schedule_to_json(sample_schedule()))
    doc["N"] = 100000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for args in (["simulate", str(path), "--expect", "hadamard", "--initial", "uniform",
                  "--report", str(tmp_path / "r.json")],
                 ["compile", "--gate", gate, "-N", "100000", "--ratio", "1e-2",
                  "-o", str(tmp_path / "s.json")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"atom count N must be between 1 and {ModelParams.N_MAX}, got 100000" in res.output
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("N", [0, -3, 10**12])
@pytest.mark.parametrize("kind", ["phase", "prep"])
def test_scan_applies_the_atom_count_rule_before_it_compiles_or_starts_workers(
        runner, tmp_path, monkeypatch, kind, N, jobs):
    # unchecked, N = 0 divides by zero in a phase scan and normalizes the zero
    # vector in a prep scan, and N = 10**12 asks numpy for terabytes
    import concurrent.futures
    monkeypatch.setattr(cli, "scan", refuse_to_size)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_to_size)
    out = tmp_path / "s.csv"
    res = runner.invoke(main, ["scan", "--kind", kind, "-N", "2", "-N", str(N),
                               "--ratio", "1e-2", "--jobs", jobs, "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert f"atom count N must be between 1 and {ModelParams.N_MAX}, got {N}" in res.output
    assert list(tmp_path.iterdir()) == []


def compiled_schedule(runner, tmp_path, *args):
    path = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", *args, "--ratio", "1e-2", "-o", str(path)])
    assert res.exit_code == 0, res.output
    return str(path)


def test_simulate_expect_hadamard_reports_the_infidelity(runner, tmp_path):
    path = compiled_schedule(runner, tmp_path, "--gate", "hadamard", "-N", "2")
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", path, "--expect", "hadamard", "--report", str(report)])
    assert res.exit_code == 0, res.output
    assert "infidelity" in res.output
    assert 0.0 <= json.loads(report.read_text())["infidelity"] < 1e-2


@pytest.mark.parametrize("args,message", [
    (["--trajectory", "{tmp}/t.csv"], "--trajectory requires --initial"),
    (["--gamma-r-hz", "1e3"], "--gamma-r-hz and --omega1r-hz must be given together"),
], ids=["trajectory-without-initial", "gamma-hz-without-omega"])
def test_simulate_rejects_incomplete_flag_pairs(runner, tmp_path, args, message):
    path = compiled_schedule(runner, tmp_path, "--gate", "phase", "-N", "2")
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", path, "--report", str(report),
                               *[a.format(tmp=tmp_path) for a in args]])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_simulate_from_the_g0_preset(runner, tmp_path):
    assert parse_state("g0", 2).ground_population() == 1.0
    path = compiled_schedule(runner, tmp_path, "--gate", "phase", "-N", "2")
    report = tmp_path / "r.json"
    res = runner.invoke(main, ["simulate", path, "--initial", "g0", "--report", str(report)])
    assert res.exit_code == 0, res.output
    assert "pulse_count" in res.output and report.exists()


def test_state_file_with_three_columns_exits_2(runner, tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("0 1 0\n1 0 0\n0 0 0\n0 0 0\n0 0 0\n")
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "prep", "-N", "2", "--ratio", "1e-2",
                               "--target", str(state), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert "state file must have two columns" in res.output
    assert not out.exists()


def test_compile_unitary_of_the_wrong_size_exits_2(runner, tmp_path):
    mat_path = tmp_path / "u.json"
    mat_path.write_text(json.dumps([[[float(i == j), 0.0] for j in range(4)] for i in range(4)]))
    out = tmp_path / "s.json"
    res = runner.invoke(main, ["compile", "--gate", "unitary", "-N", "3", "--ratio", "1e-2",
                               "--unitary", str(mat_path), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert "matrix dimension 4 does not match N=3" in res.output
    assert not out.exists()


@pytest.mark.parametrize("positions,args,message", [
    ([[0, 0, 0], [1, 0, 0]], ["--initial", "uniform"], "single dressed basis level"),
    ([[x, y, 0] for x in range(3) for y in range(3)], [], "capped at 8 sites"),
], ids=["superposed-initial", "nine-sites"])
def test_validate_configuration_errors_exit_2(runner, tmp_path, positions, args, message):
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps({"positions": positions, "a": 1.0, "lambda": 0.5,
                                     "C6": 1e6, "d": 2}))
    out = tmp_path / "v.json"
    res = runner.invoke(main, ["validate", str(geom_path), *args, "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not out.exists()


def test_schedule_document_accepts_integer_fields_and_no_label():
    doc = json.loads(schedule_to_json(sample_schedule()))
    doc["pulses"][0].update(T=3, delta_01=0)
    del doc["pulses"][1]["label"]
    schedule = schedule_from_json(json.dumps(doc))
    assert schedule.pulses[0].T == 3.0 and type(schedule.pulses[0].T) is float
    assert schedule.pulses[1].label == ""
    with pytest.raises(ValueError, match="JSON object"):
        schedule_from_json("[1, 2]")

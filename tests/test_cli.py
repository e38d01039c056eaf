"""Command-line interface: formats, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from rydqudit.cli import (
    main,
    parse_state,
    schedule_from_json,
    schedule_to_json,
    trajectory_to_csv,
    write_atomic,
)
from rydqudit.core import DressedIndex, ModelParams, PulseParams, QuditState
from rydqudit.compiler import CompileOptions, compile_phase_gate
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


def test_scan_command_and_jobs_determinism(runner, tmp_path):
    base = ["scan", "--kind", "phase", "-N", "2", "--ratio", "1e-2",
            "--ratio", "2e-2", "--gamma-r", "1e-6"]
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    res = runner.invoke(main, base + ["-o", str(seq)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, base + ["--jobs", "2", "-o", str(par)])
    assert res.exit_code == 0, res.output
    assert seq.read_bytes() == par.read_bytes()


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
    geom = {"positions": [[0, 0, 0], [1, 0, 0]], "a": 1.0, "lambda": 0.5,
            "C6": 2.0, "d": 1}
    geom_path = tmp_path / "g.json"
    geom_path.write_text(json.dumps(geom))
    res = runner.invoke(main, ["validate", str(geom_path),
                               "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 3
    res = runner.invoke(main, ["validate", str(geom_path), "--allow-invalid",
                               "-o", str(tmp_path / "v.json")])
    assert res.exit_code == 0, res.output

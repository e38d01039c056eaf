"""Pulse-level compiler for qudits encoded in dressed Rydberg-atom ensembles.

Compiles qudit unitaries, state preparations, and projective measurements
into laser pulse schedules for a blockaded N-atom array, and verifies them
with exact simulation in the dressed-ladder picture and against a 3^N
microscopic oracle.
"""

from .core import (
    ContractViolation,
    DressedIndex,
    ModelParams,
    PulseParams,
    QuditState,
    build_bare,
    build_control,
    build_total,
    coupling_K,
    coupling_Q,
    hadamard_target,
    jc_energy,
    level_ordering,
    qudit_ordering_permutation,
    wrap_phase,
)
from .propagator import (
    GateReport,
    PulseSchedule,
    Trajectory,
    extract_gate,
    interaction_frame,
    run_schedule,
    schedule_operator,
)
from .compiler import (
    CompileOptions,
    compile_full_control,
    compile_phase_gate,
    compile_readout,
    compile_state_prep,
    compile_unitary,
    invert_full_control,
    measure_projection,
    unitary_eigensystem,
)
from .metrics import (
    DecayParams,
    FrontierVerdict,
    ScanResult,
    ScanRow,
    decay_estimate,
    decay_survival,
    feasibility_frontier,
    infidelity,
    rydberg_population,
    scan,
)
from .fullspace import (
    Geometry,
    GeometryReport,
    blockade_radius,
    build_full_hamiltonian,
    compare_evolution,
    compare_spectrum,
    dressed_frame,
    embed_dressed,
    validate_geometry,
)

__all__ = [
    "ContractViolation",
    "DressedIndex",
    "ModelParams",
    "PulseParams",
    "QuditState",
    "build_bare",
    "build_control",
    "build_total",
    "coupling_K",
    "coupling_Q",
    "hadamard_target",
    "jc_energy",
    "level_ordering",
    "qudit_ordering_permutation",
    "wrap_phase",
    "GateReport",
    "PulseSchedule",
    "Trajectory",
    "extract_gate",
    "interaction_frame",
    "run_schedule",
    "schedule_operator",
    "CompileOptions",
    "compile_full_control",
    "compile_phase_gate",
    "compile_readout",
    "compile_state_prep",
    "compile_unitary",
    "invert_full_control",
    "measure_projection",
    "unitary_eigensystem",
    "DecayParams",
    "FrontierVerdict",
    "ScanResult",
    "ScanRow",
    "decay_estimate",
    "decay_survival",
    "feasibility_frontier",
    "infidelity",
    "rydberg_population",
    "scan",
    "Geometry",
    "GeometryReport",
    "blockade_radius",
    "build_full_hamiltonian",
    "compare_evolution",
    "compare_spectrum",
    "dressed_frame",
    "embed_dressed",
    "validate_geometry",
    "schedule_from_json",
    "schedule_to_json",
]

__version__ = "0.1.0"

# The command-line module, and the schedule JSON I/O it owns, load on first
# use (PEP 562), so that importing the library does not import click.
_LAZY_FROM_CLI = ("schedule_from_json", "schedule_to_json")


def __getattr__(name):
    if name == "cli" or name in _LAZY_FROM_CLI:
        import importlib

        cli = importlib.import_module(".cli", __name__)
        for attr in _LAZY_FROM_CLI:
            globals()[attr] = getattr(cli, attr)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Every defaulted parameter in `src/dqdsim`, and who sets it.

A parameter with a default is a knob: a value that a caller may change.
`KNOBS` lists each one (a function or method parameter as
"module.qualname(parameter)", a dataclass or NamedTuple field as
"module.Class.field") with the code outside the tests that sets it, or,
after "kept: ", why it stays without one. A new knob fails
`test_every_knob_is_listed` until it is listed here with its setter; a knob
that only tests set is a module constant they monkeypatch instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dqdsim"

KNOBS = {
    "calibrate.calibrate.device(fmap)": "calibrate.calibrate",
    "calibrate.main(argv)": "kept: tests pass the command line; None reads "
                            "sys.argv",
    "cli.main(argv)": "kept: tests pass the command line; None reads "
                      "sys.argv",
    "cli.Experiment.__init__(seed)": "cli.main",
    "cli.Experiment.__init__(out)": "cli.main",
    "cli.Experiment.__init__(integrator)": "cli.main",
    "cli.Experiment.__init__(resume)": "cli.main",
    "cli.Experiment.value(default)": "cli.run_gate",
    "cli.Experiment.value(kind)": "cli.run_gate",
    "device.DeviceSpec.source_drain_depth_nm": "device.parse_device_config",
    # the model's literature constants (see the class docstring); a device
    # file states every field
    "device.MaterialParams.permittivity_si": "device.parse_device_config",
    "device.MaterialParams.permittivity_sige": "device.parse_device_config",
    "device.MaterialParams.conduction_band_offset_ev":
        "device.parse_device_config",
    "device.MaterialParams.mass_lateral": "device.parse_device_config",
    "device.MaterialParams.mass_vertical": "device.parse_device_config",
    "device.MaterialParams.mass_transport": "device.parse_device_config",
    "device.MaterialParams.dos_mass_bulk": "device.parse_device_config",
    "device.MaterialParams.valley_degeneracy": "device.parse_device_config",
    "device.MaterialParams.schottky_barrier_ev": "device.parse_device_config",
    "device.MaterialParams.fermi_level_ev": "device.parse_device_config",
    "device.PoissonProblem.__init__(dirichlet_top_weight)":
        "kept: criterion 9c's manufactured solution",
    "device.PoissonProblem.__init__(dirichlet_all)":
        "kept: criterion 9c's manufactured solution",
    "device.PoissonProblem.rhs(u_bottom)":
        "kept: criterion 9c's manufactured solution",
    "device.parse_device_config(source)": "device.load_device_config",
    "device.device_config_text(extra)": "calibrate.calibrate",
    "dots.dot_occupations(length_nm)":
        "perfbench.workloads.NoiseMC.setup_failures",
    "dynamics.DrivePulse.phase_rad": "protocols.ry_pulse",
    "dynamics.DrivePulse.target": "protocols.ry_pulse",
    "dynamics.drive_operator(axis)": "dynamics.rwa_hamiltonian",
    "dynamics.UnitaryResult.trajectory_t_ns": "dynamics.evolve",
    "dynamics.UnitaryResult.trajectory_amps": "dynamics.evolve",
    "dynamics._Affine.period_s": "dynamics._compile_segment",
    "dynamics._Affine.frame_hz": "dynamics._compile_segment",
    "dynamics.evolve(integrator)": "cli.run_gate",
    "dynamics.evolve(dt_factor)": "kept: criterion 9a halves the step",
    "dynamics.evolve(sample_every_ns)": "cli.run_gate",
    "errors.NumericalError.__init__(diagnostics)":
        "schrodinger.solve_eigenstates",
    "noise.NoiseConfig.n_samples": "cli.run_noise_sweep",
    "params.SpinParams.v_m_mv": "params.ParamsTable.__call__",
    "protocols.Segment.drive": "protocols.ry_pulse",
    "protocols.Segment.ramp_from_mv": "protocols._cz_block",
    "protocols.PulseSchedule.symbols": "protocols.schedule_ry",
    "protocols.ry_pulse(rabi_hz)": "protocols.cnot_multi_schedule",
    "schrodinger.solve_eigenstates(method)":
        "kept: criterion 9c's dense oracle",
    "schrodinger.solve_eigenstates(start)": "schrodinger._scf_fixed_t",
    "schrodinger.ConvergedSolution.stages":
        "schrodinger.self_consistent_solve",
    "schrodinger.ConvergedSolution.update_history_ev":
        "schrodinger.self_consistent_solve",
    "schrodinger._scf_fixed_t(stall_window)":
        "schrodinger.self_consistent_solve.stage",
    "schrodinger._scf_fixed_t(spectrum)":
        "schrodinger.self_consistent_solve.stage",
    "schrodinger.self_consistent_solve(grid)": "dots.Device.solution_at",
    "schrodinger.self_consistent_solve(start_potential)":
        "dots.charge_stability",
    "schrodinger.self_consistent_solve.stage(stall_window)":
        "schrodinger.self_consistent_solve",
    "schrodinger.self_consistent_solve.stage(spectrum)":
        "schrodinger.self_consistent_solve",
}


def _walk(node, prefix):
    """(qualname, node) of every function and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}{child.name}"
            yield name, child
            yield from _walk(child, name + ".")


def _modules(directory, package=""):
    for path in sorted(directory.glob("*.py")):
        yield f"{package}{path.stem}", ast.parse(path.read_text())


def defaulted_parameters() -> list[str]:
    found = []
    for module, tree in _modules(SRC):
        for qual, node in _walk(tree, f"{module}."):
            if isinstance(node, ast.ClassDef):
                found += [f"{qual}.{st.target.id}" for st in node.body
                          if isinstance(st, ast.AnnAssign)
                          and st.value is not None
                          and isinstance(st.target, ast.Name)]
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs,
                                               args.kw_defaults)
                             if d is not None]
            found += [f"{qual}({a.arg})" for a in with_default]
    return found


def definitions() -> set[str]:
    defs = set()
    for directory, package in ((SRC, ""), (ROOT / "perfbench", "perfbench.")):
        for module, tree in _modules(directory, package):
            defs.update(qual for qual, _ in _walk(tree, f"{module}."))
    return defs


def test_every_knob_is_listed():
    found = defaulted_parameters()
    assert len(found) == len(set(found))
    assert sorted(set(found) - KNOBS.keys()) == [], "unlisted knobs"
    assert sorted(KNOBS.keys() - set(found)) == [], "listed knobs that are gone"


def test_every_setter_exists():
    defs = definitions()
    setters = {s for s in KNOBS.values() if not s.startswith("kept: ")}
    assert sorted(setters - defs) == []

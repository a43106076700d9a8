"""CLI behaviour: exit codes, file outputs, overrides, reproducibility."""

import json
import warnings
from pathlib import Path

import pytest

from rxd import Field, Grid, benchmark_scene, make_initial_condition, write_field
from rxd.cli import (
    _section,
    apply_overrides,
    build_scene,
    canonical_config,
    default_config,
    load_config,
    main,
)


UNIFORM = 'initial={"kind":"uniform","a":1,"b":1,"c":1}'


def run_cli(*argv):
    return main(list(argv))


def fast_run_args(tmp_path, *extra):
    """A cheap run: 8x8 grid, 2 steps."""
    return (
        "run",
        "--out", str(tmp_path / "out"),
        "--set", "grid.n=8",
        "--set", "time.dt=0.1",
        "--set", "time.t_final=0.2",
        *extra,
    )


def test_missing_config_names_path(tmp_path, capsys):
    code = run_cli("run", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("run", "--config", str(path)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_run_writes_diagnostics_csv(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--out", str(out),
        "--set", "grid.n=16",
        "--set", "time.dt=0.02",
        "--set", "time.t_final=0.2",
    )
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 1 + 11  # header + step 0 + 10 steps
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 <= e0 + 1e-10 * (1.0 + abs(e0))


def test_run_benchmark_shape_n64(tmp_path):
    # the default scene at N=64, dt=0.01, T=0.2: 21 diagnostics rows
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 22


def test_run_rejects_non_integer_step_count(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path / "out"), "--set", "time.dt=0.013")
    assert code == 2
    assert "integer" in capsys.readouterr().err


def test_run_snapshots(tmp_path):
    out = tmp_path / "out"
    code = run_cli(*fast_run_args(tmp_path, "--set", "output.snapshot_every=1"))
    assert code == 0
    for name in ("a", "b", "c"):
        for step in (0, 1, 2):
            assert (out / f"field_{name}_step{step}.txt").exists()


def test_outputs_byte_identical_across_reruns(tmp_path):
    texts = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert run_cli(
            "run", "--out", str(out),
            "--set", "grid.n=16",
            "--set", "time.dt=0.02",
            "--set", "time.t_final=0.1",
            "--set", "output.snapshot_every=5",
        ) == 0
        texts.append(
            (
                (out / "diagnostics.csv").read_bytes(),
                (out / "field_a_step5.txt").read_bytes(),
            )
        )
    assert texts[0] == texts[1]


def test_uniform_initial_condition(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--out", str(out),
        "--set", "grid.n=8",
        "--set", "time.dt=0.1",
        "--set", "time.t_final=0.1",
        "--set", 'initial={"kind":"uniform","a":1.0,"b":1.0,"c":1.0}',
    )
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 3


def test_uniform_initial_rejects_nonpositive(tmp_path, capsys):
    code = run_cli(
        *fast_run_args(tmp_path, "--set", 'initial={"kind":"uniform","a":-1,"b":1,"c":1}')
    )
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_unknown_initial_kind(tmp_path, capsys):
    code = run_cli(*fast_run_args(tmp_path, "--set", "initial.kind=blob"))
    assert code == 2
    assert "blob" in capsys.readouterr().err


def test_snapshot_initial_condition(tmp_path):
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    paths = {}
    for name, level in (("a", 1.0), ("b", 2.0), ("c", 2.0)):
        path = tmp_path / f"init_{name}.txt"
        write_field(Field.full(g, level), path, time=0.0)
        paths[name] = str(path)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--out", str(out),
        "--set", "grid.n=8",
        "--set", "time.dt=0.1",
        "--set", "time.t_final=0.1",
        "--set", f'initial={json.dumps({"kind": "snapshot", **paths})}',
    )
    assert code == 0


def test_snapshot_initial_grid_mismatch(tmp_path, capsys):
    g = Grid(2, 4, (-1.0, -1.0), (1.0, 1.0))
    path = tmp_path / "f.txt"
    write_field(Field.full(g, 1.0), path)
    spec = {"kind": "snapshot", "a": str(path), "b": str(path), "c": str(path)}
    code = run_cli(*fast_run_args(tmp_path, "--set", f"initial={json.dumps(spec)}"))
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_snapshot_initial_rejects_nonpositive_values(tmp_path, capsys):
    # A config error (2) found before the output directory exists, as for
    # the other initial kinds; not a solver failure (3) from the run.
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    spec = {"kind": "snapshot"}
    for name, level in (("a", 1.0), ("b", 0.0), ("c", 1.0)):
        path = tmp_path / f"init_{name}.txt"
        write_field(Field.full(g, level), path)
        spec[name] = str(path)
    code = run_cli(*fast_run_args(tmp_path, "--set", f"initial={json.dumps(spec)}"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial:") and "species b" in err, err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_cosine_diffusion_profile(tmp_path):
    spec = {"profile": "cosine", "base": 0.5, "amplitude": 0.4, "period": 2.0}
    code = run_cli(*fast_run_args(tmp_path, "--set", f"diffusion.d_a={json.dumps(spec)}"))
    assert code == 0


def test_bad_diffusion_profile(tmp_path, capsys):
    code = run_cli(*fast_run_args(tmp_path, "--set", 'diffusion.d_a={"profile":"warp"}'))
    assert code == 2
    assert "warp" in capsys.readouterr().err


def test_study_time_rejects_single_dt(tmp_path, capsys):
    code = run_cli(
        "study-time", "--out", str(tmp_path / "out"),
        "--set", "study_time.dts=[0.1]",
    )
    assert code == 2
    assert "two step sizes" in capsys.readouterr().err


def test_study_time_small(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "study-time", "--out", str(out),
        "--set", "study_time.n=16",
        "--set", "study_time.dts=[0.05,0.025]",
        "--set", "study_time.ref_dt=0.0125",
    )
    assert code == 0
    lines = (out / "temporal_orders.csv").read_text().splitlines()
    assert lines[0] == "param,err_a,order_a,err_b,order_b,err_c,order_c"
    assert len(lines) == 3
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["dt", "err_a", "order_a", "err_b", "order_b", "err_c", "order_c"]
    assert [float(row.split()[0]) for row in table[1:]] == [0.05, 0.025]


def test_study_space_emits_order_rows_per_triple(tmp_path):
    # five resolutions -> four difference rows -> three order rows
    out = tmp_path / "out"
    hs = [0.2, 0.1, 2.0 / 30.0, 0.05, 0.04]  # N = 10, 20, 30, 40, 50
    code = run_cli(
        "study-space", "--out", str(out),
        "--set", f"study_space.hs={json.dumps(hs)}",
    )
    assert code == 0
    lines = (out / "spatial_orders.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 difference rows
    with_order = [line for line in lines[1:] if line.split(",")[2] != ""]
    assert len(with_order) == 3


def test_study_space_rejects_two_resolutions(tmp_path, capsys):
    code = run_cli(
        "study-space", "--out", str(tmp_path / "out"),
        "--set", "study_space.hs=[0.2,0.1]",
    )
    assert code == 2
    assert "three mesh sizes" in capsys.readouterr().err


def test_study_space_rejects_scalar_grid_bound(tmp_path, capsys):
    code = run_cli("study-space", "--out", str(tmp_path / "out"), "--set", "grid.lower=5")
    assert code == 2
    err = capsys.readouterr().err
    assert "grid.lower" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["diagnostics_every", "snapshot_every"])
def test_run_rejects_negative_output_interval(tmp_path, capsys, key):
    code = run_cli(*fast_run_args(tmp_path, "--set", f"output.{key}=-1"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"output.{key}" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "command,setting",
    [
        ("run", "grid.dim=2.5"),
        ("run", "grid.n=8.7"),
        ("run", "output.diagnostics_every=1.5"),
        ("run", "output.snapshot_every=0.5"),
        ("run", "solver.cg_max_iter=10.5"),
        ("run", 'grid.n="8"'),
        ("study-time", "study_time.n=16.5"),
    ],
)
def test_rejects_non_integer_counts(tmp_path, capsys, command, setting):
    # These counts used to be truncated by int(): grid.n=8.7 ran at n = 8.
    argv = fast_run_args(tmp_path, "--set", setting)
    code = run_cli(command, *argv[1:])
    assert code == 2
    err = capsys.readouterr().err
    assert setting.split("=")[0] in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["time.dt", "model.k_plus"])
def test_parse_error_names_its_section_once(tmp_path, capsys, key):
    code = run_cli(*fast_run_args(tmp_path, "--set", f"{key}=abc"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: cannot parse 'abc'"), err


@pytest.mark.parametrize(
    "setting,named",
    [
        # must not end in a traceback
        ("output.out_dir=5", "output.out_dir"),
        ("study_time.dts=[0.1,null]", "study_time.dts"),
        ("study_space.hs=[0.5,0.25,null]", "study_space.hs"),
        ('diffusion.d_a={"profile":"cosine","base":null}', "diffusion.d_a"),
        ("time.t_final=Infinity", "time.t_final"),
        # must not be silently accepted
        ("time.dtt=0.5", "time.dtt"),
        ("grid.nn=8", "grid.nn"),
        ("bogus.key=1", "bogus"),
        ("diffusion.d_a=true", "diffusion.d_a"),
        ("model.a_inf=true", "model.a_inf"),
        ('output.checked="no"', "output.checked"),
        ("solver.reaction_tol=-1", "reaction_tol"),
        ("solver.cg_tol=NaN", "solver.cg_tol"),
        # must not pass a checked run with infinite energy
        ("grid.upper=[Infinity,1]", "grid.upper"),
        ("model.a_inf=Infinity", "model.a_inf"),
        # a config error (2), not a solver failure (3)
        ("diffusion.d_a=Infinity", "diffusion.d_a"),
        ('diffusion.d_b={"profile":"cosine","base":1e308}', "diffusion.d_b"),
        ('diffusion.d_b={"profile":"cosine","period":1e-320}', "diffusion.d_b"),
        # not an OverflowError traceback: h**dim overflows although h is finite
        (("grid.lower=[-1e300,-1e300]", "grid.upper=[1e300,1e300]", UNIFORM), "grid"),
        # not a cos(inf) warning and exit 3: 2*pi*x/period overflows on the box
        (("grid.lower=[-1e10,-1e10]", "grid.upper=[1e10,1e10]", UNIFORM,
          'diffusion.d_b={"profile":"cosine","period":1e-300}'), "diffusion.d_b"),
    ],
)
def test_rejects_bad_values_and_unknown_keys(tmp_path, monkeypatch, capsys, setting, named):
    monkeypatch.chdir(tmp_path)  # no --out: the configured out_dir must not appear either
    settings = [setting] if isinstance(setting, str) else setting
    code = run_cli("run", "--set", "grid.n=8", "--set", "time.t_final=0.02",
                   *(arg for item in settings for arg in ("--set", item)))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert len(err.strip().splitlines()) == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["study-time", "study-space"])
@pytest.mark.parametrize("jobs", ["0", "-1", "2"])
def test_study_rejects_jobs_other_than_one(tmp_path, capsys, command, jobs):
    code = run_cli(command, "--out", str(tmp_path / "out"), "--jobs", jobs)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --jobs") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,settings", [
    ("run", ["grid.n=8", "time.dt=0.1", "time.t_final=0.2"]),
    ("study-time", ["study_time.n=8", "study_time.dts=[0.1,0.05]", "study_time.ref_dt=0.025",
                    "study_time.t_final=0.1"]),
    ("study-space", ["study_space.hs=[0.5,0.25,0.125]", "study_space.t_final=0.25"]),
])
def test_positivity_failure_is_a_solver_failure(tmp_path, monkeypatch, capsys, command, settings):
    # A PositivityError is a ValueError; a study must not report it as a
    # config error (exit 2) when run reports it as a solver failure (exit 3).
    from rxd import diffusion

    solve = diffusion.step_diffusion_species

    def one_negative_cell(f, *args):
        u_next, report = solve(f, *args)
        values = u_next.values.copy()
        values.flat[0] = -1e-3
        return Field(u_next.grid, values), report

    monkeypatch.setattr(diffusion, "step_diffusion_species", one_negative_cell)
    argv = [command, "--out", str(tmp_path / "out")]
    for item in settings:
        argv += ["--set", item]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "non-positive" in err


def test_checked_run_refuses_infinite_energy_as_a_solver_failure(tmp_path, capsys):
    # A cell volume of 6.25e298 is finite, but <a+c,1> and the energy of
    # a = 1e10 overflow; inf > inf + slack and |inf - inf| > tol are false.
    code = run_cli(
        "run", "--out", str(tmp_path / "out"), "--checked",
        "--set", "grid.lower=[-1e150,-1e150]", "--set", "grid.upper=[1e150,1e150]",
        "--set", "grid.n=8", "--set", "time.t_final=0.02",
        "--set", 'initial={"kind":"uniform","a":1e10,"b":1,"c":1}',
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: energy is not finite at step 0")
    assert len(err.strip().splitlines()) == 1


def test_overflowing_energy_ratio_ends_in_one_line_without_a_warning(tmp_path, capsys):
    # b / b_inf overflows for b_inf = 5e-324 (k_minus keeps detailed balance)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("run", "--out", str(tmp_path / "out"), "--set", "grid.n=8",
                       "--set", "time.t_final=0.02", "--set", "model.b_inf=5e-324",
                       "--set", "model.k_minus=5e-324")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "solver failure: energy is not finite at step 0: inf\n"


@pytest.mark.parametrize("n,code,start", [
    (8, 3, "solver failure: CG broke down after 1 iterations: r.z = 0.0"),  # M^-1 r underflows
    (9, 3, "solver failure: CG stalled at relative residual inf"),  # A p overflows
    (12, 2, "invalid input: diffusion coefficient too large"),  # finite per axis, not summed
    (64, 2, "invalid input: diffusion coefficient too large for the preconditioner"),
], ids=["breakdown", "overflow", "refused-sum", "refused"])
def test_huge_diffusion_coefficient_ends_in_one_line(tmp_path, capsys, n, code, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", "--out", str(tmp_path / "out"), "--set", "diffusion.d_a=1e308",
                       "--set", f"grid.n={n}") == code
    err = capsys.readouterr().err
    assert err.startswith(start) and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_run_has_no_jobs_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(*fast_run_args(tmp_path, "--jobs", "1"))
    assert exc.value.code == 2


def test_benchmark_config_file_is_the_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
    assert path.read_bytes() == canonical_config(default_config()).encode()
    cfg = load_config(str(path))
    for name in cfg:
        _section(cfg, name)


def test_integral_float_counts_are_accepted(tmp_path):
    assert run_cli(*fast_run_args(tmp_path, "--set", "grid.n=8.0")) == 0


def test_snapshot_initial_time_stamps_must_agree(tmp_path, capsys):
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    spec = {"kind": "snapshot"}
    for name, t in (("a", 0.0), ("b", 5.0), ("c", 9.0)):
        path = tmp_path / f"init_{name}.txt"
        write_field(Field.full(g, 1.0), path, time=t)
        spec[name] = str(path)
    code = run_cli(*fast_run_args(tmp_path, "--set", f"initial={json.dumps(spec)}"))
    assert code == 2
    err = capsys.readouterr().err
    assert "time stamps differ" in err and len(err.strip().splitlines()) == 1
    assert "b: t=5" in err and "c: t=9" in err


def test_run_summary_time_does_not_drift(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--out", str(out), "--set", "grid.n=8", "--set", "time.dt=0.01",
        "--set", "time.t_final=0.2",
    )
    assert code == 0
    assert "to t=0.20000000000000001," in capsys.readouterr().out
    last = (out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "20" and float(last[1]) == 0.2


def test_inspect(tmp_path, capsys):
    g = Grid(1, 4, (0.0,), (1.0,))
    path = tmp_path / "f.txt"
    write_field(Field(g, [1.0, 2.0, 3.0, 4.0]), path, time=0.25)
    assert run_cli("inspect", str(path)) == 0
    out = capsys.readouterr().out
    assert "dim=1 n=4" in out
    assert "min=1 max=4 mean=2.5" in out


def test_inspect_missing_file(tmp_path, capsys):
    assert run_cli("inspect", str(tmp_path / "missing.txt")) == 4


def test_inspect_malformed_snapshot(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a snapshot\n")
    assert run_cli("inspect", str(path)) == 2
    assert "rxd-field" in capsys.readouterr().err


def test_inspect_refuses_two_values_per_line(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("rxd-field v1\ndim=2 n=2 lower=0,0 upper=1,1 t=0\n1 2\n3 4\n")
    assert run_cli("inspect", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "one value per line" in captured.err and len(captured.err.strip().splitlines()) == 1


_HEADER = "dim=1 n=2 lower=0 upper=1 t=0"


@pytest.mark.parametrize("text,line", [
    (f"{_HEADER}\n1.0\n\n2.0\n", 4),  # blank line between values
    (f"{_HEADER}\n1.0 # c\n2.0\n", 3),  # trailing comment
    (f"{_HEADER}\n# c\n1.0\n2.0\n", 3),  # comment line
    (f"{_HEADER} t=5\n1.0\n2.0\n", 2),  # duplicate key
    (f"{_HEADER}\n", 3),  # header only
    (f"{_HEADER}\nabc\n2.0\n", 3),  # bad token
    (f"{_HEADER} foo=1\n1.0\n2.0\n", 2),  # unknown key
], ids=["blank-line", "trailing-comment", "comment-line", "duplicate-key", "header-only",
        "bad-token", "unknown-key"])
def test_inspect_refuses_malformed_snapshots(tmp_path, capsys, text, line):
    path = tmp_path / "snap.txt"
    path.write_text("rxd-field v1\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("inspect", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"{path}:{line}: " in captured.err


@pytest.mark.parametrize("stamp", ["inf", "nan"])
def test_snapshot_initial_time_must_be_finite(tmp_path, capsys, stamp):
    spec = {"kind": "snapshot"}
    for name, f in make_initial_condition(Grid.box(2, 8, -1.0, 1.0)).species():
        path = tmp_path / f"init_{name}.txt"
        write_field(f, path)
        path.write_text(path.read_text().replace("t=0\n", f"t={stamp}\n", 1))
        spec[name] = str(path)
    code = run_cli(*fast_run_args(tmp_path, "--set", f"initial={json.dumps(spec)}"))
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed snapshot header" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_default_scene_is_the_benchmark_scene():
    scene, bench = build_scene(default_config(), False), benchmark_scene()
    assert (scene.lower, scene.upper) == (bench.lower, bench.upper)
    assert scene.params == bench.params and scene.coeffs == bench.coeffs


def _leaves(node, path=()):
    """(path, value) for every scalar of a JSON-like tree, dict keys sorted."""
    if isinstance(node, dict):
        return [leaf for key in sorted(node) for leaf in _leaves(node[key], (*path, key))]
    if isinstance(node, list):
        return [leaf for i, v in enumerate(node) for leaf in _leaves(v, (*path, i))]
    return [(path, node)]


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    documented, defaults = _leaves(json.loads(block)), _leaves(default_config())
    assert [path for path, _ in documented] == [path for path, _ in defaults]
    for (path, value), (_, default) in zip(documented, defaults):
        if isinstance(default, float):
            assert value == pytest.approx(default, rel=1e-12), path
        else:
            assert value == default and type(value) is type(default), path


def test_config_round_trip_idempotent(tmp_path):
    cfg = default_config()
    cfg["grid"]["n"] = 17
    path1 = tmp_path / "c1.json"
    path1.write_text(canonical_config(cfg))
    loaded1 = load_config(str(path1))
    path2 = tmp_path / "c2.json"
    path2.write_text(canonical_config(loaded1))
    loaded2 = load_config(str(path2))
    assert canonical_config(loaded1) == canonical_config(loaded2)
    assert path1.read_text() != ""  # sanity


def test_partial_config_merges_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"grid": {"n": 12}}))
    cfg = load_config(str(path))
    assert cfg["grid"]["n"] == 12
    assert cfg["grid"]["dim"] == 2
    assert cfg["diffusion"]["d_b"] == 1.0


def test_apply_overrides_parses_json_values():
    cfg = apply_overrides(default_config(), ["time.dt=0.005", "initial.kind=uniform"])
    assert cfg["time"]["dt"] == 0.005
    assert cfg["initial"]["kind"] == "uniform"
    with pytest.raises(Exception):
        apply_overrides(default_config(), ["no-equals-sign"])


def test_checked_flag_catches_nothing_on_healthy_run(tmp_path):
    assert run_cli(*fast_run_args(tmp_path, "--checked")) == 0
    assert run_cli(*fast_run_args(tmp_path, "--unchecked")) == 0

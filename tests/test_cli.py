"""CLI behaviour: exit codes, file outputs, overrides, reproducibility."""

import json

import pytest

from rxd import Field, Grid, write_field
from rxd.cli import (
    apply_overrides,
    canonical_config,
    default_config,
    load_config,
    main,
)


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
    assert "order_a" not in capsys.readouterr().out or True  # table printed


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

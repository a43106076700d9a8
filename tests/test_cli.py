"""CLI behaviour: the exit-code contract, file outputs, overrides, reproducibility."""

import io
import json
import os
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
from rxd.errors import ConfigError


UNIFORM = 'initial={"kind":"uniform","a":1,"b":1,"c":1}'


def run_cli(*argv):
    return main(list(argv))


def _sets(*items):
    return [arg for item in items for arg in ("--set", item)]


def fast_run_args(tmp_path, *extra):
    """A cheap run: 8x8 grid, 2 steps."""
    return ("run", "--out", str(tmp_path / "out"),
            *_sets("grid.n=8", "time.dt=0.1", "time.t_final=0.2"), *extra)


def test_run_writes_diagnostics_csv(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--out", str(out),
                   *_sets("grid.n=16", "time.dt=0.02", "time.t_final=0.2"))
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
        assert run_cli("run", "--out", str(out), *_sets(
            "grid.n=16", "time.dt=0.02", "time.t_final=0.1", "output.snapshot_every=5")) == 0
        texts.append(((out / "diagnostics.csv").read_bytes(),
                      (out / "field_a_step5.txt").read_bytes()))
    assert texts[0] == texts[1]


def test_uniform_initial_condition(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--out", str(out), *_sets(
        "grid.n=8", "time.dt=0.1", "time.t_final=0.1",
        'initial={"kind":"uniform","a":1.0,"b":1.0,"c":1.0}'))
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 3


def test_snapshot_initial_condition(tmp_path):
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    paths = {}
    for name, level in (("a", 1.0), ("b", 2.0), ("c", 2.0)):
        path = tmp_path / f"init_{name}.txt"
        write_field(Field.full(g, level), path, time=0.0)
        paths[name] = str(path)
    out = tmp_path / "out"
    code = run_cli("run", "--out", str(out), *_sets(
        "grid.n=8", "time.dt=0.1", "time.t_final=0.1",
        f'initial={json.dumps({"kind": "snapshot", **paths})}'))
    assert code == 0


def test_cosine_diffusion_profile(tmp_path):
    spec = {"profile": "cosine", "base": 0.5, "amplitude": 0.4, "period": 2.0}
    code = run_cli(*fast_run_args(tmp_path, "--set", f"diffusion.d_a={json.dumps(spec)}"))
    assert code == 0


def test_study_time_small(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("study-time", "--out", str(out), *_sets(
        "study_time.n=16", "study_time.dts=[0.05,0.025]", "study_time.ref_dt=0.0125"))
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
    code = run_cli("study-space", "--out", str(out), "--set", f"study_space.hs={json.dumps(hs)}")
    assert code == 0
    lines = (out / "spatial_orders.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 difference rows
    with_order = [line for line in lines[1:] if line.split(",")[2] != ""]
    assert len(with_order) == 3


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
    assert run_cli(command, "--out", str(tmp_path / "out"), *_sets(*settings)) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "non-positive" in err


@pytest.mark.parametrize("argv,usage", [(["--help"], "usage: rxd ["),
                                        (["run", "--help"], "usage: rxd run [")])
def test_help_exits_zero_with_usage_on_stdout(capsys, argv, usage):
    # argparse leaves --help through SystemExit(0); its refusals are config
    # errors, and help must not become one of them.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "") and out.startswith(usage), out


def test_integral_float_counts_are_accepted(tmp_path):
    assert run_cli(*fast_run_args(tmp_path, "--set", "grid.n=8.0")) == 0


def test_run_summary_time_does_not_drift(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--out", str(out), *_sets("grid.n=8", "time.dt=0.01", "time.t_final=0.2"))
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


def test_default_scene_is_the_benchmark_scene():
    cfg = default_config()
    scene = build_scene({name: _section(cfg, name) for name in cfg}, False)
    bench = benchmark_scene()
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
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(default_config(), ["no-equals-sign"])


def test_checked_flag_catches_nothing_on_healthy_run(tmp_path):
    assert run_cli(*fast_run_args(tmp_path, "--checked")) == 0
    assert run_cli(*fast_run_args(tmp_path, "--unchecked")) == 0


# The CLI contract.  Bad input exits 2, a solver failure 3 and an unreadable
# file 4, each with one stderr line and never with a traceback, a warning or
# a stray output; valid input exits 0 with nothing on stderr.  CONTRACT holds
# one row per input, (id, argv, files, code, fragments), and
# check_contract runs each in a directory holding ``files`` (name -> text).
# An id ``name[param]`` is case ``param`` of test ``name``; an input that was
# a separate test keeps that test's id, so its results stay comparable across
# versions.  A new input is a new row, not a new test.

_PREFIXES = {2: ("config error:", "invalid input:"), 3: ("solver failure:",), 4: ("i/o error:",)}


def check_contract(tmp_path, monkeypatch, capsys, argv, files, code, fragments):
    """Run ``rxd argv`` in tmp_path, with ``files`` written there, and check the contract.

    The run exits ``code`` and warns nothing.  Code 0 leaves stderr empty.  A
    refusal prints nothing on stdout and one stderr line that starts with its
    code's prefix, and adds nothing to tmp_path.  Each of ``fragments`` is in
    stderr; a fragment that starts with a prefix must start stderr.
    """
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    entries = sorted(tmp_path.iterdir())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(list(argv))
    out, err = capsys.readouterr()
    assert (got, [str(w.message) for w in caught]) == (code, []), err
    if code == 0:
        assert err == ""
        return
    prefixes = _PREFIXES[code]
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(prefixes), err
    assert sorted(tmp_path.iterdir()) == entries
    for fragment in fragments:
        assert err.startswith(fragment) if fragment.startswith(prefixes) else fragment in err, err


def _snapshots(fields, times=(0.0, 0.0, 0.0)):
    """Files init_a.txt, init_b.txt and init_c.txt holding ``fields`` stamped ``times``."""
    texts = [io.StringIO() for _ in fields]
    for f, t, buf in zip(fields, times, texts):
        write_field(f, buf, time=t)
    return {f"init_{name}.txt": buf.getvalue() for name, buf in zip("abc", texts)}


def _uniform(*levels, n=8):
    return [Field.full(Grid.box(2, n, -1.0, 1.0), level) for level in levels]


_RUN = ["run", "--out", "out", *_sets("grid.n=8", "time.dt=0.1", "time.t_final=0.2")]  # 2 steps
_SNAPSHOT_RUN = [*_RUN, "--set", "initial=" + json.dumps(
    {"kind": "snapshot", **{name: f"init_{name}.txt" for name in "abc"}})]


def _one_uniform_step(dt, a, b, c):
    """``rxd run`` of one step of size dt from the uniform state (a, b, c) at N = 4."""
    return ["run", *_sets("grid.n=4", f"time.dt={dt!r}", f"time.t_final={dt!r}",
                          "initial=" + json.dumps({"kind": "uniform", "a": a, "b": b, "c": c}))]


_TOP_UNIFORM = 'initial={{"kind":"uniform","a":1e308,"b":1e308,"c":{c}}}'
_PAPER_FIELDS = [f for _, f in make_initial_condition(Grid.box(2, 8, -1.0, 1.0)).species()]
_HEADER = "rxd-field v1\ndim=1 n=2 lower=0 upper=1 t=0"

_BAD_VALUES = [  # (settings, the name stderr gives) for a run in tmp_path without --out
    # must not end in a traceback
    ("output.out_dir=5", "output.out_dir"), ("study_time.dts=[0.1,null]", "study_time.dts"),
    ("study_space.hs=[0.5,0.25,null]", "study_space.hs"),
    ('diffusion.d_a={"profile":"cosine","base":null}', "diffusion.d_a"),
    ("time.t_final=Infinity", "time.t_final"),
    # must not be silently accepted
    ("time.dtt=0.5", "time.dtt"), ("grid.nn=8", "grid.nn"), ("bogus.key=1", "bogus"),
    ("diffusion.d_a=true", "diffusion.d_a"), ("model.a_inf=true", "model.a_inf"),
    ('output.checked="no"', "output.checked"), ("solver.reaction_tol=-1", "reaction_tol"),
    ("solver.cg_tol=NaN", "solver.cg_tol"),
    # must not pass a checked run with infinite energy
    ("grid.upper=[Infinity,1]", "grid.upper"), ("model.a_inf=Infinity", "model.a_inf"),
    # a config error (2), not a solver failure (3)
    ("diffusion.d_a=Infinity", "diffusion.d_a"),
    ('diffusion.d_b={"profile":"cosine","base":1e308}', "diffusion.d_b"),
    ('diffusion.d_b={"profile":"cosine","period":1e-320}', "diffusion.d_b"),
    # not an OverflowError traceback: h**dim overflows although h is finite
    (("grid.lower=[-1e300,-1e300]", "grid.upper=[1e300,1e300]", UNIFORM), "grid"),
    # not a cos(inf) warning and exit 3: 2*pi*x/period overflows on the box
    (("grid.lower=[-1e10,-1e10]", "grid.upper=[1e10,1e10]", UNIFORM,
      'diffusion.d_b={"profile":"cosine","period":1e-300}'), "diffusion.d_b"),
]

CONTRACT = [
    ("test_missing_config_names_path", ["run", "--config", "nope.json"], {}, 2, ["nope.json"]),
    ("test_invalid_json_config", ["run", "--config", "bad.json"], {"bad.json": "{not json"}, 2,
     ["not valid JSON"]),
    ("test_run_rejects_non_integer_step_count", ["run", "--out", "out", "--set", "time.dt=0.013"],
     {}, 2, ["integer"]),
    ("test_uniform_initial_rejects_nonpositive",
     [*_RUN, "--set", 'initial={"kind":"uniform","a":-1,"b":1,"c":1}'], {}, 2, ["positive"]),
    ("test_unknown_initial_kind", [*_RUN, "--set", "initial.kind=blob"], {}, 2, ["blob"]),
    ("test_bad_diffusion_profile", [*_RUN, "--set", 'diffusion.d_a={"profile":"warp"}'], {}, 2,
     ["warp"]),
    ("test_snapshot_initial_grid_mismatch", _SNAPSHOT_RUN, _snapshots(_uniform(1, 1, 1, n=4)), 2,
     ["does not match"]),
    # a config error (2) before the output directory exists, not a solver failure (3)
    ("test_snapshot_initial_rejects_nonpositive_values", _SNAPSHOT_RUN,
     _snapshots(_uniform(1, 0, 1)), 2, ["config error: initial:", "species b"]),
    ("test_snapshot_initial_time_stamps_must_agree", _SNAPSHOT_RUN,
     _snapshots(_uniform(1, 1, 1), (0.0, 5.0, 9.0)), 2,
     ["time stamps differ", "b: t=5", "c: t=9"]),
    *((f"test_snapshot_initial_time_must_be_finite[{t}]", _SNAPSHOT_RUN,
       _snapshots(_PAPER_FIELDS, [float(t)] * 3), 2, ["malformed snapshot header"])
      for t in ("inf", "nan")),
    ("test_study_time_rejects_single_dt",
     ["study-time", "--out", "out", "--set", "study_time.dts=[0.1]"], {}, 2, ["two step sizes"]),
    ("test_study_space_rejects_two_resolutions",
     ["study-space", "--out", "out", "--set", "study_space.hs=[0.2,0.1]"], {}, 2,
     ["three mesh sizes"]),
    ("test_study_space_rejects_scalar_grid_bound",
     ["study-space", "--out", "out", "--set", "grid.lower=5"], {}, 2, ["grid.lower"]),
    *((f"test_run_rejects_negative_output_interval[{key}]", [*_RUN, "--set", f"output.{key}=-1"],
       {}, 2, [f"output.{key}"]) for key in ("diagnostics_every", "snapshot_every")),
    # these counts used to be truncated by int(): grid.n=8.7 ran at n = 8
    *((f"test_rejects_non_integer_counts[{command}-{setting}]",
       [command, *_RUN[1:], "--set", setting], {}, 2, [setting.split("=")[0]])
      for command, setting in [*(("run", s) for s in (
          "grid.dim=2.5", "grid.n=8.7", "output.diagnostics_every=1.5",
          "output.snapshot_every=0.5", "solver.cg_max_iter=10.5", 'grid.n="8"')),
          ("study-time", "study_time.n=16.5")]),
    *((f"test_parse_error_names_its_section_once[{key}]", [*_RUN, "--set", f"{key}=abc"], {}, 2,
       [f"config error: {key}: cannot parse 'abc'"]) for key in ("time.dt", "model.k_plus")),
    *((f"test_rejects_bad_values_and_unknown_keys"
       f"[{setting if isinstance(setting, str) else f'setting{i}'}-{named}]",
       ["run", *_sets("grid.n=8", "time.t_final=0.02",
                      *([setting] if isinstance(setting, str) else setting))],
       {}, 2, ["config error:", named]) for i, (setting, named) in enumerate(_BAD_VALUES)),
    # argparse's refusals: one config error line, like every other refusal
    ("test_run_has_no_jobs_option", [*_RUN, "--jobs", "1"], {}, 2,
     ["config error: unrecognized arguments: --jobs 1"]),
    *((f"test_cli_contract[unknown-option-{command}]", [command, *rest, "--bogus"], {}, 2,
       ["config error: unrecognized arguments: --bogus"])
      for command, rest in (("study-time", []), ("study-space", []), ("inspect", ["snap.txt"]))),
    ("test_cli_contract[missing-subcommand]", [], {}, 2,
     ["config error: the following arguments are required: command"]),
    ("test_cli_contract[unknown-subcommand]", ["bogus"], {}, 2,
     ["config error: argument command: invalid choice: 'bogus'"]),
    ("test_cli_contract[inspect-without-path]", ["inspect"], {}, 2,
     ["config error: the following arguments are required: snapshot"]),
    ("test_cli_contract[jobs-not-an-integer]", ["study-time", "--out", "out", "--jobs", "x"], {},
     2, ["config error: argument --jobs: invalid int value: 'x'"]),
    *((f"test_study_rejects_jobs_other_than_one[{jobs}-{command}]",
       [command, "--out", "out", "--jobs", jobs], {}, 2,
       [f"config error: argument --jobs: invalid choice: {jobs}"])
      for jobs in ("0", "-1", "2") for command in ("study-time", "study-space")),
    # a cell volume of 6.25e298 is finite, but <a+c,1> and the energy of
    # a = 1e10 overflow; inf > inf + slack and |inf - inf| > tol are false
    ("test_checked_run_refuses_infinite_energy_as_a_solver_failure",
     ["run", "--out", "out", "--checked", *_sets(
         "grid.lower=[-1e150,-1e150]", "grid.upper=[1e150,1e150]", "grid.n=8",
         "time.t_final=0.02", 'initial={"kind":"uniform","a":1e10,"b":1,"c":1}')],
     {}, 3, ["solver failure: energy is not finite at step 0"]),
    # b / b_inf overflows for b_inf = 5e-324 (k_minus keeps detailed balance)
    ("test_overflowing_energy_ratio_ends_in_one_line_without_a_warning",
     ["run", "--out", "out", *_sets("grid.n=8", "time.t_final=0.02", "model.b_inf=5e-324",
                                    "model.k_minus=5e-324")],
     {}, 3, ["solver failure: energy is not finite at step 0: inf\n"]),
    *((f"test_huge_diffusion_coefficient_ends_in_one_line[{case}]",
       ["run", "--out", "out", *_sets("diffusion.d_a=1e308", f"grid.n={n}")], {}, code, [start])
      for case, n, code, start in [
          ("breakdown", 8, 3, "solver failure: CG broke down after 1 iterations: r.z = 0.0"),
          ("overflow", 9, 3, "solver failure: CG stalled at relative residual inf"),
          ("refused-sum", 12, 2, "invalid input: diffusion coefficient too large"),
          ("refused", 64, 2, "invalid input: diffusion coefficient too large for the "
                             "preconditioner")]),
    ("test_inspect_missing_file", ["inspect", "missing.txt"], {}, 4, ["missing.txt"]),
    ("test_inspect_malformed_snapshot", ["inspect", "junk.txt"], {"junk.txt": "not a snapshot\n"},
     2, ["rxd-field"]),
    ("test_inspect_refuses_two_values_per_line", ["inspect", "wide.txt"],
     {"wide.txt": "rxd-field v1\ndim=2 n=2 lower=0,0 upper=1,1 t=0\n1 2\n3 4\n"}, 2,
     ["one value per line"]),
    # float() and numpy take Python's digit separators: this read as max=30
    ("test_cli_contract[inspect-underscore-separator]", ["inspect", "snap.txt"],
     {"snap.txt": "rxd-field v1\ndim=2 n=2 lower=0,0 upper=1,1 t=0\n1\n2\n3_0\n4\n"}, 2,
     ["invalid input: snap.txt:5: expected one value per line, found '3_0'\n"]),
    *((f"test_inspect_refuses_malformed_snapshots[{case}]", ["inspect", "snap.txt"],
       {"snap.txt": text}, 2, [f"snap.txt:{line}: "]) for case, text, line in [
          ("blank-line", f"{_HEADER}\n1.0\n\n2.0\n", 4),
          ("trailing-comment", f"{_HEADER}\n1.0 # c\n2.0\n", 3),
          ("comment-line", f"{_HEADER}\n# c\n1.0\n2.0\n", 3),
          ("duplicate-key", f"{_HEADER} t=5\n1.0\n2.0\n", 2),
          ("header-only", f"{_HEADER}\n", 3),
          ("bad-token", f"{_HEADER}\nabc\n2.0\n", 3),
          ("unknown-key", f"{_HEADER} foo=1\n1.0\n2.0\n", 2),
          # int() and float() take "_" digit separators: this read as n=2, upper=10
          ("header-underscore", "rxd-field v1\ndim=1 n=0_2 lower=0 upper=1_0 t=0\n1\n2\n", 2),
          # a byte outside ASCII was refused by the codec, without file or line
          ("non-ascii-magic", _HEADER.replace("v1", "v1\u00e9") + "\n1.0\n2.0\n", 1),
          ("non-ascii-header", f"{_HEADER}\u00e9\n1.0\n2.0\n", 2),
          ("non-ascii-value", f"{_HEADER}\n1.0\n2.0\u00e9\n", 4)]),
    # refusal paths that no other test reaches
    ("test_cli_contract[cosine-unknown-key]",
     [*_RUN, "--set", 'diffusion.d_a={"profile":"cosine","width":1}'], {}, 2,
     ["diffusion.d_a", "a cosine profile takes base, amplitude, period"]),
    ("test_cli_contract[cosine-amplitude-1]",
     [*_RUN, "--set", 'diffusion.d_a={"profile":"cosine","amplitude":1}'], {}, 2,
     ["diffusion.d_a", "|amplitude| < 1"]),
    ("test_cli_contract[config-json-array]", ["run", "--config", "list.json"],
     {"list.json": "[1, 2]"}, 2, ["config file list.json must hold a JSON object"]),
    ("test_cli_contract[set-inside-a-value]", [*_RUN, "--set", "time.dt.x=1"], {}, 2,
     ["--set time.dt.x: 'dt' is not a section"]),
    ("test_cli_contract[set-section-to-a-number]", [*_RUN, "--set", "grid=3"], {}, 2,
     ["missing or malformed config section 'grid'"]),
    ("test_cli_contract[set-section-empty]", [*_RUN, "--set", "grid={}"], {}, 2,
     ["grid.dim is required"]),
    ("test_cli_contract[paper-2d-off-its-box]",
     [*_RUN, *_sets("grid.lower=[0,0]", "grid.upper=[1,1]")], {}, 2,
     ["config error: initial:", "(-1, 1)^2"]),
    ("test_cli_contract[snapshot-missing]", _SNAPSHOT_RUN, {}, 2,
     ["initial.a: snapshot not found: init_a.txt"]),
    # a no-break space (UTF-8 c2 a0) was refused by the codec, naming no file
    ("test_cli_contract[non-ascii-snapshot-run]", _SNAPSHOT_RUN,
     {**_snapshots(_PAPER_FIELDS), "init_b.txt": "".join(
         ("\u00a0" if k == 41 else "") + line
         for k, line in enumerate(_snapshots(_PAPER_FIELDS)["init_b.txt"].splitlines(True), 1))},
     2, ["init_b.txt:41: "]),
    ("test_cli_contract[repeated-mesh-size]",
     ["study-space", "--out", "out", "--set", "study_space.hs=[0.5,0.5,0.25]"], {}, 2,
     ["repeated mesh sizes"]),
    # valid inputs where k_minus*c*dt is subnormal or underflows to 0: the
    # reaction used to warn and stall with exit 3
    ("test_cli_contract[subnormal-rates]",
     ["run", *_sets("grid.n=8", "time.t_final=0.02", "model.k_plus=1e-308",
                    "model.k_minus=1e-308")], {}, 0, []),
    ("test_cli_contract[subnormal-dt]",
     ["run", *_sets("grid.n=8", "time.dt=1e-320", "time.t_final=1e-319")], {}, 0, []),
    ("test_cli_contract[underflowing-dt]",
     ["run", *_sets("grid.n=8", "time.dt=5e-324", "time.t_final=1e-322")], {}, 0, []),
    # runs that give identical fields leave no order to measure: this used to
    # end in a ZeroDivisionError traceback
    ("test_cli_contract[study-time-equilibrium]",
     ["study-time", "--out", "out", *_sets(UNIFORM, "study_time.n=8", "study_time.dts=[0.1,0.05]",
                                           "study_time.ref_dt=0.025")], {}, 2,
     ["config error: study_time:", "vanish"]),
    # the temporal study runs its reference first, yet the largest dt, the first
    # the preconditioner refuses, is refused before it: not a CG breakdown (3)
    ("test_cli_contract[study-time-preconditioner-overflow]",
     ["study-time", "--out", "out", *_sets("study_time.n=8", "study_time.dts=[0.1,0.05]",
                                           "study_time.ref_dt=0.025", "diffusion.d_a=5e307")],
     {}, 2, ["config error: study_time: diffusion coefficient too large for the preconditioner"]),
    ("test_cli_contract[study-space-equilibrium]",
     ["study-space", "--out", "out", *_sets(UNIFORM, "study_space.hs=[0.5,0.25,0.125]",
                                            "study_space.t_final=0.25")], {}, 2,
     ["config error: study_space:", "vanish"]),
    # a t_final/dt that overflows and a mesh size of 0 used to end in a traceback
    ("test_cli_contract[overflowing-step-count]",
     [*_RUN, *_sets("time.dt=1e-10", "time.t_final=1e300")], {}, 2,
     ["config error: time:", "= inf is not a positive integer"]),
    # from t_final/dt = 5e8 on, the whole-number check passed every ratio: a
    # half step was dropped, and 1e301 steps ran without end
    ("test_cli_contract[step-count-too-large]", [*_RUN, "--set", "time.t_final=1e300"], {}, 2,
     ["config error: time: t_final/dt = 1e+300/0.1 = 1e+301 is not a positive integer below 5e8"]),
    ("test_cli_contract[half-step-past-5e8]",
     [*_RUN, *_sets("time.dt=1", "time.t_final=500000000.5")], {}, 2,
     ["config error: time:", "= 500000000.5 is not a positive integer below 5e8"]),
    # a slack of 1e-9 of the ratio took these for 1e8 and 4e8 whole steps
    *((f"test_cli_contract[tenth-step-at-{t_final}]",
       [*_RUN, *_sets("time.dt=1", f"time.t_final={t_final}")], {}, 2,
       ["config error: time:", f"= {t_final} is not a positive integer"])
      for t_final in ("100000000.1", "400000000.4")),
    ("test_cli_contract[zero-mesh-size]",
     ["study-space", "--out", "out", "--set", "study_space.hs=[0.5,0.25,0]"], {}, 2,
     ["config error: study_space: h = 0.0 does not tile the domain extent"]),
    # 1e9 cells a side: the step-count rule's bound refuses it before any grid is built
    ("test_cli_contract[mesh-size-past-5e8-cells]",
     ["study-space", "--out", "out", "--set", "study_space.hs=[2e-9,1e-9,5e-10]"], {}, 2,
     ["config error: study_space: h = 2e-09 does not tile the domain extent 2.0", "allocate"]),
    # ||b||^2 underflowed: the diffusion solve returned zeros and the run exited 3
    ("test_cli_contract[tiny-uniform-run]",
     ["run", *_sets("grid.n=8", "time.t_final=0.02",
                    'initial={"kind":"uniform","a":1e-300,"b":1e-300,"c":1e-300}')], {}, 0, []),
    # subnormal data: the diffusion solve's power-of-two scale, formed as a
    # double, overflowed
    ("test_cli_contract[subnormal-uniform-run]",
     ["run", *_sets("grid.n=8", "time.t_final=0.02",
                    'initial={"kind":"uniform","a":1e-310,"b":1e-310,"c":1e-310}')], {}, 0, []),
    # roots 1e-289 below min(a, b) and 1e68 above a subnormal k_minus*c*dt:
    # the reaction bisected arithmetically and stalled with exit 3
    *((f"test_cli_contract[{case}]", _one_uniform_step(dt, a, b, c), {}, 0, [])
      for case, a, b, c, dt in [
          ("mixed-scale-uniform-run", 21853.370413462744, 2.1872641913206866e-289,
           3.160873312828357e-132, 4.6284300441286253e-20),
          ("overflowing-trajectory-ratio-run", 1.9983148498481042e250, 2.5422843246359816e209,
           1.2249091605361626e-213, 7.347700998735883e-296)]),
    # k_minus*c*dt overflowed with a warning and the run solved another equation
    ("test_cli_contract[overflowing-reaction-rate-run]",
     _one_uniform_step(1e10, 1e300, 1e300, 1e300), {}, 2,
     ["invalid input: reaction rate k- c dt overflows at cell 0: k-=1.0 c=1e+300"]),
    # a + c and the energy sum overflowed with four RuntimeWarning lines
    ("test_cli_contract[overflowing-mass-run]", _one_uniform_step(0.01, 1e308, 1e-300, 1e308),
     {}, 3, ["solver failure: energy is not finite at step 0: inf\n"]),
    # the reaction polish's G * m overflowed with a RuntimeWarning
    ("test_cli_contract[top-of-range-uniform-run]",
     ["run", "--unchecked", *_sets("grid.n=3", _TOP_UNIFORM.format(c=1))], {}, 0, []),
    # c + R overflowed with four RuntimeWarnings and the diffusion stage was blamed
    ("test_cli_contract[overflowing-reaction-update-run]",
     ["run", "--unchecked", *_sets("grid.n=3", _TOP_UNIFORM.format(c=1e308))], {}, 2,
     ["invalid input: reaction update a - R, b - R, c + R overflows at cell 0: a=1e+308 "
      "b=1e+308 c=1e+308 dt=0.01\n"]),
    # a 65.5 TiB grid ended in numpy's _ArrayMemoryError traceback
    ("test_cli_contract[grid-too-large-for-memory]", ["run", "--set", "grid.n=3000000"], {}, 2,
     ["invalid input: out of memory: "]),
    # a study checks each grid against host memory before its first run (one whose
    # grids fit the address space but not the host was killed without a message)
    ("test_cli_contract[study-grid-too-large-for-memory]",
     ["study-space", "--out", "out", "--set", "study_space.hs=[1e-6,5e-7,4e-7]"], {}, 2,
     ["invalid input: out of memory: a run on 4000000000000 cells peaks near"]),
    # huge rates whose products stay finite (checked in CI's console-script step too)
    ("test_cli_contract[huge-rates-run]",
     ["run", *_sets("grid.n=8", "time.t_final=0.02", "model.a_inf=1e200", "model.k_minus=1e200")],
     {}, 0, []),
]


@pytest.mark.parametrize("argv,pages,host", [
    ([*_RUN, "--set", "output.snapshot_every=1"], 1, "3.81e-06"),
    (["study-space", "--out", "out", "--set", "study_space.hs=[0.5,0.25,0.125]"], 1, "3.81e-06"),
    ([*_RUN, "--set", "output.snapshot_every=1", "--set",
      'diffusion.d_b={"profile":"cosine","base":1.0,"amplitude":0.9,"period":2.0}'], 2, "7.63e-06"),
], ids=["run", "study-space", "cosine-run"])
def test_grid_too_large_for_host_memory(tmp_path, monkeypatch, capsys, argv, pages, host):
    # A host of 4 KiB pages: a run on the 8 x 8 grid peaks near 8.5 KiB, whatever
    # its kind.  The study's first grid (4 x 4) fits in one page; its second is
    # refused.  A cosine run, which iterates CG, is refused by 2 pages as well.
    sysconf = os.sysconf
    fake = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    check_contract(tmp_path, monkeypatch, capsys, argv, {}, 2,
                   ["invalid input: out of memory: a run on 64 cells peaks near 8.11e-06 GiB, "
                    f"more than the host's {host} GiB\n"])


def _contract_test(rows):
    """check_contract over (param, row) pairs; a lone row without a param gets a plain test."""
    if rows[0][0] is None:
        (_, row), = rows

        def test(tmp_path, monkeypatch, capsys):
            check_contract(tmp_path, monkeypatch, capsys, *row)
        return test

    @pytest.mark.parametrize("row", [pytest.param(row, id=param) for param, row in rows])
    def test(tmp_path, monkeypatch, capsys, row):
        check_contract(tmp_path, monkeypatch, capsys, *row)
    return test


_GROUPS = {}
for _id, *_row in CONTRACT:
    _name, _bracket, _param = _id.partition("[")
    _GROUPS.setdefault(_name, []).append((_param[:-1] if _bracket else None, _row))
globals().update((name, _contract_test(rows)) for name, rows in _GROUPS.items())

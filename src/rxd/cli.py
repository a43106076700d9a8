"""Command-line interface: run simulations and convergence studies from JSON configs.

Subcommands:

* ``run``          advance the configured scene, writing ``diagnostics.csv``
                   and optional field snapshots into the output directory.
* ``study-time``   temporal refinement study; writes ``temporal_orders.csv``.
* ``study-space``  spatial Cauchy study; writes ``spatial_orders.csv``.
* ``inspect``      print the header and min/max/mean of a field snapshot.

A config is a single JSON file whose sections deep-merge over the built-in
defaults (see ``default_config``), so partial configs are fine.  Any value
can be overridden on the command line with ``--set section.key=value``
(repeatable; values are parsed as JSON, falling back to plain strings).

Exit codes: 0 success, 2 config error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError, PositivityError
from .grid import Coefficient, DiffusionCoeffs, Grid, ModelParams, State
from .snapshots import format_float, read_field, write_field
from .splitting import (
    SolverOptions,
    TimeConfig,
    make_initial_condition,
    run_simulation,
    write_diagnostics_csv,
)
from .study import Scene, spatial_cauchy_order, temporal_order


def default_config() -> dict:
    """Built-in defaults: the benchmark scene on (-1,1)^2."""
    return {
        "grid": {"dim": 2, "n": 64, "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "model": {"a_inf": 1.0, "b_inf": 1.0, "c_inf": 1.0, "k_plus": 1.0, "k_minus": 1.0},
        "diffusion": {"d_a": 0.05, "d_b": 1.0, "d_c": 0.1},
        "time": {"dt": 0.01, "t_final": 0.2},
        "solver": {"reaction_tol": 1e-12, "cg_tol": 1e-10, "cg_max_iter": None},
        "output": {
            "out_dir": "out",
            "diagnostics_every": 1,
            "snapshot_every": 0,
            "checked": True,
        },
        "initial": {"kind": "paper-2d"},
        "study_time": {
            "n": 100,
            "dts": [1.0 / 25, 1.0 / 50, 1.0 / 100, 1.0 / 200],
            "ref_dt": 1.0 / 800,
            "t_final": 0.2,
        },
        "study_space": {
            "hs": [1.0 / 20, 1.0 / 30, 1.0 / 40, 1.0 / 50, 1.0 / 60],
            "t_final": 0.2,
        },
    }


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: Optional[str]) -> dict:
    """Read a JSON config and merge it over the defaults; None means defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return _deep_merge(cfg, user)


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply repeatable ``--set section.key=value`` assignments."""
    cfg = copy.deepcopy(cfg)
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not a section")
        node[parts[-1]] = value
    return cfg


def canonical_config(cfg: dict) -> str:
    """Deterministic serialization; loading it back reproduces ``cfg`` exactly."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"missing or malformed config section {name!r}")
    return sec


def _get(sec: dict, section: str, key: str, kind, required: bool = True):
    if key not in sec or sec[key] is None:
        if required:
            raise ConfigError(f"{section}.{key} is required")
        return None
    value = sec[key]
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {value!r} ({exc})") from exc


def _integer(value) -> int:
    """An integral number as int; 8.7, "8" and true are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError("not an integer")
    return int(value)


def build_grid(cfg: dict, n_override: Optional[int] = None) -> Grid:
    sec = _section(cfg, "grid")
    dim = _get(sec, "grid", "dim", _integer)
    n = n_override if n_override is not None else _get(sec, "grid", "n", _integer)
    lower = tuple(_get(sec, "grid", "lower", list))
    upper = tuple(_get(sec, "grid", "upper", list))
    try:
        return Grid(dim, n, lower, upper)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_params(cfg: dict) -> ModelParams:
    sec = _section(cfg, "model")
    try:
        return ModelParams(
            a_inf=_get(sec, "model", "a_inf", float),
            b_inf=_get(sec, "model", "b_inf", float),
            c_inf=_get(sec, "model", "c_inf", float),
            k_plus=_get(sec, "model", "k_plus", float),
            k_minus=_get(sec, "model", "k_minus", float),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _coefficient(spec, where: str) -> Coefficient:
    """A number is a constant; an object selects a named analytic profile."""
    if isinstance(spec, (int, float)):
        if not spec > 0:
            raise ConfigError(f"{where}: coefficient must be positive, got {spec}")
        return float(spec)
    if isinstance(spec, dict):
        profile = spec.get("profile")
        if profile == "cosine":
            base = float(spec.get("base", 1.0))
            amplitude = float(spec.get("amplitude", 0.5))
            period = float(spec.get("period", 2.0))
            if base <= 0 or not abs(amplitude) < 1 or period <= 0:
                raise ConfigError(
                    f"{where}: cosine profile needs base > 0, |amplitude| < 1, "
                    f"period > 0, got {spec}"
                )

            def cosine(x, *rest):
                return base * (1.0 + amplitude * np.cos(2.0 * np.pi * x / period))

            return cosine
        raise ConfigError(f"{where}: unknown diffusion profile {profile!r}")
    raise ConfigError(f"{where}: expected a number or a profile object, got {spec!r}")


def build_coeffs(cfg: dict) -> DiffusionCoeffs:
    sec = _section(cfg, "diffusion")
    return DiffusionCoeffs(
        _coefficient(sec.get("d_a"), "diffusion.d_a"),
        _coefficient(sec.get("d_b"), "diffusion.d_b"),
        _coefficient(sec.get("d_c"), "diffusion.d_c"),
    )


def build_time(cfg: dict) -> TimeConfig:
    sec = _section(cfg, "time")
    try:
        return TimeConfig(
            dt=_get(sec, "time", "dt", float),
            t_final=_get(sec, "time", "t_final", float),
        )
    except ValueError as exc:
        raise ConfigError(f"time: {exc}") from exc


def build_options(cfg: dict, checked_flag: Optional[bool]) -> SolverOptions:
    sec = _section(cfg, "solver")
    out = _section(cfg, "output")
    checked = checked_flag if checked_flag is not None else bool(out.get("checked", True))
    return SolverOptions(
        reaction_tol=_get(sec, "solver", "reaction_tol", float),
        cg_tol=_get(sec, "solver", "cg_tol", float),
        cg_max_iter=_get(sec, "solver", "cg_max_iter", _integer, required=False),
        checked=checked,
    )


def build_initial_factory(cfg: dict) -> Callable[[Grid], State]:
    """Initial-condition factory selected by config; called with the run grid."""
    sec = _section(cfg, "initial")
    kind = sec.get("kind")
    if kind == "paper-2d":
        def factory(grid: Grid) -> State:
            try:
                return make_initial_condition(grid)
            except ValueError as exc:
                raise ConfigError(f"initial: {exc}") from exc
        return factory
    if kind == "uniform":
        try:
            a = float(sec["a"])
            b = float(sec["b"])
            c = float(sec["c"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "initial: uniform kind needs numeric a, b, c entries"
            ) from exc
        if min(a, b, c) <= 0:
            raise ConfigError(f"initial: uniform values must be positive, got {a},{b},{c}")
        return lambda grid: State.uniform(grid, a, b, c)
    if kind == "snapshot":
        paths = {}
        for name in ("a", "b", "c"):
            path = sec.get(name)
            if not isinstance(path, str):
                raise ConfigError(f"initial.{name}: snapshot kind needs a file path")
            paths[name] = path

        def factory(grid: Grid) -> State:
            fields = {}
            times = {}
            for name, path in paths.items():
                if not os.path.exists(path):
                    raise ConfigError(f"initial.{name}: snapshot not found: {path}")
                f, t = read_field(path)
                if f.grid != grid:
                    raise ConfigError(
                        f"initial.{name}: snapshot grid {f.grid} does not match "
                        f"the configured grid {grid}"
                    )
                fields[name], times[name] = f, t
            if len(set(times.values())) > 1:
                stamps = ", ".join(f"{name}: t={format_float(t)}" for name, t in times.items())
                raise ConfigError(f"initial: snapshot time stamps differ ({stamps})")
            return State(fields["a"], fields["b"], fields["c"], times["a"])

        return factory
    raise ConfigError(
        f"initial.kind must be 'paper-2d', 'uniform' or 'snapshot', got {kind!r}"
    )


def build_scene(cfg: dict, checked_flag: Optional[bool]) -> Scene:
    grid = build_grid(cfg)
    return Scene(
        lower=grid.lower,
        upper=grid.upper,
        params=build_params(cfg),
        coeffs=build_coeffs(cfg),
        initial=build_initial_factory(cfg),
        options=build_options(cfg, checked_flag),
    )


def _prepare(args) -> dict:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.set or [])
    if args.out is not None:
        cfg["output"]["out_dir"] = args.out
    return cfg


def _out_dir(cfg: dict) -> str:
    out = _section(cfg, "output")
    path = out.get("out_dir", "out")
    os.makedirs(path, exist_ok=True)
    return path


def _every(out_sec: dict, key: str) -> int:
    """An output interval in steps: a non-negative integer, 0 disables."""
    every = _get(out_sec, "output", key, _integer)
    if every < 0:
        raise ConfigError(f"output.{key} must be >= 0 (0 disables), got {every}")
    return every


def cmd_run(args) -> int:
    cfg = _prepare(args)
    grid = build_grid(cfg)
    params = build_params(cfg)
    coeffs = build_coeffs(cfg)
    tc = build_time(cfg)
    options = build_options(cfg, args.checked)
    initial = build_initial_factory(cfg)(grid)
    out_sec = _section(cfg, "output")
    diagnostics_every = _every(out_sec, "diagnostics_every")
    snapshot_every = _every(out_sec, "snapshot_every")
    out_dir = _out_dir(cfg)

    def on_snapshot(step: int, state: State) -> None:
        for name, f in state.species():
            write_field(f, os.path.join(out_dir, f"field_{name}_step{step}.txt"),
                        time=state.time)

    final, rows = run_simulation(
        initial, tc, params, coeffs, options,
        diagnostics_every=diagnostics_every,
        snapshot_every=snapshot_every,
        on_snapshot=on_snapshot if snapshot_every > 0 else None,
    )
    write_diagnostics_csv(rows, os.path.join(out_dir, "diagnostics.csv"))
    if rows:
        print(
            f"run complete: {tc.steps} steps to t={format_float(final.time)}, "
            f"energy {format_float(rows[0].energy)} -> {format_float(rows[-1].energy)}"
        )
    else:
        print(f"run complete: {tc.steps} steps to t={format_float(final.time)}")
    return 0


def cmd_study_time(args) -> int:
    cfg = _prepare(args)
    sec = _section(cfg, "study_time")
    dts = sec.get("dts")
    if not isinstance(dts, list) or len(dts) < 2:
        raise ConfigError("study_time.dts must list at least two step sizes")
    ref_dt = _get(sec, "study_time", "ref_dt", float)
    t_final = _get(sec, "study_time", "t_final", float)
    n = _get(sec, "study_time", "n", _integer)
    scene = build_scene(cfg, args.checked if args.checked is not None else False)
    grid = build_grid(cfg, n_override=n)
    try:
        report = temporal_order(dts, ref_dt, grid, t_final, scene, jobs=args.jobs)
    except ValueError as exc:
        raise ConfigError(f"study_time: {exc}") from exc
    out_dir = _out_dir(cfg)
    report.write_csv(os.path.join(out_dir, "temporal_orders.csv"))
    print(report.format_table())
    return 0


def cmd_study_space(args) -> int:
    cfg = _prepare(args)
    sec = _section(cfg, "study_space")
    hs = sec.get("hs")
    if not isinstance(hs, list) or len(hs) < 3:
        raise ConfigError("study_space.hs must list at least three mesh sizes")
    t_final = _get(sec, "study_space", "t_final", float)
    scene = build_scene(cfg, args.checked if args.checked is not None else False)
    try:
        report = spatial_cauchy_order(hs, t_final, scene, jobs=args.jobs)
    except ValueError as exc:
        raise ConfigError(f"study_space: {exc}") from exc
    out_dir = _out_dir(cfg)
    report.write_csv(os.path.join(out_dir, "spatial_orders.csv"))
    print(report.format_table())
    return 0


def cmd_inspect(args) -> int:
    field, time = read_field(args.snapshot)
    g = field.grid
    v = field.values
    print(f"rxd-field v1: dim={g.dim} n={g.n} lower={g.lower} upper={g.upper} "
          f"t={format_float(time)}")
    print(f"min={format_float(v.min())} max={format_float(v.max())} "
          f"mean={format_float(v.mean())}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config path (defaults built in)")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry, e.g. --set time.dt=0.005")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for study runs")
    parser.add_argument("--checked", dest="checked", action="store_true", default=None,
                        help="verify positivity/energy/mass invariants every step")
    parser.add_argument("--unchecked", dest="checked", action="store_false",
                        help="skip per-step invariant verification")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxd",
        description="Operator-splitting solver for the A + B <=> C reaction-diffusion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance the configured scene in time")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_time = sub.add_parser("study-time", help="temporal convergence study")
    _add_common(p_time)
    p_time.set_defaults(func=cmd_study_time)

    p_space = sub.add_parser("study-space", help="spatial Cauchy convergence study")
    _add_common(p_space)
    p_space.set_defaults(func=cmd_study_space)

    p_inspect = sub.add_parser("inspect", help="print snapshot header and statistics")
    p_inspect.add_argument("snapshot", help="path to an rxd-field v1 file")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, PositivityError, AssertionError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: run simulations and convergence studies from JSON configs.

Subcommands:

* ``run``          advance the configured scene, writing ``diagnostics.csv``
                   and optional field snapshots into the output directory.
* ``study-time``   temporal refinement study; writes ``temporal_orders.csv``.
* ``study-space``  spatial Cauchy study; writes ``spatial_orders.csv``.
* ``inspect``      print the header and min/max/mean of a field snapshot.

A config is a single JSON file whose sections merge key by key over the
built-in defaults (see ``default_config``), so partial configs are fine.
Any value can be overridden on the command line with ``--set section.key=value``
(repeatable; values are parsed as JSON, falling back to plain strings).
One table, ``_CONFIG``, gives every key its default and its parser; unknown
sections and keys, and values of the wrong type, are config errors.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial
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
from .study import Scene, benchmark_scene, spatial_cauchy_order, temporal_order


def _number(value) -> float:
    """A finite JSON number; true/false, strings, nan and inf are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError("not a finite number")
    return float(value)


def _integer(value) -> int:
    """An integral number as int; 8.7, "8" and true are refused, not truncated."""
    if not _number(value).is_integer():
        raise ValueError("not an integer")
    return int(value)


def _count(value) -> int:
    """A step interval: an integer >= 0, where 0 disables."""
    count = _integer(value)
    if count < 0:
        raise ValueError("must be >= 0, 0 disables")
    return count


def _numbers(value) -> list[float]:
    if not isinstance(value, list):
        raise ValueError("not a list of numbers")
    return [_number(x) for x in value]


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("not true or false")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError("not a string")
    return value


_COSINE_DEFAULTS = {"base": 1.0, "amplitude": 0.5, "period": 2.0}


def _cosine(x, *rest, base, amplitude, period):
    return base * (1.0 + amplitude * np.cos(2.0 * np.pi * x / period))


def _coefficient(spec) -> Coefficient:
    """A number is a constant; an object selects a named analytic profile."""
    if not isinstance(spec, dict):
        return _number(spec)
    if spec.get("profile") != "cosine":
        raise ValueError(f"unknown diffusion profile {spec.get('profile')!r}")
    if not set(spec) <= {"profile", *_COSINE_DEFAULTS}:
        raise ValueError(f"a cosine profile takes {', '.join(_COSINE_DEFAULTS)}")
    base, amplitude, period = (_number(spec.get(k, d)) for k, d in _COSINE_DEFAULTS.items())
    if base <= 0 or not abs(amplitude) < 1 or period <= 0:
        raise ValueError("a cosine profile needs base > 0, |amplitude| < 1, period > 0")
    if not (base * (1.0 - abs(amplitude)) > 0 and math.isfinite(2.0 * base)):  # min and max of D
        raise ValueError("a cosine profile needs base * (1 - |amplitude|) > 0 and 2*base finite")
    return partial(_cosine, base=base, amplitude=amplitude, period=period)


# Every config key as section -> key -> (default, parser).  default_config()
# is built from it and _section() parses with it.  The domain, model and
# diffusion defaults are those of the benchmark scene, the solver defaults
# those of SolverOptions.  The ``initial`` keys other than ``kind`` depend on
# the kind and have no defaults.
_SCENE = benchmark_scene()
_SOLVER = SolverOptions()
_CONFIG = {
    "grid": {"dim": (_SCENE.dim, _integer), "n": (64, _integer),
             "lower": (list(_SCENE.lower), _numbers), "upper": (list(_SCENE.upper), _numbers)},
    "model": {key: (value, _number) for key, value in asdict(_SCENE.params).items()},
    "diffusion": {key: (value, _coefficient) for key, value in asdict(_SCENE.coeffs).items()},
    "time": {"dt": (0.01, _number), "t_final": (0.2, _number)},
    "solver": {"reaction_tol": (_SOLVER.reaction_tol, _number),
               "cg_tol": (_SOLVER.cg_tol, _number),
               "cg_max_iter": (_SOLVER.cg_max_iter, lambda v: None if v is None else _integer(v))},
    "output": {"out_dir": ("out", _string), "diagnostics_every": (1, _count),
               "snapshot_every": (0, _count), "checked": (True, _bool)},
    "initial": {"kind": ("paper-2d", _string)},
    "study_time": {"n": (100, _integer),
                   "dts": ([1.0 / 25, 1.0 / 50, 1.0 / 100, 1.0 / 200], _numbers),
                   "ref_dt": (1.0 / 800, _number), "t_final": (0.2, _number)},
    "study_space": {"hs": ([1.0 / 20, 1.0 / 30, 1.0 / 40, 1.0 / 50, 1.0 / 60], _numbers),
                    "t_final": (0.2, _number)},
}
_INITIAL_KEYS = {
    "paper-2d": {},
    "uniform": dict.fromkeys("abc", (None, _number)),
    "snapshot": dict.fromkeys("abc", (None, _string)),
}


def default_config() -> dict:
    """Built-in defaults: the benchmark scene on (-1,1)^2."""
    return {name: {key: list(default) if isinstance(default, list) else default
                   for key, (default, _) in keys.items()}
            for name, keys in _CONFIG.items()}


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
    # One section deep: no default is a dict, and _section refuses what is not a section.
    for name, sec in user.items():
        cfg[name] = {**cfg[name], **sec} if name in cfg and isinstance(sec, dict) else sec
    return cfg


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
    """Section ``name`` with every key parsed; unknown, missing or ill-typed keys are refused."""
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"missing or malformed config section {name!r}")
    keys = _CONFIG[name]
    if name == "initial":
        kind = sec.get("kind")
        if not isinstance(kind, str) or kind not in _INITIAL_KEYS:
            raise ConfigError(f"unknown initial.kind {kind!r} (known: {', '.join(_INITIAL_KEYS)})")
        keys = {**keys, **_INITIAL_KEYS[kind]}
    for key in sec:
        if key not in keys:
            raise ConfigError(f"unknown config key {name}.{key} (known: {', '.join(keys)})")
    parsed = {}
    for key, (_, parse) in keys.items():
        if key not in sec:
            raise ConfigError(f"{name}.{key} is required")
        try:
            parsed[key] = parse(sec[key])
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}.{key}: cannot parse {sec[key]!r} ({exc})") from exc
    return parsed


def _build(ctor, name: str, sections: dict, **extra):
    """``ctor(**sections[name], **extra)``; a ValueError it raises names the section."""
    try:
        return ctor(**sections[name], **extra)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


build_grid = partial(_build, Grid, "grid")
build_params = partial(_build, ModelParams, "model")
build_coeffs = partial(_build, DiffusionCoeffs, "diffusion")
build_time = partial(_build, TimeConfig, "time")
build_options = partial(_build, SolverOptions, "solver")


def build_initial_factory(sections: dict) -> Callable[[Grid], State]:
    """Initial-condition factory selected by config; called with the run grid."""
    sec = sections["initial"]
    kind = sec["kind"]
    if kind == "paper-2d":
        def factory(grid: Grid) -> State:
            try:
                return make_initial_condition(grid)
            except ValueError as exc:
                raise ConfigError(f"initial: {exc}") from exc
        return factory
    if kind == "uniform":
        a, b, c = sec["a"], sec["b"], sec["c"]
        if min(a, b, c) <= 0:
            raise ConfigError(f"initial: uniform values must be positive, got {a},{b},{c}")
        return lambda grid: State.uniform(grid, a, b, c)
    paths = {name: sec[name] for name in "abc"}

    def factory(grid: Grid) -> State:
        fields, times = {}, {}
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
        state = State(*fields.values(), times["a"])
        try:
            state.require_positive("snapshot values")
        except PositivityError as exc:
            raise ConfigError(f"initial: {exc}") from exc
        return state

    return factory


def build_scene(sections: dict, checked: bool) -> Scene:
    grid, params, coeffs = build_grid(sections), build_params(sections), build_coeffs(sections)
    # The faces reach x = lower + n h; the cosine's phase must be finite there.
    x_max = max(abs(grid.lower[0]), abs(grid.lower[0] + grid.n * grid.h))
    for name in ("d_a", "d_b", "d_c"):
        d = getattr(coeffs, name)
        phase = 2.0 * math.pi * x_max / d.keywords["period"] if isinstance(d, partial) else 0.0
        if not math.isfinite(phase):
            raise ConfigError(f"diffusion.{name}: a cosine profile needs 2*pi*x/period finite "
                              f"on the box, |x| reaches {x_max!r}")
    return Scene(
        lower=grid.lower,
        upper=grid.upper,
        params=params,
        coeffs=coeffs,
        initial=build_initial_factory(sections),
        options=build_options(sections, checked=checked),
    )


def _prepare(args) -> dict:
    """Every section of the merged config, parsed; unknown sections are refused."""
    cfg = apply_overrides(load_config(args.config), args.set or [])
    for name in cfg:
        if name not in _CONFIG:
            raise ConfigError(f"unknown config section {name!r} (known: {', '.join(_CONFIG)})")
    if args.out is not None and isinstance(cfg["output"], dict):
        cfg["output"]["out_dir"] = args.out
    return {name: _section(cfg, name) for name in _CONFIG}


def _out_dir(output: dict) -> str:
    os.makedirs(output["out_dir"], exist_ok=True)
    return output["out_dir"]


def cmd_run(args) -> int:
    sections = _prepare(args)
    output = sections["output"]
    scene = build_scene(sections, output["checked"] if args.checked is None else args.checked)
    tc = build_time(sections)
    initial = scene.initial(scene.grid(sections["grid"]["n"]))

    def on_snapshot(step: int, state: State) -> None:
        out_dir = _out_dir(output)
        for name, f in state.species():
            write_field(f, os.path.join(out_dir, f"field_{name}_step{step}.txt"),
                        time=state.time)

    final, rows = run_simulation(
        initial, tc, scene.params, scene.coeffs, scene.options,
        diagnostics_every=output["diagnostics_every"],
        snapshot_every=output["snapshot_every"],
        on_snapshot=on_snapshot,
    )
    write_diagnostics_csv(rows, os.path.join(_out_dir(output), "diagnostics.csv"))
    summary = f"run complete: {tc.steps} steps to t={format_float(final.time)}"
    if rows:
        summary += f", energy {format_float(rows[0].energy)} -> {format_float(rows[-1].energy)}"
    print(summary)
    return 0


def cmd_study(args) -> int:
    """``study-time`` or ``study-space``, by ``args.command``."""
    name = args.command.replace("-", "_")
    sections = _prepare(args)
    study = sections[name]
    scene = build_scene(sections, bool(args.checked))
    try:
        if name == "study_time":
            report = temporal_order(study["dts"], study["ref_dt"], scene.grid(study["n"]),
                                    study["t_final"], scene)
        else:
            report = spatial_cauchy_order(study["hs"], study["t_final"], scene)
    except PositivityError:
        raise  # a solver failure, not a bad argument
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    report.write_csv(os.path.join(_out_dir(sections["output"]), f"{report.kind}_orders.csv"))
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
    parser.add_argument("--checked", dest="checked", action="store_true", default=None,
                        help="verify positivity/energy/mass invariants every step; overrides "
                             "output.checked, which only run reads (studies are unchecked "
                             "without this flag)")
    parser.add_argument("--unchecked", dest="checked", action="store_false",
                        help="skip per-step invariant verification")


class _Parser(argparse.ArgumentParser):
    """Refusals raise ConfigError, which main prints as one line; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rxd",
        description="Operator-splitting solver for the A + B <=> C reaction-diffusion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, about in (
        ("run", cmd_run, "advance the configured scene in time"),
        ("study-time", cmd_study, "temporal convergence study"),
        ("study-space", cmd_study, "spatial Cauchy convergence study"),
    ):
        p = sub.add_parser(name, help=about)
        _add_common(p)
        if func is not cmd_run:
            p.add_argument("--jobs", type=int, choices=[1], default=1,
                           help="must be 1 (studies run their resolutions in order); the option "
                                "stays only until the benchmark stops passing it")
        p.set_defaults(func=func)

    p_inspect = sub.add_parser("inspect", help="print snapshot header and statistics")
    p_inspect.add_argument("snapshot", help="path to an rxd-field v1 file")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError as exc:  # a grid too large for this host
        print(f"invalid input: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

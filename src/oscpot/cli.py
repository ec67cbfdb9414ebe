"""Command-line interface.

Four subcommands, all driven by one JSON config file:

  correctors  compute the corrector set and effective potential
  verify      evaluate the exact-identity report and gate on it
  solve       solve the eps-problem and its homogenized limit for one eps
  sweep       run a convergence-rate sweep over an eps ladder

Every run writes a manifest echoing the fully resolved configuration, so
reruns can be compared and reproduced.  Exit codes: 0 success, 1
malformed config, 2 regime or admissibility rejection, 3 identity
failure, 4 resolution or budget violation, 5 rate verdict failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy
import scipy

from . import __version__
from .correctors import build_correctors, effective_potential, identity_report
from .errors import (BlowUp, BudgetExceeded, ChainIdentityViolation,
                     NoApplicableRegime, ResolutionViolation, UnsupportedK)
from .potential import (GammaMode, TrigField, descriptor_from_field,
                        field_from_descriptor)
from .pdesolve import (DIFFUSIVE_DT_DIVISOR, MIN_CHECKPOINTS, GridSpec,
                       InitialDescriptor, InitialTerm, ProblemSpec,
                       SourceDescriptor, SourceTerm, check_cost,
                       diffusive_cap, policy_grid, solve_pair)
from .ratelab import (SweepConfig, _fmt, ceff_as_json, default_workers,
                      run_sweep, write_json, write_outputs)
from .regimes import resolve_regime

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_IDENTITY = 3
EXIT_RESOURCE = 4
EXIT_VERDICT = 5


class ConfigError(ValueError):
    """Malformed configuration; message names the offending key."""


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

_TOP_KEYS = {"potential", "regime", "problem", "grid", "epsilon", "sweep",
             "output", "workers", "budget"}
_REQUIRED = {
    "correctors": {"potential", "regime"},
    "verify": {"potential", "regime"},
    "solve": {"potential", "regime", "problem", "epsilon"},
    "sweep": {"potential", "regime", "problem", "sweep"},
}


def _require_keys(block: dict, allowed: set, required: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"'{where}' must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}.{key}'")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing key '{where}.{key}'")


def _name(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _number(block: dict, key: str, where: str, *, positive=False,
            default: float | None = None):
    if key not in block and default is not None:
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{_name(where, key)}' must be a number")
    if not abs(val) <= sys.float_info.max:   # NaN, infinities, huge ints
        raise ConfigError(f"'{_name(where, key)}' must be finite, got {val}")
    if positive and not val > 0:
        raise ConfigError(f"'{_name(where, key)}' must be positive")
    return float(val)


def _count(block: dict, key: str, where: str, default: int | None,
           minimum: int) -> int | None:
    if key not in block:
        return default
    n = _number(block, key, where)
    if n != int(n) or n < minimum:
        raise ConfigError(
            f"'{_name(where, key)}' must be an integer >= {minimum}")
    return int(block[key])


#: The top-level counts every command checks, with their smallest values.
_SETTING_MINIMUM = {"budget": 0, "workers": 1}


def _setting(cfg: dict, args, key: str) -> int | None:
    """A top-level count (budget, workers) from the config or, if given,
    from its command-line flag; both must be at least its minimum."""
    minimum = _SETTING_MINIMUM[key]
    n = _count(cfg, key, "", None, minimum)
    flag = getattr(args, key)
    if flag is None:
        return n
    if flag < minimum:
        raise ConfigError(f"'--{key}' must be an integer >= {minimum}")
    return flag


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:   # also ints past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def validate_config(cfg: dict, command: str) -> None:
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key '{key}'")
    for key in _REQUIRED[command]:
        if key not in cfg:
            raise ConfigError(f"missing key '{key}' (required by {command})")
    # Checked for every command, also those that do not read them.
    for key, minimum in _SETTING_MINIMUM.items():
        _count(cfg, key, "", None, minimum)
    _require_keys(cfg["potential"], {"d", "modes"}, {"modes"}, "potential")
    _require_keys(cfg["regime"], {"k", "gamma_mode", "sign_override"}, {"k"},
                  "regime")
    if "problem" in cfg:
        _require_keys(cfg["problem"], {"T", "f", "g"}, {"T", "g"}, "problem")
    if "grid" in cfg:
        _require_keys(cfg["grid"], {"nx", "dt", "checkpoints"}, set(), "grid")
    if "sweep" in cfg:
        _require_keys(cfg["sweep"],
                      {"epsilons", "slope_tolerance", "r2_min",
                       "richardson_max", "richardson"},
                      {"epsilons"}, "sweep")
    if "output" in cfg:
        _require_keys(cfg["output"], {"dir"}, set(), "output")
        if not isinstance(cfg["output"].get("dir", "."), str):
            raise ConfigError("'output.dir' must be a string")


def build_potential(cfg: dict) -> TrigField:
    block = cfg["potential"]
    d = block.get("d")
    if d is not None and (isinstance(d, bool) or d not in (1, 2)):
        raise ConfigError("'potential.d' must be 1 or 2")
    try:
        return field_from_descriptor(block["modes"], d)
    except ValueError as exc:
        raise ConfigError(f"'potential.modes': {exc}") from exc


def parse_gamma_mode(block: dict) -> GammaMode:
    raw = block.get("gamma_mode", "unit")
    try:
        return GammaMode(raw)
    except ValueError:
        raise ConfigError(
            f"'regime.gamma_mode' must be 'unit' or 'k_minus_1', got {raw!r}")


def parse_sign_override(block: dict) -> bool:
    raw = block.get("sign_override", False)
    if raw in (False, None):
        return False
    if raw is True or raw == "flip":
        return True
    raise ConfigError(
        f"'regime.sign_override' must be false, true or 'flip', got {raw!r}")


def _regime(cfg: dict) -> tuple[float, GammaMode, bool]:
    """regime.k, gamma_mode and sign_override, checked in that order."""
    block = cfg["regime"]
    k = _number(block, "k", "regime")
    if k < 0:
        raise ConfigError(f"'regime.k' must be >= 0, got {k:g}")
    return k, parse_gamma_mode(block), parse_sign_override(block)


def build_regime(cfg: dict, W: TrigField):
    k, gamma_mode, sign_override = _regime(cfg)
    return resolve_regime(k, gamma_mode, W, sign_override=sign_override)


def _parse_terms(raw, where: str, d: int, *, with_time: bool):
    if not isinstance(raw, list):
        raise ConfigError(f"'{where}' must be a list of terms")
    allowed = {"amp", "j", "sigma", "omega"} if with_time else {"amp", "j"}
    out = []
    for i, term in enumerate(raw):
        _require_keys(term, allowed, {"amp", "j"}, f"{where}[{i}]")
        j = term["j"]
        if (not isinstance(j, list) or len(j) != d
                or any(isinstance(v, bool) or not isinstance(v, int) or v < 1
                       for v in j)):
            raise ConfigError(
                f"'{where}[{i}].j' must be a list of {d} integers >= 1")
        amp = _number(term, "amp", f"{where}[{i}]")
        if with_time:
            sigma = _number(term, "sigma", f"{where}[{i}]", default=0.0)
            omega = _number(term, "omega", f"{where}[{i}]", default=0.0)
            out.append(SourceTerm(amp, tuple(j), sigma, omega))
        else:
            out.append(InitialTerm(amp, tuple(j)))
    return out


def build_problem(cfg: dict, d: int):
    block = cfg["problem"]
    T = _number(block, "T", "problem", positive=True)
    f = SourceDescriptor(tuple(_parse_terms(block.get("f", []), "problem.f",
                                            d, with_time=True)))
    g = InitialDescriptor(tuple(_parse_terms(block["g"], "problem.g",
                                             d, with_time=False)))
    return T, f, g


def build_sweep_config(cfg: dict, W: TrigField, args) -> SweepConfig:
    block = cfg["sweep"]
    eps = block["epsilons"]
    if not isinstance(eps, list) or any(
            isinstance(e, bool) or not isinstance(e, (int, float))
            for e in eps):
        raise ConfigError("'sweep.epsilons' must be a list of numbers")
    T, f, g = build_problem(cfg, W.d)
    checkpoints = _count(cfg.get("grid", {}), "checkpoints", "grid",
                         SweepConfig.checkpoints, MIN_CHECKPOINTS)
    k, gamma_mode, sign_override = _regime(cfg)
    richardson = block.get("richardson", SweepConfig.run_richardson)
    if not isinstance(richardson, bool):
        raise ConfigError(
            f"'sweep.richardson' must be true or false, got {richardson!r}")
    limits = {key: _number(block, key, "sweep",
                           default=getattr(SweepConfig, key))
              for key in ("slope_tolerance", "r2_min", "richardson_max")}
    budget = _setting(cfg, args, "budget")
    workers = _setting(cfg, args, "workers")
    try:
        return SweepConfig(
            W=W,
            k=k,
            gamma_mode=gamma_mode,
            f=f, g=g, T=T,
            epsilons=tuple(float(e) for e in eps),
            checkpoints=checkpoints,
            sign_override=sign_override,
            run_richardson=richardson,
            budget=budget,
            workers=workers,
            **limits,
        )
    except ValueError as exc:
        raise ConfigError(f"'sweep': {exc}") from exc


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _field_json(value: TrigField | None):
    return None if value is None else descriptor_from_field(value)


def versions() -> dict:
    return {
        "oscpot": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _outdir(cfg: dict, args) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(cfg.get("output", {}).get("dir", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out


def _manifest(command: str, W: TrigField, extra: dict) -> dict:
    manifest = {
        "command": command,
        "potential": {"d": W.d, "modes": descriptor_from_field(W)},
        "versions": versions(),
    }
    manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_correctors(cfg: dict, args) -> int:
    W = build_potential(cfg)
    regime = build_regime(cfg, W)
    cset = build_correctors(W, regime)
    out = _outdir(cfg, args)
    payload = {
        "regime": regime.as_dict(),
        "c_eff": ceff_as_json(cset.effective),
        "chi1": _field_json(cset.chi1),
        "chi2": _field_json(cset.chi2),
        "chi3": _field_json(cset.chi3),
        "chi4": _field_json(cset.primitives.chi4 if cset.primitives else None),
        "chi5": _field_json(cset.primitives.chi5 if cset.primitives else None),
        "chi5_tilde": _field_json(
            cset.primitives.chi5_tilde if cset.primitives else None),
        "chi7": _field_json(cset.chi7),
        "chain": [ceff_as_json(s) for s in cset.chain],
    }
    write_json(out / "correctors.json", payload)
    write_json(out / "manifest.json",
               _manifest("correctors", W, {"regime": regime.as_dict()}))
    print(f"effective potential: {ceff_as_json(cset.effective)}")
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    W = build_potential(cfg)
    regime = build_regime(cfg, W)
    report = identity_report(W, regime)
    out = _outdir(cfg, args)
    write_json(out / "identities.json", report.as_dict())
    write_json(out / "manifest.json",
               _manifest("verify", W, {"regime": regime.as_dict()}))
    for check in report.checks:
        state = ("skipped" if check.skipped
                 else "ok" if check.passed else "FAIL")
        resid = "" if check.residual is None else f" residual={check.residual:.3e}"
        print(f"{check.name}: {state}{resid}")
    failure = report.first_failure()
    if failure is not None:
        print(f"identity failure: {failure.name} residual "
              f"{failure.residual:.3e} > {failure.tol:g}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_solve(cfg: dict, args) -> int:
    W = build_potential(cfg)
    regime = build_regime(cfg, W)
    eps = cfg["epsilon"]
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) \
            or not 0 < eps < 1:
        raise ConfigError("'epsilon' must be a number in (0, 1)")
    eps = float(eps)
    T, f, g = build_problem(cfg, W.d)
    grid_block = cfg.get("grid", {})
    checkpoints = _count(grid_block, "checkpoints", "grid",
                         GridSpec.checkpoints, MIN_CHECKPOINTS)
    base = policy_grid(eps, regime.k, regime.gamma, T, W.d, checkpoints)
    nx = _count(grid_block, "nx", "grid", base.nx, 1)
    dt = _number(grid_block, "dt", "grid", positive=True, default=base.dt)
    try:
        grid = GridSpec(W.d, nx, dt, T, checkpoints)
    except ValueError as exc:
        raise ConfigError(f"'grid': {exc}") from exc
    check_cost("solve", W, [grid], _setting(cfg, args, "budget"))
    out = _outdir(cfg, args)
    cap = diffusive_cap(eps)
    cap_met = grid.dt <= cap * (1.0 + 1e-9)
    if not cap_met:
        print(f"warning: dt = {grid.dt:.3e} exceeds the diffusive "
              f"cap eps^2/{DIFFUSIVE_DT_DIVISOR} = {cap:.3e}; the eps-scale "
              f"relaxation is under-resolved", file=sys.stderr)
    ceff = effective_potential(regime, W)
    problem = ProblemSpec(W=W, eps=eps, regime=regime, f=f, g=g)
    norms = solve_pair(problem, ceff, grid)
    grid_info = {"nx": grid.nx, "dt": grid.dt, "T": grid.T,
                 "checkpoints": grid.checkpoints}
    write_json(out / "solve.json", {
        "eps": eps,
        "error_linf_l2": norms.error,
        "max_l2_eps": norms.max_l2_eps,
        "max_l2_hom": norms.max_l2_hom,
        "c_eff": ceff_as_json(ceff),
        "regime": regime.as_dict(),
        "grid": grid_info,
        "diffusive_cap": {"cap": cap, "met": cap_met},
    })
    lines = ["t,l2_eps,l2_hom,l2_diff\n"]
    for row in zip(norms.times, norms.l2_eps, norms.l2_hom, norms.l2_diff):
        lines.append(",".join(_fmt(v) for v in row) + "\n")
    (out / "checkpoint_norms.csv").write_text("".join(lines))
    write_json(out / "manifest.json", _manifest("solve", W, {
        "regime": regime.as_dict(),
        "epsilon": eps,
        "problem": cfg["problem"],
        "grid": grid_info,
    }))
    print(f"error (max over checkpoints, L2): {norms.error:.6e}")
    return EXIT_OK


def cmd_sweep(cfg: dict, args) -> int:
    W = build_potential(cfg)
    sweep_cfg = build_sweep_config(cfg, W, args)
    out = _outdir(cfg, args)
    report = run_sweep(sweep_cfg)
    write_outputs(report, out)
    write_json(out / "manifest.json", _manifest("sweep", W, {
        "regime": report.regime.as_dict(),
        "problem": cfg["problem"],
        "sweep": {
            "epsilons": list(sweep_cfg.epsilons),
            "slope_tolerance": sweep_cfg.slope_tolerance,
            "r2_min": sweep_cfg.r2_min,
            "richardson_max": sweep_cfg.richardson_max,
            "richardson": sweep_cfg.run_richardson,
            "checkpoints": sweep_cfg.checkpoints,
        },
        "workers": sweep_cfg.workers,
        "budget": sweep_cfg.budget,
    }))
    if report.fit is not None:
        print(f"slope {report.fit.slope:.3f} (theoretical "
              f"{report.theoretical:.3f}), R^2 {report.fit.r2:.4f}, "
              f"verdict {report.verdict}")
    else:
        print(f"verdict {report.verdict}")
    for reason in report.reasons:
        print(f"  {reason}")
    if not report.passed:
        print(f"rate verdict failure: {report.reasons[0]}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscpot",
        description="verification lab for homogenization with highly "
                    "oscillating potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("correctors", "compute correctors and the effective potential"),
            ("verify", "evaluate the exact-identity report"),
            ("solve", "solve the eps and homogenized problems for one eps"),
            ("sweep", "run a convergence-rate sweep")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=None,
                           help=f"process fan-out over eps (default from "
                                f"$OSCPOT_WORKERS, currently "
                                f"{default_workers()})")
        if name in ("solve", "sweep"):
            p.add_argument("--budget", type=int, default=None,
                           help="cap on the cell updates (cells times time "
                                "steps) of all the solves")
    return parser


_COMMANDS = {
    "correctors": cmd_correctors,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        validate_config(cfg, args.command)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:   # past load_config and _outdir, an output
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoApplicableRegime, UnsupportedK) as exc:
        print(f"regime rejection: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ChainIdentityViolation as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except (ResolutionViolation, BudgetExceeded, BlowUp,
            OverflowError) as exc:
        print(f"resource violation: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

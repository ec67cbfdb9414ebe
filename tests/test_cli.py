"""Command-line interface: config validation, commands, exit codes.

Most tests call main() in process for speed; one subprocess test checks
the installed console script end to end.
"""
import csv
import json
import os
import resource
import subprocess
import sys

import pytest

from oscpot import cli
from oscpot.pdesolve import CELL_UPDATE_CEILING, policy_grid

COS_TRAVELLING = [{"m": [1], "n": -1, "re": 0.5, "im": 0.0},
                  {"m": [-1], "n": 1, "re": 0.5, "im": 0.0}]
# cos(2 pi y) sin(2 pi tau): tau-mean free, zero full mean
COS_Y_SIN_TAU = [{"m": [1], "n": 1, "re": 0.0, "im": -0.25},
                 {"m": [1], "n": -1, "re": 0.0, "im": 0.25},
                 {"m": [-1], "n": 1, "re": 0.0, "im": -0.25},
                 {"m": [-1], "n": -1, "re": 0.0, "im": 0.25}]


def base_config(**extra) -> dict:
    cfg = {
        "potential": {"d": 1, "modes": COS_TRAVELLING},
        "regime": {"k": 2.0},
        "problem": {"T": 0.125, "g": [{"amp": 1.0, "j": [1]}]},
    }
    cfg.update(extra)
    return cfg


@pytest.fixture
def write_cfg(tmp_path):
    def _write(cfg: dict, name: str = "cfg.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return _write


def run_cli(command: str, cfg_path: str, outdir, *flags) -> int:
    return cli.main([command, "--config", cfg_path, "--out", str(outdir),
                     *flags])


# ---------------------------------------------------------------------------
# Config errors (exit 1)
# ---------------------------------------------------------------------------

class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("verify", str(tmp_path / "absent.json"), tmp_path)
        assert code == cli.EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("verify", str(path), tmp_path) == cli.EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_root_not_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run_cli("verify", str(path), tmp_path) == cli.EXIT_CONFIG
        assert "root must be an object" in capsys.readouterr().err

    def test_unknown_top_key(self, write_cfg, tmp_path, capsys):
        path = write_cfg(base_config(extra_block={}))
        assert run_cli("verify", path, tmp_path) == cli.EXIT_CONFIG
        assert "unknown key 'extra_block'" in capsys.readouterr().err

    def test_missing_required_block(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        del cfg["regime"]
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "missing key 'regime'" in capsys.readouterr().err

    def test_unknown_nested_key_is_dotted(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["gamma"] = 1.0
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'regime.gamma'" in capsys.readouterr().err

    def test_k_not_a_number(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["k"] = "two"
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'regime.k' must be a number" in capsys.readouterr().err

    def test_bad_gamma_mode(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["gamma_mode"] = "quadratic"
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'regime.gamma_mode'" in capsys.readouterr().err

    def test_bad_sign_override(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["sign_override"] = "maybe"
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'regime.sign_override'" in capsys.readouterr().err

    def test_bad_dimension(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["potential"]["d"] = 3
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'potential.d'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "correctors", "solve",
                                         "sweep"])
    def test_inferred_dimension_three(self, write_cfg, tmp_path, capsys,
                                      command):
        # Without 'potential.d' the dimension came from the modes, and
        # every identity of this 3-D potential passed with exit code 0.
        cfg = base_config(epsilon=0.25, sweep=dict(SWEEP_BLOCK))
        cfg["potential"] = {"modes": [{"m": [1, 1, 1], "n": -1, "re": 0.5}]}
        cfg["regime"] = {"k": 2, "gamma_mode": "unit"}
        assert run_cli(command, write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'potential.modes': dimension 3 is not 1 or 2" \
            in capsys.readouterr().err

    def test_non_hermitian_modes(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["potential"]["modes"] = [
            {"m": [1], "n": 1, "re": 0.5, "im": 0.25},
            {"m": [-1], "n": -1, "re": 0.5, "im": 0.25}]
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'potential.modes'" in capsys.readouterr().err

    def test_solve_needs_epsilon(self, write_cfg, tmp_path, capsys):
        assert run_cli("solve", write_cfg(base_config()),
                       tmp_path) == cli.EXIT_CONFIG
        assert "missing key 'epsilon'" in capsys.readouterr().err

    def test_solve_epsilon_range(self, write_cfg, tmp_path, capsys):
        path = write_cfg(base_config(epsilon=1.5))
        assert run_cli("solve", path, tmp_path) == cli.EXIT_CONFIG
        assert "'epsilon'" in capsys.readouterr().err

    def test_sweep_epsilons_type(self, write_cfg, tmp_path, capsys):
        path = write_cfg(base_config(sweep={"epsilons": [0.25, "x"]}))
        assert run_cli("sweep", path, tmp_path) == cli.EXIT_CONFIG
        assert "'sweep.epsilons'" in capsys.readouterr().err

    def test_sweep_too_short_ladder(self, write_cfg, tmp_path, capsys):
        path = write_cfg(base_config(sweep={"epsilons": [0.25, 0.2, 0.1]}))
        assert run_cli("sweep", path, tmp_path) == cli.EXIT_CONFIG
        assert "at least 4" in capsys.readouterr().err

    def test_problem_g_term_shape(self, write_cfg, tmp_path, capsys):
        cfg = base_config(epsilon=0.125)
        cfg["problem"]["g"] = [{"amp": 1.0, "j": [1, 2]}]
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "'problem.g[0].j'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Regime rejection (exit 2)
# ---------------------------------------------------------------------------

class TestRegimeRejection:
    def test_constant_mean_rejected(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["potential"]["modes"] = COS_TRAVELLING + [
            {"m": [0], "n": 0, "re": 0.7, "im": 0.0}]
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_REGIME
        assert "regime rejection" in capsys.readouterr().err

    def test_unsupported_k_for_linked_gamma(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"] = {"k": 5.0, "gamma_mode": "k_minus_1"}
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_REGIME
        assert "regime rejection" in capsys.readouterr().err

    def test_slow_time_needs_y_mean_free(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["k"] = 0.5
        # cos(2 pi tau) has m=0 modes: fine for k=2, not for slow time
        cfg["potential"]["modes"] = [
            {"m": [0], "n": 1, "re": 0.5, "im": 0.0},
            {"m": [0], "n": -1, "re": 0.5, "im": 0.0}]
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_REGIME
        err = capsys.readouterr().err
        assert "regime rejection" in err


# ---------------------------------------------------------------------------
# correctors / verify commands
# ---------------------------------------------------------------------------

class TestCorrectorsCommand:
    def test_writes_payload_and_manifest(self, write_cfg, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = run_cli("correctors", write_cfg(base_config()), outdir)
        assert code == cli.EXIT_OK
        payload = json.loads((outdir / "correctors.json").read_text())
        assert payload["regime"]["family"] == "critical"
        assert payload["c_eff"] == pytest.approx(
            -0.5 / (1.0 + 4.0 * 3.141592653589793 ** 2), abs=1e-15)
        assert payload["chi1"]  # non-empty mode list
        assert payload["chi2"] == []  # no spatial-only modes to lift
        assert isinstance(payload["chain"], list)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "correctors"
        assert manifest["potential"]["d"] == 1
        assert "effective potential" in capsys.readouterr().out

    def test_strong_regime_payload(self, write_cfg, tmp_path):
        cfg = base_config()
        cfg["regime"] = {"k": 2.5, "gamma_mode": "k_minus_1"}
        cfg["potential"]["modes"] = COS_Y_SIN_TAU
        outdir = tmp_path / "out"
        assert run_cli("correctors", write_cfg(cfg), outdir) == cli.EXIT_OK
        payload = json.loads((outdir / "correctors.json").read_text())
        assert payload["regime"]["family"] == "strong_fast_time"
        assert payload["chi4"] is not None
        assert payload["chi5"] is not None
        assert payload["chi5_tilde"] is not None
        assert payload["chi7"] is not None
        assert payload["c_eff"] == pytest.approx(-0.25, abs=1e-15)


class TestVerifyCommand:
    def test_all_identities_ok(self, write_cfg, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = run_cli("verify", write_cfg(base_config()), outdir)
        assert code == cli.EXIT_OK
        report = json.loads((outdir / "identities.json").read_text())
        assert report["all_passed"] is True
        out = capsys.readouterr().out
        assert "chi1_energy: ok" in out
        assert "FAIL" not in out

    def test_identity_failure_exits_3(self, write_cfg, tmp_path, capsys,
                                      monkeypatch):
        import oscpot.correctors as correctors
        from oscpot.potential import TrigField
        true_solver = correctors.solve_chi1

        def corrupted(W):
            return true_solver(W) + TrigField.from_cos(
                W.d, [1] + [0] * (W.d - 1), 0, 0.01)

        monkeypatch.setattr(correctors, "solve_chi1", corrupted)
        code = run_cli("verify", write_cfg(base_config()), tmp_path)
        assert code == cli.EXIT_IDENTITY
        captured = capsys.readouterr()
        assert "identity failure: chi1_energy" in captured.err


    def test_large_index_passes_on_round_off(self, write_cfg, tmp_path,
                                             capsys):
        # cos 2 pi (1000 y - tau): the chi4 energy terms are about 5e5, so
        # their residual of one rounding error exceeds an absolute 1e-10.
        cfg = base_config()
        cfg["potential"]["modes"] = [
            {"m": [1000], "n": -1, "re": 0.5, "im": 0.0},
            {"m": [-1000], "n": 1, "re": 0.5, "im": 0.0}]
        code = run_cli("verify", write_cfg(cfg), tmp_path)
        assert code == cli.EXIT_OK, capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

class TestSolveCommand:
    def test_solve_writes_outputs(self, write_cfg, tmp_path, capsys):
        cfg = base_config(epsilon=0.25)
        cfg["grid"] = {"checkpoints": 8}
        outdir = tmp_path / "out"
        assert run_cli("solve", write_cfg(cfg), outdir) == cli.EXIT_OK
        blob = json.loads((outdir / "solve.json").read_text())
        assert blob["eps"] == 0.25
        assert 0.0 < blob["error_linf_l2"] < 1.0
        csv_lines = (outdir / "checkpoint_norms.csv").read_text().splitlines()
        assert csv_lines[0] == "t,l2_eps,l2_hom,l2_diff"
        assert len(csv_lines) == 1 + 9  # t = 0 plus 8 checkpoints
        first = csv_lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(2 ** -0.5, abs=1e-12)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["epsilon"] == 0.25
        assert "error (max over checkpoints, L2)" in capsys.readouterr().out

    def test_grid_nx_from_the_config_is_not_rounded(self, write_cfg,
                                                    tmp_path):
        # The policy grid at eps = 1/8 has nx 269 (nx+1 = 257 rounded up
        # to 270 = 2 * 3^3 * 5); a grid.nx that the config gives is kept.
        cfg = base_config(epsilon=0.125, grid={"nx": 256, "checkpoints": 8})
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_OK
        blob = json.loads((tmp_path / "solve.json").read_text())
        assert blob["grid"]["nx"] == 256

    def test_solve_norms_agree_and_rerun_byte_identical(self, write_cfg,
                                                        tmp_path):
        cfg = base_config(epsilon=0.25, grid={"checkpoints": 8})
        path = write_cfg(cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("solve", path, out1) == cli.EXIT_OK
        assert run_cli("solve", path, out2) == cli.EXIT_OK
        with open(out1 / "checkpoint_norms.csv", newline="") as fh:
            diffs = [float(row["l2_diff"]) for row in csv.DictReader(fh)]
        blob = json.loads((out1 / "solve.json").read_text())
        assert diffs[0] == 0.0
        assert max(diffs) == blob["error_linf_l2"]
        for name in ("solve.json", "checkpoint_norms.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one core: OpenBLAS runs on one thread "
                               "whatever its setting, so the outputs "
                               "could not differ")
    def test_solve_outputs_do_not_depend_on_the_blas_threads(self,
                                                             tmp_path):
        # The 2-D frozen-time solve of the benchmark (eps = 1/8, nx 269,
        # 72,361 cells), over 16 steps.  One dot product over the whole
        # grid would give max_l2_eps different last bits on one and two
        # threads.
        phase = complex(0.3321514769650979, 0.37373171707777764)
        modes = [{"m": [1, 0], "n": n, "re": c.real, "im": c.imag}
                 for n, c in ((0, phase), (1, phase / 2), (-1, phase / 2))]
        cfg = {"potential": {"d": 2, "modes": modes},
               "regime": {"k": 0.0},
               "problem": {"T": 1 / 256,
                           "g": [{"amp": 1.771150605405849, "j": [1, 1]}]},
               "grid": {"checkpoints": 8}, "epsilon": 0.125}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-m", "oscpot.cli", "solve",
                 "--config", str(path), "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            assert json.loads((out / "solve.json").read_text())[
                "grid"]["nx"] == 269
            outputs.append([(out / name).read_bytes()
                            for name in ("solve.json",
                                         "checkpoint_norms.csv")])
        assert outputs[0] == outputs[1]

    def test_policy_grid_meets_the_diffusive_cap(self, write_cfg, tmp_path,
                                                 capsys):
        cfg = base_config(epsilon=0.25, grid={"checkpoints": 8})
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_OK
        blob = json.loads((tmp_path / "solve.json").read_text())
        assert blob["diffusive_cap"] == {"cap": 0.25 ** 2 / 64, "met": True}
        assert "warning" not in capsys.readouterr().err

    def test_user_dt_past_the_diffusive_cap_warns(self, write_cfg, tmp_path,
                                                  capsys):
        # k = 2, gamma = 1: check_resolution allows dt up to eps^2/8, the
        # policy grid keeps eps^2/64; eps^2/32 lies between them.
        eps = 0.25
        cfg = base_config(epsilon=eps,
                          grid={"checkpoints": 8, "dt": eps ** 2 / 32})
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_OK
        blob = json.loads((tmp_path / "solve.json").read_text())
        assert blob["grid"]["dt"] > eps ** 2 / 64
        assert blob["diffusive_cap"] == {"cap": eps ** 2 / 64, "met": False}
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "diffusive cap" in warnings[0]

    def test_under_resolved_grid_exits_4(self, write_cfg, tmp_path, capsys):
        cfg = base_config(epsilon=0.125)
        cfg["grid"] = {"nx": 32, "checkpoints": 8}  # floor is 16/eps = 128
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_RESOURCE
        assert "resource violation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

SWEEP_BLOCK = {"epsilons": [0.25, 0.2, 1 / 6, 0.125],
               "slope_tolerance": 5.0, "r2_min": 0.0}


class TestSweepCommand:
    def test_sweep_pass(self, write_cfg, tmp_path, capsys):
        cfg = base_config(sweep=dict(SWEEP_BLOCK), grid={"checkpoints": 16})
        outdir = tmp_path / "out"
        assert run_cli("sweep", write_cfg(cfg), outdir) == cli.EXIT_OK
        for name in ("report.json", "points.csv", "points.dat",
                     "manifest.json"):
            assert (outdir / name).exists()
        report = json.loads((outdir / "report.json").read_text())
        assert report["verdict"] == "pass"
        out = capsys.readouterr().out
        assert "verdict pass" in out
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["sweep"]["epsilons"] == SWEEP_BLOCK["epsilons"]
        assert manifest["versions"]["oscpot"]

    def test_sweep_verdict_failure_exits_5(self, write_cfg, tmp_path, capsys):
        block = dict(SWEEP_BLOCK, slope_tolerance=1e-9)
        cfg = base_config(sweep=block, grid={"checkpoints": 16})
        assert run_cli("sweep", write_cfg(cfg), tmp_path) == cli.EXIT_VERDICT
        out = capsys.readouterr().out
        assert "verdict fail" in out
        assert "deviates from theoretical" in out

    def test_sweep_budget_exits_4(self, write_cfg, tmp_path, capsys):
        cfg = base_config(sweep=dict(SWEEP_BLOCK), grid={"checkpoints": 16})
        code = run_cli("sweep", write_cfg(cfg), tmp_path, "--budget", "1000")
        assert code == cli.EXIT_RESOURCE
        assert "resource violation" in capsys.readouterr().err

    def test_sweep_reruns_byte_identical(self, write_cfg, tmp_path):
        cfg = base_config(sweep=dict(SWEEP_BLOCK), grid={"checkpoints": 16})
        path = write_cfg(cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", path, out1) == cli.EXIT_OK
        assert run_cli("sweep", path, out2) == cli.EXIT_OK
        assert (out1 / "points.csv").read_bytes() == \
            (out2 / "points.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# Entry points and metadata
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_versions_fields(self):
        info = cli.versions()
        assert set(info) == {"oscpot", "numpy", "scipy", "python"}
        assert all(isinstance(v, str) and v for v in info.values())

    def test_console_script_subprocess(self, tmp_path):
        cfg = base_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "oscpot.cli", "verify",
             "--config", str(path), "--out", str(outdir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "chi1_energy: ok" in proc.stdout
        assert (outdir / "identities.json").exists()

    @pytest.mark.parametrize("command, flag", [
        ("correctors", "--workers"), ("correctors", "--budget"),
        ("verify", "--workers"), ("verify", "--budget"),
        ("solve", "--workers")])
    def test_flags_belong_to_the_commands_that_read_them(self, capsys,
                                                         command, flag):
        with pytest.raises(SystemExit) as exc:
            cli._parser().parse_args([command, "--config", "c.json", flag,
                                      "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Bad values end in a documented exit code, never a traceback or a hang
# ---------------------------------------------------------------------------

def run_cli_subprocess(command: str, cfg: dict, tmp_path, timeout: float,
                       preexec_fn=None, flags=()):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-m", "oscpot.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn)


def limit_address_space_2gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))


def gate_potential(pairs: int) -> dict:
    """A 2-D critical W with `pairs` conjugate pairs cos(2 pi (m.y - tau)).
    Each pair adds two cell arrays to a pair solve's price and leaves
    its grid as it is, so the memory-gate tests price their configs at
    about twice MEMORY_LIMIT, clear of small changes to `pair_cost`."""
    ms = [[1, 0], [0, 1], [1, 1], [1, -1], [2, 0], [0, 2], [2, 1], [1, 2],
          [2, -1]]
    return {"d": 2, "modes": [{"m": m, "n": -1, "re": 0.5, "im": 0.0}
                              for m in ms[:pairs]]}


#: A constant mode with only an imaginary part, small enough for the
#: Hermitian check: the real part of the mean is 0, yet the mode is there.
IMAGINARY_MEAN = base_config(epsilon=0.125, sweep=SWEEP_BLOCK, potential={
    "d": 1, "modes": [{"m": [1], "n": -1, "re": 0.5, "im": 0.0},
                      {"m": [0], "n": 0, "re": 0.0, "im": 1e-13}]})
#: A subcritical W whose 51-stage chain gathers a tau-mean residual of
#: 1.4e-10 at stage 15 from rounding alone.
DEEP_CHAIN = base_config(
    epsilon=0.125, sweep=SWEEP_BLOCK, regime={"k": 1.02},
    potential={"d": 1, "modes": [{"m": [0], "n": -1, "re": -12.245363180812689,
                                  "im": 8.351455792001063}]})

#: command, config, flags, exit code and stderr prefix of one failure per
#: failing exit code (four kinds of resource violation), and of the
#: inputs that ended in a traceback or a wrong exit code before they were
#: mended.
ONE_LINE_FAILURES = {
    "config": ("verify", base_config(extra_block={}), (), cli.EXIT_CONFIG,
               "config error: unknown key"),
    "regime": ("verify", base_config(potential={"d": 1, "modes": [
        *COS_TRAVELLING, {"m": [0], "n": 0, "re": 0.7, "im": 0.0}]}), (),
        cli.EXIT_REGIME, "regime rejection: "),
    "budget": ("sweep", base_config(sweep=SWEEP_BLOCK,
                                    grid={"checkpoints": 16}),
               ("--budget", "1000"), cli.EXIT_RESOURCE,
               "resource violation: sweep needs about"),
    "resolution": ("solve", base_config(epsilon=0.125, grid={
        "nx": 32, "checkpoints": 8}), (), cli.EXIT_RESOURCE,
        "resource violation: nx = 32"),
    # The reaction factor overflows at the first step; numpy's warnings
    # must not reach stderr ahead of the BlowUp line.
    "blow-up": ("solve", base_config(epsilon=0.125, potential={
        "d": 1, "modes": [{"m": [1], "n": -1, "re": 1e6}]}), (),
        cli.EXIT_RESOURCE, "resource violation: eps=0.125: L2 norm"),
    # g's norm overflows before the first step; no numpy warning either.
    "initial-overflow": ("solve", base_config(epsilon=0.125, problem={
        "T": 0.125, "g": [{"amp": 1e308, "j": [1]}]}), (),
        cli.EXIT_RESOURCE, "resource violation: eps=0.125: L2 norm inf at "
        "t = 0 exceeds"),
    "verdict": ("sweep", base_config(
        sweep=dict(SWEEP_BLOCK, slope_tolerance=1e-9),
        grid={"checkpoints": 16}), (), cli.EXIT_VERDICT,
        "rate verdict failure: slope"),
    # 32/eps is past the longest FFT scipy plans.
    "fft-length": ("solve", base_config(epsilon=1e-18), (),
                   cli.EXIT_RESOURCE, "resource violation: "),
    **{f"imaginary-mean-{command}": (
        command, IMAGINARY_MEAN, (), cli.EXIT_REGIME,
        "regime rejection: k > 1 with gamma = 1 requires the constant "
        "coefficient of W, its space-time mean, to vanish; got 0+1e-13j")
       for command in ("correctors", "verify", "solve", "sweep")},
    # Every command builds the chain the regime needs, so all four stop
    # at the same stage.
    **{"deep-chain" + ("" if command == "correctors" else f"-{command}"): (
        command, DEEP_CHAIN, (), cli.EXIT_IDENTITY,
        "identity failure: chain stage 15: tau-mean residual")
       for command in ("correctors", "verify", "solve", "sweep")},
}


@pytest.mark.parametrize("case", ONE_LINE_FAILURES)
def test_each_failure_writes_one_line_to_stderr(tmp_path, case):
    command, cfg, flags, code, prefix = ONE_LINE_FAILURES[case]
    proc = run_cli_subprocess(command, cfg, tmp_path, timeout=120,
                              flags=flags)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_an_output_that_cannot_be_written_writes_one_line_to_stderr(tmp_path):
    (tmp_path / "out" / "identities.json").mkdir(parents=True)
    proc = run_cli_subprocess("verify", base_config(), tmp_path, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: cannot write "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_pooled_sweep_reports_the_first_failing_pair_of_the_ladder(tmp_path):
    # Every pair of this sweep blows up at its first step.  The pool starts
    # with the refined pair of the last eps, but the one line must name
    # the first eps of the ladder, as the serial sweep does.
    potential = ONE_LINE_FAILURES["blow-up"][1]["potential"]
    cfg = base_config(potential=potential, sweep=SWEEP_BLOCK,
                      grid={"checkpoints": 16})
    lines = []
    for workers in ("1", "2"):
        (tmp_path / workers).mkdir()
        proc = run_cli_subprocess("sweep", cfg, tmp_path / workers,
                                  timeout=120, flags=("--workers", workers))
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        lines.append(proc.stderr)
    assert lines[1] == lines[0]
    assert lines[0].startswith("resource violation: eps=0.25: L2 norm")


class TestBadValues:
    @pytest.mark.parametrize("command", ["verify", "correctors"])
    def test_k_just_above_one_is_rejected_quickly(self, tmp_path, command):
        # The subcritical chain depth grows like 1/(k - 1); this k would
        # need about 1e9 iterated correctors.
        cfg = base_config()
        cfg["regime"]["k"] = 1.000000001
        proc = run_cli_subprocess(command, cfg, tmp_path, timeout=60)
        assert proc.returncode == cli.EXIT_REGIME, proc.stderr
        assert "regime rejection" in proc.stderr
        assert "iterated time correctors" in proc.stderr

    def test_negative_k(self, write_cfg, tmp_path, capsys):
        cfg = base_config()
        cfg["regime"]["k"] = -1
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'regime.k' must be >= 0" in capsys.readouterr().err

    def test_negative_k_in_sweep(self, write_cfg, tmp_path, capsys):
        cfg = base_config(sweep=dict(SWEEP_BLOCK))
        cfg["regime"]["k"] = -1
        assert run_cli("sweep", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'regime.k'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_too_few_checkpoints(self, write_cfg, tmp_path, capsys, command):
        cfg = base_config(epsilon=0.25, sweep=dict(SWEEP_BLOCK),
                          grid={"checkpoints": 4})
        assert run_cli(command, write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'grid.checkpoints'" in capsys.readouterr().err

    def test_grid_nx_below_minimum(self, write_cfg, tmp_path, capsys):
        cfg = base_config(epsilon=0.25, grid={"nx": 4, "checkpoints": 8})
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sigma", "omega"])
    def test_source_rate_not_a_number(self, write_cfg, tmp_path, capsys, key):
        cfg = base_config(epsilon=0.25, grid={"checkpoints": 8})
        cfg["problem"]["f"] = [{"amp": 1.0, "j": [1], key: "abc"}]
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert f"'problem.f[0].{key}' must be a number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_coefficient(self, tmp_path, capsys, value):
        # json.dumps cannot write these; Python's parser accepts them.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()).replace(
            '"re": 0.5', f'"re": {value}', 1))
        assert run_cli("verify", str(path), tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: 'potential.modes'" in err
        assert "not finite" in err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_sweep_richardson_must_be_a_json_boolean(self, write_cfg, tmp_path,
                                                     capsys, value):
        # bool("false") is True: a string used to turn the certificate on.
        cfg = base_config(sweep=dict(SWEEP_BLOCK, richardson=value))
        assert run_cli("sweep", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'sweep.richardson' must be true or false" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["slope_tolerance", "r2_min",
                                     "richardson_max"])
    def test_sweep_tolerance_not_a_number(self, write_cfg, tmp_path, capsys,
                                          key):
        cfg = base_config(sweep=dict(SWEEP_BLOCK, **{key: "abc"}))
        assert run_cli("sweep", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert f"config error: 'sweep.{key}' must be a number" in \
            capsys.readouterr().err

    def test_solve_memory_gate_exits_before_allocating(self, tmp_path):
        # eps = 0.005 in 2-D with eight conjugate pairs in W: nx 6,479, so
        # the pair would hold about 7.8 GiB, twice the limit.  The
        # address-space cap turns an allocation attempt into a quick
        # MemoryError, not a machine running out of memory.
        cfg = base_config(epsilon=0.005, potential=gate_potential(8))
        cfg["problem"]["g"] = [{"amp": 1.0, "j": [1, 1]}]
        proc = run_cli_subprocess("solve", cfg, tmp_path, timeout=60,
                                  preexec_fn=limit_address_space_2gib)
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        assert proc.stderr.startswith("resource violation: solve needs about")
        assert "GiB for nx = 6479 in 2d" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_sweep_checkpoints_default_to_sweep_config(self):
        cfg = base_config(sweep=dict(SWEEP_BLOCK))
        W = cli.build_potential(cfg)
        args = cli._parser().parse_args(["sweep", "--config", "unused"])
        assert cli.build_sweep_config(cfg, W, args).checkpoints == 96

    @pytest.mark.parametrize("key, value", [
        ("n", 0.5), ("m", [1.9]), ("m", [True]), ("m", [None]), ("n", None),
        ("re", None), ("re", [1]), ("m", [2 ** 60]), ("n", -2 ** 26 - 1),
    ])
    def test_mode_entry_numbers(self, write_cfg, tmp_path, capsys, key,
                                value):
        cfg = base_config()
        cfg["potential"]["modes"] = [dict(COS_TRAVELLING[0], **{key: value})]
        assert run_cli("verify", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert f"config error: 'potential.modes': mode entry 0: '{key}'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, block, key, value, message", [
        ("sweep", None, "budget", "abc", "'budget' must be a number"),
        ("sweep", None, "workers", "abc", "'workers' must be a number"),
        ("sweep", None, "workers", 1.5, "'workers' must be an integer >= 1"),
        ("solve", "grid", "nx", 300.9, "'grid.nx' must be an integer"),
        ("solve", "grid", "nx", "300", "'grid.nx' must be a number"),
        ("solve", "grid", "dt", "1e-4", "'grid.dt' must be a number"),
        ("verify", "output", "dir", [1], "'output.dir' must be a string"),
        ("verify", "potential", "d", True, "'potential.d' must be 1 or 2"),
        # Checked by every command, also those that do not read them.
        ("verify", None, "workers", -5, "'workers' must be an integer >= 1"),
        ("verify", None, "budget", -7, "'budget' must be an integer >= 0"),
        ("correctors", None, "workers", -5,
         "'workers' must be an integer >= 1"),
        ("correctors", None, "budget", -7, "'budget' must be an integer >= 0"),
        ("solve", None, "workers", -5, "'workers' must be an integer >= 1"),
    ])
    def test_config_values_are_checked(self, write_cfg, tmp_path, capsys,
                                       command, block, key, value, message):
        cfg = base_config(epsilon=0.25, sweep=dict(SWEEP_BLOCK),
                          grid={"checkpoints": 8})
        (cfg.setdefault(block, {}) if block else cfg)[key] = value
        assert run_cli(command, write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, minimum", [
        ("sweep", "--workers", "0", 1), ("sweep", "--workers", "-3", 1),
        ("sweep", "--budget", "-1", 0), ("solve", "--budget", "-1", 0)])
    def test_flag_values_are_checked_like_their_keys(
            self, write_cfg, tmp_path, capsys, command, flag, value, minimum):
        cfg = base_config(epsilon=0.25, sweep=dict(SWEEP_BLOCK),
                          grid={"checkpoints": 8})
        outdir = tmp_path / "out"
        code = run_cli(command, write_cfg(cfg), outdir, flag, value)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: '{flag}' must be an integer >= {minimum}\n")
        assert not (outdir / "manifest.json").exists()

    def test_output_directory_that_cannot_be_made(self, write_cfg, tmp_path,
                                                  capsys):
        (tmp_path / "file").write_text("")
        code = run_cli("verify", write_cfg(base_config()),
                       tmp_path / "file" / "out")
        assert code == cli.EXIT_CONFIG
        assert "config error: cannot create output directory" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, work", [("solve", "solve_pair"),
                                               ("sweep", "run_sweep")])
    def test_output_directory_is_made_before_the_work(
            self, write_cfg, tmp_path, capsys, monkeypatch, command, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output directory "
                                 f"was made")
        monkeypatch.setattr(cli, work, refuse)
        (tmp_path / "file").write_text("")
        cfg = base_config(epsilon=0.25, sweep=dict(SWEEP_BLOCK),
                          grid={"checkpoints": 8})
        code = run_cli(command, write_cfg(cfg), tmp_path / "file" / "out")
        assert code == cli.EXIT_CONFIG
        assert "config error: cannot create output directory" in \
            capsys.readouterr().err

    def test_initial_mode_index_is_not_a_bool(self, write_cfg, tmp_path,
                                              capsys):
        cfg = base_config(epsilon=0.25, grid={"checkpoints": 8})
        cfg["problem"]["g"] = [{"amp": 1.0, "j": [True]}]
        assert run_cli("solve", write_cfg(cfg), tmp_path) == cli.EXIT_CONFIG
        assert "config error: 'problem.g[0].j'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, change", [
        ("solve", {"epsilon": 1e-200}),
        ("sweep", {"sweep": {"epsilons": [0.25, 0.2, 0.125, 1e-200]}}),
        ("solve", {"epsilon": 0.25, "regime": {"k": 1e300}}),
        ("solve", {"epsilon": 0.25, "problem": {
            "T": 1e308, "g": [{"amp": 1.0, "j": [1]}]}}),
    ], ids=["eps-solve", "eps-sweep", "k", "T"])
    def test_time_scale_out_of_range_exits_4(self, write_cfg, tmp_path,
                                             capsys, command, change):
        cfg = base_config(**change)
        assert run_cli(command, write_cfg(cfg), tmp_path) == \
            cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource violation: no double-precision time")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags", [(), ("--budget", "1000")])
    def test_huge_final_time_stops_at_the_ceiling(self, tmp_path, flags):
        cfg = base_config(epsilon=0.25)
        cfg["problem"]["T"] = 1e300
        proc = run_cli_subprocess("solve", cfg, tmp_path, timeout=60,
                                  flags=flags)
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        budget = flags[1] if flags else str(CELL_UPDATE_CEILING)
        assert proc.stderr.startswith("resource violation: solve needs about")
        assert proc.stderr.strip().endswith(
            f"cell updates, budget is {budget}")

    def test_small_eps_without_budget_stops_at_the_ceiling(self, tmp_path):
        # eps = 0.001 over T = 1/2 needs about 2e12 cell updates for the
        # pair, a day of stepping; the default ceiling stops it at once.
        cfg = base_config(epsilon=0.001)
        cfg["problem"]["T"] = 0.5
        proc = run_cli_subprocess("solve", cfg, tmp_path, timeout=60)
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        assert proc.stderr.startswith("resource violation: solve needs about")
        assert proc.stderr.strip().endswith(
            f"cell updates, budget is {CELL_UPDATE_CEILING}")

    def test_solve_honours_the_budget(self, write_cfg, tmp_path, capsys):
        cfg = base_config(epsilon=0.25, grid={"checkpoints": 8})
        need = 2 * policy_grid(0.25, 2.0, 1.0, 0.125, 1, 8).cell_updates()
        path = write_cfg(cfg)
        code = run_cli("solve", path, tmp_path, "--budget", str(need - 1))
        assert code == cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err == (f"resource violation: solve needs about {need} cell "
                       f"updates, budget is {need - 1}\n")
        assert run_cli("solve", path, tmp_path, "--budget",
                       str(need)) == cli.EXIT_OK

    def test_sweep_memory_gate_exits_before_allocating(self, tmp_path):
        # A 2-D ladder from eps = 1/64, with nine conjugate pairs in W: the
        # refined pair of eps = 1/96 (nx 6,249) alone would hold about
        # 7.9 GiB, twice the limit.
        cfg = base_config(potential=gate_potential(9),
                          sweep={"epsilons": [1 / 64, 1 / 72, 1 / 80, 1 / 96]})
        cfg["problem"] = {"T": 1 / 64, "g": [{"amp": 1.0, "j": [1, 1]}]}
        proc = run_cli_subprocess("sweep", cfg, tmp_path, timeout=60,
                                  preexec_fn=limit_address_space_2gib)
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        assert proc.stderr.startswith("resource violation: sweep needs about")
        assert "GiB for nx = 6249 in 2d" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

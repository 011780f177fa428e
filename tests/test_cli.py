"""CLI adapters: config parsing, exit codes, artifact determinism."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from dpsco.cli import main


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def sweep_config(tmp_path):
    cfg = {
        "algorithm": "phased_sgd",
        "loss": {"family": "quadratic_sphere", "center": 0.0, "data_radius": 1.0},
        "domain": {"kind": "ball", "radius": 1.0},
        "grid": [{"n": 64, "d": 2, "rho": 1.0}],
        "trials": 3,
        "seed": 7,
        "output": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cfg, path


class TestRun:
    def test_minimal_config_produces_csv(self, sweep_config):
        cfg, path = sweep_config
        assert run_cli(["run", "--config", path]) == 0
        lines = Path(cfg["output"]).read_text().strip().splitlines()
        assert len(lines) == 2  # header + one grid point
        manifest = json.loads(Path(cfg["output"] + ".manifest.json").read_text())
        assert manifest["partial"] is False
        assert manifest["config"]["seed"] == 7
        assert manifest["config_sha256"] == hashlib.sha256(
            path.read_bytes()
        ).hexdigest()

    def test_rerun_is_byte_identical(self, sweep_config):
        cfg, path = sweep_config
        assert run_cli(["run", "--config", path]) == 0
        first = Path(cfg["output"]).read_bytes()
        assert run_cli(["run", "--config", path]) == 0
        assert Path(cfg["output"]).read_bytes() == first

    def test_jobs_flag_is_rejected(self, sweep_config, capsys):
        # sweeps run serially: threads gave GIL-bound loops no speed-up
        _, path = sweep_config
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cli_reproduces_library_sweep(self, tmp_path, sweep_config):
        # the CLI dispatches grid points one at a time; its rows must still be
        # exactly what one library call over the whole grid produces
        from dpsco.empirics import excess_loss_sweep
        from dpsco.geometry import ConvexDomain
        from dpsco.losses import quadratic_sphere

        cfg, _ = sweep_config
        cfg["grid"] = [{"n": 64, "d": 2, "rho": 1.0}, {"n": 128, "d": 2, "rho": 0.5}]
        multi = tmp_path / "multi2.json"
        multi.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", multi]) == 0
        cli_rows = Path(cfg["output"]).read_text().strip().splitlines()[1:]
        domain = ConvexDomain.ball([0.0, 0.0], 1.0)
        dist = quadratic_sphere(domain, [0.0, 0.0], 1.0)
        lib = excess_loss_sweep(dist, "phased_sgd", [(64, 2, 1.0), (128, 2, 0.5)],
                                trials=3, seed=7)
        for row, r in zip(cli_rows, lib):
            assert row.split(",")[5] == repr(r.mean_excess)

    def test_csv_regenerates_from_manifest_alone(self, tmp_path, sweep_config):
        cfg, path = sweep_config
        assert run_cli(["run", "--config", path]) == 0
        original = Path(cfg["output"]).read_bytes()
        manifest = json.loads(Path(cfg["output"] + ".manifest.json").read_text())
        replay_cfg = dict(manifest["config"])
        replay_cfg["output"] = str(tmp_path / "replayed.csv")
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(replay_cfg))
        assert run_cli(["run", "--config", replay]) == 0
        assert Path(replay_cfg["output"]).read_bytes() == original

    def test_empty_grid_exits_2(self, tmp_path, sweep_config):
        cfg, _ = sweep_config
        cfg["grid"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", bad]) == 2

    def test_missing_seed_exits_2(self, tmp_path, sweep_config):
        cfg, _ = sweep_config
        del cfg["seed"]
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", bad]) == 2

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_cli(["run", "--config", bad]) == 2

    def test_runtime_failure_exits_3_with_partial_manifest(self, tmp_path, sweep_config):
        cfg, _ = sweep_config
        # a grid point too small to fund a single step trips a mid-run error
        cfg["grid"] = [{"n": 64, "d": 2, "rho": 1.0}, {"n": 1, "d": 2, "rho": 1e-9}]
        bad = tmp_path / "bad3.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["run", "--config", bad]) == 3
        manifest = json.loads(Path(cfg["output"] + ".manifest.json").read_text())
        assert manifest["partial"] is True
        # the row finished before the failure is flushed
        rows = Path(cfg["output"]).read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["64"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_sigma_scale_exits_2(self, tmp_path, sweep_config, capsys, value):
        # NaN would switch the noise off while the row still reads rho = 1.0
        cfg, _ = sweep_config
        bad = tmp_path / "bad4.json"
        bad.write_text(json.dumps({**cfg, "overrides": {"sigma_scale": value}}))
        assert run_cli(["run", "--config", bad]) == 2
        assert "sigma_scale" in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()

    def test_zero_sigma_scale_still_runs(self, sweep_config):
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "overrides": {"sigma_scale": 0.0}}))
        assert run_cli(["run", "--config", path]) == 0


class TestAccount:
    def test_constant_schedule(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"B": [1], "eta": [1.0], "sigma": [1.0]}))
        code = run_cli(["account", "--schedule", sched, "--lipschitz", 1.0,
                        "--delta", 1e-5])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho: 2" in out
        assert "eps=" in out

    def test_zero_lipschitz_gives_zero_epsilon(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"B": [1], "eta": [1.0], "sigma": [1.0]}))
        code = run_cli(["account", "--schedule", sched, "--lipschitz", 0.0,
                        "--delta", 1e-5, "--delta", 1e-2])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho: 0" in out
        assert out.count("eps=0") == 2

    def test_zero_noise_prints_infinite(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"B": [1, 1], "eta": [1.0, 1.0], "sigma": [1.0, 0.0]}))
        code = run_cli(["account", "--schedule", sched, "--lipschitz", 1.0,
                        "--delta", 1e-5])
        assert code == 0
        assert "infinite" in capsys.readouterr().out

    def test_snowball_schedule_within_target(self, tmp_path, capsys):
        import math

        from dpsco.accountant import pai_rho
        from dpsco.schedules import Schedule, snowball_batches

        T, d, rho0, L = 50, 4, 1.0, 1.0
        sched = Schedule(
            tuple(snowball_batches(T, d, rho0)),
            (0.1,) * T,
            (L / math.sqrt(d),) * T,
        )
        path = tmp_path / "snow.json"
        path.write_text(sched.to_json())
        assert run_cli(["account", "--schedule", path, "--lipschitz", L,
                        "--delta", 1e-6]) == 0
        out = capsys.readouterr().out
        rho = float(out.splitlines()[0].split()[1])
        assert rho <= rho0 * (1 + 1e-9)
        # the CLI is a thin adapter: its printed rho is the library's value
        assert rho == pytest.approx(pai_rho(sched, L).rho, rel=1e-12)

    def test_bad_schedule_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"B": [1]}')
        assert run_cli(["account", "--schedule", path, "--lipschitz", 1.0,
                        "--delta", 1e-5]) == 2

    @pytest.mark.parametrize("text", [
        '{"B": [1.9], "eta": [0.1], "sigma": [1.0]}',
        '{"B": [1], "eta": [NaN], "sigma": [1.0]}',
        '{"B": [1], "eta": [0.1], "sigma": [Infinity]}',
    ])
    def test_fractional_or_non_finite_schedule_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["account", "--schedule", path, "--lipschitz", 1.0,
                        "--delta", 1e-5]) == 2
        assert "schedule error" in capsys.readouterr().err

    @pytest.mark.parametrize("batches", [[2**70, 3], [2**63 - 1, 3], [2**62] * 3])
    def test_batch_sizes_beyond_int64_exit_2(self, tmp_path, capsys, batches):
        path = tmp_path / "big.json"
        T = len(batches)
        path.write_text(json.dumps({"B": batches, "eta": [0.1] * T, "sigma": [1.0] * T}))
        assert run_cli(["account", "--schedule", path, "--lipschitz", 1.0,
                        "--delta", 1e-5]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "int64" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--lipschitz", "nan", "--delta", 1e-5],
        ["--lipschitz", -1.0, "--delta", 1e-5],
        ["--lipschitz", "inf", "--delta", 1e-5],
        ["--lipschitz", 1.0, "--delta", 0.0],
        ["--lipschitz", 1.0, "--delta", 1.0],
        ["--lipschitz", 1.0, "--delta", -0.1],
        ["--lipschitz", 1.0, "--delta", 1e-5, "--delta", "nan"],
    ])
    def test_bad_numbers_exit_2(self, tmp_path, capsys, flags):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1], "eta": [1.0], "sigma": [1.0]}))
        assert run_cli(["account", "--schedule", sched, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_missing_delta_exits_2(self, tmp_path):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1], "eta": [1.0], "sigma": [1.0]}))
        assert run_cli(["account", "--schedule", sched, "--lipschitz", 1.0]) == 2


class TestCounterexample:
    def test_single_k_row(self, tmp_path):
        out = tmp_path / "ce.csv"
        assert run_cli(["counterexample", "--steps", 100, "--sigma", 0.1,
                        "--k", 1, "--trials", 200, "--seed", 3,
                        "--output", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_default_grid_and_determinism(self, tmp_path):
        out = tmp_path / "ce.csv"
        args = ["counterexample", "--steps", 64, "--sigma", 0.125,
                "--trials", 400, "--seed", 9, "--output", out]
        assert run_cli(args) == 0
        first = out.read_bytes()
        lines = first.decode().strip().splitlines()
        assert len(lines) == 6  # header + {1, T^(1/3), sqrt(T), T^(2/3), T}
        assert run_cli(args) == 0
        assert out.read_bytes() == first

    def test_k_beyond_T_exits_2(self, tmp_path):
        assert run_cli(["counterexample", "--steps", 10, "--sigma", 1.0,
                        "--k", 11, "--trials", 200, "--seed", 0,
                        "--output", tmp_path / "x.csv"]) == 2


class TestProbesAndChecks:
    def test_probe_sensitivity_ok(self, capsys):
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", 10, "--eta", 0.3, "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "max_observed" in out and "bound_2Leta" in out

    def test_probe_refuses_bad_eta(self, capsys):
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", 10, "--eta", 5.0, "--seed", 1]) == 2

    def test_contraction_check(self, capsys):
        assert run_cli(["contraction-check", "--beta", 1.0, "--eta", 1.0,
                        "--seed", 2]) == 0
        assert "contractive" in capsys.readouterr().out
        assert run_cli(["contraction-check", "--beta", 1.0, "--eta", 3.0,
                        "--seed", 2]) == 0
        assert "NOT contractive" in capsys.readouterr().out

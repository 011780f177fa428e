"""CLI adapters: config parsing, exit codes, artifact determinism."""

import argparse
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dpsco
from dpsco import cli, optimizers
from dpsco.cli import build_parser, main


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


GROWING_BATCH = ("snowball_sz", "snowball_jnn", "sc_snowball")


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

    @pytest.mark.parametrize("point", [{"n": 64.9}, {"d": True}, {"n": "64"}, {"rho": math.inf},
                                       {"n": 0}, {"d": 0}, {"rho": 0.0}, {"rho": -1.0},
                                       {"rho": math.nan}])
    def test_bad_grid_entry_exits_2(self, tmp_path, sweep_config, capsys, point):
        # n = 64.9 ran as 64, d = true as 1 and rho = Infinity without noise;
        # n = 0, d = 0 and rho <= 0 or NaN failed mid-run with exit 3
        cfg, _ = sweep_config
        bad = tmp_path / "bad5.json"
        bad.write_text(json.dumps({**cfg, "grid": [{"n": 64, "d": 2, "rho": 1.0, **point}]}))
        assert run_cli(["run", "--config", bad]) == 2
        assert "grid entry" in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()
        assert not Path(cfg["output"] + ".manifest.json").exists()

    @pytest.mark.parametrize("field, value", [("trials", 2.9), ("trials", True),
                                              ("trials", "3"), ("seed", 7.5), ("seed", True),
                                              ("seed", "3"), ("seed", -1)])
    def test_bad_trials_or_seed_exits_2(self, tmp_path, sweep_config, capsys, field, value):
        # trials = 2.9 ran 2 trials and "3" ran 3; seed = 7.5 ran as 7, true
        # as 1 and "3" as 3, all with exit 0 and the manifest keeping the value
        # as written; seed = -1 failed mid-run with exit 3
        cfg, _ = sweep_config
        bad = tmp_path / "bad6.json"
        bad.write_text(json.dumps({**cfg, field: value}))
        assert run_cli(["run", "--config", bad]) == 2
        assert field in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()
        assert not Path(cfg["output"] + ".manifest.json").exists()

    @pytest.mark.parametrize("change", [
        {"overrides": [1]},
        {"overrides": {"sigma_scale": None}},
        {"overrides": {"sigma_scale": True}},
        {"domain": {"kind": "ball", "radius": "x"}},
        {"domain": {"kind": "ball", "radius": 1.0, "center": [0.0, 0.0, 0.0]}},
        {"domain": {"kind": "box", "lower": -1.0}},
        {"domain": {"kind": "box", "lower": [-1.0, None], "upper": 1.0}},
        {"domain": [{"kind": "ball"}]},
        {"loss": {"family": "no_such_family"}},
        {"loss": {"family": "quadratic_sphere", "data_radius": -1.0}},
    ], ids=["overrides list", "null sigma_scale", "true sigma_scale", "string radius",
            "center of wrong length", "box without upper", "null box bound", "domain list",
            "unknown family", "negative data radius"])
    def test_bad_problem_exits_2_and_writes_nothing(self, tmp_path, sweep_config, capsys,
                                                    change):
        # these ended in a traceback (exit 1), ran (true as 1.0), or failed at
        # the first trial with exit 3, an empty CSV and a partial manifest
        cfg, _ = sweep_config
        bad = tmp_path / "bad7.json"
        bad.write_text(json.dumps({**cfg, **change}))
        assert run_cli(["run", "--config", bad]) == 2
        assert capsys.readouterr().err.startswith("run refused: ")
        assert not Path(cfg["output"]).exists()
        assert not Path(cfg["output"] + ".manifest.json").exists()

    def test_problem_of_every_grid_point_is_checked_before_the_first_trial(
            self, tmp_path, sweep_config, capsys):
        # absolute deviation is 1-D: the second grid point's problem is refused
        cfg, _ = sweep_config
        bad = tmp_path / "bad8.json"
        bad.write_text(json.dumps({**cfg, "loss": {"family": "absolute_deviation_uniform"},
                                   "grid": [{"n": 64, "d": 1, "rho": 1.0},
                                            {"n": 64, "d": 2, "rho": 1.0}]}))
        assert run_cli(["run", "--config", bad]) == 2
        assert "1-D" in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()

    def test_box_domain_given_by_lists_runs(self, sweep_config):
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "domain": {"kind": "box", "lower": [-1, -0.5],
                                                      "upper": 1.0}}))
        assert run_cli(["run", "--config", path]) == 0

    def test_grid_counts_written_as_whole_floats_run(self, sweep_config):
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "grid": [{"n": 64.0, "d": 2.0, "rho": 1}],
                                    "trials": 3.0, "seed": 7.0}))
        assert run_cli(["run", "--config", path]) == 0
        assert Path(cfg["output"]).read_text().splitlines()[1].startswith("64,2,1.0,phased_sgd,3,")

    def test_declared_rho_is_what_the_trials_declared(self, tmp_path, sweep_config):
        # the header gained declared_rho at the end; the grid's rho column
        # reads 1.0 while every snowball_sz run at sigma_scale = 0.1 declares
        # about 10, and psgd or a reduced-noise phased_sgd declares none
        import numpy as np

        from dpsco.accountant import pai_rho
        from dpsco.empirics import _snowball_plan
        from dpsco.geometry import ConvexDomain
        from dpsco.losses import quadratic_sphere
        from dpsco.schedules import MULTIPLIER_SZ, Schedule, constant_step

        cfg, path = sweep_config
        n, d, rho, scale = 256, 2, 1.0, 0.1
        rows = {}
        for algorithm, sigma_scale in (("snowball_sz", scale), ("psgd", scale),
                                       ("phased_sgd", scale), ("phased_sgd", 1.0)):
            path.write_text(json.dumps({**cfg, "algorithm": algorithm,
                                        "grid": [{"n": n, "d": d, "rho": rho}],
                                        "overrides": {"sigma_scale": sigma_scale}}))
            assert run_cli(["run", "--config", path]) == 0
            header, row = Path(cfg["output"]).read_text().strip().splitlines()
            assert header == "n,d,rho,algorithm,trials,mean,std_err,bound,ratio,declared_rho"
            rows[algorithm, sigma_scale] = dict(zip(header.split(","), row.split(",")))
        dist = quadratic_sphere(ConvexDomain.ball([0.0, 0.0], 1.0), [0.0, 0.0], 1.0)
        L = dist.loss.lipschitz
        batches = _snowball_plan(n, d, rho, MULTIPLIER_SZ)
        T = len(batches)
        schedule = Schedule(batches, constant_step(T, dist.domain.diameter, math.sqrt(2.0) * L),
                            np.full(T, scale * L / math.sqrt(d)))
        declared = pai_rho(schedule, L).rho
        assert rows["snowball_sz", scale]["rho"] == "1.0"
        assert rows["snowball_sz", scale]["declared_rho"] == repr(declared)
        assert 5.0 * rho < declared <= rho / scale * (1.0 + 1e-9)
        assert rows["psgd", scale]["declared_rho"] == ""
        assert rows["phased_sgd", scale]["declared_rho"] == ""
        assert rows["phased_sgd", 1.0]["declared_rho"] == "1.0"

    @pytest.mark.parametrize("loss", [
        {"family": "linear_regression_sphere", "noise_half_width": 1e8},
        {"family": "linear_regression_sphere", "noise_half_width": 1e150},
        {"family": "quadratic_sphere", "data_radius": 1e150},
    ], ids=["noise 1e8", "noise 1e150", "data radius 1e150"])
    def test_large_data_scale_keeps_the_excess(self, sweep_config, loss):
        # the excess was F(w) - F*, whose constant part swamped it: the first
        # read mean 0.25 (each trial's excess rounded to a multiple of 0.25).
        # At 1e160 and 1e200 these read a nan row and exit 3; L^2 overflows
        # there, which is now refused. The mean is the trials' exact excess.
        from dpsco.empirics import ALGORITHMS, _derive_seeds
        from dpsco.geometry import ConvexDomain
        from test_losses import exact_population_loss

        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "algorithm": "psgd", "loss": loss, "trials": 2}))
        assert run_cli(["run", "--config", path]) == 0
        header, row = Path(cfg["output"]).read_text().strip().splitlines()
        mean = float(dict(zip(header.split(","), row.split(",")))["mean"])
        dist = cli._build_distribution(loss, ConvexDomain.ball([0.0, 0.0], 1.0))
        optimum = exact_population_loss(dist, dist.minimizer)
        exact = [exact_population_loss(dist, ALGORITHMS["psgd"].run(
            dist, 64, 2, 1.0, _derive_seeds(7, 0, trial, 0), _derive_seeds(7, 0, trial, 1),
            1.0).final_iterate) - optimum for trial in range(2)]
        assert mean == pytest.approx(float(sum(exact) / 2), rel=1e-12)
        assert 0.0 < mean < math.inf

    @pytest.mark.parametrize("family, d, build", [
        ("quadratic_point_mass", 2, lambda ball: dpsco.quadratic_point_mass(ball, [0.0, 0.0])),
        ("quadratic_sphere", 2, lambda ball: dpsco.quadratic_sphere(ball, [0.0, 0.0], 1.0)),
        ("absolute_deviation_uniform", 1,
         lambda ball: dpsco.absolute_deviation_uniform(ball, 0.0, 1.0)),
        ("linear_regression_sphere", 2,
         lambda ball: dpsco.linear_regression_sphere(ball, 1.0, [0.0, 0.0], 0.0)),
        ("logistic_sphere", 2, lambda ball: dpsco.logistic_sphere(ball, 1.0, [0.0, 0.0])),
    ], ids=["point mass", "sphere", "absolute deviation", "regression", "logistic"])
    def test_a_family_alone_takes_its_defaults(self, family, d, build):
        # the defaults a config may leave out, which cli.py held per family
        import numpy as np

        from dpsco.losses import FAMILIES

        assert family in FAMILIES and len(FAMILIES) == 5
        ball = dpsco.ConvexDomain.ball([0.0] * d, 1.0)
        got, want = cli._build_distribution({"family": family}, ball), build(ball)
        assert list(got.params) == list(want.params)
        for key, value in want.params.items():
            assert np.asarray(got.params[key]).tobytes() == np.asarray(value).tobytes(), key
        assert (got.name, got.loss, got.sampler) == (want.name, want.loss, want.sampler)
        assert got.minimizer.tobytes() == want.minimizer.tobytes()

    def test_zero_sigma_scale_still_runs(self, sweep_config):
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "overrides": {"sigma_scale": 0.0}}))
        assert run_cli(["run", "--config", path]) == 0

    @pytest.mark.parametrize("algorithm", GROWING_BATCH)
    def test_noise_prefetch_leaves_the_csv_byte_identical(self, sweep_config, algorithm,
                                                          monkeypatch, started_threads):
        # each trial prefetches its noise where two CPUs are usable: all of
        # it, or (with a 3-block cap) the first blocks; on one CPU none
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "algorithm": algorithm,
                                    "grid": [{"n": 4096, "d": 2, "rho": 1.0}]}))
        runs = []
        for cpus, cap in ((2, optimizers._PREFETCH_ENTRIES), (2, 3 * 256 * 2),
                          (1, optimizers._PREFETCH_ENTRIES)):
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
                patch.setattr(optimizers, "_PREFETCH_ENTRIES", cap)
                assert run_cli(["run", "--config", path]) == 0
            runs.append((Path(cfg["output"]).read_bytes(), len(started_threads)))
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert [count for _, count in runs] == [3, 6, 6]

    @pytest.mark.parametrize("algorithm", GROWING_BATCH)
    def test_noiseless_trials_start_no_thread(self, sweep_config, algorithm, monkeypatch,
                                              started_threads):
        cfg, path = sweep_config
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path.write_text(json.dumps({**cfg, "algorithm": algorithm,
                                    "grid": [{"n": 1024, "d": 2, "rho": 1.0}],
                                    "overrides": {"sigma_scale": 0.0}}))
        assert run_cli(["run", "--config", path]) == 0
        assert started_threads == []


# Hostile values every number of a run config refuses, and more for each
# field by its range: a count must be an integer at least its least value, a
# real finite (an integer literal past float64 raised OverflowError out of
# main), a scale positive, a noise width or sigma_scale nonnegative.
NOT_A_NUMBER = [math.nan, math.inf, -math.inf, True, "1", None]
NOT_A_COUNT = NOT_A_NUMBER + [-1, 2.5]
PAST_FLOAT64 = 10**400
NOT_A_REAL = NOT_A_NUMBER + [PAST_FLOAT64]
NOT_POSITIVE = NOT_A_REAL + [-1.0, 0.0]
NOT_NONNEGATIVE = NOT_A_REAL + [-1.0]


def _hostile_config_values():
    """(config change, a word the refusal must hold) for every numeric field
    of a ``dpsco run`` config, one hostile value at a time."""
    def grid(key):
        return lambda v: lambda cfg: {**cfg, "grid": [{**cfg["grid"][0], key: v}]}

    def top(key):
        return lambda v: lambda cfg: {**cfg, key: v}

    def overrides(v):
        return lambda cfg: {**cfg, "overrides": {"sigma_scale": v}}

    def domain(fields):
        return lambda v: lambda cfg: {**cfg, "domain": fields(v)}

    def loss(family, key, d=2):
        return lambda v: lambda cfg: {**cfg, "loss": {"family": family, key: v},
                                      "grid": [{"n": 64, "d": d, "rho": 1.0}]}

    def entry(change):
        return lambda v: change([0.0, v])

    table = [
        ("grid n", grid("n"), NOT_A_COUNT + [0], "grid entry"),
        ("grid d", grid("d"), NOT_A_COUNT + [0], "grid entry"),
        ("grid rho", grid("rho"), NOT_POSITIVE, "grid entry"),
        ("trials", top("trials"), NOT_A_COUNT + [0, 1], "trials"),
        ("seed", top("seed"), NOT_A_COUNT, "seed"),
        ("sigma_scale", overrides, NOT_NONNEGATIVE, "sigma_scale"),
        ("ball radius", domain(lambda v: {"kind": "ball", "radius": v}), NOT_POSITIVE,
         "radius"),
        ("ball center", domain(lambda v: {"kind": "ball", "center": v}), NOT_A_REAL,
         "center"),
        ("ball center entry", domain(lambda v: {"kind": "ball", "center": [0.0, v]}),
         NOT_A_REAL, "center"),
        ("box lower", domain(lambda v: {"kind": "box", "lower": v, "upper": 1.0}),
         NOT_A_REAL + [2.0], "lower"),
        ("box upper", domain(lambda v: {"kind": "box", "lower": -1.0, "upper": [1.0, v]}),
         NOT_A_REAL + [-2.0], "upper"),
        ("quadratic_sphere center", loss("quadratic_sphere", "center"), NOT_A_REAL,
         "center"),
        ("quadratic_sphere center entry", entry(loss("quadratic_sphere", "center")),
         NOT_A_REAL, "center"),
        ("quadratic_sphere data_radius", loss("quadratic_sphere", "data_radius"),
         NOT_POSITIVE, "data_radius"),
        ("quadratic_point_mass center", loss("quadratic_point_mass", "center"), NOT_A_REAL,
         "center"),
        ("quadratic_point_mass center entry", entry(loss("quadratic_point_mass", "center")),
         NOT_A_REAL, "center"),
        ("absolute_deviation_uniform median", loss("absolute_deviation_uniform", "median", 1),
         NOT_A_REAL, "median"),
        ("absolute_deviation_uniform half_width",
         loss("absolute_deviation_uniform", "half_width", 1), NOT_POSITIVE, "half_width"),
        ("linear_regression_sphere feature_radius",
         loss("linear_regression_sphere", "feature_radius"), NOT_POSITIVE, "feature_radius"),
        ("linear_regression_sphere w_true", loss("linear_regression_sphere", "w_true"),
         NOT_A_REAL, "w_true"),
        ("linear_regression_sphere w_true entry",
         entry(loss("linear_regression_sphere", "w_true")), NOT_A_REAL, "w_true"),
        ("linear_regression_sphere noise_half_width",
         loss("linear_regression_sphere", "noise_half_width"), NOT_NONNEGATIVE,
         "noise_half_width"),
        ("logistic_sphere feature_radius", loss("logistic_sphere", "feature_radius"),
         NOT_POSITIVE, "feature_radius"),
        ("logistic_sphere w_ref", loss("logistic_sphere", "w_ref"), NOT_A_REAL, "w_ref"),
        ("logistic_sphere w_ref entry", entry(loss("logistic_sphere", "w_ref")), NOT_A_REAL,
         "w_ref"),
    ]
    for name, change, values, field in table:
        for value in values:
            label = "10**400" if value is PAST_FLOAT64 else repr(value)
            yield pytest.param(change(value), field, id=f"{name}={label}")


class TestHostileRunConfig:
    """`dpsco run` refuses each hostile config with exit 2 and one
    `run refused:` line, before any trial and without writing a file."""

    @pytest.mark.parametrize("config", [
        123, None, "algorithm loss domain grid trials seed output", [],
    ], ids=["number", "null", "string of every key", "list"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, config):
        # all but the list ended in a TypeError traceback with exit 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self._assert_refused(tmp_path, capsys, path)

    @pytest.mark.parametrize("change", [
        {"algorithm": ["x"]}, {"algorithm": None}, {"algorithm": "no_such_algorithm"},
        {"output": 3.5}, {"output": ""}, {"output": None}, {"output": ["sweep.csv"]},
    ], ids=["algorithm list", "null algorithm", "unknown algorithm", "float output",
            "empty output", "null output", "output list"])
    def test_bad_algorithm_or_output(self, tmp_path, sweep_config, capsys, change):
        # a list algorithm ended in a TypeError traceback (exit 1); the bad
        # outputs ran every trial before failing to open the file
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, **change}))
        self._assert_refused(tmp_path, capsys, path, next(iter(change)))

    def test_output_given_as_a_file_descriptor(self, tmp_path, sweep_config, capsys):
        # "output": 3 wrote the CSV into the caller's file descriptor 3, closed
        # it, exited 0 and wrote the manifest to "3.manifest.json"
        cfg, path = sweep_config
        victim = tmp_path / "victim"
        fd = os.open(victim, os.O_WRONLY | os.O_CREAT)
        try:
            path.write_text(json.dumps({**cfg, "output": fd}))
            self._assert_refused(tmp_path, capsys, path, "output")
            os.fstat(fd)  # still open
        finally:
            os.close(fd)
        assert victim.read_bytes() == b""
        assert not Path(f"{fd}.manifest.json").exists()

    @pytest.mark.parametrize("change, field", list(_hostile_config_values()))
    def test_hostile_number(self, tmp_path, sweep_config, capsys, change, field):
        # one table for every numeric field, which were pinned case by case
        cfg, path = sweep_config
        path.write_text(json.dumps(change(cfg), allow_nan=True))
        self._assert_refused(tmp_path, capsys, path, field)

    @pytest.mark.parametrize("loss, algorithm, reason", [
        ({"family": "logistic_sphere"}, "phased_sgd", "no closed-form optimum"),
        ({"family": "quadratic_gaussian"}, "snowball_sz", "unknown or missing loss family"),
        ({"family": "quadratic_gaussian"}, "psgd", "unknown or missing loss family"),
    ])
    def test_problem_no_trial_can_run(self, tmp_path, sweep_config, capsys, loss, algorithm,
                                      reason):
        # logistic exited 3 after writing an empty CSV and a partial manifest;
        # quadratic_gaussian declared L = inf and exited 3 under snowball_sz,
        # and 0 under psgd with a vacuous row (bound = inf, ratio = 0.0); no
        # family declares an infinite L now, and that one is unknown
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "loss": loss, "algorithm": algorithm}))
        self._assert_refused(tmp_path, capsys, path, reason)

    @pytest.mark.parametrize("loss, field", [
        ({"family": "quadratic_sphere", "center": 1e200}, "center"),
        ({"family": "quadratic_sphere", "data_radius": 1e200}, "data_radius"),
        ({"family": "quadratic_point_mass", "center": [0.0, -1e160]}, "center"),
        ({"family": "linear_regression_sphere", "noise_half_width": 1e160}, "noise_half_width"),
    ], ids=["sphere centre", "sphere radius", "point mass centre", "regression noise"])
    def test_declared_L_with_no_finite_square(self, tmp_path, sweep_config, capsys, loss,
                                              field):
        # the centre printed numpy's overflow warning and then refused L = inf
        # naming no field; the others ran with an L whose square overflows
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "loss": loss}))
        self._assert_refused(tmp_path, capsys, path, field)

    def test_declared_L_refusal_under_warnings_as_errors(self, tmp_path, sweep_config):
        # under -W error the centre's overflow warning escaped main: exit 1
        # and a traceback
        cfg, path = sweep_config
        path.write_text(json.dumps({**cfg, "loss": {"family": "quadratic_sphere",
                                                    "center": 1e200}}))
        src = str(Path(dpsco.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-W", "error", "-m", "dpsco.cli", "run",
                              "--config", str(path)], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == ("run refused: quadratic_sphere's declared L must have a finite "
                              "square, got inf from center, data_radius\n")
        assert {p.name for p in tmp_path.iterdir()} == {"config.json"}

    @pytest.mark.parametrize("algorithm", ["phased_sgd", "snowball_sz"])
    def test_grid_n_no_dataset_can_hold(self, tmp_path, sweep_config, capsys, algorithm):
        # n = 1e300 exited 3 after writing the n = 64 row and a partial
        # manifest: phased_sgd's sampler raised "Maximum allowed dimension
        # exceeded", and snowball_sz's batch sizes a TypeError on an object array
        cfg, path = sweep_config
        grid = [{"n": 64, "d": 2, "rho": 1.0}, {"n": 1e300, "d": 2, "rho": 1.0}]
        path.write_text(json.dumps({**cfg, "algorithm": algorithm, "grid": grid}))
        self._assert_refused(tmp_path, capsys, path, f"n must be <= {(2**63 - 1) // 16} at d = 2")

    @staticmethod
    def _assert_refused(tmp_path, capsys, path, field=None):
        assert run_cli(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run refused: ") and err.count("\n") == 1, err
        assert field is None or field in err
        assert {p.name for p in tmp_path.iterdir()} <= {"config.json", "victim"}


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

    def test_overflowing_noise_sums_give_the_true_rho(self, tmp_path, capsys):
        # (eta sigma)^2 = 1e400 overflows float64; rho = 2 L eta / (B eta sigma) = 2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"B": [1], "eta": [1e200], "sigma": [1.0]}))
        assert run_cli(["account", "--schedule", path, "--lipschitz", 1.0,
                        "--delta", 1e-5]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "rho: 2"
        assert out.err == ""

    @pytest.mark.parametrize("text", [
        '{"B": ["3"], "eta": ["0.5"], "sigma": ["1"]}',
        '{"B": [true], "eta": [0.5], "sigma": [1.0]}',
    ], ids=["strings", "boolean"])
    def test_non_numeric_entries_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["account", "--schedule", path, "--lipschitz", 1.0,
                        "--delta", 1e-5]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "must be a list of numbers" in out.err

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
        assert capsys.readouterr().err.startswith("account refused: ")

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

    def test_repeated_calls_share_one_parser(self, tmp_path, capsys):
        # the parser is built once; an append option's default list must not
        # carry one call's --delta values into the next call
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1, 2], "eta": [0.5, 0.5], "sigma": [1.0, 2.0]}))
        args = ["account", "--schedule", sched, "--lipschitz", 1.0, "--delta", 1e-5,
                "--delta", 1e-2]
        outs = []
        for _ in range(3):
            assert run_cli(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].count("eps=") == 2
        assert run_cli(["account", "--schedule", sched, "--lipschitz", 1.0]) == 2
        assert build_parser() is build_parser()


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# After one `dpsco account`, four 8 MiB arrays are allocated and freed six
# times; prints the minor page faults of each pass.
FAULTS_PER_PASS = """
import json, resource, sys
import numpy as np
from dpsco import cli
assert cli.main(["account", "--schedule", sys.argv[1], "--lipschitz", "1",
                 "--delta", "1e-5"]) == 0
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 20) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


class TestMallocPolicy:
    @pytest.mark.skipif(not _glibc(), reason="the thresholds are glibc's")
    def test_freed_megabytes_are_reused_without_page_faults(self, tmp_path):
        # with glibc's dynamic thresholds each pass faulted its 32 MiB in
        # again (about 2000 faults a pass); pinned, only the first pass does
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1, 2], "eta": [0.5, 0.5], "sigma": [1.0, 2.0]}))
        src = str(Path(dpsco.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", FAULTS_PER_PASS, str(sched)], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        faults = json.loads(out.stdout.strip().splitlines()[-1])
        assert len(faults) == 6 and all(f < 100 for f in faults[1:]), faults

    def test_without_glibc_main_sets_nothing_and_runs(self, tmp_path, monkeypatch, capsys):
        def no_libc(name):
            raise AssertionError("mallopt looked up without glibc")

        monkeypatch.setattr(os, "confstr", lambda name: None)
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        cli._pin_malloc_thresholds.cache_clear()
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1], "eta": [1.0], "sigma": [1.0]}))
        try:
            assert run_cli(["account", "--schedule", sched, "--lipschitz", 1.0,
                            "--delta", 1e-5]) == 0
        finally:
            cli._pin_malloc_thresholds.cache_clear()
        assert "rho: " in capsys.readouterr().out


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

    def test_default_grid_after_a_call_with_k(self, tmp_path):
        # --k appends to a default list on the one cached parser
        args = ["counterexample", "--steps", 64, "--sigma", 0.125, "--trials", 200,
                "--seed", 9, "--output", tmp_path / "ce.csv"]
        assert run_cli(args + ["--k", 1]) == 0
        assert len((tmp_path / "ce.csv").read_text().strip().splitlines()) == 2
        assert run_cli(args) == 0
        assert len((tmp_path / "ce.csv").read_text().strip().splitlines()) == 6

    def test_k_beyond_T_exits_2(self, tmp_path):
        assert run_cli(["counterexample", "--steps", 10, "--sigma", 1.0,
                        "--k", 11, "--trials", 200, "--seed", 0,
                        "--output", tmp_path / "x.csv"]) == 2

    def test_accuracy_is_simulated_at_the_offset(self, tmp_path):
        # at X_0 = +-1 the average is told apart in 0.999875 of 8000 trials;
        # at the row's offset 0.05 Phi(shift / std) is 0.579
        out = tmp_path / "ce.csv"
        trials = 4000
        assert run_cli(["counterexample", "--steps", 64, "--sigma", 0.125, "--k", 8,
                        "--offset", 0.05, "--trials", trials, "--seed", 0,
                        "--output", out]) == 0
        header, row = out.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        shift, variance = float(cols["shift"]), float(cols["variance"])
        predicted = 0.5 * (1.0 + math.erf(shift / math.sqrt(2.0 * variance)))
        assert abs(float(cols["accuracy"]) - predicted) <= 3.0 / math.sqrt(trials)

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", 0, "sigma must be positive"),
        ("--trials", 50, "trials must be >= 100"),
        ("--steps", 0, "k must be in"),
    ])
    def test_refused_flags_exit_2_without_a_csv(self, tmp_path, capsys, flag, value, message):
        args = {"--steps": 16, "--sigma": 0.5, "--trials": 200}
        args[flag] = value
        out = tmp_path / "ce.csv"
        flags = [str(a) for item in args.items() for a in item]
        assert run_cli(["counterexample", *flags, "--seed", 0, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("counterexample refused: ") and message in err
        assert not out.exists()


class TestProbesAndChecks:
    def test_probe_sensitivity_ok(self, capsys):
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", 10, "--eta", 0.3, "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert "max_observed" in out and "bound_2Leta" in out

    def test_probe_refuses_bad_eta(self, capsys):
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", 10, "--eta", 5.0, "--seed", 1]) == 2

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_probe_refuses_no_pairs(self, capsys, pairs):
        # with no pair, max_observed would read 0: a vacuous pass
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", pairs, "--eta", 0.3, "--seed", 1]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("probe-sensitivity refused: ")
        assert "num_pairs must be >= 1" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_probe_refuses_a_zero_step(self, capsys):
        # neither run moved, so max_observed 0 <= bound 0 passed vacuously
        assert run_cli(["probe-sensitivity", "--family", "quadratic", "--n", 12,
                        "--pairs", 10, "--eta", 0, "--seed", 1]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("probe-sensitivity refused: eta must be positive")
        assert captured.out == ""


HOSTILE_FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e300", "5e-324")
HOSTILE_INTS = ("-1", "0")

# Small, valid flags for each command; a case swaps one hostile value in.
SMALL_FLAGS = {
    "account": {"--lipschitz": 1.0, "--delta": 1e-5},
    "counterexample": {"--steps": 16, "--sigma": 0.5, "--trials": 200, "--seed": 0},
    "probe-sensitivity": {"--n": 12, "--pairs": 4, "--eta": 0.3, "--seed": 1},
}


def _hostile_cases():
    """(command, flag, value) for every float and int flag of each command."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in SMALL_FLAGS:
        for action in sub.choices[command]._actions:
            for value in {float: HOSTILE_FLOATS, int: HOSTILE_INTS}.get(action.type, ()):
                yield command, action.option_strings[0], value


class TestHostileFlags:
    @pytest.mark.parametrize("command, flag, value", list(_hostile_cases()))
    def test_value_is_run_or_refused_on_one_line(self, tmp_path, capsys, command, flag, value):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"B": [1, 2], "eta": [0.5, 0.5], "sigma": [1.0, 2.0]}))
        out = tmp_path / "ce.csv"
        files = {"account": ["--schedule", sched], "counterexample": ["--output", out]}
        # --flag=value, so that "-inf" is not read as an option
        flags = {**SMALL_FLAGS[command], flag: value}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([command, *files.get(command, []),
                            *(f"{k}={v}" for k, v in flags.items())])
        # the one warning allowed is rdp_to_dp's, by design, for a rho as
        # large as --lipschitz 1e300 gives; an overflow warning fails
        assert all("loose in this regime" in str(w.message) for w in caught), caught
        assert code in (0, 2)
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith(f"{command} refused: ") and err.count("\n") == 1, err
            assert not out.exists()

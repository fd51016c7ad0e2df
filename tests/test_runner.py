"""Config parsing, report serialization, output layout, and the CLI."""

import dataclasses
import glob
import hashlib
import json
import os
import platform

import jsonschema
import numpy as np
import pytest
import yaml

import gaplab
from gaplab import parallel
from gaplab.experiments import (
    EXPERIMENTS,
    SurrogateConfig,
    run_gaussian_surrogate_concentration,
)
from gaplab.runner import (
    DEFAULT_OUT_DIR,
    OUT_DIR_ENV_VAR,
    REPORT_SCHEMA,
    TSV_BLOCK_ROWS,
    ConfigError,
    RunConfig,
    canonical_config_dict,
    experiment_config_from_dict,
    load_run_config,
    main,
    report_envelope,
    resolve_out_dir,
    summary_text,
    write_trials_tsv,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHELL_EXPERIMENTS = (
    "gap_distribution",
    "canonical_typicality",
    "conditional_dm_concentration",
)

TINY_SURROGATE = {
    "experiment": "gaussian_surrogate",
    "seed": 9,
    "config": {"dim_s": 32, "n_samples": 2000, "ad_subsample": 400},
}


def write_yaml(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


# Runs do not validate their reports; every test that writes one
# validates it against REPORT_SCHEMA through these two helpers.
def valid_envelope(report):
    env = report_envelope(report)
    jsonschema.validate(env, REPORT_SCHEMA)
    return env


def load_report(run_dir):
    """report.json of a run directory, validated against REPORT_SCHEMA."""
    with open(os.path.join(run_dir, "report.json")) as fh:
        env = json.load(fh)
    jsonschema.validate(env, REPORT_SCHEMA)
    return env


class TestConfigCoercion:
    def test_defaults_when_empty(self):
        cfg = experiment_config_from_dict("gaussian_surrogate", {})
        assert cfg == SurrogateConfig()

    def test_override_and_tuple_coercion(self):
        cfg = experiment_config_from_dict(
            "conditional_dm_concentration",
            {"dim_s_values": [32, 64], "n_trials": 10},
        )
        assert cfg.dim_s_values == (32, 64)
        assert cfg.n_trials == 10

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiment_config_from_dict("frobnicate", {})

    def test_unknown_key_names_experiment(self):
        with pytest.raises(ConfigError, match="gaussian_surrogate"):
            experiment_config_from_dict("gaussian_surrogate", {"dim_z": 4})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="integer"):
            experiment_config_from_dict("gaussian_surrogate", {"n_samples": True})

    def test_int_accepted_for_float_field(self):
        cfg = experiment_config_from_dict(
            "gaussian_surrogate", {"mean_tolerance": 1}
        )
        assert cfg.mean_tolerance == 1.0


class TestLoadRunConfig:
    def test_round_trip(self, tmp_path):
        path = write_yaml(tmp_path, TINY_SURROGATE)
        rc = load_run_config(path)
        canon = canonical_config_dict(rc)
        # Re-serialize the canonical form and parse again: fixed point.
        path2 = write_yaml(tmp_path, canon, "canon.yaml")
        rc2 = load_run_config(path2)
        assert rc2 == rc
        assert canonical_config_dict(rc2) == canon

    def test_unknown_top_level_key(self, tmp_path):
        path = write_yaml(
            tmp_path, {"experiment": "gaussian_surrogate", "sede": 1}
        )
        with pytest.raises(ConfigError, match="sede"):
            load_run_config(path)

    def test_missing_experiment(self, tmp_path):
        path = write_yaml(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError, match="experiment"):
            load_run_config(path)

    def test_invalid_yaml_reports_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: [unclosed\nseed: 1\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_run_config(str(path))

    def test_non_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(str(path))

    def test_negative_seed(self, tmp_path):
        path = write_yaml(
            tmp_path, {"experiment": "gaussian_surrogate", "seed": -1}
        )
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(path)

    def test_zero_parallelism(self, tmp_path):
        path = write_yaml(
            tmp_path, {"experiment": "gaussian_surrogate", "parallelism": 0}
        )
        with pytest.raises(ConfigError, match="parallelism"):
            load_run_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config("/nonexistent/run.yaml")


class TestOutDirPrecedence:
    def test_cli_wins(self, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV_VAR, "/tmp/envdir")
        assert resolve_out_dir("/tmp/clidir", "/tmp/cfgdir") == "/tmp/clidir"

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV_VAR, "/tmp/envdir")
        assert resolve_out_dir(None, "/tmp/cfgdir") == "/tmp/envdir"

    def test_config_beats_default(self, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        assert resolve_out_dir(None, "/tmp/cfgdir") == "/tmp/cfgdir"
        assert resolve_out_dir(None, None) == DEFAULT_OUT_DIR


@pytest.fixture(scope="module")
def tiny_report():
    return run_gaussian_surrogate_concentration(
        SurrogateConfig(dim_s=32, n_samples=2000, ad_subsample=400), seed=9
    )


class TestReportEnvelope:
    def test_validates_against_schema(self, tiny_report):
        env = valid_envelope(tiny_report)
        assert env["schema_version"] == "1"
        assert env["report"]["experiment"] == "gaussian_surrogate"

    def test_schema_rejects_malformed_envelope(self, tiny_report):
        bad = dataclasses.replace(
            tiny_report, statistics={**tiny_report.statistics, "broken": "1.0"}
        )
        with pytest.raises(jsonschema.ValidationError, match="'1.0'"):
            valid_envelope(bad)

    def test_payload_excludes_volatile(self, tiny_report):
        env = valid_envelope(tiny_report)
        assert "wall_time_s" not in env["report"]
        assert "wall_time_s" in env["volatile"]
        assert "parallelism" not in env["report"]
        assert set(env["volatile"]) == {
            "wall_time_s",
            "parallelism",
            "package_version",
            "blas_threads",
            "versions",
            "generated_at",
        }

    def test_volatile_records_library_versions(self, tiny_report):
        versions = valid_envelope(tiny_report)["volatile"]["versions"]
        assert versions == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
        }

    def test_volatile_records_blas_threads(self, tiny_report, monkeypatch):
        # The count the trial loops run with: 1 where OpenBLAS's count can
        # be set, else the count it reports (null where it reports none).
        getter, setter = parallel.openblas_thread_functions()
        unpinned = None if getter is None else getter()
        threads = valid_envelope(tiny_report)["volatile"]["blas_threads"]
        assert threads == (unpinned if setter is None else 1)
        monkeypatch.setattr(
            parallel, "openblas_thread_functions", lambda: (getter, None)
        )
        threads = valid_envelope(tiny_report)["volatile"]["blas_threads"]
        assert threads == unpinned

    def test_summary_lines(self, tiny_report):
        text = summary_text(tiny_report)
        assert text.count("[PASS]") + text.count("[FAIL]") == len(
            tiny_report.checks
        )
        assert "overall:" in text


class TestCli:
    def run_main(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_list(self, capsys):
        code, out, _ = self.run_main(["list"], capsys)
        assert code == 0
        for name in (
            "gap_definition_equivalence",
            "unitary_covariance",
            "canonical_typicality",
            "gap_distribution",
            "conditional_dm_concentration",
            "gaussian_surrogate",
        ):
            assert name in out

    def test_validate_good(self, tmp_path, capsys):
        path = write_yaml(tmp_path, TINY_SURROGATE)
        code, out, _ = self.run_main(["validate", "--config", path], capsys)
        assert code == 0
        echoed = yaml.safe_load(out)
        assert echoed["experiment"] == "gaussian_surrogate"
        assert echoed["config"]["dim_s"] == 32

    def test_validate_bad(self, tmp_path, capsys):
        path = write_yaml(tmp_path, {"experiment": "nope"})
        code, _, err = self.run_main(["validate", "--config", path], capsys)
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("conditional_dm_concentration", {"n_trials": 0}),
            ("conditional_dm_concentration", {"probe_count": 0}),
            ("conditional_dm_concentration", {"dim_s_values": []}),
            ("conditional_dm_concentration", {"dim_y": -3}),
            ("conditional_dm_concentration", {"s_model": "foo"}),
            ("conditional_dm_concentration", {"dim_s_values": [64, "x"]}),
            ("gap_distribution", {"dim_system": 600, "bath_dim": 512}),
            ("gap_definition_equivalence", {"alpha": 1.5}),
            ("unitary_covariance", {"rho_name": "nope"}),
            ("canonical_typicality", {"center_fraction": 2.0}),
            ("gaussian_surrogate", {"system_probs": [0.5, 0.6]}),
        ],
    )
    def test_validate_rejects_out_of_range(
        self, tmp_path, capsys, experiment, overrides
    ):
        path = write_yaml(tmp_path, {"experiment": experiment, "config": overrides})
        code, out, err = self.run_main(["validate", "--config", path], capsys)
        assert code == 2
        assert out == ""
        assert "config error" in err

    @pytest.mark.parametrize("experiment", SHELL_EXPERIMENTS)
    def test_validate_rejects_shell_below_floor(
        self, tmp_path, capsys, experiment
    ):
        path = write_yaml(
            tmp_path,
            {"experiment": experiment, "config": {"min_shell_dim": 100_000}},
        )
        code, out, err = self.run_main(["validate", "--config", path], capsys)
        assert code == 2
        assert out == ""
        assert "min_shell_dim=100000" in err

    @pytest.mark.parametrize(
        "name", sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".yaml"))
    )
    def test_validate_reference_configs(self, capsys, name):
        path = os.path.join(CONFIG_DIR, name)
        code, out, _ = self.run_main(["validate", "--config", path], capsys)
        assert code == 0
        assert yaml.safe_load(out)["experiment"] == name[: -len(".yaml")]

    @pytest.mark.parametrize("experiment", SHELL_EXPERIMENTS)
    def test_run_rejects_shell_below_floor(
        self, tmp_path, capsys, monkeypatch, experiment
    ):
        # The reference gap_distribution shell holds 160 levels; no reference
        # shell comes near this floor.  The setup phase finds that out and
        # exits 2, before any trial runs.
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        path = write_yaml(
            tmp_path,
            {"experiment": experiment, "config": {"min_shell_dim": 100_000}},
        )
        out_dir = str(tmp_path / "out")
        code, _, err = self.run_main(
            ["run", "--config", path, "--out-dir", out_dir], capsys
        )
        assert code == 2
        assert "config error" in err
        assert "min_shell_dim=100000" in err
        assert not os.path.exists(out_dir)

    def test_run_refuses_a_late_shell_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        # The first traced dimension's shell (30,720 levels) clears the
        # floor and the second's (7,680) does not: no trial of the first
        # may run before the refusal.
        name = "conditional_dm_concentration"
        info = EXPERIMENTS[name]

        def runner(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(info, runner=runner))
        path = write_yaml(
            tmp_path,
            {
                "experiment": name,
                "config": {
                    "dim_s_values": [256, 64],
                    "n_trials": 2000,
                    "min_shell_dim": 10_000,
                },
            },
        )
        out_dir = str(tmp_path / "out")
        code, _, err = self.run_main(
            ["run", "--config", path, "--out-dir", out_dir], capsys
        )
        assert code == 2
        assert "min_shell_dim=10000" in err
        assert not os.path.exists(out_dir)

    def test_run_writes_three_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        cfg = write_yaml(tmp_path, TINY_SURROGATE)
        out_dir = str(tmp_path / "out")
        code, out, _ = self.run_main(
            ["run", "--config", cfg, "--out-dir", out_dir], capsys
        )
        assert code == 0
        run_dir = os.path.join(out_dir, "gaussian_surrogate-seed9")
        for fname in ("report.json", "trials.tsv", "summary.txt"):
            assert os.path.exists(os.path.join(run_dir, fname))
        load_report(run_dir)
        table = np.loadtxt(
            os.path.join(run_dir, "trials.tsv"), skiprows=1, delimiter="\t"
        )
        assert table.shape[0] == SurrogateConfig().probe_count  # one row per probe
        assert "report:" in out

    def test_run_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv(OUT_DIR_ENV_VAR, env_dir)
        cfg = write_yaml(tmp_path, TINY_SURROGATE)
        code, _, _ = self.run_main(["run", "--config", cfg], capsys)
        assert code == 0
        load_report(os.path.join(env_dir, "gaussian_surrogate-seed9"))

    def test_run_by_name_with_overrides(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        out_dir = str(tmp_path / "byname")
        code, _, _ = self.run_main(
            ["run", "unitary_covariance", "--seed", "4", "--out-dir", out_dir],
            capsys,
        )
        assert code == 0
        load_report(os.path.join(out_dir, "unitary_covariance-seed4"))

    def test_run_conflicting_experiment(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path, TINY_SURROGATE)
        code, _, err = self.run_main(
            ["run", "unitary_covariance", "--config", cfg], capsys
        )
        assert code == 2
        assert "conflicts" in err

    def test_run_unknown_name(self, capsys):
        code, _, err = self.run_main(["run", "mystery"], capsys)
        assert code == 2
        assert "unknown experiment" in err

    def test_run_without_target(self, capsys):
        code, _, err = self.run_main(["run"], capsys)
        assert code == 2

    def test_seed_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV_VAR, raising=False)
        cfg = write_yaml(tmp_path, TINY_SURROGATE)
        out_dir = str(tmp_path / "seedover")
        code, _, _ = self.run_main(
            ["run", "--config", cfg, "--seed", "11", "--out-dir", out_dir],
            capsys,
        )
        assert code in (0, 1)  # only the directory name is under test here
        load_report(os.path.join(out_dir, "gaussian_surrogate-seed11"))


class TestTrialsTsv:
    def test_bytes_match_savetxt(self, tmp_path):
        # two full blocks plus a partial one, with the values whose
        # formatting is easiest to get wrong
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((2 * TSV_BLOCK_ROWS + 3, 3))
        rows[0] = [-0.0, 1e-300, 2.0**53 + 1]
        rows[-1] = [np.inf, -np.inf, np.nan]
        rows[TSV_BLOCK_ROWS] = [5e-324, 1.0, -1e300]
        columns = ("a", "b", "c")
        got, expected = tmp_path / "got.tsv", tmp_path / "expected.tsv"
        write_trials_tsv(str(got), columns, rows)
        np.savetxt(
            expected, rows, fmt="%.17g", delimiter="\t", header="a\tb\tc",
            comments="",
        )
        assert got.read_bytes() == expected.read_bytes()

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_trials_tsv(str(path), ("x", "y"), np.empty((0, 2)))
        assert path.read_bytes() == b"x\ty\n"


class TestFreshInterpreter:
    def test_python_m_gaplab_list(self, run_python):
        out = run_python("-m", "gaplab", "list")
        assert out.returncode == 0, out.stderr
        assert "gaussian_surrogate" in out.stdout
        assert "RuntimeWarning" not in out.stderr

    def test_run_records_package_version(self, run_python, tmp_path):
        # From a source checkout no distribution metadata exists; the
        # report must still name the version.
        cfg = write_yaml(tmp_path, TINY_SURROGATE)
        out_dir = str(tmp_path / "out")
        out = run_python("-m", "gaplab", "run", "--config", cfg, "--out-dir", out_dir)
        assert out.returncode == 0, out.stderr
        env = load_report(os.path.join(out_dir, "gaussian_surrogate-seed9"))
        assert env["volatile"]["package_version"] == gaplab.__version__

    def test_import_leaves_scipy_stats_unloaded(self, run_python):
        # Neither SciPy nor jsonschema may load at import, for a config or
        # in validate; nor in a run (see TestRunPathImports).
        configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
        assert len(configs) == 6
        child = (
            "import contextlib, io, sys\n"
            "def loaded():\n"
            "    return sorted({m.split('.')[0] for m in sys.modules}\n"
            "                  & {'scipy', 'jsonschema'})\n"
            "import gaplab\n"
            "from gaplab import runner\n"
            "print(loaded())\n"
            "for path in sys.argv[1:]:\n"
            "    runner.load_run_config(path)\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for path in sys.argv[1:]:\n"
            "        assert runner.main(['validate', '--config', path]) == 0\n"
            "print(loaded())\n"
        )
        out = run_python("-c", child, *configs)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[]", "[]", "[]"]


# Small variants of every experiment.  Each KS test compares samples of 400
# or more, so its p-value is evaluated at n > 140, the branches the reference
# configs reach.
RUN_PATH_CONFIGS = {
    "canonical_typicality": {
        "bath_dim": 128, "shell_width": 60.0, "n_draws": 20, "min_shell_dim": 50,
    },
    "conditional_dm_concentration": {
        "dim_s_values": [64], "n_trials": 50, "min_shell_dim": 50,
    },
    "gap_definition_equivalence": {
        "rho_names": ["spiked_2"], "moment_samples": 2000, "ks_samples": 1000,
    },
    "gap_distribution": {
        "bath_dim": 256, "shell_width": 50.0, "outer_trials": 10,
        "inner_draws": 40, "heredity_samples": 1000, "min_shell_dim": 50,
    },
    "gaussian_surrogate": TINY_SURROGATE["config"],
    "unitary_covariance": {"n_samples": 1000},
}


class TestRunPathImports:
    @pytest.mark.parametrize("experiment", sorted(RUN_PATH_CONFIGS))
    def test_run_leaves_scipy_unloaded(self, run_python, tmp_path, experiment):
        # The KS and Anderson-Darling tests are gaplab.stattests, and the
        # report is not validated at run time; a whole run, report
        # included, must import neither SciPy nor jsonschema.
        assert set(RUN_PATH_CONFIGS) == set(gaplab.EXPERIMENTS)
        cfg = write_yaml(
            tmp_path,
            {"experiment": experiment, "seed": 3,
             "config": RUN_PATH_CONFIGS[experiment]},
        )
        child = (
            "import contextlib, io, sys\n"
            "from gaplab import runner\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = runner.main(['run', '--config', sys.argv[1],\n"
            "                        '--out-dir', sys.argv[2]])\n"
            "print(code)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
        )
        out_dir = tmp_path / "out"
        out = run_python("-c", child, cfg, str(out_dir))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["0", "[]"]
        load_report(out_dir / f"{experiment}-seed3")


class TestRerunDeterminism:
    @pytest.mark.skipif(
        parallel.openblas_thread_functions()[1] is None,
        reason="numpy's BLAS exports no thread-count setter",
    )
    def test_blas_thread_count_leaves_bytes_unchanged(self, run_python, tmp_path):
        # Trial loops pin OpenBLAS to one thread, so the default count moves
        # no bit; unpinned, two threads move the last bits of this payload.
        cfg = write_yaml(
            tmp_path,
            {"experiment": "conditional_dm_concentration", "seed": 0,
             "config": {"n_trials": 10}},
        )
        outputs = []
        for threads in ("1", "2"):
            out_dir = str(tmp_path / threads)
            out = run_python(
                "-m", "gaplab", "run", "--config", cfg, "--out-dir", out_dir,
                env={"OPENBLAS_NUM_THREADS": threads},
            )
            assert out.returncode == 0, out.stderr
            run_dir = os.path.join(out_dir, "conditional_dm_concentration-seed0")
            env = load_report(run_dir)
            assert env["volatile"]["blas_threads"] == 1
            with open(os.path.join(run_dir, "trials.tsv"), "rb") as fh:
                outputs.append((json.dumps(env["report"], sort_keys=True), fh.read()))
        assert outputs[0] == outputs[1]

    @staticmethod
    def run_bytes(tmp_path, experiment, parallelism, sub):
        """The ``report`` section, as sorted JSON, plus ``trials.tsv`` of a
        run of the small variant at seed 3, written under ``tmp_path/sub``."""
        cfg = write_yaml(
            tmp_path,
            {"experiment": experiment, "seed": 3, "parallelism": parallelism,
             "config": RUN_PATH_CONFIGS[experiment]},
            name=f"{sub}.yaml",
        )
        out_dir = str(tmp_path / sub)
        assert main(["run", "--config", cfg, "--out-dir", out_dir]) == 0
        run_dir = os.path.join(out_dir, f"{experiment}-seed3")
        env = load_report(run_dir)
        with open(os.path.join(run_dir, "trials.tsv"), "rb") as fh:
            return json.dumps(env["report"], sort_keys=True).encode() + fh.read()

    # perfbench fails an operation whose payload differs from the other
    # operations of its run: two runs in one interpreter must agree.
    @pytest.mark.parametrize(
        "experiment, parallelism",
        [(name, 1) for name in sorted(RUN_PATH_CONFIGS)]
        + [("gap_distribution", 2)],
    )
    def test_same_seed_same_report_bytes(self, tmp_path, experiment, parallelism):
        bodies = [
            self.run_bytes(tmp_path, experiment, parallelism, sub)
            for sub in ("a", "b")
        ]
        assert bodies[0] == bodies[1]

    # A seed fixes the payload at any worker count.
    @pytest.mark.parametrize(
        "experiment",
        [
            "canonical_typicality",
            "conditional_dm_concentration",
            "gap_distribution",
            "unitary_covariance",
        ],
    )
    def test_parallelism_leaves_report_bytes_unchanged(self, tmp_path, experiment):
        digests = [
            hashlib.sha256(self.run_bytes(tmp_path, experiment, p, f"p{p}")).hexdigest()
            for p in (1, 2)
        ]
        assert digests[0] == digests[1]

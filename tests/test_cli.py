import os
from pathlib import Path

import pytest

from cfisac.cli import build_parser, main

BASELINE = str(Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg")

TINY_CONFIG = """
m_aps=10
k_ues=3
t_targets=2
l_regions=1
n_antennas=4
q_serving=2
m_tx_per_region=3
m_rx_per_region=2
cell_extent_m=500.0
n_drops=2
n_fading=2
seed=5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestParsing:
    def test_run_with_overrides(self, config_file):
        args = build_parser().parse_args(
            ["run", "--config", str(config_file), "--seed", "7", "--mode", "TC"]
        )
        assert args.command == "run" and args.seed == 7 and args.mode == "TC"

    def test_run_without_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--config", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_rx_sweep_list(self):
        args = build_parser().parse_args(["preset-rx-sweep", "--rx", "1,2,3,4"])
        assert args.rx == "1,2,3,4"

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2


class TestExecution:
    def test_validate_config_echoes(self, config_file, capsys):
        code = main(["validate-config", "--config", str(config_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "m_aps=10" in out and "seed=5" in out

    def test_validate_config_bad_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("pfa_target=1.5\n")
        assert main(["validate-config", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["m_rx_per_region=20"],
            ["m_tx_per_region=40"],
            ["q_serving=60"],
            ["n_antennas=2"],
            ["mode=CF", "m_rx_per_region=16"],
            ["area_side_m=nan"],
            ["angular_corr_deg=nan"],
            ["noise_density_dbm_hz=nan"],
            ["p_max_w=inf"],
            ["cell_extent_m=inf"],
            ["shadowing_std_db=-1"],
            ["spacing_wavelengths=0"],
            ["spacing_wavelengths=-0.5"],
        ],
        ids=[
            "rx",
            "tx",
            "q",
            "cap",
            "cf-rx",
            "nan-area",
            "nan-corr",
            "nan-noise",
            "inf-power",
            "inf-cell",
            "neg-shadow",
            "zero-spacing",
            "neg-spacing",
        ],
    )
    def test_validate_config_rejects_what_run_rejects(self, overrides, tmp_path, capsys):
        # cluster sizes no drop can satisfy, non-finite floats, a negative
        # shadowing std and a non-positive antenna spacing fail in validate(),
        # before any drop
        args = ["--config", BASELINE, *(a for o in overrides for a in ("--set", o))]
        assert main(["validate-config", *args]) == 1
        validate_err = capsys.readouterr().err
        out = tmp_path / "run"
        assert main(["run", *args, "--drops", "1", "--fading", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == validate_err
        assert validate_err.startswith("error: ") and validate_err.count("\n") == 1
        assert not out.exists()

    def test_calibrate_pfa_bad_pfa(self, capsys):
        argv = ["calibrate-pfa", "--rank", "1", "--pfa", "1.5", "--mc-draws", "10"]
        assert main(argv) == 1
        assert "target_pfa must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mc-draws", "0", "--mc-draws must be >= 1"),
            ("--sigma2", "0", "--sigma2 must be positive and finite"),
            ("--sigma2", "-1", "--sigma2 must be positive and finite"),
            ("--sigma2", "inf", "--sigma2 must be positive and finite"),
        ],
        ids=["zero-draws", "zero-sigma2", "negative-sigma2", "infinite-sigma2"],
    )
    def test_calibrate_pfa_rejects_bad_input(self, flag, value, message, capsys):
        # one error line and exit 1, not a traceback, a negative threshold or a nan
        assert main(["calibrate-pfa", "--rank", "2", "--mc-draws", "10", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_missing_config_file(self, capsys):
        assert main(["validate-config", "--config", "/no/such/file.cfg"]) == 1

    def test_calibrate_pfa(self, capsys):
        code = main(["calibrate-pfa", "--rank", "12", "--pfa", "0.01", "--mc-draws", "200000"])
        assert code == 0
        out = capsys.readouterr().out
        analytic = float(out.split("analytic_threshold=")[1].splitlines()[0])
        mc = float(out.split("monte_carlo_threshold=")[1].splitlines()[0])
        assert abs(analytic - mc) / analytic < 0.02

    def test_run_writes_outputs(self, config_file, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out / "config.txt").exists()
        assert (out / "run_samples.csv").exists()
        assert (out / "run_cdf_rate_bps.csv").exists()
        assert (out / "run_cdf_sensing_snr_db.csv").exists()
        assert (out / "run_detections.txt").exists()
        assert (out / "summary.txt").exists()

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(out_b)]) == 0
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unwritable_output_is_runtime_error(self, config_file, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file, not a directory")
        code = main(["run", "--config", str(config_file), "--out", str(blocker / "sub")])
        assert code == 1

    def test_env_var_output_root(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CFISAC_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["run", "--config", str(config_file)]) == 0
        assert (tmp_path / "root" / "run" / "summary.txt").exists()

    def test_preset_rx_sweep_small(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "preset-rx-sweep",
                "--config",
                str(config_file),
                "--rx",
                "1,2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "rx1_samples.csv").exists()
        assert (out / "rx2_samples.csv").exists()

    def test_empty_rx_sweep_is_rejected_before_writing(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["preset-rx-sweep", "--config", str(config_file), "--rx", ",", "--out", str(out)]
        assert main(argv) == 1
        assert "the preset has no arms" in capsys.readouterr().err
        assert not out.exists()

    def test_set_override(self, config_file, capsys):
        code = main(
            ["validate-config", "--config", str(config_file), "--set", "bandwidth_hz=10e6"]
        )
        assert code == 0
        assert "bandwidth_hz=10000000.0" in capsys.readouterr().out

    def test_bad_set_override(self, config_file):
        assert main(["run", "--config", str(config_file), "--set", "nonsense"]) == 1

import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from polarpunct import channel, construct, degrade, puncture, sim
from polarpunct.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


class TestPropagateCommand:
    def test_worked_chain(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        assert run_cli("propagate", "--n", "3", "--set", "2,3,4,7",
                       "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["levels"] == [[2, 3, 4, 7], [2, 3, 0, 7], [2, 1, 0, 5], [2, 1, 0, 4]]
        assert data["pairs"] == [
            {"source": 2, "destination": 2}, {"source": 3, "destination": 1},
            {"source": 4, "destination": 0}, {"source": 7, "destination": 4}]

    def test_coded_domain(self, capsys):
        assert run_cli("propagate", "--n", "3", "--set", "0,4,2,6",
                       "--domain", "coded") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["levels"][0] == [0, 1, 2, 3]

    def test_bad_index(self, capsys):
        assert run_cli("propagate", "--n", "3", "--set", "9") == 1
        assert "error:" in capsys.readouterr().err

    def test_widest_coded_domain(self, capsys):
        assert run_cli("propagate", "--n", "32", "--set", "1,5", "--domain", "coded") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["levels"][0] == [1 << 31, (1 << 31) | (1 << 29)]

    def test_width_zero(self, capsys):
        assert run_cli("propagate", "--n", "0", "--set", "0", "--domain", "coded") == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == [{"source": 0, "destination": 0}]


class TestConstructCommand:
    def test_profile_json(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("construct", "--n", "3", "--construction", "bec:0.5",
                       "--k", "4", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["method"] == "bec"
        assert data["I"] == [3, 5, 6, 7]
        assert data["F"] == [0, 1, 2, 4]
        assert len(data["metric"]) == 8
        assert len(data["error_prob"]) == 8

    def test_crc_accounting(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("construct", "--n", "5", "--construction", "ga:1.0",
                       "--k", "10", "--crc", "8", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["I"]) == 18

    @pytest.mark.parametrize("snr", ["250", "4000"])
    def test_ga_design_snr_out_of_range(self, capsys, snr):
        assert run_cli("construct", "--n", "4", "--k", "2", "--construction", f"ga:{snr}") == 1
        assert capsys.readouterr().err.startswith(
            f"error: GA construction is out of range at design SNR {snr} dB")

    def test_missing_param(self, capsys):
        assert run_cli("construct", "--n", "3", "--construction", "bec", "--k", "4") == 1
        assert "erasure" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, message", [
        ("1e200", "PW weights are out of range at beta 1e+200"),
        ("inf", "beta must be positive and finite, got inf")])
    def test_pw_beta_unusable(self, capsys, beta, message):
        assert run_cli("construct", "--n", "3", "--k", "2", "--construction", f"pw:{beta}") == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("n", ["21", "40"])
    def test_width_beyond_limit(self, capsys, n):
        assert run_cli("construct", "--n", n, "--k", "2", "--construction", "pw") == 1
        assert capsys.readouterr().err.startswith(f"error: n must be in [0, 20], got {n}")

    def test_construction_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("construct", "--n", "8", "--k", "93")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --construction" in err
        assert "Traceback" not in err


class TestPunctureCommand:
    def test_qup_pattern_json(self, capsys):
        assert run_cli("puncture", "--n", "3", "--q", "4", "--scheme", "qup") == 0
        data = json.loads(capsys.readouterr().out)
        pattern = data["patterns"][0]
        assert pattern["source_set"] == [0, 1, 2, 3]
        assert pattern["coded_set"] == [0, 2, 4, 6]
        assert "report" not in pattern

    def test_wqp_with_report(self, capsys):
        assert run_cli("puncture", "--n", "3", "--q", "4", "--scheme", "wqp",
                       "--construction", "bec:0.5", "--k", "4") == 0
        data = json.loads(capsys.readouterr().out)
        pattern = data["patterns"][0]
        assert pattern["source_set"] == [0, 1, 2, 4]
        assert pattern["report"]["punctured_info_channels"] == []
        assert pattern["report"]["quality_loss"] == pytest.approx(0.31640625)

    def test_compare_emits_deltas(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli("puncture", "--n", "8", "--q", "70", "--compare", "qup,wqp",
                       "--construction", "ga:-0.5", "--k", "93",
                       "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["patterns"]) == 2
        cmp_ = data["comparison"]
        # qup minus wqp: qup is never better on either metric
        assert cmp_["quality_loss_delta"] >= 0
        assert cmp_["union_bound_delta"] >= 0

    def test_negative_width(self, capsys):
        assert run_cli("puncture", "--n", "-1", "--q", "1") == 1
        assert capsys.readouterr().err == "error: width must be an integer in [0, 32], got -1\n"

    def test_custom_needs_file(self, capsys):
        assert run_cli("puncture", "--n", "3", "--q", "2", "--scheme", "custom") == 1

    def test_non_integer_custom_position(self, tmp_path, capsys):
        custom = tmp_path / "f.json"
        custom.write_text("[1.5, 2]")
        assert run_cli("puncture", "--n", "3", "--q", "2", "--scheme", "custom",
                       "--custom-file", str(custom)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["5", "[[1]]"])
    def test_malformed_custom_file(self, tmp_path, capsys, text):
        custom = tmp_path / "f.json"
        custom.write_text(text)
        assert run_cli("puncture", "--n", "3", "--q", "1", "--scheme", "custom",
                       "--custom-file", str(custom)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "flat sequence of integers" in err

    def test_custom_q_must_match_positions(self, tmp_path, capsys):
        custom = tmp_path / "f.json"
        custom.write_text("[1, 5]")
        assert run_cli("puncture", "--n", "3", "--q", "3", "--scheme", "custom",
                       "--custom-file", str(custom)) == 1
        assert capsys.readouterr().err.startswith("error: q=3")

    @pytest.mark.parametrize("flags", [("--scheme", "qup"), ("--compare", "qup,wqp")])
    def test_custom_file_needs_custom_scheme(self, tmp_path, capsys, flags):
        custom = tmp_path / "c.json"
        custom.write_text("[1, 5]")
        out = tmp_path / "p.json"
        assert run_cli("puncture", "--n", "3", "--q", "2", *flags, "--construction", "bec:0.5",
                       "--k", "4", "--custom-file", str(custom), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --custom-file needs scheme 'custom'")
        assert "Traceback" not in err
        assert not out.exists()

    def test_compare_with_custom(self, tmp_path, capsys):
        custom = tmp_path / "c.json"
        custom.write_text("[1, 5]")
        assert run_cli("puncture", "--n", "3", "--q", "2", "--compare", "qup, custom",
                       "--custom-file", str(custom)) == 0
        qup, custom_entry = json.loads(capsys.readouterr().out)["patterns"]
        assert qup["scheme"] == "qup"
        assert custom_entry["scheme"] == "custom"
        assert custom_entry["coded_set"] == [1, 5]

    @pytest.mark.parametrize("flags, message", [
        (("--k", "6"), "--k needs --construction"),
        (("--crc", "8"), "--crc needs --construction"),
        (("--k", "6", "--crc", "8"), "--k needs --construction"),
        (("--construction", "bec:0.3"), "--construction needs --k"),
        (("--construction", "bec:0.3", "--crc", "8"), "--construction needs --k"),
    ])
    def test_unused_construction_flags_rejected(self, tmp_path, capsys, monkeypatch,
                                                flags, message):
        def built(*args):
            raise AssertionError("built before the flags were checked")

        monkeypatch.setattr(puncture, "make_pattern", built)
        monkeypatch.setattr(construct, "build_profile", built)
        out = tmp_path / "p.json"
        assert run_cli("puncture", "--n", "4", "--q", "3", "--scheme", "qup", *flags,
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["wqp", "qup"])
    def test_scheme_and_compare_rejected(self, tmp_path, capsys, monkeypatch, scheme):
        # Not --compare run alone with --scheme dropped; qup, the default, included.
        def built(*args):
            raise AssertionError("built before the flags were checked")

        monkeypatch.setattr(puncture, "make_pattern", built)
        monkeypatch.setattr(construct, "build_profile", built)
        out = tmp_path / "p.json"
        assert run_cli("puncture", "--n", "4", "--q", "3", "--scheme", scheme,
                       "--compare", "qup,qup", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --scheme and --compare exclude each other\n"
        assert not out.exists()

    @pytest.mark.parametrize("schemes", ["qup,wqp,qup", "wqp"])
    def test_compare_needs_two_schemes(self, tmp_path, capsys, schemes):
        # Not a run that writes the patterns and drops the comparison.
        out = tmp_path / "p.json"
        assert run_cli("puncture", "--n", "4", "--q", "3", "--k", "6", "--construction", "bec:0.3",
                       "--compare", schemes, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            f"error: --compare needs exactly two schemes, got {schemes!r}\n"
        assert not out.exists()

    def test_default_scheme_is_qup(self, capsys):
        assert run_cli("puncture", "--n", "3", "--q", "4") == 0
        assert json.loads(capsys.readouterr().out)["patterns"][0]["scheme"] == "qup"

    def test_wqp_q_too_large(self, capsys):
        assert run_cli("puncture", "--n", "3", "--q", "5", "--scheme", "wqp",
                       "--construction", "bec:0.5", "--k", "4") == 1
        assert "frozen" in capsys.readouterr().err


class TestSimulateCommand:
    def test_flag_driven_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("simulate", "--n", "4", "--k", "6", "--construction", "ga",
                       "--puncture", "qup", "--q", "3", "--decoder", "sc",
                       "--channel", "awgn", "--sweep", "2,4", "--seed", "5",
                       "--max-frames", "200", "--min-errors", "1000",
                       "--batch-size", "100", "--out", str(out))
        assert code == 0
        csv_lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "sweep_param,frames,frame_errors,FER,bit_errors,BER"
        assert len(csv_lines) == 3
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["config"]["n"] == 4
        assert len(data["points"]) == 2

    def test_config_file_with_overrides(self, tmp_path):
        cfg = dict(n=4, k=6, construction="ga", puncturing="none", q=0,
                   decoder="sc", channel="awgn", sweep=[3.0], max_frames=100,
                   min_frame_errors=1000, master_seed=1, batch_size=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--sweep", "2.0", "--out", str(out)) == 0
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["config"]["sweep"] == [2.0]

    @pytest.mark.parametrize("formats", ["xlsx", "json,xlsx", "csv,json,xlsx"])
    def test_unknown_format_rejected_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                      formats):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", no_sweep)
        assert run_cli("simulate", "--n", "4", "--k", "6", "--sweep", "1",
                       "--format", formats, "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith("error: unknown format 'xlsx'")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_sweep_flag(self, capsys):
        assert run_cli("simulate", "--n", "4", "--k", "6", "--sweep", "1,x") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_sweep_flag_keeps_the_file_sweep(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "k": 6, "sweep": [3.0], "max_frames": 50}))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg_path), "--sweep", "",
                       "--out", str(out)) == 0
        assert json.loads((tmp_path / "run.json").read_text())["config"]["sweep"] == [3.0]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, capsys, workers):
        assert run_cli("simulate", "--n", "4", "--k", "6", "--sweep", "1",
                       "--workers", workers) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: workers must be >= 1, got {workers}")

    def test_invalid_config_rejected(self, tmp_path, capsys):
        assert run_cli("simulate", "--n", "4", "--k", "40", "--sweep", "1") == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_custom_position(self, tmp_path, capsys):
        cfg = dict(n=4, k=6, construction="ga", puncturing="custom", q=1,
                   custom_coded=[2.5], decoder="sc", channel="awgn", sweep=[3.0],
                   max_frames=100, min_frame_errors=1000, master_seed=1, batch_size=50)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2.5" in err
        assert "Traceback" not in err

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "coffee": True}))
        assert run_cli("simulate", "--config", str(cfg_path)) == 1
        assert "coffee" in capsys.readouterr().err

    def test_missing_required_fields_named(self, capsys):
        assert run_cli("simulate", "--sweep", "1") == 1
        err = capsys.readouterr().err
        assert err == "error: missing required config fields: ['n', 'k']\n"

    @pytest.mark.parametrize("field, value", [
        ("sweep", "abc"), ("n", "4"), ("max_frames", 10.5), ("master_seed", True),
        ("custom_coded", 5), ("custom_coded", [[1]]), ("decoder", 1),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, field, value):
        cfg = dict(n=4, k=6, puncturing="custom", q=1, custom_coded=[2],
                   sweep=[3.0], max_frames=100)
        cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {field!r} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[1]", "5"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli("simulate", "--config", str(cfg_path), "--n", "4") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a config must be a JSON object")

    def test_ga_design_snr_out_of_range(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "k": 2, "construction": "ga:250", "sweep": [1]}))
        assert run_cli("simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith("error: GA construction is out of range "
                                                  "at design SNR 250 dB")

    @pytest.mark.parametrize("beta, message", [
        ("1e200", "PW weights are out of range at beta 1e+200"),
        ("inf", "beta must be positive and finite, got inf")])
    def test_pw_beta_unusable(self, tmp_path, capsys, beta, message):
        assert run_cli("simulate", "--n", "3", "--k", "2", "--construction", f"pw:{beta}",
                       "--sweep", "1", "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("n", ["21", "40"])
    def test_width_beyond_limit(self, tmp_path, capsys, n):
        assert run_cli("simulate", "--n", n, "--k", "2", "--construction", "pw",
                       "--sweep", "1", "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith(f"error: n must be in [1, 20], got {n}")

    @pytest.mark.parametrize("text, message", [
        ("5", "config field 'custom_coded'"), ("null", "custom puncturing needs coded positions")])
    def test_malformed_custom_file(self, tmp_path, capsys, text, message):
        custom = tmp_path / "f.json"
        custom.write_text(text)
        assert run_cli("simulate", "--n", "4", "--k", "6", "--puncture", "custom",
                       "--custom-file", str(custom), "--sweep", "3",
                       "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "4000", "-4000"])
    def test_awgn_point_without_finite_noise_variance(self, tmp_path, capsys, value):
        assert run_cli("simulate", "--n", "5", "--k", "10", "--construction", "ga:1",
                       f"--sweep={value}", "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Eb/N0 of {float(value)} dB gives no finite positive")
        assert "Traceback" not in err
        assert not (tmp_path / "run.json").exists()

    def test_awgn_point_rejected_in_compare(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0, 1e400]}))
        b.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0, 1e400]}))
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(tmp_path / "joint")) == 1
        assert capsys.readouterr().err.startswith("error: Eb/N0 of inf dB")
        assert not (tmp_path / "joint.csv").exists()

    def test_custom_file_needs_custom_puncturing(self, tmp_path, capsys):
        custom = tmp_path / "c.json"
        custom.write_text("[0, 8]")
        assert run_cli("simulate", "--n", "4", "--k", "6", "--puncture", "qup", "--q", "2",
                       "--custom-file", str(custom), "--sweep", "3",
                       "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: custom coded positions need puncturing 'custom', "
                              "got 'qup'")
        assert not (tmp_path / "run.json").exists()

    def test_custom_file_sets_q(self, tmp_path):
        custom = tmp_path / "f.json"
        custom.write_text("[0, 8, 8]")
        out = tmp_path / "run"
        assert run_cli("simulate", "--n", "4", "--k", "6", "--puncture", "custom",
                       "--custom-file", str(custom), "--sweep", "3",
                       "--max-frames", "50", "--out", str(out)) == 0
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["config"]["q"] == 2
        assert data["pattern"]["coded_set"] == [0, 8]

    def test_config_file_custom_q_from_positions(self, tmp_path):
        # The same default as --custom-file: q is the number of distinct positions.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 4, "k": 6, "construction": "bec:0.3", "channel": "bec",
                                   "puncturing": "custom", "custom_coded": [1, 5],
                                   "sweep": [0.3], "max_frames": 100}))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["config"]["q"] == 2
        assert data["pattern"]["coded_set"] == [1, 5]

    @pytest.mark.parametrize("file_q, flags", [({"q": 3}, ()), ({}, ("--q", "3"))])
    def test_custom_q_must_match_positions(self, tmp_path, capsys, file_q, flags):
        custom = tmp_path / "f.json"
        custom.write_text("[0, 8]")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 4, "k": 6, "puncturing": "custom", "sweep": [3.0],
                                   **file_q}))
        assert run_cli("simulate", "--config", str(cfg), "--custom-file", str(custom), *flags,
                       "--out", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith(
            "error: q must match the number of custom coded positions")
        assert not (tmp_path / "run.json").exists()


class TestCompareCommand:
    def test_joint_csv(self, tmp_path):
        base = dict(n=4, k=6, construction="ga", q=3, decoder="sc",
                    channel="awgn", sweep=[2.0, 4.0], max_frames=150,
                    min_frame_errors=1000, master_seed=2, batch_size=50)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({**base, "puncturing": "qup"}))
        b.write_text(json.dumps({**base, "puncturing": "wqp"}))
        out = tmp_path / "joint"
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(out)) == 0
        lines = (tmp_path / "joint.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep_param,FER_a,BER_a,FER_b,BER_b"
        assert len(lines) == 3
        assert (tmp_path / "joint_a.json").exists()
        assert (tmp_path / "joint_b.json").exists()

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "a.json"
        cfg.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "coffee": True}))
        assert run_cli("compare", "--config-a", str(cfg), "--config-b", str(cfg),
                       "--out", str(tmp_path / "joint")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "coffee" in err

    def test_missing_required_field_named(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "max_frames": 50}))
        b.write_text(json.dumps({"n": 4, "sweep": [2.0], "max_frames": 50}))
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(tmp_path / "joint")) == 1
        assert capsys.readouterr().err == "error: missing required config fields: ['k']\n"
        assert not (tmp_path / "joint.csv").exists()

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("text", ["[1]", "5"])
    def test_config_not_an_object(self, tmp_path, capsys, side, text):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        paths[0].write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "max_frames": 50}))
        paths[1].write_text(paths[0].read_text())
        paths[side].write_text(text)
        assert run_cli("compare", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
                       "--out", str(tmp_path / "joint")) == 1
        assert capsys.readouterr().err.startswith("error: a config must be a JSON object")

    def test_both_configs_validated_before_any_sweep(self, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "max_frames": 50}))
        b.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "coffee": True}))
        started = []
        monkeypatch.setattr(sim, "run_sweep", lambda cfg, workers=1: started.append(cfg))
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(tmp_path / "joint")) == 1
        assert "coffee" in capsys.readouterr().err
        assert started == []

    def test_different_sweeps_rejected_before_any_sweep(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"n": 4, "k": 6, "sweep": [2.0], "max_frames": 50}))
        b.write_text(json.dumps({"n": 4, "k": 6, "sweep": [3.0], "max_frames": 50}))
        started = []
        monkeypatch.setattr(sim, "run_sweep", lambda cfg, workers=1: started.append(cfg))
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(tmp_path / "joint")) == 1
        assert capsys.readouterr().err == (
            "error: the two configs must share the same sweep for a joint report\n")
        assert started == []

    def test_custom_position_outside_block_rejected_before_any_sweep(self, tmp_path, monkeypatch,
                                                                     capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"n": 3, "k": 2, "construction": "bec:0.3", "channel": "bec",
                                 "puncturing": "qup", "q": 1, "sweep": [0.3]}))
        b.write_text(json.dumps({"n": 3, "k": 2, "construction": "bec:0.3", "channel": "bec",
                                 "puncturing": "custom", "q": 1, "custom_coded": [9],
                                 "sweep": [0.3]}))
        started = []
        monkeypatch.setattr(sim, "run_sweep", lambda cfg, workers=1: started.append(cfg))
        assert run_cli("compare", "--config-a", str(a), "--config-b", str(b),
                       "--out", str(tmp_path / "joint")) == 1
        assert "out of range" in capsys.readouterr().err
        assert started == []


class TestJsonOutput:
    # JSON is streamed, never held whole as text; stdout and --out carry the
    # same bytes, the indented text and one newline
    @pytest.mark.parametrize("argv, payload", [
        (("propagate", "--n", "3", "--set", "2,3,4,7"),
         lambda: degrade.propagate([2, 3, 4, 7], 3).to_json_dict()),
        (("puncture", "--n", "5", "--q", "11", "--scheme", "qup"),
         lambda: {"patterns": [puncture.qup_pattern(5, 11).to_json_dict()]}),
    ])
    def test_stdout_and_file_bytes(self, tmp_path, capsys, argv, payload):
        expected = json.dumps(payload(), indent=2) + "\n"
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == expected.encode()

    def test_emit_json_bytes(self, tmp_path):
        # emit writes through the same streaming writer as the commands.
        result = sim.run_sweep(sim.SimConfig(n=4, k=6, construction="bec:0.3", channel="bec",
                                             sweep=(0.3,), max_frames=50))
        sim.emit(result, str(tmp_path / "run"), ("json",))
        expected = json.dumps(result.to_json_dict(), indent=2) + "\n"
        assert (tmp_path / "run.json").read_bytes() == expected.encode()

    def test_stdout_takes_few_writes(self, tmp_path, monkeypatch):
        """Stdout gets the encoder's chunks joined into a few writes, not one per
        token as an unbuffered ``python -u`` stdout would make it, and the
        bytes of the ``--out`` file."""
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Stdout", (), {"write": writes.append})())
        argv = ("puncture", "--n", "12", "--q", "3000", "--scheme", "qup")
        assert run_cli(*argv) == 0
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert "".join(writes).encode() == out.read_bytes()
        chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(json.loads(out.read_text())))
        assert chunks > 20_000
        assert len(writes) <= chunks // 2**12 + 2  # the last, partial write and the newline


class _FullDisk:
    """A file whose every write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        raise OSError("disk full")


class TestAtomicOutputs:
    @pytest.mark.parametrize("command", ["propagate", "compare"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, capsys, command):
        if command == "propagate":
            old = tmp_path / "out.json"
            argv = ["propagate", "--n", "3", "--set", "1", "--out", str(old)]
        else:
            cfg = dict(n=3, k=2, construction="ga", puncturing="none", decoder="sc",
                       channel="awgn", sweep=[2.0], max_frames=20, min_frame_errors=10,
                       master_seed=0, batch_size=20)
            for name in ("a.json", "b.json"):
                (tmp_path / name).write_text(json.dumps(cfg))
            old = tmp_path / "out.csv"
            argv = ["compare", "--config-a", str(tmp_path / "a.json"),
                    "--config-b", str(tmp_path / "b.json"), "--out", str(tmp_path / "out")]
        old.write_text("earlier result\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr("builtins.open", failing_open)
        assert run_cli(*argv) == 1
        monkeypatch.undo()
        assert "disk full" in capsys.readouterr().err
        assert old.read_text() == "earlier result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


def _choices(command: str, flag: str) -> tuple:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
    return tuple(action.choices)


@pytest.mark.parametrize("command, flag, names", [
    ("puncture", "--scheme", puncture.SCHEMES),
    ("simulate", "--puncture", ("none", *puncture.SCHEMES)),
    ("simulate", "--decoder", sim.DECODERS),
    ("simulate", "--channel", channel.KINDS),
    ("construct", "--crc", construct.CRC_WIDTHS),
    ("puncture", "--crc", construct.CRC_WIDTHS),
    ("simulate", "--crc", construct.CRC_WIDTHS),
])
def test_choices_come_from_the_library(command, flag, names):
    assert _choices(command, flag) == names


def test_simulate_dests_are_config_fields():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    simulate = sub.choices["simulate"]
    dests = {a.dest for a in simulate._actions if a.dest != "help"} | set(simulate._defaults)
    fields = {f.name for f in dataclasses.fields(sim.SimConfig)}
    assert dests - fields == {"config", "custom_file", "workers", "out", "format", "func"}


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "polarpunct", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "polar-punct" in proc.stdout

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

"""Tests for the command-line interface: exit codes, CSV determinism, config
validation, and round trips through the explicit-chain mode."""

import csv
import io
import json
import re
import warnings

import numpy as np
import pytest

from helpers import CONFIG_DIR, QR24_BOX
from xychain import qracah
from xychain.chain import validate_draw
from xychain.cli import main

QR24_CONFIG = {
    "family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4,
}
QR13_CONFIG = {
    "family": "qr13", "a": 4.21, "b": 6.28, "c": -0.54, "q": 0.7, "N": 4,
}
XX_CONFIG = {
    "family": "explicit", "N": 2,
    "alpha": [1.0, 1.0], "beta": [0.5, 0.5, 0.5], "gamma": [0.0, 0.0],
}
SCAN_CONFIG = {
    "family": "qr24", "N": 3,
    "ranges": {"a": [-0.9, -0.05], "b": [0.05, 0.9], "c": [-0.95, -0.1], "q": [0.3, 0.5, 0.7]},
    "samples": 60, "level": "full", "seed": 3,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    """Split a CLI CSV into (comment lines, list of row dicts)."""
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return comments, rows


class TestHeadersAndDeterminism:
    def test_header_identifies_tool_and_config(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["spectrum", "--config", path]) == 0
        comments, rows = parse_csv(capsys.readouterr().out)
        assert comments[0].startswith("# xychain 0.1.0")
        assert re.fullmatch(r"# config sha256 [0-9a-f]{16}", comments[1])
        assert len(rows) == 5

    def test_no_timestamps_in_output(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        main(["spectrum", "--config", path])
        out = capsys.readouterr().out
        assert not re.search(r"\d{4}-\d{2}-\d{2}", out)

    @pytest.mark.parametrize("command", ["spectrum", "chain-coeffs", "manybody"])
    def test_byte_identical_reruns(self, tmp_path, command):
        path = write_config(tmp_path, QR24_CONFIG)
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main([command, "--config", path, "--out", out_a]) == 0
        assert main([command, "--config", path, "--out", out_b]) == 0
        bytes_a = (tmp_path / "a.csv").read_bytes()
        assert bytes_a == (tmp_path / "b.csv").read_bytes()
        assert bytes_a.endswith(b"\n") and b"\r" not in bytes_a

    def test_scan_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, SCAN_CONFIG)
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["scan", "--config", path, "--out", out_a]) == 0
        assert main(["scan", "--config", path, "--out", out_b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_hash_tracks_content(self, tmp_path, capsys):
        first = write_config(tmp_path, QR24_CONFIG, "one.json")
        changed = dict(QR24_CONFIG, q=0.5)
        second = write_config(tmp_path, changed, "two.json")
        main(["chain-coeffs", "--config", first])
        hash_one = capsys.readouterr().out.splitlines()[1]
        main(["chain-coeffs", "--config", second])
        hash_two = capsys.readouterr().out.splitlines()[1]
        assert hash_one != hash_two


class TestSpectrum:
    def test_family_mode_gaps_tiny(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["spectrum", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            assert float(row["rel_gap"]) < 1e-12
            assert float(row["lambda_analytic"]) == pytest.approx(
                float(row["lambda_numeric"]), rel=1e-12
            )

    def test_explicit_mode_leaves_analytic_blank(self, tmp_path, capsys):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["spectrum", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            assert row["lambda_analytic"] == ""
            assert row["rel_gap"] == ""
            assert float(row["lambda_numeric"]) >= 0

    def test_impossible_tolerance_fails(self, tmp_path):
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["spectrum", "--config", path, "--tol", "1e-30"]) == 4

    def test_round_trip_through_explicit_chain(self, tmp_path, capsys):
        # chain-coeffs output re-entered as an explicit config must reproduce
        # the numeric spectrum exactly (repr floats round-trip).
        path = write_config(tmp_path, QR24_CONFIG)
        main(["chain-coeffs", "--config", path])
        _, coeff_rows = parse_csv(capsys.readouterr().out)
        explicit = {
            "family": "explicit",
            "N": len(coeff_rows) - 1,
            "alpha": [float(r["alpha"]) for r in coeff_rows if r["alpha"] != ""],
            "beta": [float(r["beta"]) for r in coeff_rows],
            "gamma": [float(r["gamma"]) for r in coeff_rows if r["gamma"] != ""],
        }
        explicit_path = write_config(tmp_path, explicit, "explicit.json")
        main(["spectrum", "--config", explicit_path])
        _, explicit_rows = parse_csv(capsys.readouterr().out)
        main(["spectrum", "--config", path])
        _, family_rows = parse_csv(capsys.readouterr().out)
        numeric_explicit = sorted(float(r["lambda_numeric"]) for r in explicit_rows)
        numeric_family = sorted(float(r["lambda_numeric"]) for r in family_rows)
        np.testing.assert_allclose(numeric_explicit, numeric_family, rtol=1e-12)


class TestChainCoeffs:
    def test_last_row_has_no_bond_couplings(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["chain-coeffs", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert rows[-1]["alpha"] == "" and rows[-1]["gamma"] == ""
        assert float(rows[-1]["beta"]) > 0

    def test_xx_reduction_note(self, tmp_path, capsys):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["chain-coeffs", "--config", path]) == 0
        comments, _ = parse_csv(capsys.readouterr().out)
        assert any("XX reduction" in c for c in comments)


class TestVerify:
    def test_reference_point_all_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "many-body-multiset" in out

    def test_first_family_chain_fails_honestly(self, tmp_path, capsys):
        path = write_config(tmp_path, QR13_CONFIG)
        assert main(["verify", "--config", path]) == 4
        out = capsys.readouterr().out
        assert "analytic-vs-numeric" in out and "FAIL" in out
        # The chain itself is genuine: its spin oracle still passes.
        assert re.search(r"many-body-multiset.*PASS", out)

    def test_json_report(self, tmp_path):
        path = write_config(tmp_path, QR24_CONFIG)
        out_path = str(tmp_path / "report.json")
        assert main(["verify", "--config", path, "--out", out_path]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["tool"] == "xychain 0.1.0"
        assert payload["overall"] == "PASS"
        verdicts = {c["name"]: c["verdict"] for c in payload["checks"]}
        assert verdicts["relation-plus"] == "PASS"
        assert verdicts["many-body-multiset"] == "PASS"

    def test_csv_report(self, tmp_path):
        path = write_config(tmp_path, QR24_CONFIG)
        out_path = str(tmp_path / "report.csv")
        assert main(["verify", "--config", path, "--out", out_path]) == 0
        comments, rows = parse_csv((tmp_path / "report.csv").read_text())
        assert comments[0].startswith("# xychain")
        assert {row["verdict"] for row in rows} == {"PASS"}

    def test_explicit_chain_verification(self, tmp_path, capsys):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "xx-reduction" in out
        assert "spectrum-parity" in out

    def test_family_override_applies_before_validation(self, tmp_path):
        # Overriding an explicit config to a q-Racah family makes the array
        # fields unknown, which must be a config error (exit 2).
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["verify", "--config", path, "--family", "qr24"]) == 2

    def test_family_override_degrades_gracefully(self, tmp_path, capsys):
        # The reference parameters are contiguity-valid under the first
        # family but give no real chain; verify reports what it can check and
        # discloses the rest.
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["verify", "--config", path, "--family", "qr13"]) == 0
        out = capsys.readouterr().out
        assert "chain construction unavailable" in out


class TestManybody:
    def test_levels_sorted_and_complete(self, tmp_path, capsys):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["manybody", "--config", path]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 8
        energies = [float(r["energy"]) for r in rows]
        assert energies == sorted(energies)
        assert sorted(int(r["mask"]) for r in rows) == list(range(8))

    def test_mode_cap_is_config_error(self, tmp_path):
        over_cap = {
            "family": "explicit", "N": 24,
            "alpha": [0.1] * 24, "beta": [1.0] * 25, "gamma": [0.0] * 24,
        }
        path = write_config(tmp_path, over_cap)
        assert main(["manybody", "--config", path]) == 2


class TestScan:
    def test_scan_reports_parameters_in_ranges(self, tmp_path, capsys):
        path = write_config(tmp_path, SCAN_CONFIG)
        assert main(["scan", "--config", path]) == 0
        comments, rows = parse_csv(capsys.readouterr().out)
        assert any("seed 3" in c for c in comments)
        assert rows
        box = SCAN_CONFIG["ranges"]
        for row in rows:
            assert box["a"][0] <= float(row["a"]) <= box["a"][1]
            assert float(row["q"]) in set(box["q"])
            assert int(row["N"]) == 3

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = write_config(tmp_path, SCAN_CONFIG)
        main(["scan", "--config", path, "--seed", "99"])
        out_override = capsys.readouterr().out
        main(["scan", "--config", path])
        out_default = capsys.readouterr().out
        assert "# seed 99" in out_override
        assert out_override != out_default
        # the header hashes the config file, not the override
        assert out_override.splitlines()[1] == out_default.splitlines()[1]

    def test_config_tolerances_govern_the_scan(self, tmp_path, capsys):
        # 27 of these 50 draws pass the default relation tolerance; none
        # reaches a relative residual of 1e-30
        config = {
            "family": "qr24", "N": 4, "ranges": QR24_BOX, "samples": 50, "level": "full",
            "seed": 7, "tolerances": {"relation": 1e-30},
        }
        path = write_config(tmp_path, config)
        assert main(["scan", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error: no full-valid draws")
        del config["tolerances"]
        assert main(["scan", "--config", write_config(tmp_path, config, "default.json")]) == 0
        assert "# valid 27" in capsys.readouterr().out

    def test_first_family_full_scan_exits_regime(self, tmp_path):
        impossible = {
            "family": "qr13", "N": 3,
            "ranges": {"a": [1.5, 9.0], "b": [1.5, 9.0], "c": [-0.9, -0.1], "q": [0.5]},
            "samples": 40, "level": "full",
        }
        path = write_config(tmp_path, impossible)
        assert main(["scan", "--config", path]) == 3

    def test_scan_rejects_explicit_family(self, tmp_path):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["scan", "--config", path]) == 2


class TestConfigErrors:
    def test_unknown_field(self, tmp_path):
        path = write_config(tmp_path, dict(QR24_CONFIG, bogus=1))
        assert main(["spectrum", "--config", path]) == 2

    def test_missing_field(self, tmp_path):
        broken = dict(QR24_CONFIG)
        del broken["c"]
        path = write_config(tmp_path, broken)
        assert main(["spectrum", "--config", path]) == 2

    def test_wrong_array_length(self, tmp_path):
        path = write_config(tmp_path, dict(XX_CONFIG, alpha=[1.0]))
        assert main(["spectrum", "--config", path]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_file(self):
        assert main(["spectrum", "--config", "/nonexistent/config.json"]) == 2

    def test_unknown_tolerance_name(self, tmp_path):
        path = write_config(tmp_path, dict(QR24_CONFIG, tolerances={"wibble": 1e-5}))
        assert main(["verify", "--config", path]) == 2

    def test_note_field_allowed(self, tmp_path):
        path = write_config(tmp_path, dict(QR24_CONFIG, note="hello"))
        assert main(["spectrum", "--config", path]) == 0

    @pytest.mark.parametrize("key", ["a", "b", "c", "q"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_parameter(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, dict(QR24_CONFIG, **{key: value}))
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_finite_explicit_coupling(self, tmp_path, capsys):
        explicit = {
            "family": "explicit", "N": 1,
            "alpha": [float("nan")], "beta": [1.0, 1.0], "gamma": [0.0],
        }
        path = write_config(tmp_path, explicit)
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_tolerance(self, tmp_path):
        path = write_config(tmp_path, dict(QR24_CONFIG, tolerances={"relation": float("nan")}))
        assert main(["verify", "--config", path]) == 2

    def test_non_finite_scan_range(self, tmp_path):
        ranges = dict(SCAN_CONFIG["ranges"], b=[0.05, float("nan")])
        path = write_config(tmp_path, dict(SCAN_CONFIG, ranges=ranges))
        assert main(["scan", "--config", path]) == 2

    def test_inverted_scan_range(self, tmp_path, capsys):
        ranges = dict(SCAN_CONFIG["ranges"], a=[-0.1, -0.9])
        path = write_config(tmp_path, dict(SCAN_CONFIG, ranges=ranges))
        assert main(["scan", "--config", path]) == 2
        assert "hi < lo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, override",
        [
            ("scan", "qr24_scan.json", "--seed=-1"),
            ("verify", "qr24_default.json", "--tol=nan"),
            ("verify", "qr24_default.json", "--tol=inf"),
            ("spectrum", "qr24_default.json", "--tol=-1"),
            ("spectrum", "qr24_default.json", "--tol=0"),
        ],
    )
    def test_invalid_override(self, capsys, command, config, override):
        assert main([command, "--config", str(CONFIG_DIR / config), override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + override.split("=")[0]) and err.count("\n") == 1


class TestRegimeErrors:
    def test_invalid_q_exits_three(self, tmp_path):
        path = write_config(tmp_path, dict(QR24_CONFIG, q=1.5))
        assert main(["spectrum", "--config", path]) == 3

    def test_negative_radicand_exits_three(self, tmp_path):
        bad = {"family": "qr24", "a": 0.5, "b": 0.3, "c": 0.8, "q": 0.7, "N": 4}
        path = write_config(tmp_path, bad)
        assert main(["spectrum", "--config", path]) == 3

    def test_exact_denominator_zero_exits_three(self, tmp_path):
        bad = {"family": "qr24", "a": 2.0, "b": 0.5, "c": 0.3, "q": 0.7, "N": 4}
        path = write_config(tmp_path, bad)
        assert main(["chain-coeffs", "--config", path]) == 3

    @pytest.mark.parametrize(
        "command, change",
        [
            ("spectrum", {"q": 5e-324}),  # q**2 underflows to zero in the shift map
            ("verify", {"q": 1e-200}),  # grid values overflow a float
            ("chain-coeffs", {"c": 1e308}),  # coefficient tables overflow
            ("scan", {"a": [-1e308, 1e308]}),  # range width overflows
        ],
    )
    def test_float_overflow_exits_three(self, tmp_path, capsys, command, change):
        if command == "scan":
            config = dict(SCAN_CONFIG, ranges=dict(SCAN_CONFIG["ranges"], **change))
        else:
            config = dict(QR24_CONFIG, **change)
        path = write_config(tmp_path, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not caught  # a warning would print more stderr lines


class TestArgparseSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "xychain 0.1.0" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_invalid_family_choice_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, QR24_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "--config", path, "--family", "qr99"])
        assert excinfo.value.code == 2


class TestGridWork:
    """The exact polynomial grids are built only where a check reads them."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        calls = []
        exact = qracah.phi43_terminating_exact

        def counting(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(qracah, "phi43_terminating_exact", counting)
        return calls

    @pytest.mark.parametrize("command", ["chain-coeffs", "spectrum", "manybody"])
    def test_exports_evaluate_no_series(self, tmp_path, series_calls, command):
        config = str(CONFIG_DIR / "qr24_default.json")
        assert main([command, "--config", config, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(series_calls) == 0

    def test_verify_builds_one_grid_pair(self, tmp_path, series_calls):
        config = CONFIG_DIR / "qr24_default.json"
        n = json.loads(config.read_text())["N"]
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 0
        assert len(series_calls) == 2 * (n + 1) ** 2

    def test_radicand_rejected_draw_evaluates_no_series(self, series_calls):
        params = qracah.QRacahParams(a=0.5, b=0.3, c=0.8, N=4, q=0.7)
        valid, reason = validate_draw("qr24", params, level="couplings")
        assert not valid
        assert reason.startswith("negative radicand")
        assert len(series_calls) == 0

"""Tests for the command-line interface: exit codes, CSV determinism, config
validation, and round trips through the explicit-chain mode."""

import contextlib
import csv
import io
import json
import re
import warnings

import numpy as np
import pytest

from helpers import CONFIG_DIR, QR13_BOX, QR24_BOX, bind_everywhere
from test_killers import NEAR_ZERO_MODE
from xychain import chain, cli, qracah, qseries
from xychain.chain import parameter_scan, validate_draw
from xychain.cli import main
from xychain.errors import ConfigError, XYChainError
from xychain.freefermion import assemble, eigendecompose, many_body_spectrum
from xychain.report import TOLERANCES

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
#: The verify rows whose tolerance each ``"tolerances"`` name sets.  ``angle``
#: sets every eigenvector row, a single mode ``P-modes-i`` and a degenerate
#: cluster ``P-modes-i..j`` alike.
TOLERANCE_ROWS = {
    "relation": lambda row: row in ("relation-plus", "relation-minus"),
    "constraint": lambda row: row == "constraint-ratio",
    "spectrum": lambda row: row in ("analytic-vs-numeric", "xx-reduction"),
    "svd": lambda row: row == "spectrum-vs-singular-values",
    "recurrence": lambda row: row in ("recurrence-P", "recurrence-Q"),
    "angle": lambda row: re.fullmatch(r"[PQ]-modes-\d+(\.\.\d+)?", row) is not None,
    "match": lambda row: row == "eigenvalue-matching",
    "jw": lambda row: row == "many-body-multiset",
    "parity": lambda row: row == "spectrum-parity",
    "orthogonality": lambda row: row == "transition-orthogonality",
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

    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-30"]], ids=["default", "tol=1e-30"])
    @pytest.mark.parametrize("name", ["qr13_chain.json", "qr24_default.json", "near-zero-mode"])
    def test_largest_gap_is_the_verify_residual(self, tmp_path, capsys, name, tol):
        # one rule for both commands: the largest rel_gap is verify's
        # analytic-vs-numeric residual bit for bit, and spectrum exits 4
        # exactly when verify fails that row; the near-zero-mode point's
        # Lambda spans 1.4e-9 to 2000, so a per-mode scale would show
        path = (write_config(tmp_path, NEAR_ZERO_MODE) if name == "near-zero-mode"
                else str(CONFIG_DIR / name))
        report = tmp_path / "report.json"
        main(["verify", "--config", path, "--out", str(report), *tol])
        row = next(check for check in json.loads(report.read_text())["checks"]
                   if check["name"] == "analytic-vs-numeric")
        code = main(["spectrum", "--config", path, *tol])
        _, rows = parse_csv(capsys.readouterr().out)
        assert max(float(r["rel_gap"]) for r in rows).hex() == row["residual"].hex()
        assert code == {"PASS": 0, "FAIL": 4}[row["verdict"]]

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
        params = {k: v for k, v in QR24_CONFIG.items() if k != "family"}
        built = chain.build_chain(
            qracah.contiguity_coefficients("qr24", qracah.QRacahParams(**params))
        )
        assert [float(r["alpha"]) for r in rows[:-1]] == built.alpha.tolist()
        assert [float(r["beta"]) for r in rows] == built.beta.tolist()
        assert [float(r["gamma"]) for r in rows[:-1]] == built.gamma.tolist()

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

    def test_first_family_chain_certifies(self, tmp_path):
        path = write_config(tmp_path, QR13_CONFIG)
        out_path = str(tmp_path / "report.csv")
        assert main(["verify", "--config", path, "--out", out_path]) == 0
        _, rows = parse_csv((tmp_path / "report.csv").read_text())
        verdicts = {row["name"]: row["verdict"] for row in rows}
        assert {"analytic-vs-numeric", "recurrence-P", "recurrence-Q",
                "many-body-multiset"} <= set(verdicts)
        assert set(verdicts.values()) == {"PASS"}

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_first_family_box_certifies(self, tmp_path, N):
        # Every couplings-valid draw of the qr13 box gets the full verify
        # report (spectrum, P/Q recurrences, eigenvectors, spin oracle) and
        # passes it.
        draws = parameter_scan("qr13", QR13_BOX, N=N, samples=100, seed=N, level="couplings")
        assert len(draws) >= 10
        out_path = str(tmp_path / "report.json")
        for params in draws:
            config = dict(family="qr13", a=params.a, b=params.b, c=params.c, q=params.q, N=N)
            path = write_config(tmp_path, config)
            assert main(["verify", "--config", path, "--out", out_path]) == 0, config
            payload = json.loads((tmp_path / "report.json").read_text())
            names = {c["name"] for c in payload["checks"]}
            assert {"analytic-vs-numeric", "recurrence-P", "recurrence-Q",
                    "eigenvalue-matching", "many-body-multiset"} <= names, config
            assert {c["verdict"] for c in payload["checks"]} == {"PASS"}, config

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

    @pytest.mark.parametrize("sites", [6, 9])
    def test_uniform_xx_chain_writes_nothing_to_stderr(self, tmp_path, capsys, sites):
        # The spin oracle's bisection meets pivots below pivmin on these
        # sectors and reruns those steps guarded; no warning escapes.
        bonds = sites - 1
        path = write_config(tmp_path, {"family": "explicit", "N": bonds, "alpha": [1.0] * bonds,
                                       "beta": [0.0] * sites, "gamma": [0.0] * bonds})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        assert not caught

    def test_explicit_chain_verification(self, tmp_path, capsys):
        path = write_config(tmp_path, XX_CONFIG)
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "xx-reduction" in out
        assert "spectrum-parity" in out

    def test_each_tolerance_sets_exactly_its_rows(self, tmp_path):
        # The override is read on the tolerance column, not on the exit code:
        # a check can still pass at 1e-300 (an exact zero residual).
        assert set(TOLERANCE_ROWS) == set(TOLERANCES)
        out_path = str(tmp_path / "report.csv")

        def tolerance_column(config):
            main(["verify", "--config", write_config(tmp_path, config), "--out", out_path])
            _, rows = parse_csv((tmp_path / "report.csv").read_text())
            return {row["name"]: row["tolerance"] for row in rows}

        bound = set()
        for name in ("qr24_default.json", "qr13_chain.json", "xx_uniform.json"):
            config = json.loads((CONFIG_DIR / name).read_text())
            default = tolerance_column(config)
            for key, owns in TOLERANCE_ROWS.items():
                tight = tolerance_column(dict(config, tolerances={key: 1e-300}))
                assert tight.keys() == default.keys(), (name, key)
                changed = {row for row in default if tight[row] != default[row]}
                assert changed == set(filter(owns, default)), (name, key)
                assert {tight[row] for row in changed} <= {"1e-300"}, (name, key)
                if changed:
                    bound.add(key)
        assert bound == set(TOLERANCES)

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
        couplings = {k: XX_CONFIG[k] for k in ("alpha", "beta", "gamma")}
        spectral = eigendecompose(assemble(chain.ChainSpec(**couplings)))
        expected = many_body_spectrum(spectral.lambda_numeric)
        assert [int(r["mask"]) for r in rows] == expected.masks.tolist()
        assert energies == expected.energies.tolist()

    @staticmethod
    def _random_chain(rng, sites, scale):
        N = sites - 1
        return {
            "family": "explicit", "N": N,
            "alpha": (scale * rng.uniform(0.5, 1.5, N)).tolist(),
            "beta": (scale * rng.uniform(-1.0, 1.0, sites)).tolist(),
            "gamma": (scale * rng.uniform(-0.5, 0.5, N)).tolist(),
        }

    # 17 sites give 2^17 levels, more than one write block; couplings near
    # 1e-7 give energies whose repr uses exponent notation; all-zero couplings
    # give -0.0 energies; a uniform 14-site XX chain (alpha = 1, beta = 0.5)
    # has merged tie runs that cross write-block boundaries.
    @pytest.mark.parametrize("sites, scale", [
        (17, 1.0), (6, 1e-7),
        pytest.param(4, 0.0, id="all-zero"), pytest.param(14, None, id="uniform-xx"),
    ])
    def test_rows_are_the_csv_writer_bytes(self, tmp_path, capsys, rng, sites, scale):
        if scale is None:
            config = {"family": "explicit", "N": sites - 1, "alpha": [1.0] * (sites - 1),
                      "beta": [0.5] * sites, "gamma": [0.0] * (sites - 1)}
        else:
            config = self._random_chain(rng, sites, scale)
        path = write_config(tmp_path, config)
        out = tmp_path / "levels.csv"
        assert main(["manybody", "--config", path, "--out", str(out)]) == 0
        written = out.read_bytes()
        assert main(["manybody", "--config", path]) == 0
        assert capsys.readouterr().out.encode() == written

        couplings = {k: config[k] for k in ("alpha", "beta", "gamma")}
        spectral = eigendecompose(assemble(chain.ChainSpec(**couplings)))
        levels = many_body_spectrum(spectral.lambda_numeric)
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(("mask", "energy"))
        writer.writerows(zip(levels.masks.tolist(), levels.energies.tolist()))
        *comments, body = written.decode().split("\n", 2)
        assert all(line.startswith("# ") for line in comments)
        assert body == reference.getvalue()
        if sites == 17:
            assert levels.energies.size > cli._MANYBODY_BLOCK
        elif scale is None:
            # one run of equal energies, masks ascending, on both sides of a
            # block boundary
            starts = np.arange(cli._MANYBODY_BLOCK, levels.energies.size, cli._MANYBODY_BLOCK)
            energies, masks = levels.energies, levels.masks
            crossing = (energies[starts - 1] == energies[starts]) & (masks[starts - 1] < masks[starts])
            assert crossing.any()
        elif scale == 0.0:
            assert re.search(r",-0\.0\n", body)
        else:
            assert re.search(r"e-0\d\n", body)

    def test_rows_stream_in_blocks(self, tmp_path, monkeypatch, rng):
        class Recorder:
            def __init__(self, handle):
                self.handle, self.writes = handle, []

            def write(self, text):
                self.writes.append(text)
                return self.handle.write(text)

        recorders = []
        open_out = cli._open_out

        @contextlib.contextmanager
        def recording_open_out(path):
            with open_out(path) as handle:
                recorders.append(Recorder(handle))
                yield recorders[-1]

        monkeypatch.setattr(cli, "_open_out", recording_open_out)
        path = write_config(tmp_path, self._random_chain(rng, 14, 1.0))
        out = tmp_path / "levels.csv"
        assert main(["manybody", "--config", path, "--out", str(out)]) == 0
        (recorder,) = recorders
        rows = [text.count("\n") for text in recorder.writes]
        assert sum(rows) == 3 + (1 << 14)  # two comment lines, the header, the levels
        assert max(rows) <= cli._MANYBODY_BLOCK < (1 << 14)
        assert "".join(recorder.writes) == out.read_text()

    def test_mode_cap_is_config_error(self, tmp_path):
        over_cap = {
            "family": "explicit", "N": 24,
            "alpha": [0.1] * 24, "beta": [1.0] * 25, "gamma": [0.0] * 24,
        }
        path = write_config(tmp_path, over_cap)
        assert main(["manybody", "--config", path]) == 2


class TestScan:
    # Boxes with degenerate draws, each of which once ended the whole scan or
    # kept a draw that verify fails: (config, exit code, rows, q values kept).
    DEGENERATE_BOXES = (
        # c = -1e100 makes the constraint-ratio denominator vanish
        ({"family": "qr24", "N": 1, "samples": 20, "level": "couplings",
          "ranges": {"a": [-1e100, -0.3, -0.3, -0.3], "b": [0.3],
                     "c": [-1e100, -0.8, -0.8], "q": [0.3]}}, 0, 15, {0.3}),
        # q = 1e-6 overflows a float in the exact grids; q = 0.5 is valid
        ({"family": "qr13", "N": 12, "samples": 20, "level": "contiguity", "seed": 1,
          "ranges": {"a": [-0.3], "b": [0.3], "c": [-0.8], "q": [1e-6, 0.5, 0.5]}},
         0, 12, {0.5}),
        # the relation-minus residual of the box's one point is NaN
        ({"family": "qr13", "N": 8, "samples": 3, "level": "contiguity",
          "ranges": {"a": [-5.0], "b": [-5.0], "c": [-1e100], "q": [1e-6]}}, 3, 0, set()),
    )

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
        for config, code, kept, qs in self.DEGENERATE_BOXES:
            assert main(["scan", "--config", write_config(tmp_path, config)]) == code
            captured = capsys.readouterr()
            _, rows = parse_csv(captured.out)
            assert len(rows) == kept and {float(row["q"]) for row in rows} == qs
            for row in rows:
                assert all(float(row[k]) in choices for k, choices in config["ranges"].items())
            if code == 3:
                assert captured.err.startswith(f"error: no {config['level']}-valid draws")

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

    def test_unknown_tolerance_name(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(QR24_CONFIG, tolerances={"wibble": 1e-5}))
        assert main(["verify", "--config", path]) == 2
        # the message lists the valid names, so a config that names a retired
        # tolerance learns the current ones
        err = capsys.readouterr().err
        assert err.startswith("error: unknown tolerance names: ['wibble']; valid: [")
        assert err.count("\n") == 1
        assert all(f"'{name}'" in err for name in TOLERANCES)

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

    def test_scan_range_width_not_finite(self, tmp_path, capsys):
        ranges = dict(SCAN_CONFIG["ranges"], a=[-1e308, 1e308])
        path = write_config(tmp_path, dict(SCAN_CONFIG, ranges=ranges))
        assert main(["scan", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ranges['a']") and err.count("\n") == 1
        assert "not a finite float" in err

    @pytest.mark.parametrize("command, config", [
        ("verify", dict(XX_CONFIG, alpha=[True, 1.0])),
        ("verify", dict(XX_CONFIG, tolerances={"svd": "1e-8"})),
        ("scan", dict(SCAN_CONFIG, ranges=dict(SCAN_CONFIG["ranges"], q=[0.3, "0.5"]))),
    ], ids=["bool-coupling", "string-tolerance", "string-range-entry"])
    def test_non_number_entry(self, tmp_path, capsys, command, config):
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_scan_range_key(self, tmp_path, capsys):
        ranges = dict(SCAN_CONFIG["ranges"], d=[0.1, 0.2])
        path = write_config(tmp_path, dict(SCAN_CONFIG, ranges=ranges))
        assert main(["scan", "--config", path]) == 2
        assert "has unknown keys: ['d']" in capsys.readouterr().err

    def test_unknown_scan_level(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SCAN_CONFIG, level="everything"))
        assert main(["scan", "--config", path]) == 2
        assert "'level' must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"ranges": {"a": [-0.9, -0.05], "b": [0.05, 0.9], "c": [-0.95, -0.1]}},
        {"ranges": dict(SCAN_CONFIG["ranges"], d=[0.1, 0.2])},
        {"ranges": dict(SCAN_CONFIG["ranges"], a=[[-0.9, -0.05]])},
        {"ranges": dict(SCAN_CONFIG["ranges"], a={"lo": -0.9, "hi": -0.05})},
        {"ranges": dict(SCAN_CONFIG["ranges"], q=["0.3", "0.5"])},
        {"ranges": dict(SCAN_CONFIG["ranges"], b=0.5)},
        {"ranges": dict(SCAN_CONFIG["ranges"], c=[])},
        {"ranges": dict(SCAN_CONFIG["ranges"], q=[0.5, 10**400])},
        {"ranges": dict(SCAN_CONFIG["ranges"], b=[0.05, float("nan")])},
        {"ranges": dict(SCAN_CONFIG["ranges"], a=[-0.1, -0.9])},
        {"ranges": dict(SCAN_CONFIG["ranges"], a=[-1e308, 1e308])},
        {"samples": 0},
        {"level": "everything"},
    ], ids=[
        "missing-key", "unknown-key", "nested-list", "mapping", "string-entries", "scalar",
        "empty", "huge-int-entry", "nan-entry", "inverted", "width", "no-samples", "level",
    ])
    def test_scan_reports_the_library_error(self, tmp_path, capsys, change):
        # one source for the box rules: scan writes parameter_scan's message
        config = dict(SCAN_CONFIG, **change)
        with pytest.raises(ConfigError) as caught:
            parameter_scan(
                config["family"], config["ranges"], config["N"], config["samples"],
                level=config["level"],
            )
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_non_string_note(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(QR24_CONFIG, note=7))
        assert main(["spectrum", "--config", path]) == 2
        assert "'note' must be a string" in capsys.readouterr().err

    def test_out_in_missing_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, QR24_CONFIG)
        out = tmp_path / "missing" / "out.csv"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.parent.exists()

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
        ],
    )
    def test_float_overflow_exits_three(self, tmp_path, capsys, command, change):
        path = write_config(tmp_path, dict(QR24_CONFIG, **change))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not caught  # a warning would print more stderr lines

    def test_float_failure_names_the_parameter_point(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(QR24_CONFIG, q=5e-324))
        assert main(["spectrum", "--config", path]) == 3
        assert capsys.readouterr().err == (
            "error: float arithmetic failed at this parameter point: "
            "float division by zero\n"
        )

    # Extreme qr24 points, each of which once ended in a traceback.
    EXTREME_POINTS = {
        # a negative P/Q normalization radicand in a row other than the first
        "pq-radicand-column": {"a": 1.0000001, "b": 0.3, "c": 5.0, "q": 0.7, "N": 1},
        "pq-radicand-row": {"a": -0.3, "b": -0.3, "c": 0.999999999, "q": 0.9999999999, "N": 3},
        # coupling radicands overflow to inf
        "coupling-overflow": {"a": 1e-200, "b": 1e-200, "c": 0.3, "q": 0.9999999999, "N": 1},
        # the closed-form spectrum deviates from the eigenvalue-product route
        "spectrum-crosscheck": {"a": 1e-160, "b": 1e-160, "c": 1e-160, "q": 0.9999999999, "N": 1},
        # the smallest Lambda (1.4e-9) is 7e-13 of the largest but not zero
        "near-zero-mode": {"a": 0.5, "b": -0.5, "c": 0.0, "q": 1e-06, "N": 4},
    }

    @pytest.mark.parametrize("point", sorted(EXTREME_POINTS))
    def test_extreme_point_ends_in_a_documented_exit(self, tmp_path, capsys, point):
        path = write_config(tmp_path, dict(self.EXTREME_POINTS[point], family="qr24"))
        for command in ("spectrum", "chain-coeffs", "manybody", "verify"):
            code = main([command, "--config", path, "--out", str(tmp_path / "out.csv")])
            assert code in (0, 2, 3, 4)
            err = capsys.readouterr().err
            if code in (2, 3):
                assert err.startswith("error:") and err.count("\n") == 1

    def test_any_domain_error_exits_three(self, tmp_path, capsys, monkeypatch):
        class NewDomainError(XYChainError):
            pass

        def raise_new(*args, **kwargs):
            raise NewDomainError("a domain error the CLI has never seen")

        monkeypatch.setattr(cli, "build_chain", raise_new)
        path = write_config(tmp_path, QR24_CONFIG)
        assert main(["chain-coeffs", "--config", path]) == 3
        assert capsys.readouterr().err == (
            "error: a domain error the CLI has never seen\n"
        )

    def test_near_zero_mode_certifies_the_single_particle_solve(self, tmp_path):
        # Jacobi on the doubled matrix cannot separate the vectors of
        # +-Lambda_0 = +-1.4e-9, and the Gram matrix of A + B squares it
        # away: both rows failed here until the SVD became the solver.
        path = write_config(tmp_path, dict(self.EXTREME_POINTS["near-zero-mode"], family="qr24"))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", path, "--out", str(out)]) == 4
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("transition-orthogonality", "spectrum-vs-singular-values"):
            assert checks[name]["verdict"] == "PASS"
            assert checks[name]["residual"] < 1e-14

    @pytest.mark.parametrize(
        "point, entry",
        [("pq-radicand-column", "[0, 1]"), ("pq-radicand-row", "[1, 0]")],
        ids=["pq-radicand-column", "pq-radicand-row"],
    )
    def test_negative_pq_radicand_is_a_note(self, tmp_path, point, entry):
        path = write_config(tmp_path, dict(self.EXTREME_POINTS[point], family="qr24"))
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", path, "--out", str(out)]) in (0, 4)
        assert (
            f"# note: P/Q tables unavailable: radicand P normalization{entry} = "
            in out.read_text()
        )


class TestFloatRange:
    """Explicit chains of finite couplings near the top of the float range:
    a spectrum or many-body energy beyond it exits 3 with one error line,
    and a chain whose values fit certifies."""

    CHAINS = {
        # two bonds at 8e307: every value fits, but many-body -sum(Lambda)
        # does not
        "z3": ({"N": 9, "alpha": [8e307, 8e307] + [1.0] * 7, "beta": [0.0] * 10,
                "gamma": [0.0] * 9}, {"spectrum": 0, "manybody": 3, "verify": 0}),
        # singular values up to 2e308
        "z2": ({"N": 9, "alpha": [1e308] * 9, "beta": [0.0] * 10, "gamma": [0.0] * 9},
               {"spectrum": 3, "manybody": 3, "verify": 3}),
        # Lambda = 0, 1.4e308, 1.4e308 fit; their sum and the spin
        # Hamiltonian's bond amplitudes 2e308 do not
        "e1": ({"N": 2, "alpha": [1e308, 1e308], "beta": [0.0] * 3, "gamma": [0.0] * 2},
               {"spectrum": 0, "manybody": 3, "verify": 3}),
        # energies +-1e308 fit, but -sum(Lambda) + 2 Lambda_1 overflows on the way
        "e4": ({"N": 1, "alpha": [0.0], "beta": [1e308, 0.0], "gamma": [0.0]},
               {"spectrum": 0, "manybody": 3, "verify": 3}),
        # A + B holds 1e308 + 1e308 = inf, which no solver may take for a
        # matrix entry
        "xy-overflow": ({"N": 2, "alpha": [1e308, 1e308], "beta": [0.0] * 3,
                         "gamma": [1e308, 1e308]},
                        {"spectrum": 3, "manybody": 3, "verify": 3}),
    }

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_exit_codes(self, tmp_path, capsys, name):
        couplings, codes = self.CHAINS[name]
        path = write_config(tmp_path, dict(couplings, family="explicit"))
        for command, code in codes.items():
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", path, "--out", str(out)]) == code, command
            err = capsys.readouterr().err
            if code == 3:
                assert err.startswith("error: float arithmetic failed at this parameter point: ")
                assert err.count("\n") == 1
            else:
                _, rows = parse_csv(out.read_text())
                cells = [cell for row in rows for cell in row.values()]
                assert not {"inf", "-inf", "nan", "FAIL"} & set(cells), command

    @pytest.mark.parametrize("command", ["spectrum", "manybody"])
    def test_overflowing_doubled_matrix_names_the_singular_values(self, tmp_path, capsys,
                                                                   command):
        couplings, _ = self.CHAINS["xy-overflow"]
        path = write_config(tmp_path, dict(couplings, family="explicit"))
        assert main([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 3
        assert capsys.readouterr().err == (
            "error: float arithmetic failed at this parameter point: "
            "singular values too large for a float\n"
        )


class TestPrecisionCap:
    """The precision cap only sets where the decimal ladder hands over to the
    exact sum, whose float is the one every rung proves: a lowered cap
    changes no output."""

    # Several grid values here are proved only at 320 digits or more, so a
    # cap of 160 or 40 digits leaves them to the exact sum.
    POINT = {"family": "qr24", "a": 1e-6, "b": 0.3, "c": -0.8, "q": 1e-6, "N": 8}

    @staticmethod
    def _run(monkeypatch, cap, args):
        """``main(args)`` at the precision cap ``cap`` (the default for
        ``None``), and the number of exact sums it forms."""
        exact = []
        objects = qseries._Grid.objects

        def recording(grid, block, digits, entries):
            exact.extend(entries if digits is None else ())
            return objects(grid, block, digits, entries)

        with monkeypatch.context() as patch:
            patch.setattr(qseries._Grid, "objects", recording)
            if cap is not None:
                patch.setattr(qseries, "PRECISION_CAP", cap)
            return main(args), len(exact)

    @pytest.mark.parametrize("cap", [160, 40])
    def test_verify_writes_what_the_default_cap_writes(self, tmp_path, capsys, monkeypatch,
                                                       cap):
        path = write_config(tmp_path, self.POINT)
        outputs = []
        for name, value in (("default", None), ("lowered", cap)):
            out = tmp_path / f"{name}.csv"
            code, exact = self._run(monkeypatch, value, ["verify", "--config", path,
                                                         "--out", str(out)])
            outputs.append((code, out.read_bytes(), capsys.readouterr().err))
            assert (exact > 0) == (value is not None)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cap", [160, 40])
    def test_scan_writes_what_the_default_cap_writes(self, tmp_path, capsys, monkeypatch, cap):
        ranges = {k: [self.POINT[k]] for k in ("a", "b", "c")}
        config = {"family": "qr24", "N": 8, "ranges": dict(ranges, q=[1e-6, 0.5, 0.5]),
                  "samples": 12, "level": "contiguity", "seed": 1}
        path = write_config(tmp_path, config)
        outputs = []
        for value in (None, cap):
            code, exact = self._run(monkeypatch, value, ["scan", "--config", path])
            outputs.append((code, capsys.readouterr().out))
            assert (exact > 0) == (value is not None)
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 0 and "# valid 12" in outputs[1][1]
        params = qracah.QRacahParams(**{k: v for k, v in self.POINT.items() if k != "family"})
        monkeypatch.setattr(qseries, "PRECISION_CAP", cap)
        assert validate_draw("qr24", params, level="contiguity") == (True, "")


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


class TestParserReuse:
    """``main`` reuses one parser; no option of a call reaches the next."""

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_option_outlives_its_call(self, tmp_path, capsys):
        scan = write_config(tmp_path, SCAN_CONFIG, "scan.json")
        point = write_config(tmp_path, QR24_CONFIG, "point.json")
        plain = {
            "scan": ["scan", "--config", scan],
            "spectrum": ["spectrum", "--config", point],
            "verify": ["verify", "--config", point],
        }
        cli._build_parser.cache_clear()
        fresh = {name: self._run(argv, capsys) for name, argv in plain.items()}
        assert fresh["scan"][0] == 0 and "# seed 3\n" in fresh["scan"][1]
        assert fresh["spectrum"][0] == 0 and fresh["verify"][0] == 0
        calls = [
            (plain["scan"] + ["--seed", "7"], 0, "scan"),
            (plain["spectrum"] + ["--tol", "1e-30"], 4, "spectrum"),
            (plain["verify"] + ["--family", "qr13"], 0, "verify"),
            # usage errors: one after --tol and --family were parsed, one
            # after --seed, one in the value of --tol
            (plain["spectrum"] + ["--tol", "1e-30", "--family", "qr13", "--bogus"], 2, "spectrum"),
            (plain["scan"] + ["--seed", "7", "--family", "qr99"], 2, "scan"),
            (plain["verify"] + ["--tol", "tight"], 2, "verify"),
        ]
        for argv, code, name in calls:
            assert self._run(argv, capsys)[0] == code, argv
            assert self._run(plain[name], capsys) == fresh[name], argv


class TestGridWork:
    """The exact polynomial grids are built only where a check reads them."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        calls = []
        exact = qracah.phi43_terminating_exact

        def counting(grids, *args):
            grids = list(grids)
            calls.append((grids, *args))
            return exact(grids, *args)

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
        # one evaluator call for both grids, over every (degree, point) entry
        assert [[len(rows) * len(columns) for rows, columns in grids]
                for grids, *_ in series_calls] == [[2 * (n + 1) ** 2]]

    def test_verify_computes_the_closed_form_spectrum_once(self, tmp_path, monkeypatch):
        calls = []
        closed_form = chain.closed_form_lambda_squared

        def counting(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(chain, "closed_form_lambda_squared", counting)
        config = str(CONFIG_DIR / "qr24_default.json")
        assert main(["verify", "--config", config, "--out", str(tmp_path / "r.csv")]) == 0
        assert len(calls) == 1

    def test_radicand_rejected_draw_evaluates_no_series(self, series_calls):
        params = qracah.QRacahParams(a=0.5, b=0.3, c=0.8, N=4, q=0.7)
        valid, reason = validate_draw("qr24", params, level="couplings")
        assert not valid
        assert re.fullmatch(
            r"radicand \(alpha[-+]gamma\)\^2\[\d+\] = \S+ is negative beyond tolerance", reason
        ), reason
        assert len(series_calls) == 0


class TestSolverCalls:
    """The doubled-matrix eigensolver runs only where a check reads it."""

    @staticmethod
    def _record_shapes(monkeypatch):
        shapes = []

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        original = bind_everywhere(monkeypatch, "jacobi_eigh", recording)
        return shapes

    @pytest.mark.parametrize("command", ["spectrum", "manybody", "chain-coeffs"])
    def test_exports_call_no_eigensolver(self, tmp_path, monkeypatch, command):
        shapes = self._record_shapes(monkeypatch)
        for config in (QR24_CONFIG, XX_CONFIG):
            path = write_config(tmp_path, config)
            assert main([command, "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
        assert shapes == []

    @pytest.mark.parametrize(
        "config, expected",
        [(QR24_CONFIG, [(10, 10)]), (XX_CONFIG, [(6, 6), (3, 3)])],
        ids=["xy", "xx"],
    )
    def test_verify_solves_the_doubled_matrix_once(self, tmp_path, monkeypatch, config, expected):
        # once on H for spectrum-parity and spectrum-vs-singular-values, and
        # on an XX chain once more on A for xx-reduction
        shapes = self._record_shapes(monkeypatch)
        path = write_config(tmp_path, config)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "out.csv")]) == 0
        assert shapes == expected

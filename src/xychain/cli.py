"""Command-line interface.

Subcommands
-----------
``spectrum``
    Closed-form vs numeric single-particle spectrum as CSV.
``chain-coeffs``
    Constructed chain couplings as CSV.
``verify``
    Full certification report (CSV, JSON, or text) with exit code 4 on any
    failed check.
``manybody``
    All many-body energies with occupation bitmasks as CSV.
``scan``
    Random parameter-box scan; valid draws as CSV.

Configurations are JSON files; unknown fields are rejected.  Outputs carry a
comment header with the tool version and a hash of the configuration, never a
timestamp, so identical inputs produce byte-identical files.

Exit codes: 0 success; 2 configuration or size-cap error; 3 parameter-regime
error; 4 verification failure.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .chain import (
    SCAN_LEVELS,
    ChainSpec,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    parameter_scan,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DenominatorVanishes,
    InvalidParameterRegime,
    InvalidShiftedParams,
    NoValidParameters,
    SizeCapExceeded,
)
from .freefermion import (
    analytic_vs_numeric,
    assemble,
    eigendecompose,
    eigenvector_crosscheck,
    many_body_spectrum,
    recurrence_check,
    singular_value_check,
)
from .linalg import jacobi_eigh
from .qracah import FAMILIES, QRacahParams, contiguity_coefficients, verify_contiguity
from .report import TOLERANCES, CheckReport
from .spinoracle import SPIN_DIMENSION_CAP, jw_certify

_COMMON_KEYS = {"family", "seed", "tolerances", "note"}
_QRACAH_KEYS = {"a", "b", "c", "q", "N"}
_EXPLICIT_KEYS = {"N", "alpha", "beta", "gamma"}
_SCAN_KEYS = {"N", "ranges", "samples", "level"}

_REGIME_ERRORS = (
    InvalidParameterRegime,
    InvalidShiftedParams,
    DenominatorVanishes,
    NoValidParameters,
    ConvergenceFailure,
    # overflow or underflow to zero of float arithmetic at extreme parameters
    ArithmeticError,
)


def _require(config, key, kinds, kind_name):
    if key not in config:
        raise ConfigError(f"missing required config field '{key}'")
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config field '{key}' must be {kind_name}, got {value!r}")
    return value


def _is_number(value):
    """True for a finite JSON number; ``bool`` does not count."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _require_number(config, key):
    value = _require(config, key, (int, float), "a number")
    if not _is_number(value):
        raise ConfigError(f"config field '{key}' must be a finite number, got {value!r}")
    return float(value)


def _require_int(config, key):
    return int(_require(config, key, int, "an integer"))


def _check_seed(seed, name):
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


def _check_tolerance(value, name):
    if not _is_number(value) or value <= 0:
        raise ConfigError(f"{name} must be a finite positive number")


def _require_number_list(config, key, length):
    value = _require(config, key, list, "an array of numbers")
    if len(value) != length or not all(map(_is_number, value)):
        raise ConfigError(
            f"config field '{key}' must be an array of {length} finite numbers"
        )
    return [float(v) for v in value]


def load_config(path, mode="compute", family_override=None):
    """Load and validate a JSON run configuration.

    ``mode`` is ``"compute"`` for the spectrum/chain-coeffs/verify/manybody
    commands and ``"scan"`` for the scan command (different field sets).
    ``family_override`` replaces the family before validation.
    """
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    config = dict(raw)
    if family_override is not None:
        config["family"] = family_override
    family = config.get("family")
    if family not in FAMILIES + ("explicit",):
        raise ConfigError(
            f"config field 'family' must be one of {FAMILIES + ('explicit',)}, got {family!r}"
        )
    if mode == "scan":
        if family == "explicit":
            raise ConfigError("scan requires a q-Racah family, not 'explicit'")
        allowed = _COMMON_KEYS | _SCAN_KEYS
    elif family == "explicit":
        allowed = _COMMON_KEYS | _EXPLICIT_KEYS
    else:
        allowed = _COMMON_KEYS | _QRACAH_KEYS
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ConfigError(f"unknown config fields for this mode: {unknown}")

    n_value = _require_int(config, "N")
    if n_value < 1:
        raise ConfigError(f"config field 'N' must be >= 1, got {n_value}")
    if mode == "scan":
        ranges = _require(config, "ranges", dict, "an object")
        missing = sorted({"a", "b", "c", "q"} - set(ranges))
        if missing:
            raise ConfigError(f"config field 'ranges' is missing keys: {missing}")
        extra = sorted(set(ranges) - {"a", "b", "c", "q"})
        if extra:
            raise ConfigError(f"config field 'ranges' has unknown keys: {extra}")
        for key, value in ranges.items():
            if not isinstance(value, list) or not value or not all(map(_is_number, value)):
                raise ConfigError(
                    f"ranges['{key}'] must be a non-empty array of finite numbers"
                )
            if len(value) == 2 and value[1] < value[0]:
                raise ConfigError(f"ranges['{key}'] = {value!r} has hi < lo")
        samples = _require_int(config, "samples")
        if samples < 1:
            raise ConfigError(f"config field 'samples' must be >= 1, got {samples}")
        level = config.get("level", "full")
        if level not in SCAN_LEVELS:
            raise ConfigError(
                f"config field 'level' must be one of {SCAN_LEVELS}, got {level!r}"
            )
        config["level"] = level
    elif family == "explicit":
        _require_number_list(config, "alpha", n_value)
        _require_number_list(config, "beta", n_value + 1)
        _require_number_list(config, "gamma", n_value)
    else:
        for key in ("a", "b", "c", "q"):
            _require_number(config, key)
    if "seed" in config:
        _check_seed(_require_int(config, "seed"), "config field 'seed'")
    if "note" in config and not isinstance(config["note"], str):
        raise ConfigError("config field 'note' must be a string")
    if "tolerances" in config:
        overrides = _require(config, "tolerances", dict, "an object")
        unknown = sorted(set(overrides) - set(TOLERANCES))
        if unknown:
            raise ConfigError(f"unknown tolerance names: {unknown}")
        for key, value in overrides.items():
            _check_tolerance(value, f"tolerance '{key}'")
    return config


def _tolerances(config, spectrum=None):
    """Default tolerances with the config's overrides and, when given, the
    ``--tol`` override of ``spectrum``."""
    merged = dict(TOLERANCES)
    merged.update(config.get("tolerances", {}))
    if spectrum is not None:
        merged["spectrum"] = spectrum
    return merged


def _params_from_config(config):
    return QRacahParams(
        a=float(config["a"]),
        b=float(config["b"]),
        c=float(config["c"]),
        N=int(config["N"]),
        q=float(config["q"]),
    )


def _coeffs_from_config(config):
    """Contiguity record of a q-Racah config; ``None`` for an explicit chain."""
    if config["family"] == "explicit":
        return None
    return contiguity_coefficients(config["family"], _params_from_config(config))


def _chain_from_config(config, coeffs=None):
    if config["family"] == "explicit":
        return ChainSpec(
            alpha=config["alpha"], beta=config["beta"], gamma=config["gamma"]
        )
    if coeffs is None:
        coeffs = _coeffs_from_config(config)
    return build_chain(config["family"], coeffs.params, coeffs=coeffs)


def _config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _format_cell(value):
    if isinstance(value, float):  # first: nearly every cell is one
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _open_out(path):
    """The file at ``path`` opened for writing, or stdout when ``path`` is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _write_csv(handle, config, columns, rows, comments=()):
    handle.write(f"# xychain {__version__}\n")
    handle.write(f"# config sha256 {_config_hash(config)}\n")
    for comment in comments:
        handle.write(f"# {comment}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(cell) for cell in row])


def cmd_spectrum(config, out_path, tol=None):
    """Write per-mode rows ``j, lambda_analytic, lambda_numeric, rel_gap``."""
    coeffs = _coeffs_from_config(config)
    chain = _chain_from_config(config, coeffs)
    spectral = eigendecompose(assemble(chain))
    lam_num = spectral.lambda_numeric
    gap_tol = _tolerances(config, tol)["spectrum"]
    failed = False
    rows = []
    if coeffs is None:
        for j, value in enumerate(lam_num):
            rows.append((j, None, value, None))
    else:
        lam_ana = analytic_spectrum(config["family"], coeffs.params, coeffs=coeffs)
        position = np.empty(lam_ana.size, dtype=int)
        position[np.argsort(lam_ana, kind="stable")] = np.arange(lam_ana.size)
        for j, value in enumerate(lam_ana):
            numeric = lam_num[position[j]]
            gap = abs(value - numeric) / max(1.0, abs(value))
            failed = failed or gap > gap_tol
            rows.append((j, value, numeric, gap))
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("j", "lambda_analytic", "lambda_numeric", "rel_gap"), rows)
    return 4 if failed else 0


def cmd_chain_coeffs(config, out_path):
    """Write coupling rows ``j, alpha_j, beta_j, gamma_j``."""
    chain = _chain_from_config(config)
    rows = []
    for j in range(chain.n_sites):
        last = j == chain.N
        rows.append(
            (j, None if last else chain.alpha[j], chain.beta[j], None if last else chain.gamma[j])
        )
    comments = []
    if chain.is_xx():
        comments.append("XX reduction: gamma identically zero")
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("j", "alpha", "beta", "gamma"), rows, comments)
    return 0


def cmd_manybody(config, out_path):
    """Write all many-body levels as ``mask, energy`` rows, ascending."""
    chain = _chain_from_config(config)
    spectral = eigendecompose(assemble(chain))
    spectrum = many_body_spectrum(spectral.lambda_numeric)
    rows = list(zip((int(m) for m in spectrum.masks), spectrum.energies))
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("mask", "energy"), rows)
    return 0


def _merge(target, source):
    target.checks.extend(source.checks)
    target.notes.extend(source.notes)


def cmd_verify(config, out_path, tol=None):
    """Run every applicable certification; exit 4 if any check fails."""
    tolerances = _tolerances(config, tol)
    family = config["family"]
    report = CheckReport(title=f"verify {family}")

    chain = None
    coeffs = _coeffs_from_config(config)
    if coeffs is None:
        chain = _chain_from_config(config)
    else:
        params = coeffs.params
        _merge(
            report,
            verify_contiguity(
                family,
                params,
                relation_tol=tolerances["relation"],
                constraint_tol=tolerances["constraint"],
                coeffs=coeffs,
            ),
        )
        try:
            chain = build_chain(family, params, coeffs=coeffs)
        except InvalidParameterRegime as exc:
            report.add_note(f"chain construction unavailable: {exc}")

    if chain is not None:
        system = assemble(chain)
        spectral = eigendecompose(system)
        report.add("spectrum-parity", spectral.pairing_error, tolerances["parity"])
        report.add("transition-orthogonality", spectral.ortho_error, tolerances["orthogonality"])
        _merge(report, singular_value_check(system, spectral, tol=tolerances["svd"]))
        if coeffs is not None:
            _merge(
                report,
                analytic_vs_numeric(
                    family, params, spectral=spectral, tol=tolerances["spectrum"],
                    coeffs=coeffs,
                ),
            )
            try:
                pq = build_pq_table(family, params, coeffs=coeffs, chain=chain)
            except InvalidParameterRegime as exc:
                report.add_note(f"P/Q tables unavailable: {exc}")
            else:
                _merge(report, recurrence_check(pq, tol=tolerances["recurrence"]))
                _merge(
                    report,
                    eigenvector_crosscheck(
                        spectral,
                        pq,
                        cos_tol=tolerances["cosine"],
                        match_tol=tolerances["match"],
                    ),
                )
        if chain.is_xx():
            values, _ = jacobi_eigh(system.A)
            lam = spectral.lambda_numeric
            gap = float(
                np.max(np.abs(np.sort(np.abs(values)) - np.sort(lam)))
            ) / max(1.0, float(np.max(lam)) if lam.size else 1.0)
            report.add("xx-reduction", gap, tolerances["spectrum"])
        if 2**chain.n_sites <= SPIN_DIMENSION_CAP:
            _merge(report, jw_certify(chain, tol_factor=tolerances["jw"], spectral=spectral))
        else:
            report.add_note("spin-oracle comparison skipped: dimension above cap")

    if out_path is not None and out_path.endswith(".json"):
        payload = {
            "tool": f"xychain {__version__}",
            "config_sha256": _config_hash(config),
        }
        payload.update(report.to_dict())
        with _open_out(out_path) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    elif out_path is not None:
        rows = [(c.name, c.residual, c.tolerance, c.verdict, c.note) for c in report.checks]
        notes = [f"note: {note}" for note in report.notes]
        with _open_out(out_path) as handle:
            columns = ("name", "residual", "tolerance", "verdict", "note")
            _write_csv(handle, config, columns, rows, notes)
    else:
        print(report)
    return 0 if report.passed else 4


def cmd_scan(config, out_path, seed=None):
    """Run a parameter scan and write the valid draws as CSV rows."""
    used_seed = seed if seed is not None else int(config.get("seed", 0))
    tolerances = _tolerances(config)
    draws = parameter_scan(
        config["family"],
        config["ranges"],
        config["N"],
        config["samples"],
        seed=used_seed,
        level=config["level"],
        relation_tol=tolerances["relation"],
        constraint_tol=tolerances["constraint"],
    )
    rows = [
        (k, p.a, p.b, p.c, p.N, p.q) for k, p in enumerate(draws)
    ]
    comments = (
        f"level {config['level']}",
        f"samples {config['samples']}",
        f"seed {used_seed}",
        f"valid {len(draws)}",
    )
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("index", "a", "b", "c", "N", "q"), rows, comments)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xychain",
        description="Exactly solvable inhomogeneous XY chains from q-Racah contiguity data",
    )
    parser.add_argument(
        "--version", action="version", version=f"xychain {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "spectrum": "closed-form vs numeric single-particle spectrum (CSV)",
        "chain-coeffs": "constructed chain couplings (CSV)",
        "verify": "full certification report (CSV/JSON/text; exit 4 on failure)",
        "manybody": "all many-body energies with occupation bitmasks (CSV)",
        "scan": "random parameter-box scan for valid draws (CSV)",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", help="output file (default: stdout)")
        cmd.add_argument(
            "--family",
            choices=FAMILIES + ("explicit",),
            help="override the family declared in the config",
        )
        if name in ("spectrum", "verify"):
            cmd.add_argument(
                "--tol",
                type=float,
                help="override the analytic-vs-numeric spectrum tolerance",
            )
        if name == "scan":
            cmd.add_argument("--seed", type=int, help="override the scan seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _check_seed(args.seed, "--seed")
        if getattr(args, "tol", None) is not None:
            _check_tolerance(args.tol, "--tol")
        mode = "scan" if args.command == "scan" else "compute"
        config = load_config(args.config, mode=mode, family_override=args.family)
        # Non-finite values are reported by the checks and the regime errors;
        # numpy's floating-point warnings would only add stderr lines.
        with np.errstate(all="ignore"):
            if args.command == "spectrum":
                return cmd_spectrum(config, args.out, tol=args.tol)
            if args.command == "chain-coeffs":
                return cmd_chain_coeffs(config, args.out)
            if args.command == "verify":
                return cmd_verify(config, args.out, tol=args.tol)
            if args.command == "manybody":
                return cmd_manybody(config, args.out)
            return cmd_scan(config, args.out, seed=args.seed)
    except (ConfigError, SizeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _REGIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

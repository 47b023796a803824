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
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .chain import (
    ChainSpec,
    _is_number,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    parameter_scan,
    recurrence_check,
)
from .errors import ConfigError, InvalidParameterRegime, SizeCapExceeded, XYChainError
from .freefermion import (
    _mode_gaps,
    analytic_vs_numeric,
    assemble,
    eigendecompose,
    eigenvector_crosscheck,
    many_body_spectrum,
    singular_value_check,
    xx_reduction_check,
)
from .qracah import FAMILIES, QRacahParams, contiguity_coefficients, verify_contiguity
from .report import TOLERANCES, CheckReport
from .spinoracle import SPIN_DIMENSION_CAP, jw_certify

_COMMON_KEYS = {"family", "seed", "tolerances", "note"}
_QRACAH_KEYS = {"a", "b", "c", "q", "N"}
_EXPLICIT_KEYS = {"N", "alpha", "beta", "gamma"}
_SCAN_KEYS = {"N", "ranges", "samples", "level"}
#: Many-body levels formatted per write: bounds how many rows exist as Python
#: objects at once (the cap allows 2^24 levels).  On a 2-core x86-64 VM,
#: 2^17 rows reach a file fastest at 2^11-2^12 levels per block, and about
#: 20 % slower at 2^16.
_MANYBODY_BLOCK = 1 << 12


def _require(config, key, kinds, kind_name):
    if key not in config:
        raise ConfigError(f"missing required config field '{key}'")
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config field '{key}' must be {kind_name}, got {value!r}")
    return value


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
        # parameter_scan checks the box, samples and level; the hash of the
        # config in each CSV header reads the level's default
        _require(config, "ranges", dict, "an object")
        _require_int(config, "samples")
        config.setdefault("level", "full")
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
            raise ConfigError(f"unknown tolerance names: {unknown}; valid: {sorted(TOLERANCES)}")
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


def _chain_from_config(config, coeffs):
    """The config's explicit chain, or the chain built from its record ``coeffs``."""
    if config["family"] == "explicit":
        return ChainSpec(
            alpha=config["alpha"], beta=config["beta"], gamma=config["gamma"]
        )
    return build_chain(coeffs)


def _config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _open_out(path):
    """The file at ``path`` opened for writing, or stdout when ``path`` is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _write_csv(handle, config, columns, rows, comments=()):
    """Header comments, then ``columns`` and ``rows`` as CSV.  Cells are plain
    Python values (``.tolist()``, not numpy scalars): ``csv`` writes a float
    as its ``repr``, an int with ``str`` and ``None`` as an empty cell."""
    handle.write(f"# xychain {__version__}\n")
    handle.write(f"# config sha256 {_config_hash(config)}\n")
    for comment in comments:
        handle.write(f"# {comment}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def cmd_spectrum(config, out_path, tol=None):
    """Write per-mode rows ``j, lambda_analytic, lambda_numeric, rel_gap``:
    each closed-form mode, the numeric one of its rank, and their gap over
    the largest closed-form mode.  The largest ``rel_gap`` is the
    ``analytic-vs-numeric`` residual, and a FAIL of that check exits 4."""
    coeffs = _coeffs_from_config(config)
    chain = _chain_from_config(config, coeffs)
    spectral = eigendecompose(assemble(chain))
    passed = True
    if config["family"] == "explicit":
        rows = [(j, None, value, None) for j, value in enumerate(spectral.lambda_numeric.tolist())]
    else:
        lam_ana = analytic_spectrum(coeffs)
        numeric, gaps = _mode_gaps(spectral.lambda_numeric, lam_ana)
        rows = zip(range(lam_ana.size), lam_ana.tolist(), numeric.tolist(), gaps.tolist())
        passed = analytic_vs_numeric(lam_ana, spectral, _tolerances(config, tol)).passed
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("j", "lambda_analytic", "lambda_numeric", "rel_gap"), rows)
    return 0 if passed else 4


def cmd_chain_coeffs(config, out_path):
    """Write coupling rows ``j, alpha_j, beta_j, gamma_j``."""
    chain = _chain_from_config(config, _coeffs_from_config(config))
    rows = zip(
        range(chain.n_sites),
        chain.alpha.tolist() + [None],
        chain.beta.tolist(),
        chain.gamma.tolist() + [None],
    )
    comments = []
    if chain.is_xx():
        comments.append("XX reduction: gamma identically zero")
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("j", "alpha", "beta", "gamma"), rows, comments)
    return 0


def cmd_manybody(config, out_path):
    """Write all many-body levels as ``mask, energy`` rows, ascending."""
    chain = _chain_from_config(config, _coeffs_from_config(config))
    spectral = eigendecompose(assemble(chain))
    spectrum = many_body_spectrum(spectral.lambda_numeric)
    masks, energies = spectrum.masks, spectrum.energies
    with _open_out(out_path) as handle:
        _write_csv(handle, config, ("mask", "energy"), ())
        # The bytes ``csv`` would write: an int cell is its ``str``, a float
        # cell its ``repr``, and neither ever needs quoting.  An f-string
        # calls both directly; ``str.format`` parses its template per row.
        for start in range(0, masks.size, _MANYBODY_BLOCK):
            block = slice(start, start + _MANYBODY_BLOCK)
            handle.write("".join([
                f"{mask},{energy!r}\n"
                for mask, energy in zip(masks[block].tolist(), energies[block].tolist())
            ]))
    return 0


def _merge(target, source):
    target.checks.extend(source.checks)
    target.notes.extend(source.notes)


def cmd_verify(config, out_path, tol=None):
    """Run every applicable certification; exit 4 if any check fails."""
    tolerances = _tolerances(config, tol)
    explicit = config["family"] == "explicit"
    report = CheckReport(title=f"verify {config['family']}")

    chain = None
    coeffs = _coeffs_from_config(config)
    if explicit:
        chain = _chain_from_config(config, coeffs)
    else:
        _merge(report, verify_contiguity(coeffs, tolerances))
        try:
            chain = build_chain(coeffs)
        except InvalidParameterRegime as exc:
            report.add_note(f"chain construction unavailable: {exc}")

    if chain is not None:
        spectral = eigendecompose(assemble(chain))
        _merge(report, singular_value_check(spectral, tolerances))
        if not explicit:
            lam = analytic_spectrum(coeffs)
            _merge(report, analytic_vs_numeric(lam, spectral, tolerances))
            try:
                pq = build_pq_table(coeffs, chain, lam)
            except InvalidParameterRegime as exc:
                report.add_note(f"P/Q tables unavailable: {exc}")
            else:
                _merge(report, recurrence_check(pq, tolerances))
                _merge(report, eigenvector_crosscheck(spectral, pq, tolerances))
        if chain.is_xx():
            _merge(report, xx_reduction_check(spectral, tolerances))
        if 2**chain.n_sites <= SPIN_DIMENSION_CAP:
            _merge(report, jw_certify(chain, spectral, tolerances))
        else:
            report.add_note("spin-oracle comparison skipped: dimension above cap")

    if out_path is not None and out_path.endswith(".json"):
        payload = {
            "tool": f"xychain {__version__}",
            "config_sha256": _config_hash(config),
        }
        payload.update(report.to_dict())
        with _open_out(out_path) as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    draws = parameter_scan(
        config["family"],
        config["ranges"],
        config["N"],
        config["samples"],
        seed=used_seed,
        level=config["level"],
        tolerances=_tolerances(config),
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


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused: parsing keeps
    no state in it, every call gets a fresh namespace."""
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
                help="override the 'spectrum' tolerance: the gap that makes spectrum "
                "exit 4, and verify's analytic-vs-numeric and xx-reduction checks",
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
    except XYChainError as exc:  # every other domain error is a regime error
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # float overflow or underflow to zero
        print(
            f"error: float arithmetic failed at this parameter point: {exc}",
            file=sys.stderr,
        )
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per shipped guarantee, at contract tolerance.

Each test certifies one numbered criterion of the package's acceptance
checklist (restated in README.md) end to end, preferring independent numeric
routes over the code under test wherever one exists, and appends a one-line
verdict to the terminal summary through ``helpers.ACCEPTANCE_LINES``.  The
tolerances used here are the published contract; changing them is an
interface change, not a test tweak.
"""

import json
import time

import numpy as np
import pytest
from exact_oracles import relation_residuals_exact
from helpers import ACCEPTANCE_LINES, CONFIG_DIR, QR13_BOX, QR24_BOX, random_chain, residuals

from xychain import (
    ChainSpec,
    NoValidParameters,
    analytic_spectrum,
    assemble,
    build_chain,
    build_pq_table,
    cli,
    contiguity_coefficients,
    eigendecompose,
    eigenvector_crosscheck,
    jw_certify,
    parameter_scan,
    qracah,
    recurrence_check,
    singular_value_check,
    verify_contiguity,
)
from xychain import chain as chain_module

Q_VALUES = (0.3, 0.5, 0.7)
N_VALUES = tuple(range(2, 11))
# Criterion 1 goes on to N = 20 with one draw per cell above N = 10, where
# one grid pair costs 0.05-0.25 s.
CONTIGUITY_N_VALUES = N_VALUES + tuple(range(11, 21))
FAMILY_BOXES = (("qr13", QR13_BOX), ("qr24", QR24_BOX))


def _sub_box(box, q):
    """The parameter box restricted to a single discrete q value."""
    out = dict(box)
    out["q"] = [q]
    return out


def _record(ok, text):
    ACCEPTANCE_LINES.append(f"{text}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def contiguity_survey():
    """Scan-valid draws for both families over every (N, q) cell.

    Returns ``{family: [(params, report), ...], "seconds": float}`` where each
    report re-measures both relations and the consistency ratio on a fresh
    contiguity record.  The scan has already built each valid draw's grids
    to accept it, so they are kept by ``(family, params)`` while the survey
    runs and the reports read them instead of building them again.
    """
    t0 = time.perf_counter()
    survey = {}
    built = {}
    grid_pairs, polynomial_grids = chain_module._grid_pairs, qracah._polynomial_grids

    def keeping(family, points):
        pairs = grid_pairs(family, points)
        built.update(((family, params), pair) for params, pair in zip(points, pairs))
        return pairs

    def reading(family, params):
        pair = built.get((family, params))
        return pair if isinstance(pair, tuple) else polynomial_grids(family, params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_grid_pairs", keeping)
        patch.setattr(qracah, "_polynomial_grids", reading)
        for family, box in FAMILY_BOXES:
            rows = []
            for N in CONTIGUITY_N_VALUES:
                for k, q in enumerate(Q_VALUES):
                    try:
                        draws = parameter_scan(
                            family,
                            _sub_box(box, q),
                            N,
                            samples=3 if N in N_VALUES else 1,
                            seed=1000 * N + k,
                            level="contiguity",
                        )
                    except NoValidParameters:
                        draws = []
                    rows += [
                        (p, verify_contiguity(contiguity_coefficients(family, p)))
                        for p in draws
                    ]
            survey[family] = rows
    survey["seconds"] = time.perf_counter() - t0
    return survey


def test_criterion_1_contiguity_relations(contiguity_survey):
    """Both three-term relations hold to 1e-9 on >= 50 draws per family."""
    counts = {}
    coverage_ok = True
    worst = 0.0
    for family, _ in FAMILY_BOXES:
        rows = contiguity_survey[family]
        counts[family] = len(rows)
        coverage_ok &= {p.N for p, _ in rows} == set(CONTIGUITY_N_VALUES)
        coverage_ok &= {p.q for p, _ in rows} == set(Q_VALUES)
        for _, report in rows:
            worst = max(
                worst,
                *(r.residual for r in report.checks if r.name.startswith("relation-")),
            )

    # Independent confirmation: re-derive the relation residuals for the two
    # smallest-N draws of each family with exact-rational polynomial values,
    # so the float route above cannot be certifying its own rounding.
    exact_worst = 0.0
    spot_checks = 0
    for family, _ in FAMILY_BOXES:
        smallest = sorted(contiguity_survey[family], key=lambda row: row[0].N)[:2]
        for params, _ in smallest:
            coeffs = contiguity_coefficients(family, params)
            res_plus, res_minus = relation_residuals_exact(family, params, coeffs)
            for i in range(params.N + 1):
                for x in range(params.N + 1):
                    if family == "qr13" and i == params.N and x == params.N:
                        continue  # documented excluded grid corner
                    exact_worst = max(exact_worst, res_plus[i][x], res_minus[i][x])
            spot_checks += 1

    ok = (
        all(count >= 50 for count in counts.values())
        and coverage_ok
        and worst <= 1e-9
        and exact_worst <= 1e-9
    )
    _record(
        ok,
        f"criterion 1 - contiguity relations <= 1e-9 on full grids "
        f"(qr13 {counts['qr13']} draws, qr24 {counts['qr24']} draws, N=2..20, "
        f"q in {{0.3,0.5,0.7}}; worst {worst:.2e}; {spot_checks} exact-rational "
        f"spot checks, worst {exact_worst:.2e}; {contiguity_survey['seconds']:.1f} s)",
    )
    assert ok, (counts, coverage_ok, worst, exact_worst)


def test_criterion_2_consistency_ratio(contiguity_survey):
    """The eight-factor coefficient ratio equals 1 within 1e-10 everywhere."""
    worst = 0.0
    total = 0
    for family, _ in FAMILY_BOXES:
        for _, report in contiguity_survey[family]:
            row = next(r for r in report.checks if r.name == "constraint-ratio")
            worst = max(worst, row.residual)
            total += 1
    ok = total >= 100 and worst <= 1e-10
    _record(
        ok,
        f"criterion 2 - consistency ratio = 1 within 1e-10 "
        f"({total} draws, both families, all i; worst {worst:.2e})",
    )
    assert ok, (total, worst)


@pytest.fixture(scope="module")
def spectral_draws():
    """qr24 draws valid for the closed-form spectrum, across all (N, q) cells."""
    draws = []
    for N in N_VALUES:
        for k, q in enumerate(Q_VALUES):
            try:
                draws += parameter_scan(
                    "qr24",
                    _sub_box(QR24_BOX, q),
                    N,
                    samples=3,
                    seed=7000 + 10 * N + k,
                    level="spectral",
                )
            except NoValidParameters:
                pass
    return draws


def test_criterion_3_closed_form_spectra(spectral_draws):
    """Closed-form spectrum matches three independent routes on every draw."""
    qr13_draws = parameter_scan("qr13", QR13_BOX, 3, samples=200, seed=11, level="spectral")
    worst_product = worst_numeric = worst_svd = 0.0
    for family, params in ([("qr24", p) for p in spectral_draws]
                           + [("qr13", p) for p in qr13_draws]):
        coeffs = contiguity_coefficients(family, params)
        lam = analytic_spectrum(coeffs)
        scale = max(1.0, float(lam.max()))

        product = np.sqrt(np.maximum(coeffs.lambda_plus * coeffs.lambda_minus, 0.0))
        worst_product = max(worst_product, float(np.max(np.abs(lam - product))) / scale)

        system = assemble(build_chain(coeffs))
        spectral = eigendecompose(system)
        worst_numeric = max(
            worst_numeric,
            float(np.max(np.abs(np.sort(lam) - spectral.lambda_numeric))) / scale,
        )

        singulars = np.linalg.svd(system.A + system.B, compute_uv=False)
        worst_svd = max(
            worst_svd,
            float(np.max(np.abs(np.sort(singulars) - np.sort(lam)))) / scale,
        )

    n_covered = len({p.N for p in spectral_draws})
    ok = (
        len(spectral_draws) >= 25
        and n_covered >= 7
        and len(qr13_draws) >= 10
        and worst_product <= 1e-12
        and worst_numeric <= 1e-8
        and worst_svd <= 1e-8
    )
    _record(
        ok,
        f"criterion 3 - closed-form spectra ({len(spectral_draws)} qr24 draws over "
        f"{n_covered} N values and {len(qr13_draws)} qr13 draws at N = 3: vs eigenvalue "
        f"product {worst_product:.2e} <= 1e-12, vs numeric spectrum {worst_numeric:.2e} "
        f"<= 1e-8, vs singular values {worst_svd:.2e} <= 1e-8)",
    )
    assert ok, (len(spectral_draws), n_covered, len(qr13_draws), worst_product,
                worst_numeric, worst_svd)


def test_criterion_4_jordan_wigner_end_to_end():
    """Spin-space oracle equals free-fermion many-body spectrum, under a minute."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0

    n_random = 100
    for k in range(n_random):
        chain = random_chain(rng, 2 + k % 5)  # 2..6 sites
        report = jw_certify(chain, eigendecompose(assemble(chain)))
        worst = max(worst, report.checks[0].residual)

    draw_counts = {}
    for family, box, samples in (("qr13", QR13_BOX, 40), ("qr24", QR24_BOX, 8)):
        hits = []
        for N in range(2, 6):
            try:
                hits += parameter_scan(
                    family, box, N, samples=samples, seed=4000 + N, level="couplings"
                )
            except NoValidParameters:
                pass
        hits = hits[:12]
        for params in hits:
            chain = build_chain(contiguity_coefficients(family, params))
            report = jw_certify(chain, eigendecompose(assemble(chain)))
            worst = max(worst, report.checks[0].residual)
        draw_counts[family] = len(hits)

    elapsed = time.perf_counter() - t0
    ok = (
        all(count >= 10 for count in draw_counts.values())
        and worst <= 1e-8
        and elapsed < 60.0
    )
    _record(
        ok,
        f"criterion 4 - spin oracle vs free fermions <= 1e-8 * spectral radius "
        f"({n_random} random chains of 2..6 sites, qr13 {draw_counts['qr13']} + "
        f"qr24 {draw_counts['qr24']} family draws; worst {worst:.2e}; "
        f"{elapsed:.1f} s < 60 s)",
    )
    assert ok, (draw_counts, worst, elapsed)


def test_criterion_5_structural_invariants():
    """Spectrum pairing, transition orthogonality, recurrences, eigenvectors."""
    rng = np.random.default_rng(17)
    worst_pairing = worst_ortho = 0.0
    n_random = 40
    for k in range(n_random):
        doubled = residuals(singular_value_check(
            eigendecompose(assemble(random_chain(rng, 2 + k % 9)))))
        worst_pairing = max(worst_pairing, doubled["spectrum-parity"])
        worst_ortho = max(worst_ortho, doubled["transition-orthogonality"])

    draws = []
    for N in range(2, 9):
        try:
            draws += parameter_scan(
                "qr24", QR24_BOX, N, samples=4, seed=5000 + N, level="full"
            )
        except NoValidParameters:
            pass

    worst_recurrence = worst_angle = 0.0
    crosschecks_ok = True
    n_rows = 0
    for params in draws:
        coeffs = contiguity_coefficients("qr24", params)
        chain = build_chain(coeffs)
        pq = build_pq_table(coeffs, chain, analytic_spectrum(coeffs))
        worst_recurrence = max(worst_recurrence, *residuals(recurrence_check(pq)).values())

        spectral = eigendecompose(assemble(chain))
        doubled = residuals(singular_value_check(spectral))
        worst_pairing = max(worst_pairing, doubled["spectrum-parity"])
        worst_ortho = max(worst_ortho, doubled["transition-orthogonality"])

        report = eigenvector_crosscheck(spectral, pq)
        crosschecks_ok &= report.passed
        for row in report.checks:
            if row.name.startswith(("P-modes-", "Q-modes-")):
                worst_angle = max(worst_angle, row.residual)
                n_rows += 1

    ok = (
        len(draws) >= 10
        and n_rows >= 50
        and worst_pairing <= 1e-10
        and worst_ortho <= 1e-8
        and worst_recurrence <= 1e-8
        and worst_angle <= 1e-8
        and crosschecks_ok
    )
    _record(
        ok,
        f"criterion 5 - structural invariants ({n_random} random chains + "
        f"{len(draws)} qr24 draws: spectrum pairing {worst_pairing:.2e} <= 1e-10, "
        f"||T^T T - I|| {worst_ortho:.2e} <= 1e-8, P/Q recurrence "
        f"{worst_recurrence:.2e} <= 1e-8, eigenvector sin(angle) {worst_angle:.2e} "
        f"<= 1e-8 on {n_rows} P/Q rows)",
    )
    assert ok, (
        len(draws),
        n_rows,
        worst_pairing,
        worst_ortho,
        worst_recurrence,
        worst_angle,
        crosschecks_ok,
    )


def test_criterion_6_xx_reduction():
    """With gamma = 0 the spectrum reduces to |eig(A)|, against numpy."""
    rng = np.random.default_rng(29)
    worst = 0.0
    n_random = 30
    chains = [
        ChainSpec(
            alpha=rng.uniform(-1.5, 1.5, n_sites - 1),
            beta=rng.uniform(-1.5, 1.5, n_sites),
            gamma=np.zeros(n_sites - 1),
        )
        for n_sites in (2 + k % 8 for k in range(n_random))
    ]
    shipped = json.loads((CONFIG_DIR / "xx_uniform.json").read_text())
    chains.append(
        ChainSpec(alpha=shipped["alpha"], beta=shipped["beta"], gamma=shipped["gamma"])
    )

    all_xx = all(chain.is_xx() for chain in chains)
    for chain in chains:
        spectral = eigendecompose(assemble(chain))
        reference = np.sort(np.abs(np.linalg.eigvalsh(spectral.system.A)))
        scale = max(1.0, float(reference.max()))
        worst = max(
            worst,
            float(np.max(np.abs(spectral.lambda_numeric - reference))) / scale,
        )

    ok = all_xx and worst <= 1e-8
    _record(
        ok,
        f"criterion 6 - XX reduction: spectrum = |eig(A)| within 1e-8 "
        f"({n_random} random XX chains + shipped xx_uniform config; worst {worst:.2e})",
    )
    assert ok, (all_xx, worst)


def test_criterion_7_byte_deterministic_output(tmp_path):
    """Every subcommand writes byte-identical output on repeated runs."""
    jobs = (
        ("spectrum", "qr24_default.json", ()),
        ("chain-coeffs", "qr24_default.json", ()),
        ("verify", "qr24_default.json", ()),
        ("manybody", "qr24_default.json", ()),
        ("scan", "qr24_scan.json", ("--seed", "123")),
    )
    exit_codes_ok = True
    identical = True
    for command, config_name, extra in jobs:
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{command}-run{run}.csv"
            argv = ["--config", str(CONFIG_DIR / config_name), "--out", str(out)]
            exit_codes_ok &= cli.main([command, *argv, *extra]) == 0
            outputs.append(out.read_bytes())
        identical &= outputs[0] == outputs[1]

    ok = exit_codes_ok and identical
    _record(
        ok,
        f"criterion 7 - determinism: byte-identical CSV across repeated runs "
        f"({len(jobs)} subcommands, fixed configs and seed)",
    )
    assert ok, (exit_codes_ok, identical)

"""Per-layer metrics of a traced run.

``BENCHMARK.json`` names each metric with its unit and direction; this module
only computes them.  Every value is per timed operation unless it is a ratio,
a per-unit cost or a maximum.  Which end-to-end metric each layer's metrics
should move, and on which workload:

=============  ========================  ==============================================
layer          should move               on
=============  ========================  ==============================================
qseries        op_s.*, ops_per_s         verify-qr24, scan-qr, export-qr24; zero on
                                         verify-spin
qracah         op_s.*, ops_per_s         verify-qr24, scan-qr, export-qr24
chain          ops_per_s                 scan-qr (``chain.pq_total_s``: verify-qr24)
linalg         op_s.*                    verify-spin; a small share on verify-qr24 and
                                         export-qr24; none on scan-qr
spinoracle     op_s.*                    verify-spin only
freefermion    op_s.*, peak_rss_mb       export-qr24 (manybody); small on verify-*
cli            op_s.*, peak_rss_mb       export-qr24
trace          (none)                    all: the tracer's own cost and coverage
=============  ========================  ==============================================
"""

from collections import Counter, defaultdict

from tracer import END, INFO, NAME, OP, START, descendant_counts, self_times

SERIES = "qseries.phi43"
#: validate_draw reasons that come from the relation certification itself.
RELATION_REASONS = ("relation-", "constraint ratio")

#: Baselines of the ROADMAP table (2-core x86-64 VM); the grid baselines are
#: for one qr24 point at q = 0.7.
GRID_BASELINE_S = {4: 0.011, 10: 0.26, 14: 1.15, 20: 7.0}
EIGENDECOMPOSE_BASELINE_S = {22: 0.038, 42: 0.145}
SPIN_JACOBI_BASELINE_S = {64: 0.23, 256: 5.4, 512: 48.0}


def grid_evals(N):
    """Series evaluations of one base + shifted grid pair at degree ``N``."""
    return 2 * (N + 1) ** 2


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops, untraced_p50, traced_p50):
    """Per-layer metrics and printable notes of one traced phase.

    ``ops`` holds one record per traced operation with its ``wall`` time,
    ``family``, ``N``, ``q``, ``out_bytes`` and ``evals_needed``.
    """
    n_ops = len(ops)
    own = self_times(spans)
    series_below = descendant_counts(spans, SERIES)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = Counter()
    for span, t in zip(spans, own):
        layer_self[span[NAME].split(".")[0]] += t
        self_by_name[span[NAME]] += t
        inclusive[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1

    evals_by_op = Counter()
    for span in spans:
        if span[NAME].startswith(SERIES):
            evals_by_op[span[OP]] += 1
    evals = sum(evals_by_op.values())
    needed = sum(op["evals_needed"] for op in ops)
    qr24 = [op for op in ops if op["family"] == "qr24"]
    evals_qr24 = sum(evals_by_op[op["op"]] for op in qr24)
    needed_qr24 = sum(op["evals_needed"] for op in qr24)

    validates = [i for i, span in enumerate(spans) if span[NAME] == "chain.validate_draw"]
    accepted = wasted = 0
    for index in validates:
        valid, reason = spans[index][INFO]
        accepted += valid
        if not valid and not reason.startswith(RELATION_REASONS) and series_below[index]:
            wasted += 1

    jacobi_dims = [span[INFO] for span in spans if span[NAME] == "linalg.jacobi_eigh"]
    n3 = sum(dim**3 for dim in jacobi_dims)
    spin_dims = [s[INFO] for s in spans if s[NAME] == "spinoracle.build_spin_hamiltonian"]
    levels = sum(s[INFO] for s in spans if s[NAME] == "freefermion.many_body_spectrum")
    wall = sum(op["wall"] for op in ops)

    def per_op(value):
        return value / n_ops

    metrics = {
        "qseries.self_s": per_op(layer_self["qseries"]),
        "qseries.evals": per_op(evals),
        "qseries.evals_needed": per_op(needed),
        "qseries.useful_ratio": _ratio(needed, evals),
        "qseries.useful_ratio_qr24": _ratio(needed_qr24, evals_qr24),
        "qseries.us_per_eval": 1e6 * _ratio(layer_self["qseries"], evals),
        "qracah.self_s": per_op(layer_self["qracah"]),
        "qracah.contiguity_calls": per_op(calls["qracah.contiguity_coefficients"]),
        "qracah.coeffs_total_s": per_op(inclusive["qracah.contiguity_coefficients"]),
        "qracah.verify_total_s": per_op(inclusive["qracah.verify_contiguity"]),
        "chain.self_s": per_op(layer_self["chain"]),
        "chain.validate_calls": per_op(len(validates)),
        "chain.accept_ratio": _ratio(accepted, len(validates)),
        "chain.validate_grid_waste_ratio": _ratio(wasted, len(validates)),
        "chain.pq_total_s": per_op(inclusive["chain.build_pq_table"]),
        "linalg.self_s": per_op(layer_self["linalg"]),
        "linalg.jacobi_calls": per_op(len(jacobi_dims)),
        "linalg.jacobi_n3": per_op(n3),
        "linalg.jacobi_ns_per_n3": 1e9 * _ratio(layer_self["linalg"], n3),
        "linalg.jacobi_max_dim": max(jacobi_dims, default=0),
        "spinoracle.self_s": per_op(layer_self["spinoracle"]),
        "spinoracle.build_s": per_op(inclusive["spinoracle.build_spin_hamiltonian"]),
        "spinoracle.oracle_total_s": per_op(inclusive["spinoracle.jw_certify"]),
        "spinoracle.dim": max(spin_dims, default=0),
        "freefermion.self_s": per_op(layer_self["freefermion"]),
        "freefermion.eigendecompose_total_s": per_op(inclusive["freefermion.eigendecompose"]),
        "freefermion.crosscheck_total_s": per_op(inclusive["freefermion.eigenvector_crosscheck"]),
        "freefermion.many_body_levels": per_op(levels),
        "freefermion.many_body_self_s": per_op(self_by_name["freefermion.many_body_spectrum"]),
        "cli.self_s": per_op(layer_self["cli"]),
        "cli.out_bytes": per_op(sum(op["out_bytes"] for op in ops)),
        "trace.overhead_frac": _ratio(traced_p50, untraced_p50) - 1.0,
        "trace.coverage": _ratio(sum(own), wall),
    }
    notes = {
        "qseries.useful_ratio": f"{needed} needed of {evals} evaluations",
        "qseries.useful_ratio_qr24": f"{needed_qr24} needed of {evals_qr24} evaluations",
        "chain.accept_ratio": f"{accepted} of {len(validates)} draws",
        "chain.validate_grid_waste_ratio": f"{wasted} of {len(validates)} draws",
        "trace.overhead_frac": f"traced p50 {traced_p50:.6g} s vs untraced {untraced_p50:.6g} s",
        "trace.coverage": f"self {sum(own):.6g} s of op wall {wall:.6g} s",
    }
    return metrics, notes, size_rows(spans, own, ops, evals_by_op)


def _mean_by(spans, name):
    """Mean duration of the spans called ``name``, by their recorded size."""
    groups = defaultdict(list)
    for span in spans:
        if span[NAME] == name:
            groups[span[INFO]].append(span[END] - span[START])
    return {size: sum(times) / len(times) for size, times in sorted(groups.items())}


def size_rows(spans, own, ops, evals_by_op):
    """Per-size timings next to the ROADMAP baseline, as printable lines."""
    size_of_op = {op["op"]: (op["N"], op["q"]) for op in ops}
    series_s = defaultdict(float)
    pairs = defaultdict(float)
    for span, t in zip(spans, own):
        if span[NAME].startswith(SERIES):
            series_s[size_of_op[span[OP]]] += t
    for op_id, count in evals_by_op.items():
        size = size_of_op[op_id]
        pairs[size] += count / grid_evals(size[0])
    rows = []
    for size in sorted(series_s):
        label = f"grid pair N={size[0]} q={size[1]}"
        rows.append(_row(label, series_s[size] / pairs[size], GRID_BASELINE_S.get(size[0]),
                         " at q=0.7"))
    for dim, mean in _mean_by(spans, "freefermion.eigendecompose").items():
        rows.append(_row(f"eigendecompose 2n={dim}", mean, EIGENDECOMPOSE_BASELINE_S.get(dim)))
    for dim, mean in _mean_by(spans, "linalg.jacobi_eigh").items():
        rows.append(_row(f"jacobi_eigh dim={dim}", mean, SPIN_JACOBI_BASELINE_S.get(dim)))
    for dim, mean in _mean_by(spans, "spinoracle.jw_certify").items():
        rows.append(_row(f"spin oracle dim={dim}", mean, None))
    return rows


def _row(label, seconds, baseline, condition=""):
    base = f"{baseline:.4g} s{condition}" if baseline is not None else "-"
    return f"size {label:<28} {seconds:.6g} s   (ROADMAP baseline {base})"

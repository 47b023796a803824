"""xychain benchmark: closed-loop CLI workloads with output checks.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload verify-qr24 --seed 1 --seconds 20 --trace 0

One run picks the workload's inputs by seed (``bench/gen.py``, in a separate
process), measures set-up in seven fresh processes, then drives
``xychain.cli.main`` in-process from one thread with no think time: whole
cycles of the workload's operations until ``--seconds`` have passed.  Every
output is checked against numpy and against the outcomes recorded in
``bench/data/pool.json`` after the timed phase.

Times are reported at reference host speed.  On a shared host the speed of
one core swings by a quarter within seconds, so a fixed probe that shares no
code with the package (``common.speed_probe``) runs between every two
operations, and each wall time is multiplied by the probe's reference time
over its time around that operation.  The raw wall figures are printed next
to the scaled ones and kept in the run's record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the outside-in tracer installed, and prints the
per-layer metrics (layer times are raw wall times; ``trace.overhead_frac``
compares scaled medians).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run, and the spans of a traced run, are written
under ``.bench_work/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    ROOT, WORK, WORKLOADS, definition, git_commit, import_package, pin_blas_threads, speed_probe,
)

BLAS_THREADS = pin_blas_threads()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from layers import grid_evals, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
SETUP_PROBES = 5
#: Candidate tail percentiles, see :func:`tail`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: Time of :func:`common.speed_probe` on a quiet core of the reference host
#: (2-core x86-64 VM, Python 3.11, numpy 2.4), the speed times are scaled to.
#: On that host the probe reads about 11 ms or, while another tenant shares
#: the core, about 17 ms.
REFERENCE_PROBE_S = 0.011


def load_workload(work_dir):
    with open(work_dir / "schedule.json") as handle:
        schedule = json.load(handle)
    with open(work_dir / "expected.json") as handle:
        expected = json.load(handle)
    return schedule, expected


def op_argv(work_dir, item, tag):
    """Command line of one operation; ``tag`` makes its output path unique."""
    return [
        item["command"],
        "--config",
        str(work_dir / "inputs" / f"{item['config']}.json"),
        "--out",
        str(work_dir / "out" / f"{tag}.{item['ext']}"),
    ]


def run_op(cli, argv):
    """Call ``cli.main`` once; returns ``(exit code, wall seconds, stderr)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed op, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    return code, wall, err.getvalue()


def scaled(wall, before, after):
    """``wall`` at reference host speed, from the speed probes around it."""
    return wall * REFERENCE_PROBE_S / (0.5 * (before + after))


def run_phase(cli, work_dir, schedule, ops, seconds, phase, min_cycles=1, tracer=None):
    """Run whole cycles until ``seconds`` pass; returns the phase wall time.

    A new cycle starts while fewer than ``min_cycles`` ran or at least half a
    mean cycle of time is left, so every phase holds whole cycles and the mix
    of sizes is the same in every run.  A speed probe runs between every two
    ops, outside their timing, and each op's wall time is also recorded
    scaled to reference host speed.
    """
    start = perf_counter()
    cycles = 0
    before = speed_probe()
    while True:
        for item in schedule["ops"]:
            index = len(ops)
            if tracer is not None:
                tracer.op = index
            argv = op_argv(work_dir, item, f"op{index:05d}")
            code, wall, stderr = run_op(cli, argv)
            after = speed_probe()
            ops.append({"op": index, "phase": phase, "item": item, "argv": argv,
                        "code": code, "wall": wall, "probes": (before, after),
                        "scaled": scaled(wall, before, after), "stderr": stderr})
            before = after
        cycles += 1
        elapsed = perf_counter() - start
        if cycles >= min_cycles and elapsed + 0.5 * elapsed / cycles >= seconds:
            return elapsed


def monotonic():
    """System-wide monotonic clock, comparable between processes."""
    return clock_gettime(CLOCK_MONOTONIC)


def setup_probe(work_dir):
    """Set-up as a user pays it: imports, input load and one warm-up op.

    Prints when set-up ended and the host speed right after it.
    """
    xychain = import_package()
    import xychain.cli  # noqa: F401

    schedule, expected = load_workload(work_dir)
    first = schedule["ops"][0]
    code, _, _ = run_op(xychain.cli, op_argv(work_dir, first, f"probe{os.getpid()}"))
    ready = monotonic()
    probe = statistics.median(speed_probe() for _ in range(SETUP_PROBES))
    print(json.dumps({"ready": ready, "probe": probe}))
    return 0 if code == expected[first["config"]]["exit"] else 1


def measure_setup(work_dir):
    """Wall times of fresh processes from start to the first timed op, raw
    and scaled by the speed each process measured right after its set-up."""
    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        start = monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(work_dir)],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        report = json.loads(child.stdout.splitlines()[-1])
        wall = report["ready"] - start
        raw.append(wall)
        times.append(wall * REFERENCE_PROBE_S / report["probe"])
    return raw, times


def percentile(values, p):
    """Harrell-Davis estimate of the ``p``-th percentile of ``values``.

    A weighted mean of all order statistics, weighted by the beta
    distribution of the sample quantile.  A cycle mixes op sizes, so op times
    form clusters with gaps between them, and the tail percentile can fall on
    such a gap (export-qr24: between the N=13 and N=14 spectrum ops); a single
    order statistic then jumps across it when one op runs slow, this estimate
    moves smoothly.  ``op_s.p50`` stays the plain sample median, whose
    estimate here depends less on how many cycles a run held.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    steps = 20000
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, steps + 1), cdf)
    return float(np.diff(edges) @ x)


def tail(walls, n_min):
    """``(value, percentile)`` at the highest ladder percentile that leaves
    ``TAIL_BEYOND`` samples beyond it in the shortest run, of ``n_min`` ops.

    Fixing the percentile by the shortest run keeps it the same in every run
    of a workload, however many cycles the host's speed allowed.  A run too
    short for any ladder percentile (verify-spin: 14 ops)
    reports its slowest op as p100.
    """
    for pct in TAIL_LADDER:
        if n_min * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return percentile(walls, pct), pct
    return max(walls), 100.0


def check_ops(ops, expected):
    """Check every output; returns the list of ``(op, problems)`` failures."""
    failures = []
    oracles = {}
    for op in ops:
        item, code = op["item"], op["code"]
        want = expected[item["config"]]
        path = op["argv"][-1]
        try:
            if code != want["exit"]:
                problems = oracle.check_exit(code, want)
            elif item["command"] == "verify":
                problems = oracle.check_verify(code, path, want)
            elif item["command"] == "scan":
                problems = oracle.check_scan(code, path, op["stderr"], want)
            elif item["command"] == "chain-coeffs":
                problems, chain_oracle = oracle.check_chain_coeffs(path, want)
                if not problems:
                    oracles.setdefault(item["config"], chain_oracle)
            elif item["command"] == "spectrum":
                problems = oracle.check_spectrum(path, want, oracles.get(item["config"]))
            else:
                problems = oracle.check_manybody(path, want, oracles.get(item["config"]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        op["evals_needed"] = evals_needed(op, want, path) if not problems else 0
        op["out_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
        if problems:
            failures.append((op, problems))
    return failures


def evals_needed(op, want, path):
    """Series evaluations the op's reported relation certifications need."""
    command = op["item"]["command"]
    if command == "verify" and oracle.relation_certified(path):
        return grid_evals(want["N"])
    if command == "scan" and op["code"] == 0:
        return want["valid"] * grid_evals(want["N"])
    return 0


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def fmt(value):
    return f"{value:.6g}"


def _listed(kind, values):
    """``values`` as the result's metrics, in the order and units of
    ``BENCHMARK.json``'s ``kind`` list."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition()[kind]}


def end_to_end(ops, n_min, phase_wall, setup, peak_rss_mb):
    """End-to-end metric values and their printed lines.

    Times are scaled to reference host speed (:func:`scaled`); the raw wall
    figures are printed next to them.
    """
    setup_raw, setup_scaled = setup
    walls = [op["scaled"] for op in ops]
    raw = [op["wall"] for op in ops]
    tail_value, tail_pct = tail(walls, n_min)
    beyond = sum(1 for w in walls if w > tail_value)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_value,
        "ops_per_s": len(ops) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"setup_s {fmt(values['setup_s'])} s  (median of {len(setup_scaled)}; raw wall "
        + ", ".join(fmt(t) for t in setup_raw) + ")",
        f"op_s.p50 {fmt(values['op_s.p50'])} s  (n={len(walls)}; raw wall "
        f"{fmt(statistics.median(raw))} s)",
        f"op_s.tail {fmt(tail_value)} s  (p{tail_pct:g}, n={len(walls)}, {beyond} beyond; "
        f"raw wall {fmt(tail(raw, n_min)[0])} s)",
        f"ops_per_s {fmt(values['ops_per_s'])} 1/s  ({len(ops)} ops; raw "
        f"{fmt(len(ops) / phase_wall)} 1/s over a {fmt(phase_wall)} s phase)",
        f"peak_rss_mb {fmt(peak_rss_mb)} MB",
    ]
    return _listed("end_to_end", values), lines


def per_layer(ops, spans, expected):
    """Per-layer metric values of the traced phase and their printed lines."""
    traced = [op for op in ops if op["phase"] == "traced"]
    for op in traced:
        want = expected[op["item"]["config"]]
        op["family"], op["N"], op["q"] = want["family"], want["N"], want.get("q")
    untraced_p50 = statistics.median(op["scaled"] for op in ops if op["phase"] == "untraced")
    traced_p50 = statistics.median(op["scaled"] for op in traced)
    values, notes, rows = layer_metrics(spans, traced, untraced_p50, traced_p50)
    metrics = _listed("per_layer", values)
    lines = []
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {fmt(metric['value'])} {metric['unit']}{note}")
    return metrics, lines + rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(Path(args.setup_probe))
    if args.workload is None:
        parser.error("--workload is required")

    run_start = perf_counter()
    xychain = import_package()
    import xychain.cli  # noqa: F401

    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "out").mkdir(parents=True)
    gen = [sys.executable, str(Path(__file__).resolve().parent / "gen.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--out", str(work_dir)]
    subprocess.run(gen, check=True, cwd=ROOT)
    schedule, expected = load_workload(work_dir)
    env = environment()
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in env.items()))

    setup = None if args.trace else measure_setup(work_dir)
    cli = xychain.cli
    first = schedule["ops"][0]
    argv = op_argv(work_dir, first, "warmup")
    code, wall, stderr = run_op(cli, argv)
    ops = [{"op": -1, "phase": "warmup", "item": first, "argv": argv,
            "code": code, "wall": wall, "stderr": stderr}]
    if args.trace:
        run_phase(cli, work_dir, schedule, ops, args.seconds / 2, "untraced")
        with Tracer() as tracer:
            run_phase(cli, work_dir, schedule, ops, args.seconds / 2, "traced", tracer=tracer)
    else:
        phase_wall = run_phase(cli, work_dir, schedule, ops, args.seconds, "timed",
                               min_cycles=schedule["min_cycles"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_ops(ops, expected)
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    if args.trace:
        metrics, lines = per_layer(ops, tracer.spans, expected)
        with open(work_dir / "spans.json", "w") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    else:
        timed = [op for op in ops if op["phase"] == "timed"]
        n_min = schedule["min_cycles"] * len(schedule["ops"])
        metrics, lines = end_to_end(timed, n_min, phase_wall, setup, peak_rss_mb)
    lines.append(f"failed_frac {fmt(len(failures) / len(ops))} ratio  "
                 f"({len(failures)} of {len(ops)} ops attempted)")
    run_wall = perf_counter() - run_start
    phase_walls = {phase: sum(op["wall"] for op in ops if op["phase"] == phase)
                   for phase in ("timed", "untraced", "traced")}
    lines.append(f"run wall {fmt(run_wall)} s  (op time by phase: "
                 + ", ".join(f"{k} {fmt(v)} s" for k, v in phase_walls.items() if v) + ")")
    for op, problems in failures[:10]:
        lines.append(f"FAILED op {op['op']} {op['item']['command']} "
                     f"{op['item']['config']}: {'; '.join(problems)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "run_wall": run_wall,
        "ops": [{key: op.get(key) for key in ("op", "phase", "code", "wall", "probes", "scaled")}
                | {"command": op["item"]["command"], "config": op["item"]["config"]}
                for op in ops],
        "failures": [{"op": op["op"], "problems": problems} for op, problems in failures],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

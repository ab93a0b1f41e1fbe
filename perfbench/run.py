"""Benchmark entry point: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
workload is a closed loop with one client: the next iteration starts when
the previous one returns. With ``--trace 0`` the run reports the end-to-end
metrics with tracing off; with ``--trace 1`` it alternates traced and
untraced blocks of iterations and reports the per-layer metrics, including
the tracing overhead. End-to-end times are scaled to a fixed machine speed
by a reference kernel timed during the run (``speed.py``); traced times are
not. The last line of standard output is the JSON result;
the lines before it are a readable report. Scratch files go under
``.perfbench_run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads, so every run uses the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

TRACE_BLOCK_S = 1.0     # longest traced / untraced block in a traced run
# setup_s is the median of this many cold set-ups (import + one set-up), each
# in a fresh process: the measured process's own and the rest in child
# processes started one at a time, so they share no warm state and add
# nothing to the measured process's peak_rss_mb. Each is scaled by the
# reference kernel timed right after it (speed.py).
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 120

# The tail (iter_ms.p99) is printed in the report but not bounded: on a
# shared two-core VM it spreads 20-40% between runs (see README.md).
END_TO_END = {
    "setup_s": "s",
    "iter_ms.p50": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

OPS = (
    "matmul", "add", "mul", "relu", "lrelu", "sigmoid", "exp", "log",
    "log_softmax", "reduce_mean", "reduce_sum", "concat", "batchnorm",
)

# Set-up functions: reported per set-up. Every other span is reported per loop iteration.
SETUP_SCOPED = ("data_io.synth_templates", "data_io.load_mnist_idx", "data_io.save_checkpoint")


def _names(name: str, calls: bool = True, self_ms: bool = False) -> list[str]:
    return ([f"{name}.calls"] if calls else []) + [f"{name}.ms"] + ([f"{name}.self_ms"] if self_ms else [])


PER_LAYER = [
    *_names("autodiff.forward_op"),
    *[m for op in (*OPS, "other") for m in _names(f"autodiff.forward_op.{op}")],
    *_names("autodiff.backward"),
    "autodiff.tape_nodes",
    "autodiff.matmul_fwd_flops",
    "autodiff.matmul_fwd_bytes",
    *_names("autodiff.grad_check", self_ms=True),
    *_names("trainer.train_step", calls=False, self_ms=True),
    *_names("trainer.d_step", calls=False, self_ms=True),
    *_names("trainer.gq_step", calls=False, self_ms=True),
    *_names("trainer.adam_step"),
    *[m for f in ("gen_forward", "disc_q_forward") for t in ("taped", "untaped") for m in _names(f"models.{f}.{t}", self_ms=True)],
    *_names("latent.sample_latent"),
    *_names("latent.log_q", self_ms=True),
    *[m for f in ("gan_losses", "generator_loss", "mi_lower_bound", "infogan_losses") for m in _names(f"objectives.{f}", calls=False, self_ms=True)],
    "data_io.synth_templates.ms",
    "data_io.load_mnist_idx.ms",
    "data_io.save_checkpoint.ms",
    "data_io.save_checkpoint.bytes",
    "data_io.load_checkpoint.ms",
    "data_io.write_image_grid.ms",
    *[m for f in ("estimate_mi_bound", "categorical_classifier_eval", "traversal_grid") for m in _names(f"evaluate.{f}", calls=False, self_ms=True)],
    *_names("evaluate.channel_bound_check"),
    *_names("evaluate.verify_lemma"),
    *_names("gradsuite.op_grad_checks", calls=False, self_ms=True),
    *_names("gradsuite.full_loss_graph_check", calls=False, self_ms=True),
    "tracing.overhead_ms",
]

# Per-layer counts that must read the same on every iteration (and so on every run).
COUNTS = [m for m in PER_LAYER if m.endswith(".calls") or m in (
    "autodiff.tape_nodes", "autodiff.matmul_fwd_flops", "autodiff.matmul_fwd_bytes")]


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    return "count"


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """Highest percentile (at most p99) with at least 10 samples beyond it: (value, percentile)."""
    n = len(sorted_values)
    beyond = max(10, n // 100)
    if n <= beyond:
        return sorted_values[-1], 100.0
    return sorted_values[n - 1 - beyond], 100.0 * (n - beyond) / n


def run_loop(workload, seconds: float, tracer=None, speed=None):
    """Closed loop for ``seconds``.

    Returns (untraced latencies, traced latencies, traced ids, iteration end
    times, iteration loop times). ``speed``, in an untraced run, times its
    reference kernel between iterations; that time is outside every
    iteration's loop time.
    """
    untraced, traced, traced_ids, ends, loop_s = [], [], [], [], []
    start = time.perf_counter()
    end = start + seconds
    block_s = min(TRACE_BLOCK_S, seconds / 4)
    block_end = start
    tracing = False
    i = 0
    while True:
        if speed is not None:
            speed.maybe_sample()
        now = time.perf_counter()
        if now >= end:
            break
        if tracer is not None and now >= block_end:
            tracing = not tracing
            tracer.install() if tracing else tracer.uninstall()
            block_end = now + block_s
        i += 1
        if tracing:
            tracer.iteration = i
            traced_ids.append(i)
        dt = workload.step()
        (traced if tracing else untraced).append(dt)
        ends.append(time.perf_counter())
        loop_s.append(ends[-1] - now)
    if tracer is not None:
        tracer.uninstall()
    return untraced, traced, traced_ids, ends, loop_s


def layer_metrics(tracer, traced_ids, checkpoint_bytes, overhead_ms):
    """Per-layer values: loop spans averaged per traced iteration, set-up spans per set-up."""
    rows = tracer.per_unit()
    setup_row = rows.get(0, {})
    loop = [rows.get(i, {}) for i in traced_ids]
    for row in loop:
        fwd = {k[len("autodiff.forward_op."):]: v for k, v in row.items() if k.startswith("autodiff.forward_op.")}
        for stat in ("calls", "ms"):
            row[f"autodiff.forward_op.{stat}"] = sum(v for k, v in fwd.items() if k.endswith("." + stat))
            row[f"autodiff.forward_op.other.{stat}"] = sum(
                v for k, v in fwd.items() if k.endswith("." + stat) and k.rsplit(".", 1)[0] not in OPS
            )
    problems = []
    values = {}
    for name in PER_LAYER:
        if name.rsplit(".", 1)[0] in SETUP_SCOPED:
            values[name] = setup_row.get(name, 0.0)
            continue
        series = [row.get(name, 0.0) for row in loop]
        if name in COUNTS and len(set(series)) > 1:
            problems.append(f"count {name} differs between iterations: {sorted(set(series))[:5]}")
        values[name] = statistics.fmean(series) if series else 0.0
    values["data_io.save_checkpoint.bytes"] = float(checkpoint_bytes)
    values["tracing.overhead_ms"] = overhead_ms
    return values, problems


def cold_setup_s(workload: str, seed: int) -> float:
    """import + one set-up, timed in a fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its seconds and exit")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import infogan_lab
        import speed as speed_mod
        import tracing
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import infogan_lab from {SRC}: {err}", file=sys.stderr)
        return 2
    if not os.path.abspath(infogan_lab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: infogan_lab was imported from {infogan_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}' (have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    setup_times = [] if args.trace or args.setup_only else [
        cold_setup_s(args.workload, args.seed) for _ in range(SETUP_PROCESSES - 1)
    ]
    workdir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare_inputs()
        tracer = tracing.Tracer(infogan_lab) if args.trace else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        setup_s = import_s + time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        speed = speed_mod.Speed()
        for _ in range(speed_mod.WINDOW):
            speed.sample()
        setup_s *= speed.scale(time.perf_counter())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        checkpoint_bytes = os.path.getsize(wl.cfg.checkpoint_out)

        if tracer is not None:
            speed = None   # traced times are reported as measured
        untraced, traced, traced_ids, ends, loop_s = run_loop(wl, args.seconds, tracer, speed)
        iterations = len(untraced) + len(traced)
        scale = speed.scale if speed is not None else (lambda t: 1.0)
        problems = []

        lines = [
            f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
            f"blas_threads={BLAS_THREADS} clients=1 (closed loop) iterations={iterations}"
        ]
        if tracer is None:
            lat = sorted(1000.0 * dt * scale(t) for dt, t in zip(untraced, ends))
            p_tail, pct = tail(lat)
            scaled_wall = sum(s * scale(t) for s, t in zip(loop_s, ends))
            samples_per_s, samples_how = wl.throughput(iterations, scaled_wall, scale)
            metrics = {
                "setup_s": statistics.median(setup_times + [setup_s]),
                "iter_ms.p50": statistics.median(lat),
                "samples_per_s": samples_per_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            lines += [
                f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup_times) + 1} processes' scaled import + one set-up; "
                f"this process: import {import_s:.4f} s unscaled, total {setup_s:.4f} s scaled)",
                f"speed: {speed.summary()}; times below are scaled to {speed_mod.NOMINAL_MS:g} ms",
                f"iter_ms.p50 = {metrics['iter_ms.p50']:.4f} ms (n={len(lat)}; "
                f"unscaled wall-clock p50 {1000.0 * statistics.median(untraced):.4f} ms)",
                f"iter_ms.p99 = {p_tail:.4f} ms (p{pct:.2f} of n={len(lat)})",
                f"samples_per_s = {metrics['samples_per_s']:.1f} 1/s ({samples_how})",
                f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB",
            ]
        else:
            traced_p50 = 1000.0 * statistics.median(traced)
            untraced_p50 = 1000.0 * statistics.median(untraced)
            metrics, problems = layer_metrics(tracer, traced_ids, checkpoint_bytes, traced_p50 - untraced_p50)
            units = {name: per_layer_unit(name) for name in PER_LAYER}
            spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}.csv")
            tracer.write_spans(spans_path)
            lines.append(
                f"tracing.overhead_ms = {metrics['tracing.overhead_ms']:.4f} ms "
                f"(traced p50 {traced_p50:.4f} ms over {len(traced)}, untraced p50 {untraced_p50:.4f} ms over {len(untraced)})"
            )
            lines.append(f"spans: {tracer.span_count()} written to {os.path.relpath(spans_path, ROOT)}")
        ratio = wl.failed / max(wl.attempted, 1)
        lines.append(f"ops_failed_ratio = {ratio:.6g} ratio ({wl.failed} of {wl.attempted} operations failed)")
        lines += wl.report(scale)
        print("\n".join(lines))
        for note in wl.notes + problems:
            print(f"perfbench: {note}", file=sys.stderr)

        result = {
            "correct": wl.failed == 0 and not problems,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

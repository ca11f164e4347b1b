"""ghom benchmark: one seeded workload per process, closed loop, one caller.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/`.  The workload's ops (built from the seed) are replayed in passes
until `--seconds` have gone by, each pass starting with a cold
abelianization cache so every pass does the same work.  Every time is
corrected for the host's speed at that moment (see `HostSpeed`).  Every
answer is checked (see workloads.py).  `--trace 0` reports the end-to-end
metrics, `--trace 1` spends half the time untraced and half traced and
reports the per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
CALIB_LOOP = 1_000_000
# The reference snippet's time at reference speed, about its best time on
# the 2-core Linux container (Python 3.11) the benchmark was sized on.
REFERENCE_S = 0.00025
PROBE_REPEATS = 5
PROBE_EVERY_S = 0.05


def calibrate(repeats=3):
    """A fixed pure-Python loop, timed: how fast this host is right now."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        x = 0
        for i in range(CALIB_LOOP):
            x += i * i
        times.append(perf_counter() - t0)
    return statistics.median(times)


_REF_GRAPH = {i: ((7 * i + 1) % 211, (13 * i + 5) % 211, (31 * i + 2) % 211) for i in range(211)}


def reference_snippet():
    """Fixed pure-Python work of the kinds the library does: integer
    arithmetic, and a breadth-first search over tuple states in dicts and
    sets."""
    x = 0
    for i in range(2_000):
        x += i * i
    seen, frontier = {(0,)}, [(0,)]
    while len(seen) < 200:
        nxt = []
        for state in frontier:
            for w in _REF_GRAPH[state[-1]]:
                t = state[-3:] + (w,)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return x, len(seen)


class HostSpeed:
    """Corrects times for the host's speed at the moment they were taken.

    On a shared host the same code can run up to about twice as slow for
    stretches of a minute or more, longer than a run, so even an op's
    fastest time over a run moves with the host.  The reference snippet is timed
    (best of PROBE_REPEATS) before and after each block of ops lasting
    about PROBE_EVERY_S; every time in the block is multiplied by
    REFERENCE_S / (the faster of the two probes).  A corrected time is the
    time the op would take on a host where the snippet takes REFERENCE_S.
    The library never runs the snippet, so a change to the library moves
    corrected times exactly as much as raw ones."""

    def __init__(self):
        self.probes = []

    def probe(self) -> float:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            reference_snippet()
            best = min(best, perf_counter() - t0)
        self.probes.append(best)
        return best

    def scale(self, before: float, after: float) -> float:
        return REFERENCE_S / min(before, after)


def fresh_import():
    for name in [m for m in sys.modules if m == "ghom" or m.startswith("ghom.")]:
        del sys.modules[name]
    ghom = importlib.import_module("ghom")
    importlib.import_module("ghom.cli")
    return ghom


def setup(build, seed, workdir, host):
    """Import the library and build the inputs SETUP_REPEATS times, each
    between two host probes; setup_s is the median corrected time (raw
    median second), the last build is the one measured."""
    times, raw = [], []
    before = host.probe()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        ghom = fresh_import()
        ops = build(ghom, seed, workdir)
        raw.append(perf_counter() - t0)
        after = host.probe()
        times.append(raw[-1] * host.scale(before, after))
        before = after
    return statistics.median(times), statistics.median(raw), ghom, ops


def run_pass(ops, abcache, host, tracer=None):
    """One closed-loop pass over the ops: corrected latencies, raw
    latencies and result summaries.  Host probes run between ops, outside
    every op's timing."""
    abcache.cache_clear()
    if tracer is not None:
        tracer.install()
    latencies, corrected, summaries = [], [], []
    before, probed_at = host.probe(), perf_counter()
    try:
        for op in ops:
            t0 = perf_counter()
            try:
                raw = op.call()
            except Exception as exc:  # a failing op is counted, the run goes on
                latencies.append(perf_counter() - t0)
                summaries.append(("raised", type(exc).__name__, str(exc)))
            else:
                latencies.append(perf_counter() - t0)
                try:
                    summaries.append(op.summarize(raw))
                except Exception as exc:  # an answer of the wrong shape fails its check
                    summaries.append(("unreadable", type(exc).__name__, str(exc)))
            if perf_counter() - probed_at >= PROBE_EVERY_S or len(latencies) == len(ops):
                after, probed_at = host.probe(), perf_counter()
                scale = host.scale(before, after)
                corrected += [t * scale for t in latencies[len(corrected):]]
                before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return corrected, latencies, summaries


def judge(ops, summaries):
    """Check pass-1 answers.  Returns per-op failure flags, the failure
    messages, the verdict-bearing check counts and the known defects hit."""
    failed, notes, checks, decided, known = [], [], 0, 0, []
    for i, (op, s) in enumerate(zip(ops, summaries)):
        if isinstance(s, tuple) and s and s[0] == "raised":
            failed.append(True)
            if op.known_defect and op.known_defect in s[2]:
                known.append(f"{op.kind}: {s[1]}: {s[2]}")
            else:
                notes.append(f"op {i} ({op.kind}) raised {s[1]}: {s[2]}")
            continue
        try:
            ok, c, d = op.check(s)
        except Exception as exc:  # the oracle itself could not judge: a failure
            ok, c, d = False, 0, 0
            notes.append(f"op {i} ({op.kind}) check raised {type(exc).__name__}: {exc}")
        failed.append(not ok)
        if not ok and len(notes) < 20:
            notes.append(f"op {i} ({op.kind}) wrong answer: {str(s)[:200]}")
        checks += c
        decided += d
    return failed, notes, checks, decided, known


def digest(summary) -> str:
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def tail(values):
    """Nearest-rank value at the highest percentile with at least ten
    samples beyond it: (value, percentile, samples)."""
    xs = sorted(values)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def op_latencies(passes):
    """Each op's latency: the lower quartile (nearest rank) of its times
    over the passes.  The host correction leaves two kinds of noise: a
    preempted op, or one the probes around it did not slow alike, reads
    slow; a probe slowed alone makes the ops next to it read fast.  The
    lower quartile ignores the fastest quarter of readings and the slowest
    half; the minimum, taken alone, would follow the probe noise."""
    return [sorted(lat)[len(lat) // 4] for lat in zip(*passes)]


def summarize_latency(passes):
    """Median and tail across ops of their latencies, and the throughput
    of one caller at those latencies."""
    per_op = op_latencies(passes)
    tail_value, pct, samples = tail(per_op)
    return statistics.median(per_op), tail_value, pct, samples, len(per_op) / sum(per_op)


def measure(ops, ghom, host, seconds, traced):
    """Untraced passes (the first half of the time when traced), then traced
    passes.  Returns corrected latencies per untraced pass, raw ones, the
    corrected ones per traced pass, per-layer metrics per traced pass, pass
    1's summaries, every pass's answer digests and the peak RSS."""
    from tracing import Tracer, ghom_modules

    abcache = ghom.groupoid.abelianized_component
    plain, plain_raw, traced_passes, layer_runs = [], [], [], []
    all_summaries = []
    tracer = Tracer(ghom_modules()) if traced else None
    untraced_budget = seconds / 2 if traced else seconds
    start = perf_counter()
    while not plain or perf_counter() - start < untraced_budget:
        lat, raw, summaries = run_pass(ops, abcache, host)
        plain.append(lat)
        plain_raw.append(raw)
        all_summaries.append([digest(s) for s in summaries])
        if len(plain) == 1:
            first = summaries
    while traced and (not traced_passes or perf_counter() - start < seconds):
        lat, _, summaries = run_pass(ops, abcache, host, tracer)
        traced_passes.append(lat)
        all_summaries.append([digest(s) for s in summaries])
        layer_runs.append(tracer.metrics(abcache.cache_info()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return plain, plain_raw, traced_passes, layer_runs, first, all_summaries, peak_rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ghom" / "__init__.py").is_file():
        print(f"error: no ghom sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2

    calib_s = calibrate()
    host = HostSpeed()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, setup_raw_s, ghom, ops = setup(WORKLOADS[args.workload], args.seed, workdir, host)
        plain, plain_raw, traced_passes, layer_runs, first, all_summaries, peak_rss_mb = measure(
            ops, ghom, host, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    n_ops = len(ops)
    failed_first, notes, checks, decided, known = judge(ops, first)
    # every later pass must reproduce pass 1 answer for answer
    reference = all_summaries[0]
    failed = 0
    for run in all_summaries:
        for i, (d, ref) in enumerate(zip(run, reference)):
            if failed_first[i] or d != ref:
                failed += 1
                if d != ref and len(notes) < 20:
                    notes.append(f"op {i} ({ops[i].kind}) answered differently in a later pass")
    attempted = n_ops * len(all_summaries)
    p50, tail_value, pct, samples, ops_per_s = summarize_latency(plain)
    raw_p50, raw_tail, _, _, raw_ops_per_s = summarize_latency(plain_raw)
    probes = sorted(host.probes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "host.calib_s": round(calib_s, 6),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "ops_per_pass": n_ops,
        "passes_untraced": len(plain),
        "passes_traced": len(traced_passes),
        "latency_tail_percentile": round(pct, 2),
        "latency_tail_samples": samples,
        "host.reference_s": REFERENCE_S,
        "host.probes": len(probes),
        "host.probe_median_s": round(statistics.median(probes), 7),
        "host.probe_iqr_s": [round(q, 7) for q in statistics.quantiles(probes, n=4)[::2]],
        "raw": {"setup_s": setup_raw_s, "ops_per_s": raw_ops_per_s,
                "latency_p50_ms": raw_p50 * 1000, "latency_tail_ms": raw_tail * 1000},
        "decided_ratio": (decided / checks) if checks else None,
        "verdict_checks": checks,
        "error_ratio": failed / attempted,
        "known_defects": known,
        "failures": notes,
        "output_digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
    }
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"latency_tail is p{pct:.1f} of {samples} per-op latencies ({samples - round(pct * samples / 100)} beyond)")
    lines.append(f"times are host-corrected to a {REFERENCE_S * 1000:g} ms reference probe (median probe "
                 f"{statistics.median(probes) * 1000:.4g} ms); raw: setup_s {setup_raw_s:.6g} s, "
                 f"ops_per_s {raw_ops_per_s:.6g} 1/s, latency_p50_ms {raw_p50 * 1000:.6g} ms, "
                 f"latency_tail_ms {raw_tail * 1000:.6g} ms")
    if checks:
        lines.append(f"decided_ratio = {decided / checks:.6g} ratio ({decided}/{checks} verdict-bearing checks)")
    lines.append(f"error_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} ops; known defects: {len(known)})")
    if args.trace:
        layer = {name: (statistics.median(run[name][0] for run in layer_runs), unit)
                 for name, (_, unit) in layer_runs[0].items()}
        traced_ops_per_s = n_ops / sum(op_latencies(traced_passes))
        layer["host.calib_s"] = (calib_s, "s")
        layer["trace.overhead_ops_per_s"] = (ops_per_s - traced_ops_per_s, "1/s")
        layer["trace.overhead_share"] = (1 - traced_ops_per_s / ops_per_s, "ratio")
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in layer.items()]
        metrics = layer
    else:
        metrics = e2e
    for line in lines:
        print(line)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

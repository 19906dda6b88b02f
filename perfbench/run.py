"""widthlab benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload chain_corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; widthlab is imported from its `src/`.
One caller runs the workload's ops back to back in one thread, round and
round, until --seconds have passed; times are scaled to a quiet host by
the probe in hostspeed.py.  Every op's output is replayed by
`replay` and its digest is compared with `digests.json` (committed for
the default seeds) and with the op's first run.  The last stdout line is
one JSON object: `correct`, `attempted`, `failed` and `metrics` -- the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  See NOTES.md for the workloads and the layer-to-metric map.

Other modes:
    --steadiness       run each workload on seeds 1-10 and report spreads
    --smoke            show that corrupted witnesses and digests count as failed ops
    --record-digests   write digests.json for the given workloads and seeds
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEEDS = range(1, 11)
SETUP_REPEATS = 31
QUOTA_S = 2.0


class BenchError(Exception):
    pass


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(xs, q: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Set-up, ops and their verification


def setup(name: str, seed: int, fresh: bool = True, mods: dict | None = None):
    """Import widthlab (afresh unless told otherwise) and build the ops."""
    if fresh:
        mods = workloads.load_widthlab()
        where = Path(mods["widthlab"].__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise BenchError(f"widthlab was imported from {where}, not from {SRC}")
    ops, shapes = workloads.WORKLOADS[name](mods, seed)
    return mods, ops, shapes


def timed_setups(name: str, seed: int, probe):
    """Set up SETUP_REPEATS times; returns the last set-up and each one's
    (start, end, busy seconds), the probe's handler time taken out."""
    runs = []
    for _ in range(SETUP_REPEATS):
        # Collect the previous copy of widthlab here, not inside the next timing.
        gc.collect()
        spent = probe.spent
        t0 = time.perf_counter()
        mods, ops, shapes = setup(name, seed)
        t1 = time.perf_counter()
        runs.append((t0, t1, t1 - t0 - (probe.spent - spent)))
    gc.collect()
    return runs, mods, ops, shapes


def run_op(op):
    """(seconds, result, error) of one op."""
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a dead run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


class Verifier:
    """Counts failed op runs.  An op's first good run is replayed in full
    and held to the committed digest; every later run must repeat it."""

    def __init__(self, ops, committed: list | None):
        self.ops = ops
        self.committed = committed
        self.first: list = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, op, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.name}: {problem}")

    def add(self, i: int, result, error) -> str | None:
        op = self.ops[i]
        self.attempted += 1
        if error is not None:
            self._fail(op, error)
            return None
        d = digest(op.encode(result))
        if self.first[i] is not None:
            if d != self.first[i]:
                self._fail(op, "output differs from the op's first run")
            return d
        self.first[i] = d
        problems = op.check(result)
        if self.committed is not None and d != self.committed[i]:
            problems.append("digest differs from the committed digest")
        if problems:
            self._fail(op, "; ".join(problems))
        return d


def committed_digests(name: str, seed: int, shapes) -> list | None:
    if not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    if entry is None:
        return None
    if entry["inputs"] != inputs_digest(shapes):
        raise BenchError(f"inputs of {name} seed {seed} differ from the committed inputs")
    return entry["ops"].split()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, verifier, seconds: float, probe):
    """Every op once, then round and round until `seconds` have passed.

    After the first pass an op runs again only while its runs have taken
    less than QUOTA_S in all (or when no op is left under it).  A few
    ops of seconds each make most of a pass of `chain_corpus` and
    `subset_dp`; repeating them would leave the many short ops with one
    or two runs, whose scaling rests on a few probe samples.  A long op's
    one run holds hundreds of samples.

    Returns each op's runs as (start, end, busy seconds), the probe's
    handler time taken out, and the peak RSS after the first pass: later
    passes only add allocator fragmentation, which moved the peak of
    `subset_dp` between 62 and 93 MiB from run to run.
    """
    runs = [[] for _ in ops]
    busy = [0.0] * len(ops)
    rss = None
    t0 = time.perf_counter()
    while rss is None or time.perf_counter() - t0 < seconds:
        due = [i for i in range(len(ops)) if rss is None or busy[i] < QUOTA_S]
        for i in due or range(len(ops)):
            if rss is not None and time.perf_counter() - t0 >= seconds:
                break
            spent = probe.spent
            start = time.perf_counter()
            elapsed, result, error = run_op(ops[i])
            elapsed -= probe.spent - spent
            runs[i].append((start, time.perf_counter(), elapsed))
            busy[i] += elapsed
            verifier.add(i, result, error)
        rss = rss or peak_rss_mib()
    return runs, rss


def quiet_time(probe, runs) -> float:
    """Median over runs of each run's busy time divided by the host's
    slowdown while it ran: the time on a quiet host."""
    return statistics.median(busy / probe.slowdown(start, end) for start, end, busy in runs)


def memory_pass(ops) -> dict:
    """Peak traced allocation (tracemalloc) of each memory layer's first op.

    tracemalloc slows these DPs 15-20x (the n = 18 treewidth call alone
    takes about 40 s under it), so only one call per layer is traced: the
    n = 16 graph for treewidth, pathwidth and cycle rank, an n = 12 graph
    for the separator number.
    """
    peaks = {}
    for op in ops:
        if op.layer in workloads.MEMORY_LAYERS and op.layer not in peaks:
            tracemalloc.start()
            try:
                op.run()
                peaks[op.layer] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return peaks


# ---------------------------------------------------------------------------
# Provenance


def inputs_digest(shapes) -> str:
    return digest(json.dumps(shapes).encode())


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "widthlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args, shapes, committed, passes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "inputs": {"count": len(shapes), "digest": inputs_digest(shapes)},
        "digests": "committed" if committed is not None else "not committed for this seed",
        "passes": passes,
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end_run(args):
    """Timings with tracing off, each scaled to a quiet host (see
    hostspeed.py): on a shared machine the same call can run 1.3 to 2.4
    times slower for minutes at a time."""
    probe = hostspeed.SpeedProbe()
    probe.start()
    try:
        setup_runs, _, ops, shapes = timed_setups(args.workload, args.seed, probe)
        committed = committed_digests(args.workload, args.seed, shapes)
        verifier = Verifier(ops, committed)
        runs, rss = measure(ops, verifier, args.seconds, probe)
    finally:
        probe.stop()
    per_op = [quiet_time(probe, r) for r in runs]
    values = {
        "setup_s": quiet_time(probe, setup_runs),
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p95_ms": 1e3 * percentile(per_op, 95),
        "peak_rss_mib": rss,
    }
    report = {
        "ops_total": verifier.attempted,
        "ops_failed": verifier.failed,
        "ops_per_pass": len(ops),
        "runs_per_op": [min(map(len, runs)), max(map(len, runs))],
        "raw_setup_s": statistics.median(busy for _, _, busy in setup_runs),
        "raw_wall_s": sum(statistics.median(busy for _, _, busy in r) for r in runs),
        "host_slowdown": statistics.median(probe.costs) / hostspeed.QUIET_KERNEL_S,
        "host_samples": len(probe.costs),
    }
    return values, verifier, report, provenance(args, shapes, committed, min(map(len, runs))), []


def traced_run(args):
    """Every op runs untraced and traced, back to back and in alternating
    order, so that drift on a shared machine cancels out of the overhead
    ratio.  Each op runs twice, so the loop measures for half of --seconds."""
    mods, ops, shapes = setup(args.workload, args.seed)
    committed = committed_digests(args.workload, args.seed, shapes)
    verifier = Verifier(ops, committed)
    tracer = tracing.Tracer()
    tracer.attach(mods)
    tracer.install()
    try:
        # Set up again under the tracer, so generator and corpus spans count.
        _, ops, _ = setup(args.workload, args.seed, fresh=False, mods=mods)
    finally:
        tracer.uninstall()
    seconds = {False: 0.0, True: 0.0}
    codes, out_bytes, passes = [], 0, 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < args.seconds / 2:
        for i, op in enumerate(ops):
            for traced in ((False, True), (True, False))[i % 2]:
                if traced:
                    tracer.install()
                try:
                    elapsed, result, error = run_op(op)
                finally:
                    tracer.uninstall()
                seconds[traced] += elapsed
                verifier.add(i, result, error)
                if traced and op.encode is workloads.encode_cli and result is not None:
                    codes.append(result[0])
                    out_bytes += len(result[1].encode())
        passes += 1
    summary = tracer.summary()
    problems = tracing.check_trace(summary, workloads.TRACE_EXPECT[args.workload])

    values = {}
    for name in tracing.SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.self_s"] = row["self_s"] / passes
        values[f"{name}.calls"] = row["calls"] / passes
    values["cli.output_bytes"] = out_bytes / passes
    values["cli.exit_codes"] = codes.count(1) / passes
    peaks = memory_pass(ops) if args.workload == "subset_dp" else {}
    for layer in workloads.MEMORY_LAYERS:
        values[f"{layer}.alloc_peak_mib"] = peaks.get(layer, 0) / 2**20
    values["trace.overhead_ratio"] = seconds[True] / seconds[False]
    report = {
        "ops_total": verifier.attempted,
        "ops_failed": verifier.failed,
        "exit_codes": {str(c): codes.count(c) for c in sorted(set(codes))},
        "trace_problems": problems,
        "untraced_s": seconds[False],
        "traced_s": seconds[True],
    }
    return values, verifier, report, provenance(args, shapes, committed, passes), problems


def metric_block(values: dict, kind: str) -> dict:
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def bench(args) -> int:
    if not (SRC / "widthlab" / "__init__.py").is_file():
        print(f"error: no widthlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runner = traced_run if args.trace else end_to_end_run
    values, verifier, report, prov, trace_problems = runner(args)
    metrics = metric_block(values, "per_layer" if args.trace else "end_to_end")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    for problem in verifier.problems + trace_problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = verifier.failed == 0 and not trace_problems
    print(json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Self-checks of the benchmark


def run_child(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result and the `report` line of one end-to-end run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    report = next(json.loads(line[7:]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), report


def steadiness(args) -> int:
    """Each end-to-end metric's median and quartile spread over the seeds."""
    bench_spec = spec()
    bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench_spec["workloads"]]
    seconds = args.seconds or bench_spec["run_seconds"]
    worst = 0
    for workload in names:
        runs = []
        for seed in args.seeds:
            result, report = run_child(workload, seed, seconds)
            if not result["correct"]:
                worst = 2
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1].items())
                + f" host_slowdown={report['host_slowdown']:.3g}", flush=True)
        for name, bound in bounds.items():
            xs = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                if name != "setup_s":
                    worst = max(worst, 1)
            print(f"  {workload:15s} {name:13s} median {med:10.5g}  spread {spread:6.3f}  "
                  f"bound {bound}  {verdict}", flush=True)
    return worst


def smoke(args) -> int:
    """A corrupted witness, value or digest must count as a failed op."""
    sys.path.insert(0, str(SRC))
    wrong = 0

    def expect(name, case, verifier, want):
        nonlocal wrong
        ok = verifier.failed == want
        wrong += not ok
        print(f"{name:15s} {case:16s} failed {verifier.failed} of {verifier.attempted} "
              f"(expected {want}) {'ok' if ok else 'WRONG'}")

    for name in workloads.WORKLOADS:
        _, ops, _ = setup(name, 1)
        picked = workloads.one_op_per_kind(ops)
        results = [run_op(op)[1:] for op in picked]
        clean = Verifier(picked, None)
        for i, (result, error) in enumerate(results):
            clean.add(i, result, error)
        expect(name, "clean", clean, 0)

        corrupted = Verifier(picked, None)
        for i, (op, (result, _)) in enumerate(zip(picked, results)):
            corrupted.add(i, op.corrupt(result), None)
        expect(name, "corrupt result", corrupted, len(picked))

        bad_digest = Verifier(picked, ["0" * 16] * len(picked))
        for i, (result, _) in enumerate(results):
            bad_digest.add(i, result, None)
        expect(name, "corrupt digest", bad_digest, len(picked))

        # A later run that disagrees with the op's first run fails too.
        rerun = Verifier(picked, list(clean.first))
        rerun.add(0, results[0][0], None)
        rerun.add(0, picked[0].corrupt(results[0][0]), None)
        expect(name, "rerun mismatch", rerun, 1)
    print("smoke: " + ("all corruptions detected" if not wrong else f"{wrong} cases wrong"))
    return 1 if wrong else 0


def record_digests(args) -> int:
    sys.path.insert(0, str(SRC))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    for name in names:
        for seed in args.seeds:
            _, ops, shapes = setup(name, seed)
            verifier = Verifier(ops, None)
            digests = [verifier.add(i, *run_op(op)[1:]) for i, op in enumerate(ops)]
            if verifier.failed:
                print(f"{name} seed {seed}: {verifier.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {
                "inputs": inputs_digest(shapes), "ops": " ".join(digests)}
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {len(digests)} op digests", flush=True)
    return 0


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--workloads", help="comma-separated, for --steadiness/--record-digests")
    ap.add_argument("--seeds", type=parse_seeds, default=list(DEFAULT_SEEDS),
                    help="seed range a-b, for --steadiness/--record-digests")
    args = ap.parse_args(argv)
    try:
        if args.steadiness:
            return steadiness(args)
        if args.smoke:
            return smoke(args)
        if args.record_digests:
            return record_digests(args)
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ginv: one workload, one seed, one closed loop.

    python3 bench/run.py --workload core_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A single caller calls the library (or
``ginv.cli.run()``) and waits for each result before the next call; each
call is timed from outside, and its output is checked exactly afterwards,
outside the timed region.  Operations come in cycles of a fixed mix (see
workloads.py); the loop runs whole cycles until ``--seconds`` of timed
calls have accumulated.  Latency and throughput are bounded in units of
``reference()``, timed around every call; the same figures in ms are
printed beside them.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics named in BENCHMARK.json.  With ``--trace 1`` the loop runs
untraced for half the time, then replays the same cycles with the
library wrapped (tracer.py), and the last line carries the per-layer
metrics together with the tracing overhead.  Full results and spans are
written to bench/out/.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEMO = os.path.join("tests", "data", "demo.mx")
GOLDEN = os.path.join("tests", "data", "report_demo.golden")
WORKLOADS = ("core_ladder", "cli_docs", "probe_mix")
COLD_RUNS = 15
MIN_OPS = 100      # so that p90 has at least ten samples beyond it
# Printed beside the metrics of BENCHMARK.json: (unit, better).
EXTRA_UNITS = {"throughput_ops_s": ("1/s", "higher"),
               "latency_p50_ms": ("ms", "lower"), "latency_p90_ms": ("ms", "lower"),
               "reference_p50_ms": ("ms", "reference"),
               "fail_frac": ("frac", "lower"), "decided_frac": ("frac", "higher"),
               "cli_cold_p50_ms": ("ms", "lower"),
               "python_startup_p50_ms": ("ms", "reference"),
               "import_p50_s": ("s", "lower"), "build_p50_s": ("s", "lower"),
               "cycles": ("count", ""), "ops_per_phase": ("count", ""),
               "input.rank_deficient_frac": ("frac", ""),
               "input.high_height_frac": ("frac", ""),
               "input.rank_x_ne_rank_c_frac": ("frac", "")}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Stats:
    """What one phase of the loop measured."""

    def __init__(self):
        self.latency_ns = []
        self.ref_ns = []
        self.build_s = []
        self.failed = 0
        self.failures = []
        self.probes = 0
        self.decided = 0
        self.deficient = 0
        self.high = 0
        self.rank_x_ne_rank_c = 0
        self.cycles = 0

    @property
    def attempted(self):
        return len(self.latency_ns)

    @property
    def timed_s(self):
        return sum(self.latency_ns) / 1e9

    @property
    def latency_ref(self):
        """Each operation's time in reference units (see `reference`)."""
        return [t / r for t, r in zip(self.latency_ns, self.ref_ns)]


def make_cases(workload, seed, cycle):
    import workloads
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    if workload == "core_ladder":
        return workloads.core_ladder(rng)
    if workload == "probe_mix":
        return workloads.probe_mix(rng, ROOT)
    docdir = os.path.join(HERE, "out", "docs")
    os.makedirs(docdir, exist_ok=True)
    return workloads.cli_docs(rng, ROOT, docdir)


def reference():
    """A fixed pure-Python computation on Fractions, about 0.25 ms, with no
    call into ginv.  It is timed just before and just after every
    operation; the mean of the two is the reference unit for that
    operation.  On a shared virtual machine the speed of a core can
    change by 1.8x for seconds to minutes (seen on a 2-vCPU x86_64 VM);
    the reference unit slows down with the library, so times in reference
    units stay steady where times in ms do not."""
    a = Fraction(1, 3)
    for i in range(60):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, 7)
    return a


def reference_ns():
    t = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t


def probe_kind(op, res):
    from workloads import PROBE_KINDS
    return res[0].kind if op.name == "probe" else PROBE_KINDS.get(res[0])


def run_cycles(workload, seed, cycles, seconds, stats, tracer=None, sidecar=None):
    """Run cycles 0, 1, ... until `seconds` of timed calls and MIN_OPS
    operations (or exactly `cycles` cycles, when given); returns the number
    of cycles run."""
    from checks import CheckFailed
    k = 0
    op_id = 0
    while ((k < cycles) if cycles is not None
           else (stats.timed_s < seconds or stats.attempted < MIN_OPS)):
        cases = make_cases(workload, seed, k)
        gc.collect()
        t0 = time.perf_counter()
        ops = [op for build in cases for op in build()]
        stats.build_s.append(time.perf_counter() - t0)
        crng = random.Random(f"check:{workload}:{seed}:{k}")
        for op in ops:
            exc = res = None
            before = reference_ns()
            if tracer is not None:
                tracer.begin_op(op_id)
            t = time.perf_counter_ns()
            try:
                res = op.call()
            except Exception as e:  # judged by the check
                exc = e
            dt = time.perf_counter_ns() - t
            if tracer is not None:
                tracer.end_op()
            stats.ref_ns.append((before + reference_ns()) / 2)
            op_id += 1
            stats.latency_ns.append(dt)
            try:
                op.check(res, exc, crng)
            except CheckFailed as e:
                record_failure(stats, op, str(e))
            except Exception as e:  # a malformed output is a failure too
                record_failure(stats, op, f"check raised {type(e).__name__}: {e}")
            p = op.props
            stats.deficient += p["deficient"]
            stats.high += p["high"]
            if p["probe"]:
                stats.probes += 1
                stats.rank_x_ne_rank_c += bool(p["rank_x_ne_rank_c"])
                if exc is None and probe_kind(op, res) in ("witness", "infeasible"):
                    stats.decided += 1
            if sidecar is not None:
                sidecar.maybe()
        k += 1
    stats.cycles += k
    return k


def record_failure(stats, op, reason):
    stats.failed += 1
    if len(stats.failures) < 20:
        stats.failures.append(f"{op.name}: {reason}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Sidecar:
    """Samples taken in fresh child processes, one child at a time, spread
    over the whole loop (between operations, outside their timing), so a
    few slow seconds of a shared machine move their medians less.

    Each step times the import of ginv inside a fresh interpreter and, when
    `cold` is set, a bare interpreter and a cold `report --candidate X1` on
    the demo document, checked against the golden file.
    """

    IMPORT = ("import time; t = time.perf_counter(); import ginv; "
              "print(time.perf_counter() - t)")

    def __init__(self, seconds, cold):
        with open(os.path.join(ROOT, GOLDEN), "rb") as fh:
            self.golden = fh.read()
        self.cold = cold
        self.interval = seconds / COLD_RUNS
        self.next_at = time.perf_counter()
        self.bare, self.cli, self.imports = [], [], []
        self.cli_ok = True

    def maybe(self):
        if len(self.imports) < COLD_RUNS and time.perf_counter() >= self.next_at:
            self.step()
            self.next_at = time.perf_counter() + self.interval

    def finish(self):
        while len(self.imports) < COLD_RUNS:
            self.step()

    def step(self):
        if self.cold:
            self.bare.append(self._timed([sys.executable, "-c", "pass"])[0])
            dt, proc = self._timed([sys.executable, "-m", "ginv.cli", "report",
                                    "--file", DEMO, "--candidate", "X1"])
            self.cli.append(dt)
            self.cli_ok = (self.cli_ok and proc.returncode == 1
                           and proc.stdout == self.golden)
        _, proc = self._timed([sys.executable, "-c", self.IMPORT])
        if proc.returncode != 0:
            fail(f"importing ginv failed: {proc.stderr.decode()[-500:]}")
        self.imports.append(float(proc.stdout))

    @staticmethod
    def _timed(argv):
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=120)
        return time.perf_counter() - t, proc


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(stats, sidecar):
    sidecar.finish()
    lat_ms = [x / 1e6 for x in stats.latency_ns]
    lat_ref = stats.latency_ref
    metrics = {
        "setup_s": (statistics.median(sidecar.imports)
                    + statistics.median(stats.build_s)),
        "throughput_ops_kref": stats.attempted / sum(lat_ref) * 1e3,
        "latency_p50_ref": statistics.median(lat_ref),
        "latency_p90_ref": p90(lat_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    median = lambda xs, scale=1: statistics.median(xs) * scale if xs else None
    extra = {
        "throughput_ops_s": stats.attempted / stats.timed_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90(lat_ms),
        "reference_p50_ms": median(stats.ref_ns, 1e-6),
        "fail_frac": stats.failed / stats.attempted,
        "decided_frac": stats.decided / stats.probes if stats.probes else None,
        "cli_cold_p50_ms": median(sidecar.cli, 1e3),
        "python_startup_p50_ms": median(sidecar.bare, 1e3),
        "import_p50_s": median(sidecar.imports),
        "build_p50_s": median(stats.build_s),
        "cycles": stats.cycles,
        "samples": {"latency": stats.attempted, "setup": len(stats.build_s),
                    "import": len(sidecar.imports), "cli_cold": len(sidecar.cli),
                    "probes": stats.probes},
    }
    return metrics, extra, sidecar.cli_ok


def shares(stats):
    n = stats.attempted
    return {
        "input.rank_deficient_frac": stats.deficient / n,
        "input.high_height_frac": stats.high / n,
        "input.rank_x_ne_rank_c_frac":
            stats.rank_x_ne_rank_c / stats.probes if stats.probes else 0.0,
    }


def per_layer(args, tracer_mod):
    """Untraced half, then the same cycles traced; per-layer metrics."""
    plain = Stats()
    cycles = run_cycles(args.workload, args.seed, None, args.seconds / 2, plain)
    tracer = tracer_mod.Tracer()
    uninstall = tracer_mod.install(tracer)
    traced = Stats()
    try:
        run_cycles(args.workload, args.seed, cycles, None, traced, tracer)
    finally:
        uninstall()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write_spans(os.path.join(HERE, "out", f"spans-{args.workload}.tsv"))
    metrics = layer_metrics(tracer)
    metrics.update(shares(traced))
    metrics["trace.overhead_frac"] = (sum(traced.latency_ref)
                                      / sum(plain.latency_ref) - 1)
    return metrics, plain, traced


SPANS = ("matrix.rank_normal_form", "matrix.matmul", "matrix.inverse_regular",
         "oneinv.family_from", "oneinv.symbolic", "linsys.solve_right",
         "axb.consistency_check", "axb.penrose_general_solution",
         "axb.shifted_general_solution", "axb.solution_dimension",
         "kron.kronecker", "kron.solve_axb_via_kron", "represent.probe",
         "represent.eliminate_affine", "represent.replay", "poly.symmatmul",
         "poly.substitute", "mxfile.load_document", "cli.run", "cli.render")
COUNTS = ("scalar.mul", "scalar.add", "scalar.inverse", "matrix.construct")
TALLIES = ("kron.kronecker.entries", "linsys.solve_right.inconsistent",
           "represent.eliminate_affine.steps", "represent.verdict.witness",
           "represent.verdict.infeasible", "represent.verdict.unknown",
           "mxfile.load_document.bytes", "cli.render.bytes",
           "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3")


def layer_metrics(tracer):
    summary = tracer.summary()
    counts = tracer.counts
    m = {}
    for name in SPANS:
        calls, self_ms, _ = summary.get(name, (0, 0.0, 0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = self_ms
    for name in COUNTS:
        m[f"{name}.calls"] = counts[name]
    for name in TALLIES:
        m[name] = counts[name]
    rnf_calls = m["matrix.rank_normal_form.calls"]
    m["matrix.rnf_repeat_frac"] = (counts["matrix.rnf_repeat"] / rnf_calls
                                   if rnf_calls else 0.0)
    per_probe, probes = tracer.children_per_parent("represent.eliminate_affine",
                                                   "represent.probe")
    m["represent.sampling_attempts"] = sum(max(0, k - 1) for k in per_probe.values())
    decided = counts["represent.verdict.witness"] + counts["represent.verdict.infeasible"]
    m["represent.decided_frac"] = decided / probes if probes else 0.0
    m["trace.errors"] = sum(e for _, _, e in summary.values())
    m["trace.spans"] = len(tracer.name)
    return m


def select(spec, measured):
    """The metrics BENCHMARK.json names, with their units; a name the run
    did not measure is an error in the benchmark itself."""
    missing = [s["name"] for s in spec if s["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {missing}")
    return {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]}
            for s in spec}


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        unit, better = units[name]
        shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float)
                                             else str(value))
        print(f"  {name:42s} {shown:>14s} {unit:6s} {better}")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    for need in (os.path.join(SRC, "ginv", "__init__.py"),
                 os.path.join(ROOT, DEMO), os.path.join(ROOT, GOLDEN),
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(need):
            fail(f"missing {os.path.relpath(need, ROOT)}; run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import ginv  # noqa: F401  (imported before any child, so its bytecode is cached)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "cpus": os.cpu_count()}
    if args.trace:
        import tracer
        measured, plain, stats = per_layer(args, tracer)
        wanted = spec["per_layer"]
        attempted = plain.attempted + stats.attempted
        failed = plain.failed + stats.failed
        failures = plain.failures + stats.failures
        correct = failed == 0
        extra = {"cycles": stats.cycles, "ops_per_phase": stats.attempted}
    else:
        stats = Stats()
        sidecar = Sidecar(args.seconds, cold=args.workload == "cli_docs")
        run_cycles(args.workload, args.seed, None, args.seconds, stats,
                   sidecar=sidecar)
        measured, extra, cold_ok = end_to_end(stats, sidecar)
        extra.update(shares(stats))
        wanted = spec["end_to_end"]
        attempted, failed, failures = stats.attempted, stats.failed, stats.failures
        correct = failed == 0 and cold_ok
        if not cold_ok:
            failures.append("cold CLI report differs from report_demo.golden")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": select(wanted, measured)}
    full = dict(info, result=result, extra=extra, failures=failures)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"ginv benchmark: {args.workload}, seed {args.seed}, "
          f"Python {info['python']} on {info['machine']} x{info['cpus']}")
    print_table("metrics:", measured,
                {s["name"]: (s["unit"], s["better"]) for s in wanted})
    print_table("also measured:", {k: v for k, v in extra.items()
                                   if not isinstance(v, dict)}, EXTRA_UNITS)
    if "samples" in extra:
        print("samples: " + ", ".join(f"{k} {v}" for k, v in extra["samples"].items()))
    for reason in failures:
        print(f"FAILED {reason}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

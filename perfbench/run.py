"""Benchmark of the gaussgauge sweep CLI, matrix-equation solvers and verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. One run makes the workload's inputs from the seed, repeats whole
passes of it for about S seconds, checks every output, and prints a
summary followed, on the last line, by one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics: set-up time of a fresh interpreter, pass wall
           time, rows/s, command and call latencies and peak RSS; times are
           at the nominal host speed (see "Host speed" below).
--trace 1  per-layer metrics: half of the time untraced, half with every
           public package function wrapped (see tracing.py); the wrappers
           are removed before the run ends.
--self-test  perturb every output before it is checked; every check must
           then fail, which the summary confirms.

`attempted`/`failed` count commands, library calls and oracle-checked rows
(ops_total/ops_failed). `correct` is false when any check fails other than
the known package defects listed in checks.KNOWN.
"""

import argparse
import bisect
import glob
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

# One BLAS thread, set before numpy loads and inherited by the set-up
# interpreters. With the default two OpenBLAS threads on two shared cores,
# any other load on the host slows the 10x10 to 100x100 solves of verify and
# solvers by 1.4x to 4x, so the figures measured the neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
SAMPLE_ROWS = 200
MIN_PASSES = 3       # untraced passes: a median of three; byte identity needs two
DEADLINE_S = 140.0   # start no pass after this, so a run ends well within 180 s


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#
# The host runs other machines' work on the same cores, and its speed moves by
# 30 to 45% in phases of seconds to minutes: a fixed pure-Python loop then
# slows as much as the package does. So a fixed reference kernel is timed
# between the timed operations, and each operation's time is reported at the
# kernel's nominal speed: measured time x REF_NOMINAL_S / (kernel time
# around that operation). A change to the package moves that figure as much as
# the measured time; a slow phase of the host moves operation and kernel alike.

REF_NOMINAL_S = 3e-3     # about the kernel's median time on the 2-core machine of the baseline
REF_SHARE = 0.1          # kernel time kept at about this share of the timed time
LOCAL_SAMPLES = 20       # kernel samples taken on each side of an operation

_REF_S = np.array([[2.0, 0.3], [0.3, 1.0]])
_REF_V = np.array([1.0, -0.5])


def reference_kernel():
    """Fixed work of the kinds the package does, interpreter-bound Python and
    small LAPACK calls, using nothing of the package."""
    total = 0.0
    for k in range(100):
        S = _REF_S + (1e-3 * k) * _REF_S
        total += float(np.linalg.eigvalsh(S)[0]) + float(np.linalg.solve(S, _REF_V)[0])
        for i in range(300):
            total += i * 1e-9
    return total


class HostSpeed:
    """Reference-kernel times, and when each ended, sampled between timed work."""

    def __init__(self):
        self.ends = []
        self.samples = []
        self.spent = 0.0

    def _sample(self):
        start = time.perf_counter()
        reference_kernel()
        self.ends.append(time.perf_counter())
        self.samples.append(self.ends[-1] - start)
        self.spent += self.samples[-1]

    def batch(self, count):
        for _ in range(count):
            self._sample()

    def keep_up(self, timed_s):
        """Run the kernel until its total time reaches REF_SHARE of
        `timed_s`, the timed time so far."""
        while self.spent < REF_SHARE * timed_s:
            self._sample()

    def nominal(self, seconds, start, end):
        """`seconds`, measured over [start, end], at the nominal speed: the
        kernel time there is the mean of the medians of the LOCAL_SAMPLES
        samples before `start` and after `end`."""
        i, j = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        sides = [self.samples[max(0, i - LOCAL_SAMPLES):i], self.samples[j:j + LOCAL_SAMPLES]]
        return seconds * REF_NOMINAL_S / statistics.fmean(
            statistics.median(side) for side in sides if side)


def measure_setup():
    """Median time for a fresh interpreter to import gaussgauge and its CLI,
    measured and at nominal speed."""
    code = ("import time; t = time.perf_counter(); import gaussgauge, gaussgauge.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    runs, speed = [], HostSpeed()
    for i in range(SETUP_REPEATS + 1):  # the first import also writes bytecode caches
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        end = time.perf_counter()
        if done.returncode != 0:
            _fail(f"fresh import failed: {done.stderr.strip()}")
        speed.batch(LOCAL_SAMPLES)
        if i:
            runs.append((float(done.stdout), start, end))
    measured = [t for t, _, _ in runs]
    nominal = [speed.nominal(*run) for run in runs]
    return statistics.median(measured), statistics.median(nominal)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _openblas_threads(libdir):
    import ctypes

    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas(module):
    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libdir = os.path.dirname(module.__file__) + ".libs"
    return {"vendor": f"{info.get('name')} {info.get('version')}",
            "threads": _openblas_threads(libdir)}


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def environment():
    """Facts that change the numbers; results are comparable only when equal
    (the commit aside)."""
    import scipy

    kernels = sys.modules.get("gaussgauge._kernels")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(np),
        "blas_scipy": _blas(scipy),
        "jit_enabled": bool(getattr(kernels, "JIT_ENABLED", False)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Passes and checks
# ---------------------------------------------------------------------------


class Bench:
    """Runs passes over a workload's operations, checks every output and
    counts the outcomes."""

    def __init__(self, ops, seed, self_test):
        self.ops = ops
        self.seed = seed
        self.self_test = self_test
        self.first = {}          # label -> (sha256 of the first output, the output)
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.fired = Counter()   # check name -> failures
        self.passes = []         # per pass: ([op seconds], [op starts], span range or None if untraced)
        self.rows_per_pass = 0
        self.bytes_per_pass = 0
        self.first_error = None
        self.speed = HostSpeed()
        self.timed_s = 0.0

    def _outcome(self, failed_checks):
        self.attempted += 1
        self.fired.update(failed_checks)
        if failed_checks:
            self.failed += 1
            if set(failed_checks) <= set(checks.KNOWN):
                self.known_failed += 1

    def run_pass(self, tracer=None):
        traced = tracer is not None
        first_span = len(tracer) if traced else None
        latencies, starts = [], []
        if not self.speed.samples:
            self.speed.batch(LOCAL_SAMPLES)  # kernel samples before the first operation
        for op in self.ops:
            start = time.perf_counter()
            starts.append(start)
            try:
                result, error = op.call(), None
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                result, error = None, exc
                self.first_error = self.first_error or f"{op.label}: {exc!r}"
            latencies.append(time.perf_counter() - start)
            self.timed_s += latencies[-1]
            self.speed.keep_up(self.timed_s)
            self._outcome(["exception"] if error is not None else self._check(op, result))
        self.passes.append((latencies, starts, (first_span, len(tracer)) if traced else None))

    def _check(self, op, result):
        failed = []
        if op.kind == "solver":
            out = checks.solver_output(op.spec["fn"], result)
            if self.self_test:
                out = checks.perturb_output(out)
            return checks.check_solver(op.spec, out)
        code, text = result
        if op.kind == "table":
            try:
                with open(op.out, "rb") as fh:
                    payload = fh.read()
                os.remove(op.out)  # a later pass that writes nothing must not pass
            except OSError:
                payload = b""
        else:
            payload = text.encode("utf-8")
        if op.label not in self.first:
            self.first[op.label] = (hashlib.sha256(payload).digest(),
                                    result if op.kind == "verify" else payload)
        if self.self_test:
            code += 1
            payload = payload.replace(b'"all_passed": true', b'"all_passed": false') + b"\n"
        if code != 0:
            failed.append("exit")
        if op.kind == "verify":
            failed += checks.check_verify(payload.decode("utf-8"), self.seed)
        if hashlib.sha256(payload).digest() != self.first[op.label][0]:
            failed.append("identical")
        return failed

    def check_tables(self):
        """Oracle-check a seeded sample of rows of every first-pass table."""
        rng = workloads.rng_for(self.seed, workloads.SAMPLE_STREAM)
        rows = nbytes = 0
        for op in self.ops:
            if op.label not in self.first:
                continue
            if op.kind == "verify":
                rows += checks.verify_samples(self.first[op.label][1][1])
                continue
            payload = self.first[op.label][1]
            nbytes += len(payload)
            try:
                columns, table = checks.parse_table(payload, op.spec["fmt"])
            except (ValueError, KeyError, IndexError) as exc:
                self.first_error = self.first_error or f"{op.label}: unreadable table: {exc!r}"
                self._outcome(["table-shape"])
                continue
            rows += len(table)
            if columns != checks.expected_columns(op.spec) or table.shape != (
                    checks.expected_rows(op.spec), len(columns)):
                self._outcome(["table-shape"])
                continue
            sample = np.sort(rng.choice(len(table), size=min(SAMPLE_ROWS, len(table)), replace=False))
            for i in sample:
                row = table[i]
                if self.self_test:
                    row = row + 1e-6 * (1.0 + np.abs(row))
                self._outcome(checks.ROW_CHECKS[op.spec["command"]](op.spec, row, int(i)))
        if any(op.kind == "solver" for op in self.ops):
            rows = len(self.ops)
        self.rows_per_pass, self.bytes_per_pass = rows, nbytes

    def latencies(self, traced, nominal=False):
        passes = [(lat, starts) for lat, starts, spans in self.passes if (spans is not None) == traced]
        if not nominal:
            return [lat for lat, _ in passes]
        return [[self.speed.nominal(t, start, start + t) for t, start in zip(lat, starts)]
                for lat, starts in passes]

    def op_medians(self, traced=False, nominal=False):
        """Each operation's median seconds over the passes: a slow moment of
        a shared machine then moves one sample, not the result."""
        return [statistics.median(samples) for samples in zip(*self.latencies(traced, nominal))]


def run_for(bench, seconds, min_passes, started, tracer=None):
    begin = time.perf_counter()
    while True:
        bench.run_pass(tracer)
        now = time.perf_counter()
        if now - started > DEADLINE_S or (
                len(bench.latencies(tracer is not None)) >= min_passes and now - begin >= seconds):
            return


def end_to_end(bench, setup_s, rss_mb):
    """End-to-end metrics of the untraced passes, times at nominal host speed.

    A pass takes the sum of its operations' median times. The percentiles are
    taken over the operations of one pass: cli.main commands on the CLI
    workloads, library calls on solvers, so cmd_ms_* and call_ms_* agree.
    """
    per_op = bench.op_medians(nominal=True)
    wall = sum(per_op)
    p50, p90 = (float(np.percentile(per_op, q)) * 1e3 for q in (50, 90))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "rows_per_s": bench.rows_per_pass / wall,
        "cmd_ms_p50": p50,
        "cmd_ms_p90": p90,
        "call_ms_p50": p50,
        "call_ms_p90": p90,
        "peak_rss_mb": rss_mb,
    }


def per_layer(bench, tracer):
    per_pass = [tracing.layer_metrics(tracer, tracer.spans(*spans), bench.bytes_per_pass)
                for _, _, spans in bench.passes if spans is not None]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    # at nominal speed: the traced half runs after the untraced half, and the
    # host's speed may have changed in between
    untraced = sum(bench.op_medians(traced=False, nominal=True))
    traced = sum(bench.op_medians(traced=True, nominal=True))
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return metrics


def main(argv=None):
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="perturb every output before checking it; every check must fail")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "gaussgauge", "__init__.py")):
        _fail(f"no package source under {SRC}; run from a source checkout")

    setup = None if args.trace else measure_setup()
    sys.path.insert(0, SRC)
    import gaussgauge
    import gaussgauge.cli  # noqa: F401  (the entry point the CLI workloads call)

    if not os.path.abspath(gaussgauge.__file__).startswith(SRC + os.sep):
        _fail(f"imported gaussgauge from {gaussgauge.__file__}, not from {SRC}")
    env = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        os.mkdir(os.path.join(tmp, "warmup"))
        for op in workloads.warmup(args.workload, args.seed, tmp):
            try:
                op.call()
            except (Exception, SystemExit):
                pass  # the timed passes count and report the failure
        bench = Bench(workloads.BUILDERS[args.workload](args.seed, tmp), args.seed, args.self_test)
        if args.trace:
            run_for(bench, args.seconds / 2, 1, started)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_for(bench, args.seconds / 2, 1, started, tracer)
            finally:
                tracer.restore()
        else:
            run_for(bench, args.seconds, MIN_PASSES, started)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.check_tables()

    if args.trace:
        metrics, wanted = per_layer(bench, tracer), spec["per_layer"]
    else:
        metrics, wanted = end_to_end(bench, setup[1], rss_mb), spec["end_to_end"]
    unexpected = bench.failed - bench.known_failed
    print("perfbench env " + json.dumps(env, sort_keys=True))
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(bench.latencies(False))} traced_passes={len(bench.latencies(True))} "
          f"ops_per_pass={len(bench.ops)}")
    print("perfbench median ms per operation: "
          + " ".join(f"{op.label}={1e3 * t:.4g}" for op, t in zip(bench.ops, bench.op_medians())))
    if not args.trace:
        print(f"perfbench measured: wall_s={sum(bench.op_medians()):.6g} setup_s={setup[0]:.6g}; "
              f"reference kernel median {1e3 * statistics.median(bench.speed.samples):.4g} ms "
              f"over {len(bench.speed.samples)} samples, nominal {1e3 * REF_NOMINAL_S:.4g} ms")
    print(f"perfbench ops_total={bench.attempted} ops_failed={bench.failed} "
          f"known={bench.known_failed} unexpected={unexpected} checks_failed={dict(bench.fired)}")
    if bench.first_error:
        print(f"perfbench first exception: {bench.first_error}")
    if args.self_test:
        print(f"perfbench self-test: {bench.failed} of {bench.attempted} perturbed operations "
              f"failed; checks that fired: {sorted(bench.fired)}")
    for m in wanted:
        print(f"perfbench {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": unexpected == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())

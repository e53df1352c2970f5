"""The avchow benchmark: three closed-loop workloads, answers checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it uses the package under
``src/`` and exits with status 2 when that is missing.  It runs with one
client and one worker thread, and with a pinned environment
(``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONHASHSEED=0``, ``PYTHONPATH=src``),
which it also gives every child process, so nothing is written into the
checkout and every cold import compiles the sources.

Workloads (one op each):

* ``verify-cold``: one fresh ``python -m avchow.cli verify --scope all``
  process.  Its standard output must equal ``verify_golden.txt`` byte for
  byte and its exit status must be 0.  Its input is fixed, so the seed
  changes nothing.
* ``calc-warm``: one text query against the loaded catalog (see
  ``workloads.py``).
* ``spec-load``: one fresh ring built by ``load_ring_spec`` from a
  transformed catalog presentation (see ``workloads.py``).  It runs by
  name and under ``all``, but ``BENCHMARK.json`` does not list it: on a
  shared two-core machine its runs on different seeds spread past the
  0.25 bound on op_p50_ms, op_tail_ms and cpu_ms_per_op.  ``verify-cold``
  still loads every catalog ring, so Buchberger's algorithm and
  ``load_ring_spec`` are timed and traced there.

Every op counts: ops_per_s is the number of ops over the wall time of the
loop, op_p50_ms and op_tail_ms are percentiles of every op's latency, and
cpu_ms_per_op is the CPU time of the loop over its ops.  op_tail_ms is a
fixed percentile per workload (``TAIL_PERCENTILE``), chosen to leave well
over ten ops beyond it at the seed commit's op rate in a 50 s run; the
report prints it with the number of ops beyond it.

setup_s is the median of ``SETUP_PROBES`` fresh processes, started one
at a time at even intervals through the timed loop, which stops while
they run: for verify-cold the wall time of ``python -c "import avchow"``,
which every verify pays; for the in-process workloads the import plus
building their state (the catalog and the queries, or the specs), timed
inside the process.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half with spans installed
(``spans.py``) and prints the per-layer metrics, per op of the traced half.
Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` each workload runs in a fresh process of its own, so
that peak RSS and the spans belong to that workload alone, and each
metric name is prefixed by its workload.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time

sys.dont_write_bytecode = True  # before the environment is pinned, too: write nothing into the checkout

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0", "PYTHONPATH": "src"}
WORKLOADS = ("verify-cold", "calc-warm", "spec-load")
VERIFY_COMMAND = (sys.executable, "-m", "avchow.cli", "verify", "--scope", "all")
GOLDEN = HERE / "verify_golden.txt"
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 60
TAIL_PERCENTILE = {"verify-cold": 75, "calc-warm": 99, "spec-load": 75}


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Outcome of one closed loop: every op's latency, failures, wall and CPU time."""

    def __init__(self):
        self.latency = array("d")
        self.wrong = 0
        self.raised = 0
        self.failures = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.probes = []

    @property
    def ops(self):
        return len(self.latency)

    @property
    def failed(self):
        return self.wrong + self.raised

    def note(self, failure):
        if len(self.failures) < 5:
            self.failures.append(failure)


def closed_loop(op, seconds, cpu_clock, wrong_answer, probe=None):
    """Run op back to back for ``seconds`` of timed loop; count failures.

    With ``probe``, the loop stops SETUP_PROBES times, at even intervals,
    to run it untimed, and keeps its results in ``loop.probes``.  Set-up is
    so measured across the same stretch of time as the ops: on a shared
    machine whose speed drifts, probes taken all at the start varied twice
    as much from run to run as the ops did.
    """
    loop = Loop()
    stretches = SETUP_PROBES if probe else 1
    for done in range(stretches):
        if probe:
            loop.probes.append(probe())
        cpu_begin = cpu_clock()
        begin = end = perf_counter()
        # The last op of a stretch runs past its share; the later stretches make up for it.
        deadline = begin + (seconds - loop.wall_s) / (stretches - done)
        while end < deadline:
            start = perf_counter()
            try:
                op()
            except wrong_answer as err:
                loop.wrong += 1
                loop.note(f"wrong answer: {err}")
            except Exception as err:  # an op that raises is a failed op, not a crashed benchmark
                loop.raised += 1
                loop.note(f"raised {type(err).__name__}: {err}")
            end = perf_counter()
            loop.latency.append(end - start)
        loop.wall_s += end - begin
        loop.cpu_s += cpu_clock() - cpu_begin
    return loop


def end_to_end(workload, loop, setup_s, peak_rss_kb):
    latency = sorted(loop.latency)
    p = TAIL_PERCENTILE[workload]
    rank = max(1, math.ceil(p * len(latency) / 100))  # nearest rank
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops / loop.wall_s, "1/s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_tail_ms": (latency[rank - 1] * 1e3, "ms"),
        "cpu_ms_per_op": (loop.cpu_s / loop.ops * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "error_rate": (loop.failed / loop.ops, "ratio"),
    }
    notes = [
        f"{loop.ops} ops in {loop.wall_s:.1f} s",
        f"op_tail_ms is p{p} of {loop.ops} ops, {loop.ops - rank} ops beyond it",
        f"{loop.wrong} wrong answers, {loop.raised} ops raised",
    ]
    return metrics, notes


def setup_probe(args, key=None):
    """A probe that runs ``args`` in a fresh process and returns its set-up time.

    Without ``key`` that is the wall time of the process; with it, the
    number the process prints under that key.
    """

    def probe():
        start = perf_counter()
        done = run_child(args)
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up {args} failed: {done.stderr.decode(errors='replace')[-2000:]}")
        return elapsed if key is None else json.loads(done.stdout)[key]

    return probe


def child_env():
    return {**os.environ, **PINNED_ENV}


def run_child(args):
    return subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)


def child_json(args):
    done = run_child([sys.executable, str(HERE / "child.py"), *args])
    if done.returncode != 0:
        raise RuntimeError(f"child {args} failed: {done.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(done.stdout)


# ----------------------------------------------------------------------
# verify-cold: each op is a fresh process


def measure_verify_cold(seconds, trace):
    golden = GOLDEN.read_bytes()

    class WrongOutput(Exception):
        pass

    def op():
        done = run_child(list(VERIFY_COMMAND))
        if done.returncode != 0 or done.stdout != golden:
            raise WrongOutput(f"exit {done.returncode}, output {'equal to' if done.stdout == golden else 'differs from'} the golden")

    if not trace:
        loop = closed_loop(op, seconds, children_cpu_s, WrongOutput, setup_probe([sys.executable, "-c", "import avchow"]))
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics, notes = end_to_end("verify-cold", loop, statistics.median(loop.probes), peak_rss_kb)
        return [loop], metrics, notes

    plain = closed_loop(op, seconds / 2, children_cpu_s, WrongOutput)
    totals = spans.empty_totals()
    imports = []

    def traced_op():
        result = child_json(["verify"])
        spans.add_totals(totals, result["totals"])
        imports.append(result["import_s"])
        if result["exit"] != 0 or result["stdout"].encode() != golden:
            raise WrongOutput(f"traced verify exit {result['exit']}, output differs from the golden")

    traced = closed_loop(traced_op, seconds / 2, children_cpu_s, WrongOutput)
    return traced_metrics(plain, traced, totals, statistics.median(imports))


# ----------------------------------------------------------------------
# calc-warm and spec-load: ops run in this process


def measure_in_process(name, seed, seconds, trace):
    import workloads

    state = workloads.IN_PROCESS[name](seed)
    run = (state.op, seconds / (2 if trace else 1), process_time, workloads.WrongAnswer)
    probe = setup_probe([sys.executable, str(HERE / "child.py"), "setup", name, str(seed)], "import_s" if trace else "setup_s")
    first = closed_loop(*run, probe)
    if not trace:
        loops = [first]
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, notes = end_to_end(name, first, statistics.median(first.probes), peak_rss_kb)
    else:
        tracer = spans.Tracer()
        tracer.install()
        traced = closed_loop(*run)
        loops, metrics, notes = traced_metrics(first, traced, tracer.totals(), statistics.median(first.probes))
    info, late_failures = state.finish()
    loops[-1].wrong += late_failures
    return loops, metrics, notes + [f"{key} {value}" for key, value in info.items()]


def traced_metrics(plain, traced, totals, import_s):
    metrics = {"import.avchow_s": (import_s, "s")}
    metrics.update(spans.per_layer_metrics(totals, traced.ops))
    metrics["trace.overhead_ratio"] = ((plain.ops / plain.wall_s) / (traced.ops / traced.wall_s), "ratio")
    notes = [f"per-layer values are per op of {traced.ops} traced ops; {plain.ops} untraced ops"]
    notes += [f"absent: {name} (no longer found in the package)" for name in totals["absent"]]
    if totals["check_s"]:
        slowest = sorted(totals["check_s"], reverse=True)[:3]
        notes.append("slowest checks: " + ", ".join(f"{cid} {s * 1e3:.1f} ms" for s, cid in slowest))
    for layer, _, moves in spans.LAYERS:
        notes.append(f"layer {layer} should move: {moves}")
    return [plain, traced], metrics, notes


# ----------------------------------------------------------------------


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload, seed, seconds, trace):
    """Run one workload in this process; return its result line as a dict."""
    if workload == "verify-cold":
        loops, metrics, notes = measure_verify_cold(seconds, trace)
    else:
        loops, metrics, notes = measure_in_process(workload, seed, seconds, trace)
    print(f"[{workload}] seed {seed}, {seconds:g} s, trace {trace}, closed loop, one client")
    for note in notes + [failure for loop in loops for failure in loop.failures]:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.failed for loop in loops)
    # error_rate is 0 when all is well; the result line carries it as "failed".
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items() if name != "error_rate"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}


def measure_all(args):
    """Run every workload in a fresh process of its own and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=False)
        *lines, last = done.stdout.splitlines() or [""]
        print("\n".join(lines[2:]))  # the environment lines are printed once, above
        if done.returncode != 0:
            raise RuntimeError(f"workload {workload} exited with status {done.returncode}")
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{name}": value for name, value in result["metrics"].items()})
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {commit()}, src sha256 {source_digest()}")
    print("environment " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    if args.workload == "all":
        result = measure_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "avchow" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'avchow'}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()) or Path.cwd() != ROOT:
        os.chdir(ROOT)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], child_env())
    sys.exit(main())

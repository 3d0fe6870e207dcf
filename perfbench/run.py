"""Run one benchmark workload against the glsmooth CLI and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

One process is one closed-loop client: it calls ``glsmooth.cli.main`` in
process, each call after the previous one has finished, over inputs made from
``--seed``.  A pass is the workload's CLI calls in order; the first pass warms
up, then passes repeat until ``--seconds`` have gone by.  Every call's output
is checked.  Set-up time and memory are measured in fresh processes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0 only
when every call succeeded and passed its check.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate between untraced and traced; the metrics are the per-layer
ones, from the traced passes, plus the traced-minus-untraced overhead of each
end-to-end metric, and every span is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# BLAS threads are fixed before numpy is first imported (inside the functions
# below), under nproc (2 on the reference machine): the matrices are small,
# and one thread keeps runs steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_items_per_s": "1/s",
    "side_items_per_s": "1/s",
}
SETUP_RUNS = 9
MEMORY_RUNS = 3
MIN_MEASURED_PASSES = 4

# The host is shared: for seconds at a time the same call can take up to 1.8x
# as long, in CPU time as well as wall time.  Each measurement is therefore
# scaled by the host's speed right then, timed with a fixed reference loop
# just before and just after it, and reported at the reference machine's loop
# time (2-core Xeon, Python 3.11, when quiet).
REFERENCE_LOOP_S = 0.030
_REFERENCE_PATTERN = re.compile(r"\b(no|likely)\b")


def reference_loop_s() -> float:
    start = perf_counter()
    for i in range(20000):
        _REFERENCE_PATTERN.findall(f"no pleural effusion and likely pneumonia {i}")
    return perf_counter() - start


# Set-up as users pay it: a fresh interpreter imports the package and loads the
# default lexicon and taxonomy.  The traced variant also installs the tracer.
# The child then times the reference loop itself, on the core it ran on.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import glsmooth
from glsmooth.reports import default_lexicon
from glsmooth.taxonomy import default_taxonomy
default_lexicon()
default_taxonomy()
sys.path.insert(0, {here!r})
if {traced!r}:
    import tracer
    tracer.Tracer().install()
t1 = time.perf_counter()
from run import reference_loop_s
print(repr(t1 - t0), repr(reference_loop_s()))
"""


def import_package():
    """Import glsmooth from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "glsmooth" / "cli.py").is_file():
        raise SystemExit(f"error: no glsmooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import glsmooth.cli

    if Path(glsmooth.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: glsmooth imported from {glsmooth.cli.__file__}, not {SRC}")
    return glsmooth.cli


def setup_seconds(traced: bool) -> tuple[float, float]:
    """Set-up time of one fresh process: (as measured, at reference host speed)."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), traced=traced)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    seconds, host = map(float, done.stdout.split())
    return seconds, seconds * REFERENCE_LOOP_S / host


# Memory as the workload's CLI calls use it: a fresh interpreter imports the
# package, then runs one pass of the calls (argv lists on stdin) while a
# thread samples its resident set.  It prints the exit codes and the peak
# resident memory above the level after import, so that neither the import
# nor the benchmark's own generators and checks are counted.  ``ru_maxrss``
# cannot serve: importing numpy peaks above what one ``build`` adds.
MEMORY_CODE = """
import contextlib, json, os, sys, threading
sys.path.insert(0, {src!r})
import glsmooth.cli
sys.path.insert(0, {here!r})
import tracer
spans = tracer.Tracer() if {traced!r} else None
if spans:
    spans.install()
argvs = json.load(sys.stdin)
page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page_mb
sys.setswitchinterval(1e-4)
base = peak = resident_mb()
done = threading.Event()
def sample():
    global peak
    while not done.wait(0.0005):
        peak = max(peak, resident_mb())
sampler = threading.Thread(target=sample)
sampler.start()
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in argvs:
        if spans:
            codes.append(spans.call(0, argv[0], glsmooth.cli.main, argv))
        else:
            codes.append(glsmooth.cli.main(argv))
done.set()
sampler.join()
print(json.dumps([codes, max(peak, resident_mb()) - base]))
"""


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


class Client:
    """The closed-loop client: runs passes, times calls, tallies failures."""

    def __init__(self, cli, workload, tracer=None):
        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (role, traced) -> items per second of every measured call, as
        # measured and at reference host speed
        self.raw: dict[tuple[str, bool], list[float]] = {}
        self.rates: dict[tuple[str, bool], list[float]] = {}
        self.memory: dict[bool, list[float]] = {False: [], True: []}

    def measure_memory(self, traced: bool) -> None:
        """One pass in a fresh process: its peak resident MB above import."""
        calls = self.workload.calls()
        code = MEMORY_CODE.format(src=str(SRC), here=str(HERE), traced=traced)
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            input=json.dumps([call.argv for call in calls]),
        )
        self.attempted += len(calls)
        if done.returncode != 0:
            self.failed += len(calls)
            self.problems.append(f"memory pass: {done.stderr.strip()[-300:]}")
            return
        codes, growth_mb = json.loads(done.stdout)
        for call, code in zip(calls, codes):
            if code != 0:
                self.failed += 1
                self.problems.append(f"memory pass {call.subcommand}: exit code {code}")
        self.memory[traced].append(growth_mb)

    def run_pass(self, index: int, traced: bool, measured: bool) -> None:
        before = reference_loop_s()
        for call in self.workload.calls():
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = perf_counter()
                    if traced:
                        code = self.tracer.call(index, call.subcommand, self.cli.main, call.argv)
                    else:
                        code = self.cli.main(call.argv)
                    elapsed = perf_counter() - start
                if code != 0:
                    problems = [f"exit code {code}: {err.getvalue().strip()[:300]}"]
                else:
                    items, problems = call.after(out.getvalue())
            except Exception:  # a crash is one failed call; the run goes on
                problems = [traceback.format_exc(limit=3)]
            after = reference_loop_s()
            if problems:
                self.failed += 1
                self.problems.append(f"pass {index} {call.subcommand}: " + "; ".join(problems))
            elif measured:
                rate = items / elapsed
                host = (before + after) / 2.0
                self.raw.setdefault((call.role, traced), []).append(rate)
                self.rates.setdefault((call.role, traced), []).append(rate * host / REFERENCE_LOOP_S)
            before = after

    def run(self, seconds: float) -> int:
        """Passes until ``seconds`` are up; returns the number of passes.
        With a tracer, odd passes are untraced and even passes traced."""
        deadline = perf_counter() + seconds
        index = 0
        while index < MIN_MEASURED_PASSES or perf_counter() < deadline:
            index += 1
            traced = self.tracer is not None and index % 2 == 0
            if traced:
                self.tracer.install()
            try:
                self.run_pass(index, traced=traced, measured=True)
            finally:
                if traced:
                    self.tracer.uninstall()
        return index

    def median_rate(self, role: str, traced: bool, raw: bool = False) -> float:
        return statistics.median((self.raw if raw else self.rates).get((role, traced), [0.0]))

    def end_to_end(self, setups, traced: bool) -> dict[str, float]:
        """The end-to-end metrics of the traced or the untraced passes."""
        return {
            "setup_s": statistics.median(scaled for _, scaled in setups[traced]),
            "peak_rss_mb": statistics.median(self.memory[traced] or [0.0]),
            "main_items_per_s": self.median_rate("main", traced),
            "side_items_per_s": self.median_rate("side", traced),
        }


def layer_unit(name: str) -> str:
    if name.startswith("overhead.") or name.endswith("_share"):
        return "share"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_sentence"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (result object, human-readable lines)."""
    cli = import_package()
    import tracer
    import workloads

    env = environment(name, seed, seconds, trace)
    lines = ["env " + json.dumps(env)]
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](work, seed, workloads.SIZES[size][name])
        setups = {False: [], True: []}
        for _ in range(SETUP_RUNS):
            for traced in (False, True) if trace else (False,):
                setups[traced].append(setup_seconds(traced))
        spans = tracer.Tracer() if trace else None
        client = Client(cli, workload, spans)
        for _ in range(MEMORY_RUNS):
            for traced in (False, True) if trace else (False,):
                client.measure_memory(traced)
        client.run_pass(0, traced=False, measured=False)  # fills caches before timing
        passes = client.run(seconds)
        calls = {c.role: c for c in workload.calls()}
        lines.append(f"{passes} measured passes, {client.attempted} CLI calls")
        lines += [f"problem: {p[:300]}" for p in client.problems[:20]]
        if not trace:
            metrics = client.end_to_end(setups, traced=False)
            units = dict(END_TO_END)
            raw_setup = statistics.median(raw for raw, _ in setups[False])
            lines.append(f"setup_s {raw_setup:.6g} s as measured")
            for role in ("main", "side"):
                call = calls[role]
                lines.append(
                    f"{call.metric} {client.median_rate(role, False, raw=True):.6g} {call.unit} "
                    f"as measured, {metrics[role + '_items_per_s']:.6g} at reference host speed "
                    f"(median of {len(client.rates.get((role, False), []))} calls)"
                )
        else:
            per_pass = spans.per_pass()
            metrics = tracer.layer_metrics(per_pass)
            if not tracer.counts_repeat(per_pass):
                client.problems.append("traced passes made different call counts")
            for key, want in workload.expected_counts().items():
                if metrics[key] != want:
                    client.problems.append(f"trace count {key} = {metrics[key]}, expected {want}")
            untraced = client.end_to_end(setups, traced=False)
            traced = client.end_to_end(setups, traced=True)
            for key in END_TO_END:
                metrics[f"overhead.{key}"] = traced[key] / untraced[key] - 1.0
            units = {key: layer_unit(key) for key in metrics}
            OUT.mkdir(exist_ok=True)
            spans.write(OUT / f"spans-{name}.tsv.gz", json.dumps({"env": env}))
            lines.append(f"spans written to {OUT / f'spans-{name}.tsv.gz'}")
        failed = client.failed
        lines.append(f"failed_share {failed / client.attempted:.6g} share ({failed} of {client.attempted} calls)")
        lines += [f"{key} {value!r} {units[key]}" for key, value in metrics.items()]
        result = {
            "correct": not client.problems,
            "attempted": client.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "train", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

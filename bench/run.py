"""Cold-process benchmark of the outersix verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs passes over the workload's items, each item a cold
process, one at a time, until the next pass would overrun S seconds, and
reports the end-to-end metrics as medians over passes.  With --trace 1 it
runs bench/traced.py twice in fresh interpreters, spans off and on, and
reports the per-layer metrics.  The metric names and units come from
BENCHMARK.json.  The last line of stdout is the result object; the full
record, with quartiles, every pass and the environment, goes to
.bench_build/results/.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, gate, item_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
RUN_LIMIT_S = 170  # every run must end within 180 s
SETUPS_PER_PASS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(argv: list[str], limit: float) -> dict:
    """Run one child to its end; its wall time, own rusage, exit code, output.

    os.wait4 gives the rusage of this child alone; RUSAGE_CHILDREN would sum
    every child reaped so far.
    """
    out_path, err_path = OUT / "stdout", OUT / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(limit, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes().decode(errors="replace"),
    }


def item_argv(item) -> list[str]:
    kind, payload = item
    args = list(payload) if kind == "cli" else [payload]
    return [str(BENCH / "child.py"), kind, *args]


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """Counts attempts and failures against the run's time limit."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, label: str, problem: str) -> None:
        self.failures.append(f"{label}: {problem}")

    def process(self, argv: list[str], label: str) -> dict | None:
        """Run a child and count it; a non-zero exit counts as a failure.
        None, and a failure, when no time is left for it."""
        self.attempted += 1
        limit = self.started + RUN_LIMIT_S - time.perf_counter()
        if limit < 1:
            self.fail(label, "no time left in the run")
            return None
        result = run_process(argv, limit)
        result["ok"] = result["code"] == 0
        if not result["ok"]:
            tail = result["stderr"].strip().splitlines()[-1:]
            self.fail(label, f"exit code {result['code']} {tail}")
        return result


def untraced(run: Run, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    rng = random.Random(seed)
    reference: dict = {}
    passes, setups = [], []
    end = run.started + seconds
    while True:
        pass_started = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            result = run.process([str(BENCH / "child.py"), "import"], "import")
            if result is not None and result["ok"]:
                setups.append(result["wall_s"])
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        children = []
        for item in order:
            name = item_name(item)
            result = run.process(item_argv(item), name)
            if result is None:
                continue
            children.append(result)
            if not result["ok"]:
                continue
            first = reference.setdefault(item, result["stdout"])
            problem = gate(item, result["stdout"])
            if problem is None and result["stdout"] != first:
                problem = "stdout differs from the first pass"
            if problem is not None:
                run.fail(name, problem)
        passes.append(
            {
                "order": [item_name(item) for item in order],
                "wall_s": sum(c["wall_s"] for c in children),
                "cpu_s": sum(c["cpu_s"] for c in children),
                "peak_rss_mib": max((c["rss_mib"] for c in children), default=0.0),
            }
        )
        now = time.perf_counter()
        if now + (now - pass_started) > end:
            break
    summary = {
        key: quartiles([p[key] for p in passes])
        for key in ("wall_s", "cpu_s", "peak_rss_mib")
    }
    summary["setup_s"] = quartiles(setups or [0.0])
    values = {key: stats["median"] for key, stats in summary.items()}
    return values, {"summary": summary, "passes": passes}


def self_times(spans: list) -> dict:
    """Summed self time per span name: duration minus the children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict = {}
    for (name, start, end, _), inner in zip(spans, covered):
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + (end - start) - inner
    return totals


def traced(run: Run, workload: str, seed: int) -> tuple[dict, dict]:
    outputs, walls = {}, {}
    for flag in ("0", "1"):
        argv = [str(BENCH / "traced.py"), workload, flag]
        result = run.process(argv, f"traced run, spans {flag}")
        if result is None or not result["ok"]:
            continue
        outputs[flag] = json.loads(result["stdout"].splitlines()[-1])
        walls[flag] = result["wall_s"]
        # The process stands for the layer calls and items it ran.
        run.attempted += outputs[flag]["attempted"] - 1
        run.failures += outputs[flag]["errors"]
    values: dict = {}
    spans = outputs.get("1", {}).get("spans", [])
    if "1" in outputs:
        values.update(self_times(spans))
        values.update(outputs["1"]["counts"])
        root_total = sum(end - start for _, start, end, parent in spans if parent is None)
        values["trace.coverage"] = root_total / walls["1"]
    if len(walls) == 2:
        values["trace.overhead_s"] = walls["1"] - walls["0"]
    trace_path = OUT / "trace" / f"{workload}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans}))
    return values, {"walls_s": walls, "trace_file": str(trace_path.relative_to(ROOT))}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return found.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    """What a number depends on.  Numbers from two machines are not comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "inputs": [item_name(item) for item in WORKLOADS[workload]],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "outersix" / "cli.py").is_file():
        print(f"error: no outersix sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    # Compile the bytecode once, so every measured process starts as a
    # user's would after installation.
    build = run_process([str(BENCH / "child.py"), "import"], RUN_LIMIT_S)
    if build["code"] != 0:
        print(f"error: the program does not import:\n{build['stderr']}", file=sys.stderr)
        return 1
    run = Run()
    if args.trace:
        values, detail = traced(run, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, detail = untraced(run, args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    if not args.trace:
        missing = [name for name in metrics if name not in values]
        if missing:
            raise SystemExit(f"no measurement for {missing}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.workload, args.seed),
        "failed_share": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures,
        **detail,
        "result": result,
    }
    record_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, stats in detail.get("summary", {}).items():
        print(
            f"{name}: median {stats['median']:.4f} "
            f"[{stats['q1']:.4f}, {stats['q3']:.4f}] n={stats['n']}"
        )
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""geneograph benchmark: closed-loop analysis requests with independent output checks.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # each workload in a fresh interpreter
    python3 bench/run.py --smoke                                # all three at tiny size, a few seconds
    python3 bench/run.py --selftest                             # inject wrong outputs into every checker

One client sends requests in process through geneograph.cli.main(argv), with
stdout captured, and waits for each reply (a closed loop); combinators, which
have no subcommand, go through the library API.  Inputs come from --seed and
are written before timing.  Each output is checked by bench.model's own
computation between requests; checking is not timed.  A run stops at the end
of a whole cycle of its mix once its requests have taken --seconds of busy
time and at least 100 have completed.

Times are scaled to a reference speed: a fixed pure-Python computation is
timed throughout the run, and every time is multiplied by REFERENCE_S over its
mean.  On shared machines this cancels most of the speed drift between runs
(raw figures, kept in bench/out/, spread by a quarter or more).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same requests
untraced and then traced, and prints the per-layer metrics.  The last stdout
line is one JSON object with the keys correct, attempted, failed and metrics.
A fuller record, with the environment and per-class latencies, goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.tracing import LAYERS, Tracer, metric_names  # noqa: E402
from bench.workloads import WORKLOADS, CheckError, Files, Request  # noqa: E402

SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
OUT = ROOT / "bench" / "out"
WORK = ROOT / "bench" / ".work"
SETUP_REPEATS = 5
# The reference computation's time on the machine the benchmark was defined on
# (2 shared vCPUs, Python 3.11).  Reported times are scaled to that speed.
REFERENCE_S = 0.0012
REFERENCE_EVERY_S = 0.05
MIN_REQUESTS = 100
# both timed phases stop by this long after start, so a run ends within 180 s
WALL_LIMIT_S = 150.0
STARTED = time.monotonic()

END_TO_END = [
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def load_library() -> SimpleNamespace:
    """A fresh import of geneograph from this checkout's src/, never an installed copy."""
    for name in [n for n in sys.modules if n == "geneograph" or n.startswith("geneograph.")]:
        del sys.modules[name]
    package = importlib.import_module("geneograph")
    if Path(package.__file__).resolve().parent != (SRC / "geneograph").resolve():
        raise RuntimeError(f"imported geneograph from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"geneograph.{m}") for m in LAYERS})


@dataclass(frozen=True)
class _Item:
    labels: tuple
    images: tuple

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("length mismatch")


_ITEM_LABELS = tuple("abcdef")


def _reference_work() -> None:
    seen = set()
    for i in range(300):
        item = _Item(_ITEM_LABELS, tuple((i * j + 3) % 6 for j in range(6)))
        seen.add(item)
        seen.add(_Item(_ITEM_LABELS, tuple(item.images[k] for k in (1, 2, 3, 4, 5, 0))))
    sorted(seen, key=lambda m: m.images)


def reference() -> float:
    """Time a fixed pure-Python computation with geneograph's instruction mix:
    small validated frozen dataclasses hashed into a set and a keyed sort.
    Shared machines drift in speed by a quarter or more between runs; scaling
    a run's times by REFERENCE_S over the mean reference time cancels most
    of that drift, while a change to geneograph leaves the reference untouched.
    The second of two back-to-back runs is timed: a cold first run tracks
    request speed less closely."""
    _reference_work()
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def execute(lib, state: dict, req: Request, tamper=None) -> tuple[float, str | None]:
    """Send one request; returns its latency and a failure message, or None if correct."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if req.argv is not None:
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(req.argv)
            result = out.getvalue()
        else:
            code, result = 0, req.call(lib, state)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"raised {exc!r}"
    latency = time.perf_counter() - start
    if tamper is not None:
        result = tamper(result)
    if code != req.code:
        return latency, f"exit code {code}, expected {req.code}: {err.getvalue().strip()[:200]}"
    try:
        req.check(result)
    except CheckError as exc:
        return latency, f"wrong output: {exc}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return latency, f"malformed output: {exc!r}"
    return latency, None


def run_phase(lib, state, stream: Iterator[Request], cycle_len: int, seconds: float, min_requests: int,
              limit: int | None = None, tracer: Tracer | None = None, tamper: dict | None = None):
    """Closed loop over whole cycles until `seconds` of request time and
    `min_requests` are reached, or over exactly `limit` requests.  Whole cycles
    keep the mix exact, so a heavy request near the end cannot tip the metrics.
    `tamper` maps a request kind to a function that corrupts its output before
    checking (for the self-test).  Returns (requests, raw latencies, latencies
    scaled to reference speed, failures).

    The reference is timed after every REFERENCE_EVERY_S of request time, and
    one factor, REFERENCE_S over the mean reference time, scales the whole
    phase: it cancels drift between runs, while per-request factors would add
    the reference's own jitter.  A neighbour's load comes in bursts; the mean,
    like a request's latency, grows in proportion to the share of time under
    load, where a median would jump."""
    requests: list[Request] = []
    latencies: list[float] = []
    refs = [reference()]
    failures: list[str] = []
    busy = since_ref = 0.0
    while time.monotonic() < STARTED + WALL_LIMIT_S:
        i = len(requests)
        if limit is not None:
            if i >= limit:
                break
        elif i % cycle_len == 0 and busy >= seconds and i >= min_requests:
            break
        req = next(stream)
        if tracer is not None:
            tracer.request = i
        latency, failure = execute(lib, state, req, (tamper or {}).get(req.kind))
        requests.append(req)
        latencies.append(latency)
        busy += latency
        since_ref += latency
        if since_ref >= REFERENCE_EVERY_S:
            refs.append(reference())
            since_ref = 0.0
        if failure is not None:
            failures.append(f"{req.kind} {req.size}: {failure}")
    refs.append(reference())
    scale = REFERENCE_S / statistics.mean(refs)
    return requests, latencies, [x * scale for x in latencies], failures


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "geneograph").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_geneograph_lines": lines,
    }


def latency_stats(latencies: list[float]) -> dict:
    """Throughput as requests per second of request time (whole cycles keep the
    mix exact), and percentiles over every request."""
    ms = sorted(x * 1000 for x in latencies)
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "requests_per_s": 1000 * len(ms) / sum(ms),
        "p50_ms": p50,
        "p90_ms": p90,
        "samples": len(ms),
        "beyond_p50": sum(1 for x in ms if x > p50),
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def class_stats(requests: list[Request], latencies: list[float]) -> dict:
    by: dict[str, list[float]] = {}
    for req, lat in zip(requests, latencies):
        by.setdefault(f"{req.kind} {req.size}", []).append(lat * 1000)
    return {k: {"n": len(v), "median_ms": statistics.median(v), "max_ms": max(v)} for k, v in sorted(by.items())}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (SRC / "geneograph" / "__init__.py").is_file():
        raise SystemExit(f"error: no geneograph sources under {SRC}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](random.Random(f"{name}:{seed}"), Files(work))
        cycle_len = len(workload.cycle(smoke))
        warmups = workload.warmups(smoke)
        setup_raw, setup_refs, setup_failures = [], [], []
        for _ in range(1 if smoke else SETUP_REPEATS):
            setup_refs.append(reference())
            start = time.perf_counter()
            lib = load_library()
            state = workload.setup(lib)
            for req in warmups:
                _, failure = execute(lib, state, req)
                if failure is not None:
                    setup_failures.append(f"{req.kind} {req.size}: {failure}")
            setup_raw.append(time.perf_counter() - start)
        setup_refs.append(reference())
        setup_scaled = [t * REFERENCE_S / statistics.mean(setup_refs) for t in setup_raw]
        gc.collect()
        gc.freeze()
        min_requests = 5 if smoke else MIN_REQUESTS
        requests, raw, scaled, failures = run_phase(
            lib, state, workload.stream(smoke), cycle_len,
            seconds / 2 if trace else seconds, min_requests // 2 if trace else min_requests,
        )
        stats = latency_stats(scaled)
        result = {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "smoke": smoke,
            "environment": environment(),
            "attempted": len(requests),
            "failed": len(failures),
            "fail_ratio": len(failures) / len(requests),
            "failures": failures[:20] + setup_failures,
            "setup_failed": len(setup_failures),
            "setup_runs_s": setup_scaled,
            "setup_runs_raw_s": setup_raw,
            "latency": stats,
            "latency_raw": latency_stats(raw),
            "reference_scale": sum(scaled) / sum(raw),
            "classes": class_stats(requests, scaled),
        }
        if not trace:
            result["metrics"] = {
                "requests_per_s": stats["requests_per_s"],
                "request_p50_ms": stats["p50_ms"],
                "request_p90_ms": stats["p90_ms"],
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            tracer = Tracer()
            tracer.install()
            try:
                gc.collect()
                _, traced_raw, traced, traced_failures = run_phase(
                    lib, state, workload.stream(smoke), cycle_len, 0, 0, limit=len(requests), tracer=tracer
                )
            finally:
                tracer.uninstall()
            result["failed"] += len(traced_failures)
            result["attempted"] += len(traced)
            result["failures"] += traced_failures[:20]
            result["metrics"] = tracer.metrics(
                sum(traced_raw), stats["requests_per_s"], latency_stats(traced)["requests_per_s"]
            )
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl.gz")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def units(trace: bool) -> dict[str, str]:
    return dict(metric_names() if trace else END_TO_END)


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final result object."""
    env = result["environment"]
    trace = bool(result["trace"])
    print(f"workload {result['workload']} seed {result['seed']} seconds {result['seconds']} trace {result['trace']}")
    print(f"  python {env['python']} nproc {env['nproc']} commit {env['commit']} src/geneograph lines {env['src_geneograph_lines']}")
    print(f"  requests {result['attempted']} failed {result['failed']} fail_ratio {result['fail_ratio']:.4f}")
    for msg in result["failures"][:5]:
        print(f"  FAIL {msg}")
    metrics = result["metrics"]
    for key, unit in units(trace).items():
        value = metrics[key]
        note = ""
        if key in ("request_p50_ms", "request_p90_ms"):
            lat = result["latency"]
            note = f"  (n={lat['samples']}, {lat['beyond_' + key[8:11]]} beyond)"
        elif key == "setup_s":
            note = f"  (median of {len(result['setup_runs_s'])})"
        print(f"  {key} {value:.6g} {unit}{note}")
    final = {
        "correct": result["failed"] == 0 and result["setup_failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units(trace).items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps({**result, "result": final}, indent=1))
    return final


def run_all(args) -> int:
    """Every workload in its own interpreter, so setup and peak memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for key, m in final["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        rows.append((name, final))
    print("summary")
    for name, final in rows:
        print(f"  {name}: fail_ratio {final['failed'] / final['attempted']:.4f} ({final['failed']} of {final['attempted']})")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, about a second per workload")
    parser.add_argument("--selftest", action="store_true", help="check that every checker catches a wrong output")
    args = parser.parse_args(argv)
    if args.selftest:
        from bench.selftest import selftest

        return selftest()
    if args.smoke:
        args.seconds = min(args.seconds, 1)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

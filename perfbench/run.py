#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``neumaier`` command.

    python3 perfbench/run.py --workload {sweep-n6,analyze-spectral,analyze-cliques}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is taken from ``src/``.  Each
run generates its inputs from the seed, times ``neumaier --help`` cold
starts (``setup_s``), then repeats whole rounds of the workload's command
for S seconds and checks every round's output against the independent
oracle in ``oracle.py``.

``--trace 0`` runs the command as a user does, in a fresh process with
one worker, and reports the end-to-end metrics.  ``--trace 1`` runs the
same command in this process, alternating untraced and traced rounds, and
reports the per-layer metrics, the tracing overhead, cold-import time and
import-phase memory.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.  Raw results and trace spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# the oracle's numpy calls stay on this process's one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: what the installed ``neumaier`` console script runs, plus a report of
#: the process's own peak memory at exit.  The peak is read from
#: /proc/self/status because ru_maxrss of a child also counts the memory
#: of the benchmark process it was started from.
HWM_TAG = "perfbench-vmhwm-kb"
CLI = f"""import atexit, sys
def _peak():
    with open('/proc/self/status') as fh:
        kb = [line.split()[1] for line in fh if line.startswith('VmHWM:')]
    sys.stderr.write('{HWM_TAG} ' + kb[0] + '\\n')
atexit.register(_peak)
from neumaier.cli import main
sys.exit(main())
"""
WORKLOADS = ("sweep-n6", "analyze-spectral", "analyze-cliques")
SWEEP_N = 6
SETUP_REPEATS = 9
IMPORT_REPEATS = 5


@dataclass
class Round:
    wall: float
    status: int
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def graphs_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall


# ---------------------------------------------------------------------------
# processes


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_neumaier(args: list[str], log: Path) -> Round:
    """Run ``neumaier <args>`` in a fresh interpreter; wall time, exit
    status and the process's peak memory."""
    with open(log, "wb") as err:
        t0 = perf_counter()
        status = subprocess.run([sys.executable, "-c", CLI, *args], env=command_env(),
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT).returncode
        wall = perf_counter() - t0
    tail = log.read_text(errors="replace").split()
    kb = int(tail[-1]) if len(tail) >= 2 and tail[-2] == HWM_TAG else 0
    return Round(wall, status, kb / 1024)


def measure_setup() -> tuple[float, float]:
    """Median wall time and peak memory of ``neumaier --help`` cold
    starts, after one discarded start that may compile bytecode."""
    runs = [run_neumaier(["--help"], OUT / "setup.log") for _ in range(SETUP_REPEATS + 1)][1:]
    for r in runs:
        if r.status != 0:
            raise SystemExit(f"neumaier --help failed; see {OUT / 'setup.log'}")
    return statistics.median(r.wall for r in runs), statistics.median(r.peak_rss_mb for r in runs)


def measure_import() -> float:
    code = "import time; t = time.perf_counter(); import neumaier.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=command_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, the command, and the oracle check of one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.output = OUT / f"{name}-seed{seed}.out"
        if name == "sweep-n6":
            self.entries = []
            self.size = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)
            self.expected = oracle.sweep_expectation(SWEEP_N)
            for key, value in oracle.SWEEP6_FACTS.items():
                if self.expected[key] != value:
                    raise SystemExit(f"sweep oracle: {key} = {self.expected[key]}, expected {value}")
        else:
            self.entries = corpus.CORPORA[name](seed)
            self.size = len(self.entries)
            self.graph6 = [corpus.encode_graph6(e.adj) for e in self.entries]
            self.input = OUT / f"{name}-seed{seed}.g6"
            self.input.write_text("".join(g + "\n" for g in self.graph6), encoding="ascii")
            self.expected = [oracle.expect(e.adj) for e in self.entries]

    def args(self) -> list[str]:
        if self.name == "sweep-n6":
            cmd = ["sweep", "--n", str(SWEEP_N), "--format", "json"]
        else:
            cmd = ["analyze", "--input", str(self.input)]
        # one worker: on two cores the wall time of a two-worker sweep
        # varied 11% (CV) from run to run, a one-worker sweep 4%
        return cmd + ["--workers", "1", "--output", str(self.output)]

    def check(self, r: Round) -> Round:
        """Fill in attempted/failed/errors from the command's output file."""
        r.attempted = self.size
        text = self.output.read_text(encoding="ascii") if self.output.exists() else ""
        self.output.unlink(missing_ok=True)
        # a command that exits with an error writes no usable output, so
        # every graph of the round fails; exit 4 is a sweep's failed check
        if r.status not in (0, 4) or not text.strip():
            r.failed = self.size
            return r
        if self.name == "sweep-n6":
            r.errors = oracle.check_sweep(json.loads(text), self.expected)
            return r
        records = [json.loads(line) for line in text.splitlines()]
        if len(records) != self.size:
            r.errors.append(f"{len(records)} records for {self.size} graphs")
        for e, g6, exp, rec in zip(self.entries, self.graph6, self.expected, records):
            r.errors.extend(f"{e.label}: {msg}" for msg in oracle.check_record(rec, g6, exp, e.family))
        return r

    def subprocess_round(self) -> Round:
        return self.check(run_neumaier(self.args(), OUT / f"{self.name}.log"))

    def inprocess_round(self) -> Round:
        """One round through the CLI in this process."""
        from neumaier.cli import main

        _clear_caches()
        t0 = perf_counter()
        try:
            main.main(args=self.args(), prog_name="neumaier", standalone_mode=False)
            status = 0
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the round, as in a fresh process
            traceback.print_exc()
            status = 1
        return self.check(Round(perf_counter() - t0, status))


def _clear_caches() -> None:
    """Empty the package's memo caches so each in-process round starts
    as cold as a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("neumaier"):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def timed_rounds(step, seconds: float) -> list:
    """Whole rounds until another one would overrun ``seconds``."""
    done = []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        done.append(step())
        now = perf_counter()
        if now - t0 + (now - t) > seconds:
            return done


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(w: Workload, seconds: float) -> tuple[list[Round], dict]:
    setup_s, _ = measure_setup()
    rounds = timed_rounds(w.subprocess_round, seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "graphs_per_s": (statistics.median(r.graphs_per_s for r in rounds), "graphs/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
    }
    return rounds, metrics


def traced(w: Workload, seconds: float, trace_path: Path) -> tuple[list[Round], dict]:
    _, import_rss = measure_setup()
    import_s = measure_import()
    tracer = tracing.Tracer()
    plain, traced_rounds = [], []

    def pair():
        plain.append(w.inprocess_round())
        restore = tracing.install(tracer)
        try:
            traced_rounds.append(w.inprocess_round())
        finally:
            restore()

    timed_rounds(pair, seconds)
    tracer.write(trace_path)
    layers = tracing.layer_metrics(tracer, len(traced_rounds))
    untraced_gps = statistics.median(r.graphs_per_s for r in plain)
    traced_gps = statistics.median(r.graphs_per_s for r in traced_rounds)
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "process.import_peak_rss_mb": (import_rss, "MB"),
        "trace.untraced_graphs_per_s": (untraced_gps, "graphs/s"),
        "trace.traced_graphs_per_s": (traced_gps, "graphs/s"),
        "trace.overhead_pct": (100.0 * (untraced_gps - traced_gps) / untraced_gps, "%"),
    })
    if w.entries:
        _print_split(w, tracing.classify_ms(tracer), len(traced_rounds))
    return plain + traced_rounds, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_passes"):
        return "1/graph"
    return "count"


def _print_split(w: Workload, ms: list[float], rounds: int) -> None:
    """Share of classify time per corpus part (analyze is in input order)."""
    by_part: dict[str, float] = {}
    for i, t in enumerate(ms):
        part = w.entries[i % len(w.entries)].part
        by_part[part] = by_part.get(part, 0.0) + t / rounds
    total = sum(by_part.values()) or 1.0
    print("classify time by corpus part: " + ", ".join(
        f"{p} {t / 1e3:.2f} s ({100 * t / total:.0f}%)" for p, t in by_part.items()))


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "neumaier" / "cli.py").is_file():
        print(f"no neumaier package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import numpy

    import neumaier

    w = Workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rounds, metrics = traced(w, args.seconds, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        rounds, metrics = end_to_end(w, args.seconds)
    errors = [e for r in rounds for e in r.errors]
    env = {
        "kernel": neumaier.KERNEL_KIND,
        "workers": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": env, "errors": errors[:100],
        "rounds": [{"wall_s": r.wall, "attempted": r.attempted, "failed": r.failed,
                    "peak_rss_mb": r.peak_rss_mb} for r in rounds],
    }, indent=1))
    for e in errors[:20]:
        print("CHECK FAILED:", e)
    print(" ".join(f"{k}={v}" for k, v in env.items()), f"rounds={len(rounds)}")
    for k, (v, u) in metrics.items():
        print(f"{k:<40} {v:>14.6g} {u}")
    print(f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

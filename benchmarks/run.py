"""The ddeosc benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test

Run from the root of a source checkout; ``ddeosc`` is imported from ``src/``.
Each run starts fresh single-threaded worker processes (``child.py``): a few
that only set up, to sample the set-up time, and one that measures.  With
``--trace 0`` the run prints every end-to-end metric, with ``--trace 1``
every per-layer metric; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  All outputs go to a
temporary directory under ``.bench_work/`` that is removed afterwards.

``--self-test`` runs each workload's traced pass twice with the same seed
and asserts that every count (calls, steps, evaluations, audit checks,
tower iterations, CSV bytes) repeats exactly.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

from workloads import WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
#: Fresh processes that only set up, half before and half after the
#: measuring process.  With it they give the samples whose median is
#: ``setup_s``; spreading them over the run evens out the host's slow swings.
SETUP_ONLY = 8
#: A run must end within 180 s; children are stopped before this.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "command_p50_ms": "ms",
    "command_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "passed_fraction": "fraction",
}
#: Per-layer units of counts, which must repeat exactly between two runs with one seed.
COUNT_UNITS = ("count", "computed_count", "bytes")
# Variables that pin BLAS/OpenMP pools to one thread; np.polyfit calls LAPACK.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


class Session:
    """One benchmark invocation: a work directory and a deadline."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.monotonic()
        (root / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run_", dir=root / ".bench_work"))
        self.env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(self.work))
        self.env.update({var: "1" for var in THREAD_VARS})
        self._children = 0

    def child(self, mode: str, workload: str, seed: int, seconds: float) -> dict:
        """Run one fresh worker process and return its JSON result."""
        self._children += 1
        work = self.work / f"child{self._children:03d}"
        work.mkdir()
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise BenchError("out of time before starting a worker")
        argv = [sys.executable, str(CHILD), mode, workload, str(seed), repr(seconds), str(self.root), str(work)]
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker for {workload} did not finish within {remaining:.0f} s") from exc
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / ".bench_work").rmdir()
        except OSError:
            pass


def host_info(root: Path, child: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": child["python"],
        "numpy": child["numpy"],
        "platform": platform.platform(),
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _describe_inputs(notes: dict) -> str:
    if "families" in notes:
        total = sum(notes["families"].values())
        parts = [f"{k} {v} ({100.0 * v / total:.0f}%)" for k, v in sorted(notes["families"].items())]
        return f"{total} generated spec files: " + ", ".join(parts)
    return f"history seed {notes['history_seed']}"


def run_e2e(session: Session, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    def setup_samples(n: int) -> list[float]:
        return [session.child("setup", workload, seed, 0.0)["setup_s"] for _ in range(n)]

    setups = setup_samples(SETUP_ONLY // 2)
    res = session.child("e2e", workload, seed, seconds)
    setups += [res["setup_s"], *setup_samples(SETUP_ONLY - SETUP_ONLY // 2)]
    lat_ms = [x * 1e3 for x in res["latencies"]]
    p90 = quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    values = {
        "setup_s": median(setups),
        "wall_s": median(res["walls"]),
        "command_p50_ms": median(lat_ms),
        "command_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "passed_fraction": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    beyond = sum(1 for x in lat_ms if x > p90)
    print(f"inputs: {_describe_inputs(res['notes'])}")
    print(
        f"samples: {len(res['walls'])} passes, {len(lat_ms)} commands; "
        f"{beyond} command latencies lie beyond command_p90_ms; setup_s is the median of {len(setups)} fresh processes"
    )
    return res, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def run_trace(session: Session, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    res = session.child("trace", workload, seed, seconds)
    metrics = res["metrics"]
    print(f"inputs: {_describe_inputs(res['notes'])}")
    print(f"samples: {res['passes']} traced and {res['passes']} untraced passes; per-layer values are per pass")
    if res["missing"]:
        print(f"missing layers (not reported): {', '.join(res['missing'])}")
    _print_breakdown(metrics)
    return res, {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}


#: Counts derived from other counts rather than counted at the call.
COMPUTED_COUNTS = ("operators.evaluate.calls",)


def per_layer_unit(name: str) -> str:
    if name in COMPUTED_COUNTS:
        return "computed_count"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("self_share"):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _print_breakdown(metrics: dict) -> None:
    """Self time per layer in one traced pass, largest first."""
    total = metrics["trace.self_sum_s"]
    rows = sorted(
        ((k[: -len(".self_s")], v) for k, v in metrics.items() if k.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    print("self time per traced pass:")
    for layer, value in rows:
        print(f"  {layer:<36s} {value:12.6f} s  {100.0 * value / total:6.2f}%")
    accounted = total - metrics["trace.overhead_s"]
    untraced = metrics["trace.untraced_wall_s"]
    print(
        f"  sum of self times {total:.6f} s - trace.overhead_s {metrics['trace.overhead_s']:.6f} s"
        f" = {accounted:.6f} s, {100.0 * accounted / untraced:.2f}% of the untraced pass wall {untraced:.6f} s"
    )


def self_test(session: Session, seed: int) -> int:
    """Counts repeat exactly between two runs with one seed; outputs are correct."""
    ok = True
    for workload in WORKLOADS:
        runs = [session.child("trace", workload, seed, 0.0) for _ in range(2)]
        counts = [
            {k: v for k, v in r["metrics"].items() if per_layer_unit(k) in COUNT_UNITS} for r in runs
        ]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        failed = [r["failed"] for r in runs]
        m = runs[0]["metrics"]
        print(
            f"{workload}: {len(counts[0])} counts, differing {differing or 'none'}; failed commands {failed}; "
            f"integrate calls {m.get('simulator.integrate.calls')}, "
            f"integrate self share {m.get('simulator.integrate.self_share', 0.0):.3f}; "
            f"missing layers {runs[0]['missing'] or 'none'}"
        )
        ok = ok and not differing and failed == [0, 0] and not runs[0]["missing"]
        if workload == "reproduce_distributed":
            ok = ok and m["simulator.integrate.self_share"] >= 0.9
        if workload == "analyze_sweep":
            ok = ok and m["simulator.integrate.calls"] == 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "ddeosc" / "__init__.py").is_file() or not (root / "pyproject.toml").is_file():
        print(f"error: {root} is not a ddeosc source checkout (no src/ddeosc or pyproject.toml)", file=sys.stderr)
        return 2

    session = Session(root)
    try:
        if args.self_test:
            return self_test(session, args.seed)
        print(f"ddeosc benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        run = run_trace if args.trace else run_e2e
        res, metrics = run(session, args.workload, args.seed, args.seconds)
        print("host: " + json.dumps(host_info(root, res), sort_keys=True))
        for problem in res["problems"]:
            print(f"check failed: {problem}")
        for name, m in metrics.items():
            print(f"  {name:<48s} {m['value']!r} {m['unit']}")
        result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"]}
        print(json.dumps({**result, "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()


if __name__ == "__main__":
    sys.exit(main())

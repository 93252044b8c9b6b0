"""One workload process: set-up, measured passes, and traced per-layer numbers.

``run.py`` starts a fresh process of this script for every set-up sample and
for every workload run:

    python3 benchmarks/child.py MODE WORKLOAD SEED SECONDS ROOT WORK_DIR

MODE is one of:

- ``setup``: import ``ddeosc`` and generate the inputs, nothing more;
  the set-up time covers the import and the generation in memory;
- ``e2e``: untraced passes over the workload's commands for SECONDS;
- ``trace``: untraced and traced passes in turn for SECONDS (at least one
  of each), then the per-call microbenchmarks.

The CLI is driven in-process through its click entry point, as named in
``pyproject.toml``, with ``standalone_mode=False``.  The last line of
standard output is one JSON object.
"""

import gc
import importlib
import io
import json
import platform
import resource
import shutil
import sys
import tomllib
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import layers
import micro
from workloads import build_workload, output_path, resolve_check_names


def load_entry_point(root: Path):
    """Import ``ddeosc`` from ``ROOT/src`` and return its click command."""
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module_name, _, attr = scripts["ddeosc"].partition(":")
    sys.path.insert(0, str(root / "src"))
    entry = getattr(importlib.import_module(module_name), attr)
    package = sys.modules["ddeosc"]
    if not Path(package.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise ImportError(f"ddeosc was imported from {package.__file__}, not from {root / 'src'}")
    return entry


def invoke(entry, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rv = entry.main(args=argv, prog_name="ddeosc", standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback is a failed command, not a benchmark crash
        code = getattr(exc, "exit_code", 1)
        err.write(traceback.format_exc())
    return code, err.getvalue()


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, workload, entry, work: Path):
        self.workload = workload
        self.entry = entry
        self.work = work
        self.names = resolve_check_names(layers.find_public)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One pass over the commands; returns (pass wall time, command latencies)."""
        pass_dir = self.work / f"pass{self.passes:04d}"
        self.passes += 1
        pass_dir.mkdir(parents=True)
        results, latencies = [], []
        pass_start = perf_counter()
        for i, command in enumerate(self.workload.commands):
            out = output_path(pass_dir, i, command)
            argv = command.argv(out)
            start = perf_counter()
            if tracer is None:
                code, err = invoke(self.entry, argv)
            else:
                tracer.tag = command.tag
                with tracer.span(layers.ROOT_SPAN):
                    code, err = invoke(self.entry, argv)
            latencies.append(perf_counter() - start)
            results.append((command, code, out, err))
        wall = perf_counter() - pass_start

        for command, code, out, err in results:
            self.attempted += 1
            problems = command.check(code, out, self.names)
            if problems:
                self.failed += 1
                if err:
                    problems.append(err.strip().splitlines()[-1])
                self.problems.extend(problems[: 10 - len(self.problems)])
        shutil.rmtree(pass_dir)
        gc.collect()
        return wall, latencies


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, root, work = argv
    seed, seconds, root, work = int(seed), float(seconds), Path(root), Path(work)

    setup_start = perf_counter()
    entry = load_entry_point(root)
    workload = build_workload(name, seed, work / "inputs")
    setup_s = perf_counter() - setup_start
    # Writing the input files is the harness's I/O, not the program's set-up;
    # its file-system latency swings by 3x on a shared host.
    workload.write_files()

    import numpy

    result = {
        "setup_s": setup_s,
        "notes": workload.notes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    runner = Runner(workload, entry, work)
    start = perf_counter()
    if mode == "e2e":
        walls, latencies = [], []
        while not walls or perf_counter() - start < seconds:
            wall, lat = runner.run_pass()
            walls.append(wall)
            latencies.extend(lat)
        result.update(walls=walls, latencies=latencies)
    elif mode == "trace":
        tracer = layers.Tracer()
        untraced, traced, samples = [], [], []
        while not traced or perf_counter() - start < seconds:
            untraced.append(runner.run_pass()[0])
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer)[0])
            finally:
                tracer.uninstall()
            samples.append(tracer.collect())
        metrics = {key: median(s[key] for s in samples) for key in samples[0]}
        micro_metrics, micro_missing = micro.run(layers.find_public)
        metrics.update(micro_metrics)
        metrics["trace.wall_s"] = median(traced)
        metrics["trace.untraced_wall_s"] = median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        result.update(metrics=metrics, missing=tracer.missing + micro_missing, passes=len(traced))
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=_peak_rss_mb(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's three workloads: seeded inputs, CLI commands and output checks.

Input generation uses only the standard library, so that the set-up time a
workload process reports is the import of ``ddeosc`` plus the generation of
its inputs in memory.  Reference values for the checks are computed lazily, outside every
timed region, and cached across passes.

Every check compares against an independent closed form:

- ``reproduce --app 1``: w = 6/q;
- ``reproduce --app 2``: w = e^a1 (e^a1 - 1)/a1 * min(a2, a3);
- ``reproduce --app 3``: w = a/(m+1), minus b/3 for odd l;
- ``analyze``: the minimum over the tail window of F(t) - F(t - lag), where
  F is a hand-written antiderivative of the spec's rate bound.

Checks never compare trajectories byte for byte and ignore ``generated_at``.
"""

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

INV_E = 1.0 / math.e
WORKLOADS = ("reproduce_point", "reproduce_distributed", "analyze_sweep")

#: Number of spec files in one analyze_sweep pass; at least 100 so that the
#: 90th percentile of one pass has ten samples beyond it.
SWEEP_SPECS = 120
#: Default ensemble size of ``ddeosc reproduce``, which the workloads keep.
N_HISTORIES = 10


def _app2_w(a1: float, a2: float, a3: float) -> float:
    return math.exp(a1) * (math.exp(a1) - 1.0) / a1 * min(a2, a3)


def _app3_w(a: float, b: float, m: float, l: int) -> float:
    return a / (m + 1.0) - (b / 3.0 if l % 2 else 0.0)


# Documented default parameter sets of ``reproduce``; the closed forms above
# give the w each bundle must report.
REPRODUCE_EXPECTED_W = {
    1: sorted([6.0 / 10.0, 6.0 / 20.0]),
    2: [_app2_w(1.0, 1.0, 1.0)],
    3: sorted([_app3_w(3.0, 0.1, 1.0, 2), _app3_w(3.0, 0.1, 1.0, 3)]),
}


# ---------------------------------------------------------------------------
# strict JSON and CLI-output checks


def _reject_constant(name: str):
    raise ValueError(f"bare {name} in JSON")


def load_strict_json(path: Path):
    """Parse a JSON file, rejecting the non-standard NaN/Infinity literals."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _expected_verdict(w: float) -> str:
    return "guaranteed" if w > INV_E else "inconclusive"


def check_reproduce(app: int, out_dir: Path, read_trajectory_csv: Callable) -> list[str]:
    """Problems found in one ``reproduce`` bundle directory (empty when correct)."""
    problems: list[str] = []
    bundles = sorted(p for p in out_dir.iterdir() if p.is_dir()) if out_dir.is_dir() else []
    expected = REPRODUCE_EXPECTED_W[app]
    if len(bundles) != len(expected):
        return [f"app{app}: expected {len(expected)} scenario bundles, found {len(bundles)}"]
    w_hats = []
    for bundle in bundles:
        try:
            report = load_strict_json(bundle / "report.json")
            conc = load_strict_json(bundle / "concordance.json")
            load_strict_json(bundle / "spec.json")
        except (OSError, ValueError) as exc:
            problems.append(f"{bundle.name}: {exc}")
            continue
        w = report["w_hat"]
        w_hats.append(w)
        if report["verdict"] != _expected_verdict(w) or conc["verdict"] != report["verdict"]:
            problems.append(f"{bundle.name}: verdict {report['verdict']} / {conc['verdict']} for w_hat {w!r}")
        if not _close(conc["w_hat"], w):
            problems.append(f"{bundle.name}: concordance w_hat {conc['w_hat']!r} != report {w!r}")
        if conc["concordant"] is not True:
            problems.append(f"{bundle.name}: not concordant")
        csvs = sorted((bundle / "trajectories").glob("*.csv"))
        if len(csvs) != N_HISTORIES:
            problems.append(f"{bundle.name}: {len(csvs)} trajectory CSVs, expected {N_HISTORIES}")
        for csv in csvs:
            try:
                traj = read_trajectory_csv(csv)
            except Exception as exc:  # any failure to read back is an output defect
                problems.append(f"{csv.name}: read_trajectory_csv failed: {exc!r}")
                continue
            if len(traj.times) < 2 or traj.times[0] != 0.0:
                problems.append(f"{csv.name}: trajectory does not start at t=0 with two samples")
    if not problems:
        for got, want in zip(sorted(w_hats), expected):
            if not _close(got, want):
                problems.append(f"app{app}: w_hat {got!r} disagrees with closed form {want!r}")
                continue
            if _expected_verdict(got) != _expected_verdict(want):
                problems.append(f"app{app}: verdict for w_hat {got!r} disagrees with closed form {want!r}")
    return problems


# ---------------------------------------------------------------------------
# analyze_sweep specs


@dataclass(frozen=True)
class RateShape:
    """Rate bound b(s) = scale * g(s) with a closed-form antiderivative.

    ``kind`` is ``constant`` (g = 1), ``sin`` (g = 1 + r sin(omega s + phi))
    or ``exp`` (g = 1 + k cos(omega s + phi) exp(r sin(omega s + phi))).
    """

    kind: str
    scale: float
    r: float = 0.0
    omega: float = 1.0
    phi: float = 0.0
    k: float = 0.0

    def expr(self, factor: float = 1.0) -> str:
        """The shape as a ddeosc expression, multiplied by ``factor``."""
        c = self.scale * factor
        if self.kind == "constant":
            return repr(c)
        arg = f"{self.omega!r}*t + {self.phi!r}"
        if self.kind == "sin":
            return f"{c!r}*(1 + {self.r!r}*sin({arg}))"
        return f"{c!r}*(1 + {self.k!r}*cos({arg})*exp({self.r!r}*sin({arg})))"

    def b(self, s):
        import numpy as np

        if self.kind == "constant":
            return self.scale + 0.0 * s
        arg = self.omega * s + self.phi
        if self.kind == "sin":
            return self.scale * (1.0 + self.r * np.sin(arg))
        return self.scale * (1.0 + self.k * np.cos(arg) * np.exp(self.r * np.sin(arg)))

    def antiderivative(self, s):
        import numpy as np

        if self.kind == "constant":
            return self.scale * s
        arg = self.omega * s + self.phi
        if self.kind == "sin":
            return self.scale * (s - self.r / self.omega * np.cos(arg))
        return self.scale * (s + self.k / (self.r * self.omega) * np.exp(self.r * np.sin(arg)))


@dataclass(frozen=True)
class SweepSpec:
    """One generated spec file with the facts its check needs."""

    family: str
    doc: dict
    shape: RateShape
    lag: float  # t - tau(t) as the criterion sees it
    t_start: float
    t_end: float

    @cached_property
    def reference(self) -> tuple[float, float]:
        """(lowest possible w, highest value w_hat may take).

        The true liminf over the tail lies within half a dense-grid gap times
        the Lipschitz constant of I(t) below the dense minimum; a 512-point
        sample grid may sit up to half its own gap times that constant above
        it.  Time-varying integrands also carry Simpson error, bounded here
        by 1e-4 relative, far below every margin the generator leaves.
        """
        import numpy as np

        mid = 0.5 * (self.t_start + self.t_end)
        ts = np.linspace(mid, self.t_end, 20001)
        values = self.shape.antiderivative(ts) - self.shape.antiderivative(ts - self.lag)
        lipschitz = float(np.max(np.abs(self.shape.b(ts) - self.shape.b(ts - self.lag))))
        dense_min = float(np.min(values))
        dense_gap = (self.t_end - mid) / 20000
        sample_gap = (self.t_end - self.t_start) / 511
        varying = self.shape.kind != "constant"
        tol = (1e-4 if varying else 1e-9) * max(1.0, abs(dense_min))
        return (
            dense_min - 0.5 * dense_gap * lipschitz - tol,
            dense_min + 0.5 * sample_gap * lipschitz + tol,
        )

    def check(self, report_path: Path) -> list[str]:
        try:
            report = load_strict_json(report_path)
        except (OSError, ValueError) as exc:
            return [f"{self.doc['label']}: {exc}"]
        lo, hi = self.reference
        w_hat = report["w_hat"]
        problems = []
        if not lo <= w_hat <= hi:
            problems.append(f"{self.doc['label']}: w_hat {w_hat!r} outside [{lo!r}, {hi!r}]")
        if lo > INV_E and report["verdict"] != "guaranteed":
            problems.append(f"{self.doc['label']}: verdict {report['verdict']} although w >= {lo!r}")
        if hi <= INV_E and report["verdict"] != "inconclusive":
            problems.append(f"{self.doc['label']}: verdict {report['verdict']} although w <= {hi!r}")
        return problems


def _app1_type(rng: random.Random, i: int, near: bool) -> SweepSpec:
    six_e = 6.0 * math.e
    if near:
        # Within 1e-6 of 6e: the tower replay runs to its iteration cap.
        q = six_e * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -6.0))
    else:
        q = six_e * math.exp(rng.uniform(-0.7, 0.7))
    doc = {
        "schema": 1,
        "kind": "discrete_delay",
        "label": f"sweep {i}: app1-type, q={q!r}",
        "terms": [
            {"coef_expr": f"1/({q!r}*(t+6))", "delay": 6.0},
            {"coef_expr": f"(t+5)/({q!r}*(t+6))", "delay": 8.0},
        ],
        "bound_expr": f"1/{q!r}",
    }
    family = "app1_near_threshold" if near else "app1_type"
    return SweepSpec(family, doc, RateShape("constant", 1.0 / q), 6.0, 16.0, 256.0)


def _time_varying(rng: random.Random, i: int, kind: str, tau_override: bool) -> SweepSpec:
    d1 = rng.uniform(2.0, 6.0)
    d2 = d1 + rng.uniform(1.0, 3.0)
    lag = rng.uniform(1.0, d1) if tau_override else d1
    omega = rng.uniform(0.4, 1.2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if kind == "sin":
        r, k = rng.uniform(0.1, 0.5), 0.0
    else:
        r = rng.uniform(0.3, 1.0)
        k = rng.uniform(0.2, 0.5) * math.exp(-r)
    # Both shapes keep g in [0.5, 1.5], so w lies in [0.5, 1.5] * scale * lag
    # and the scale puts w well clear of 1/e on a seeded side.
    if rng.random() < 0.5:
        scale = rng.uniform(0.9, 2.5) / lag
    else:
        scale = rng.uniform(0.05, 0.2) / lag
    shape = RateShape(kind, scale, r=r, omega=omega, phi=phi, k=k)
    share = rng.uniform(0.2, 0.8)
    doc = {
        "schema": 1,
        "kind": "discrete_delay",
        "label": f"sweep {i}: time-varying {kind}" + (", tau override" if tau_override else ""),
        "terms": [
            {"coef_expr": shape.expr(share), "delay": d1},
            {"coef_expr": shape.expr(1.0 - share), "delay": d2},
        ],
        "bound_expr": shape.expr(),
    }
    if tau_override:
        doc["tau_expr"] = f"t - {lag!r}"
    family = f"time_varying_{kind}" + ("_tau_override" if tau_override else "")
    return SweepSpec(family, doc, shape, lag, 10.0, 110.0)


def _catalog(rng: random.Random, i: int, kernel: str) -> SweepSpec:
    while True:
        if kernel == "app2":
            a1, a2, a3 = rng.uniform(0.2, 1.5), rng.uniform(0.05, 1.2), rng.uniform(0.05, 1.2)
            params = {"a1": a1, "a2": a2, "a3": a3}
            lag = min(a2, a3)  # tau(t) = t - min(a2, a3) * s_lo with s_lo = 1
            w, window = _app2_w(a1, a2, a3), (4.0, 16.0)
        else:
            a, b, m, l = rng.uniform(0.3, 4.0), rng.uniform(0.02, 0.5), rng.uniform(0.5, 3.0), rng.randint(1, 4)
            params = {"a": a, "b": b, "m": m, "l": l}
            lag = 1.0  # tau(t) = t - 1
            w, window = _app3_w(a, b, m, l), (12.0, 52.0)
        if w > 0.05 and abs(w - INV_E) > 0.01:
            break
    doc = {
        "schema": 1,
        "kind": "distributed_delay",
        "label": f"sweep {i}: catalog {kernel}",
        "kernel": kernel,
        "parameters": params,
    }
    return SweepSpec(f"catalog_{kernel}", doc, RateShape("constant", w / lag), lag, *window)


def sweep_specs(seed: int) -> list[SweepSpec]:
    """The seeded analyze_sweep set, in three families.

    - 30% app1-type, a third of them within 1e-6 of q = 6e;
    - 30% time-varying, a third with ``exp`` and the rest with ``sin``
      coefficients, a quarter of them with a ``tau_expr`` override;
    - 40% catalog kernels, app2 and app3 alternating.
    """
    rng = random.Random(seed)
    specs: list[SweepSpec] = []
    for j in range(3 * SWEEP_SPECS // 10):
        specs.append(_app1_type(rng, len(specs), near=j % 3 == 0))
    for j in range(3 * SWEEP_SPECS // 10):
        kind = "exp" if j % 3 == 2 else "sin"
        specs.append(_time_varying(rng, len(specs), kind, tau_override=j % 4 == 0))
    while len(specs) < SWEEP_SPECS:
        specs.append(_catalog(rng, len(specs), "app2" if len(specs) % 2 else "app3"))
    return specs


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    """One CLI invocation of a pass and the check of its outputs."""

    tag: str  # scenario label for per-scenario layer metrics
    argv: Callable[[Path], list[str]]  # CLI arguments, given this command's output path
    check: Callable[[int, Path, dict], list[str]]  # (exit code, output path, resolved names)


@dataclass
class Workload:
    name: str
    commands: list[Command]
    notes: dict = field(default_factory=dict)
    files: dict[Path, str] = field(default_factory=dict)  # input files to write

    def write_files(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def _reproduce_command(app: int, history_seed: int) -> Command:
    def check(code: int, out: Path, names: dict) -> list[str]:
        if code != 0:
            return [f"reproduce --app {app} exited {code}"]
        return check_reproduce(app, out, names["read_trajectory_csv"])

    return Command(
        tag=f"app{app}",
        argv=lambda out: ["reproduce", "--app", str(app), "--seed", str(history_seed), "--out", str(out)],
        check=check,
    )


def _analyze_command(spec: SweepSpec, spec_path: Path) -> Command:
    def check(code: int, out: Path, names: dict) -> list[str]:
        if code != 0:
            return [f"analyze {spec_path.name} exited {code}"]
        return spec.check(out)

    return Command(
        tag="analyze",
        argv=lambda out: [
            "analyze", "--spec", str(spec_path),
            "--t-start", repr(spec.t_start), "--t-end", repr(spec.t_end),
            "--out", str(out),
        ],
        check=check,
    )


def build_workload(name: str, seed: int, input_dir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and list its commands.

    Input files are generated in memory; :meth:`Workload.write_files` puts
    them under ``input_dir``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    if name != "analyze_sweep":
        history_seed = random.Random(seed).randrange(1_000_000)
        apps = (1,) if name == "reproduce_point" else (2, 3)
        return Workload(
            name,
            [_reproduce_command(app, history_seed) for app in apps],
            {"history_seed": history_seed},
        )
    workload = Workload(name, [], {"families": {}})
    for i, spec in enumerate(sweep_specs(seed)):
        path = input_dir / f"spec_{i:03d}.json"
        workload.files[path] = json.dumps(spec.doc, indent=2, sort_keys=True) + "\n"
        workload.commands.append(_analyze_command(spec, path))
        families = workload.notes["families"]
        families[spec.family] = families.get(spec.family, 0) + 1
    return workload


def output_path(pass_dir: Path, index: int, command: Command) -> Path:
    """Where command ``index`` of a pass writes: a bundle directory or a report file."""
    return pass_dir / (f"{index:03d}.json" if command.tag == "analyze" else f"{index:03d}")


def resolve_check_names(find: Callable[[str], Optional[Callable]]) -> dict:
    """Program functions the checks call, looked up by public name."""
    names = {"read_trajectory_csv": find("read_trajectory_csv")}
    missing = [k for k, v in names.items() if v is None]
    if missing:
        raise LookupError(f"ddeosc defines no {', '.join(missing)}")
    return names

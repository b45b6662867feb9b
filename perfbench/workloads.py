"""The three workloads: their seeded inputs, one round of calls, and checks.

Each workload is a closed loop with one caller: a call starts only after the
previous one has returned.  A round is a fixed list of calls, and a run
repeats whole rounds.  Every output is checked against the independent
evaluator in ``reference`` and against properties of the method; a call
that raises, exits non-zero or fails a check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

HALF_PI = math.pi / 2
TWO_PI = 2.0 * math.pi
SYMMETRIC_OPTIMUM = 0.6887218755408672  # 1.5 - h(1/4) bits: symmetric emitter, theta = pi

# Tolerances.  Grids written as JSON carry full precision; CSV and the text
# reports carry six decimals, so a printed number is off by up to 5e-7.
FULL = 1e-9
PRINTED = 5e-7 + 1e-9
HEADLINE = 1e-6
# An optimum's printed point is rounded to six decimals in up to four
# coordinates, which moves I_c by at most a few gradient-times-5e-7.
AT_PRINTED_POINT = 1e-5


@dataclass
class Op:
    """Outcome of one call."""

    seconds: float
    points: int = 0
    failed: bool = False
    wrong: bool = False
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)


def _check(op: Op, ok, what: str) -> None:
    if not bool(np.all(ok)):
        op.wrong = True
        op.failed = True
        op.problems.append(what)


def _judge(op: Op, label: str, code: int, verify, text: str) -> Op:
    """Fail ``op`` on a non-zero exit, else run ``verify(op, text)``."""
    if code != 0:
        op.failed = True
        op.problems.append(f"{label}: exit {code}")
        return op
    try:
        verify(op, text)
    except (ValueError, KeyError, IndexError, StopIteration) as err:
        _check(op, False, f"{label}: unreadable output {err!r}")
    return op


def _in_process(env, argv: list[str], label: str, points: int, verify) -> Op:
    """One ``cli.main(argv)`` call with stdout captured, timed and checked."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = env.cli().main(argv)
    except Exception as err:  # a crash is one failed operation, not the end of the run
        return Op(time.perf_counter() - start, failed=True, problems=[f"{label}: {err!r}"])
    return _judge(Op(time.perf_counter() - start, points=points), label, code, verify, buf.getvalue())


# --------------------------------------------------------------------------
# figures: the four 41x41 presets through ``cli.main(["figure", ...])``


@dataclass(frozen=True)
class Preset:
    figure: str
    fmt: str
    axes: tuple[tuple[str, float, float], ...]
    fixed: dict


PRESETS = (
    Preset("fig1a", "csv", (("theta", 0.0, TWO_PI), ("chi", 0.0, HALF_PI)),
           {"phi": 0.0, "gamma_t": math.inf, "asym": 1.0, "rho11": 0.25}),
    Preset("fig1b", "json", (("theta", 0.0, TWO_PI), ("gamma_t", 0.0, 8.0)),
           {"chi": HALF_PI, "phi": 0.0, "asym": 1.0, "rho11": 0.5}),
    Preset("fig2a", "csv", (("theta", 0.0, TWO_PI), ("rho11", 0.0, 1.0)),
           {"chi": HALF_PI, "phi": 0.0, "gamma_t": math.inf, "asym": 1.0}),
    Preset("fig2b", "json", (("asym", 0.0, 1.0), ("chi", 0.0, HALF_PI)),
           {"theta": math.pi, "phi": 0.0, "gamma_t": math.inf, "rho11": 0.5}),
)
GRID = 41


class Figures:
    """The paper's four surfaces, two written as CSV and two as JSON.

    The presets are fixed, so this workload's inputs do not depend on the
    seed.
    """

    name = "figures"
    call_per_round = False

    def __init__(self, seed: int, env) -> None:
        self.env = env
        self.expected = {}
        for preset in PRESETS:
            grids = [np.linspace(lo, hi, GRID) for _, lo, hi in preset.axes]
            mesh = dict(zip((a[0] for a in preset.axes), np.meshgrid(*grids, indexing="ij")))
            point = {**preset.fixed, **{k: v.ravel() for k, v in mesh.items()}}
            out = ref.evaluate(point["theta"], point["chi"], point["phi"], point["gamma_t"],
                               point["asym"], ref.state(point["rho11"]))
            self.expected[preset.figure] = (grids, out["Ic"].reshape(GRID, GRID),
                                            out["S_in"].reshape(GRID, GRID))

    def round(self) -> list[Op]:
        return [self._call(preset) for preset in PRESETS]

    def _call(self, preset: Preset) -> Op:
        argv = ["figure", "--figure", preset.figure, "--format", preset.fmt]
        return _in_process(self.env, argv, preset.figure, GRID * GRID,
                           lambda op, text: self._verify(op, preset, text))

    def _verify(self, op: Op, preset: Preset, text: str) -> None:
        name = preset.figure
        grids, want, s_in = self.expected[name]
        if preset.fmt == "json":
            doc = json.loads(text)
            axes = [np.array(a["values"], dtype=float) for a in doc["axes"]]
            names = [a["name"] for a in doc["axes"]]
            values = np.array(doc["values"], dtype=float)
            max_value = float(doc["max"]["Ic"])
            at = {k: float(v) for k, v in doc["max"]["at"].items()}
            tol = FULL
        else:
            lines = text.splitlines()
            names = lines[0].split(",")[:2]
            _check(op, lines[0] == ",".join(names + ["Ic"]), f"{name}: CSV header {lines[0]!r}")
            rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
            axes = [rows[::GRID, 0], rows[:GRID, 1]]
            values = rows[:, 2].reshape(GRID, GRID)
            _check(op, np.all(rows[:, 0].reshape(GRID, GRID) == axes[0][:, None]), f"{name}: CSV row order")
            head, _, tail = lines[-1].partition(" at ")
            max_value = float(head.removeprefix("# max Ic="))
            at = {k: float(v) for k, v in (item.split("=") for item in tail.split(", "))}
            tol = PRINTED

        _check(op, names == [a[0] for a in preset.axes], f"{name}: axes {names}")
        for grid, got in zip(grids, axes):
            _check(op, got.shape == grid.shape and np.all(np.abs(got - grid) <= tol), f"{name}: axis values")
        _check(op, values.shape == (GRID, GRID), f"{name}: grid shape {values.shape}")
        _check(op, np.abs(values - want) <= tol, f"{name}: I_c differs from the reference")
        _check(op, (-s_in - tol <= values) & (values <= s_in + tol), f"{name}: -S(rho) <= I_c <= S(rho)")
        best = float(want.max())
        _check(op, abs(max_value - best) <= tol, f"{name}: max {max_value} vs reference {best}")
        i = int(np.argmin(np.abs(grids[0] - at[names[0]])))
        j = int(np.argmin(np.abs(grids[1] - at[names[1]])))
        _check(op, abs(want[i, j] - best) <= tol, f"{name}: argmax is not a maximum")

        if names[0] == "theta":
            # no pulse leaves pure vacuum: I_c = -S(rho); a 2 pi pulse returns there
            if name == "fig1a":
                minus_s = np.full(GRID, -0.811278)
            elif name == "fig1b":
                minus_s = np.full(GRID, -1.0)
            else:
                minus_s = -ref.entropy(np.stack([grids[1], 1.0 - grids[1]], axis=-1))
            _check(op, np.abs(values[0] - minus_s) <= HEADLINE + tol, f"{name}: theta = 0 row is not -S(rho)")
            _check(op, np.abs(values[0] - values[-1]) <= 2 * tol, f"{name}: theta = 0 and 2 pi rows differ")
        if name == "fig2b":
            symmetric = values[-1]  # asym = 1
            _check(op, np.abs(symmetric - 0.688722) <= HEADLINE, f"{name}: asym = 1 row is not 0.688722")
            _check(op, np.ptp(symmetric) <= FULL, f"{name}: asym = 1 row depends on chi")
            _check(op, abs(max_value - 1.0) <= FULL and at == {"asym": 0.0, "chi": HALF_PI},
                   f"{name}: maximum {max_value} at {at}, expected 1 at asym = 0, chi = pi/2")
            _check(op, abs(values[0, -1] - 1.0) <= FULL, f"{name}: I_c(asym = 0, chi = pi/2) is not 1")


# --------------------------------------------------------------------------
# optimize: 1-4 free parameters through ``cli.main(["optimize", ...])``


@dataclass
class Problem:
    label: str
    free: dict[str, tuple[float, float]]
    fixed: dict[str, float]
    state: dict[str, float] | None  # None: maximally mixed input
    target: float | None = None


def optimize_problems(rng: np.random.Generator) -> list[Problem]:
    """One problem per free-parameter count; the seed draws the fixed values."""
    rho11 = float(rng.uniform(0.15, 0.85))
    radius = float(rng.uniform(0.0, 0.5)) * math.sqrt(rho11 * (1.0 - rho11))
    angle = float(rng.uniform(0.0, TWO_PI))
    return [
        # symmetric emitter, mixed input: the optimum is the headline 0.688722
        Problem("theta", {"theta": (0.0, TWO_PI)},
                {"chi": float(rng.uniform(0.0, HALF_PI)), "phi": float(rng.uniform(-math.pi, math.pi)),
                 "gamma_t": math.inf, "asym": 1.0},
                None, SYMMETRIC_OPTIMUM),
        # single decay path reachable: the optimum is 1 at asym = 0, chi = pi/2
        Problem("asym,chi", {"asym": (0.0, 1.0), "chi": (0.0, HALF_PI)},
                {"theta": math.pi, "phi": float(rng.uniform(-math.pi, math.pi)), "gamma_t": math.inf},
                None, 1.0),
        Problem("theta,chi,gamma_t", {"theta": (0.0, TWO_PI), "chi": (0.0, HALF_PI), "gamma_t": (0.0, 8.0)},
                {"phi": float(rng.uniform(-math.pi, math.pi)), "asym": float(rng.uniform(0.25, 2.0))},
                {"rho11": rho11, "re_rho12": radius * math.cos(angle), "im_rho12": radius * math.sin(angle)}),
        # the 6,561-point coarse seed dominates; the input stays diagonal so
        # that every coarse point is a physical state
        Problem("theta,chi,asym,rho11",
                {"theta": (0.0, TWO_PI), "chi": (0.0, HALF_PI), "asym": (0.0, 2.0), "rho11": (0.0, 1.0)},
                {"phi": float(rng.uniform(-math.pi, math.pi)), "gamma_t": float(rng.uniform(1.0, 8.0))},
                {"re_rho12": 0.0, "im_rho12": 0.0}),
    ]


DEFAULT_POINT = {"theta": math.pi, "chi": HALF_PI, "phi": 0.0, "gamma_t": math.inf, "asym": 1.0,
                 "rho11": 0.5, "re_rho12": 0.0, "im_rho12": 0.0}


def _reference_at(points: dict) -> dict:
    full = {k: np.atleast_1d(np.asarray(points.get(k, v), dtype=float)) for k, v in DEFAULT_POINT.items()}
    rho = ref.state(full["rho11"], full["re_rho12"], full["im_rho12"])
    out = ref.evaluate(full["theta"], full["chi"], full["phi"], full["gamma_t"], full["asym"], rho)
    out["physical"] = ref.physical(full["rho11"], full["re_rho12"], full["im_rho12"])
    return out


class Optimize:
    """One pass over four problems with 1, 2, 3 and 4 free parameters."""

    name = "optimize"
    call_per_round = True
    COARSE = 9

    def __init__(self, seed: int, env) -> None:
        self.env = env
        self.problems = optimize_problems(np.random.default_rng(seed))
        self.configs = []
        self.coarse_best = []
        for i, problem in enumerate(self.problems):
            doc = {
                "params": {k: "inf" if math.isinf(v) else v for k, v in problem.fixed.items()},
                "input_state": problem.state if problem.state is not None else "maximally_mixed",
                "optimize": {"free": list(problem.free), "bounds": {k: list(b) for k, b in problem.free.items()}},
            }
            path = env.work_dir / f"optimize-{i}.json"
            path.write_text(json.dumps(doc))
            self.configs.append(str(path))
            grids = np.meshgrid(*(np.linspace(lo, hi, self.COARSE) for lo, hi in problem.free.values()),
                                indexing="ij")
            coarse = {**problem.fixed, **(problem.state or {}),
                      **{k: g.ravel() for k, g in zip(problem.free, grids)}}
            out = _reference_at(coarse)
            self.coarse_best.append(float(np.max(np.where(out["physical"], out["Ic"], -np.inf))))

    def round(self) -> list[Op]:
        return [self._call(i) for i in range(len(self.problems))]

    def _call(self, i: int) -> Op:
        argv = ["optimize", "--config", self.configs[i]]
        return _in_process(self.env, argv, self.problems[i].label, self.COARSE ** len(self.problems[i].free),
                           lambda op, text: self._verify(op, i, text))

    def _verify(self, op: Op, i: int, text: str) -> None:
        problem = self.problems[i]
        fields = dict(line.rsplit(None, 1) for line in text.splitlines())
        value = float(fields.pop("I_c*"))
        fields.pop("iterations")
        point = {k.removesuffix("*"): float(v) for k, v in fields.items()}
        label = problem.label
        _check(op, sorted(point) == sorted(problem.free), f"{label}: reported parameters {sorted(point)}")
        for name, (lo, hi) in problem.free.items():
            _check(op, lo - PRINTED <= point[name] <= hi + PRINTED, f"{label}: {name} outside its bounds")
        at = _reference_at({**problem.fixed, **(problem.state or {}), **point})
        _check(op, abs(value - at["Ic"][0]) <= AT_PRINTED_POINT,
               f"{label}: I_c* {value} vs reference {at['Ic'][0]} at the returned point")
        _check(op, value >= self.coarse_best[i] - HEADLINE,
               f"{label}: I_c* {value} below the best coarse point {self.coarse_best[i]}")
        _check(op, -at["S_in"][0] - HEADLINE <= value <= at["S_in"][0] + HEADLINE, f"{label}: |I_c*| > S(rho)")
        if problem.target is not None:
            _check(op, abs(value - problem.target) <= HEADLINE, f"{label}: I_c* {value}, expected {problem.target}")


# --------------------------------------------------------------------------
# cli_cold: fresh ``python -m lambda_capacity.cli compute|validate`` processes


def cold_points(rng: np.random.Generator, count: int = 8) -> list[dict[str, float]]:
    points = []
    for _ in range(count):
        rho11 = float(rng.uniform(0.05, 0.95))
        radius = float(rng.uniform(0.0, 0.9)) * math.sqrt(rho11 * (1.0 - rho11))
        angle = float(rng.uniform(0.0, TWO_PI))
        points.append({
            "theta": float(rng.uniform(0.0, TWO_PI)),
            "chi": float(rng.uniform(0.0, HALF_PI)),
            "phi": float(rng.uniform(-math.pi, math.pi)),
            "gamma_t": math.inf if rng.random() < 0.25 else float(rng.uniform(0.0, 8.0)),
            "asym": float(rng.uniform(0.0, 2.0)),
            "rho11": rho11,
            "re_rho12": radius * math.cos(angle),
            "im_rho12": radius * math.sin(angle),
        })
    return points


def _flags(point: dict[str, float]) -> list[str]:
    return [f"--{k.replace('_', '-')}={v!r}" for k, v in point.items()]


# Decay parameters travel in a config file and the rest as flags, so each
# call also loads a config.  A finite gamma_t cannot be given as a flag: the
# CLI rejects every finite --gamma-t value as a config error.
CONFIG_KEYS = ("gamma_t", "asym")


REPORT_LABELS = ("I_c", "S_out", "S_e", "rho_out spectrum", "rho_alpha spectrum",
                 "trace deviation", "hermiticity deviation", "min Choi eigenvalue", "result")


class ColdCli:
    """Sequential fresh processes; a round is one compute and one validate."""

    name = "cli_cold"
    call_per_round = False

    def __init__(self, seed: int, env) -> None:
        self.env = env
        self.points = cold_points(np.random.default_rng(seed))
        self.expected = [_reference_at(p) for p in self.points]
        self.argv = []
        for k, point in enumerate(self.points):
            params = {key: "inf" if math.isinf(point[key]) else point[key] for key in CONFIG_KEYS}
            path = env.work_dir / f"cold-{k}.json"
            path.write_text(json.dumps({"params": params}))
            flags = _flags({key: v for key, v in point.items() if key not in CONFIG_KEYS})
            self.argv.append(["--config", str(path), *flags])
        self.rounds = 0
        self.spans_dir: Path | None = None  # set by the traced run

    def round(self) -> list[Op]:
        k = self.rounds % len(self.points)
        self.rounds += 1
        return [self._call("compute", k), self._call("validate", k)]

    def _call(self, command: str, k: int) -> Op:
        argv = [command, *self.argv[k]]
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "lambda_capacity.cli", *argv]
        else:
            spans = self.spans_dir / f"child-{self.rounds}-{command}.npz"
            cmd = [sys.executable, str(self.env.bench_dir / "cli_entry.py"), str(spans), *argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env.child_env, cwd=self.env.root)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(seconds, points=1 if command == "compute" else 0, rss_mb=usage.ru_maxrss / 1024.0)
        return _judge(op, f"{command} {k}", proc.returncode, lambda op, text: self._verify(op, command, k, text),
                      out.decode())

    def _verify(self, op: Op, command: str, k: int, text: str) -> None:
        want = self.expected[k]
        rows = {}
        for line in text.splitlines():
            label = next(label for label in REPORT_LABELS if line.startswith(label))
            rows[label] = line[len(label):].split()
        if command == "validate":
            _check(op, rows["result"] == ["PASS"], f"validate {k}: {rows['result']}")
            for key in ("trace deviation", "hermiticity deviation"):
                _check(op, float(rows[key][-1]) <= 1e-10, f"validate {k}: {key} {rows[key]}")
            _check(op, float(rows["min Choi eigenvalue"][-1]) >= -1e-8, f"validate {k}: Choi positivity")
            return
        ic, s_out, s_e = (float(rows[key][0]) for key in ("I_c", "S_out", "S_e"))
        _check(op, abs(ic - want["Ic"][0]) <= HEADLINE, f"compute {k}: I_c {ic} vs reference {want['Ic'][0]}")
        _check(op, abs(s_out - want["S_out"][0]) <= HEADLINE, f"compute {k}: S_out")
        _check(op, abs(s_e - want["S_e"][0]) <= HEADLINE, f"compute {k}: S_e")
        _check(op, abs(ic - (s_out - s_e)) <= 3 * PRINTED, f"compute {k}: I_c != S_out - S_e")
        _check(op, -want["S_in"][0] - HEADLINE <= ic <= want["S_in"][0] + HEADLINE, f"compute {k}: |I_c| > S(rho)")
        field_spectrum = np.array(rows["rho_out spectrum"], dtype=float)
        joint_spectrum = np.array(rows["rho_alpha spectrum"], dtype=float)
        _check(op, np.abs(field_spectrum - want["field_spectrum"][0]) <= PRINTED, f"compute {k}: rho_out spectrum")
        # the atom purifies field x mirror, so their nonzero spectra coincide
        atom = np.concatenate([want["atom_spectrum"][0], np.zeros(3)])
        _check(op, np.abs(joint_spectrum - atom) <= PRINTED, f"compute {k}: rho_alpha spectrum")


WORKLOADS = {cls.name: cls for cls in (Figures, Optimize, ColdCli)}

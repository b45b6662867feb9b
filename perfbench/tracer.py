"""Span tracing of the package's public functions, from outside the package.

``install`` replaces every public function of ``linalg``, ``channel``,
``lambda_system``, ``sweep`` and ``cli`` at each module attribute where a
caller looks it up (``sweep.channel_map`` as well as
``lambda_system.channel_map``), plus the foreign ``sweep.minimize`` and
``DensityMatrix.__post_init__``; ``uninstall`` puts the originals back.
Each call records one span: id, name,
start, end, parent span and thread id.  Spans stay in memory until
``save``.  A span opened by a sweep pool thread takes as parent the span the
main thread has open, which is the ``grid_sweep`` that scheduled it.

Only the traced run imports this module; untraced runs measure the package
with no wrapper in place.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import types
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("linalg", "channel", "lambda_system", "sweep", "cli")


class Tracer:
    """Spans and counters of one process, with the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.channels: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []  # (target, attribute, original, wrapper)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.get_ident() == self._main_ident
            self._local.stack = self._main_stack if main else []
            return self._local.stack

    def wrap(self, fn, name: str, on_return=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span = next(self._ids)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span, name, start, end, parent, threading.get_ident()))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the package's public functions wherever they are looked up."""
        if not self._patches:
            self._patches = self._find_patches()
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def _find_patches(self) -> list[tuple]:
        package = importlib.import_module("lambda_capacity")
        modules = {m: importlib.import_module(f"lambda_capacity.{m}") for m in MODULES}
        hooks = {
            "lambda_system.channel_map": self._on_channel_map,
            "sweep.grid_sweep": self._on_grid_sweep,
        }
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    name = f"{short}.{attr}"
                    wrappers[value] = self.wrap(value, name, hooks.get(name))
        patches = [
            (module, attr, value, wrappers[value])
            for module in [package, *modules.values()]
            for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]
        sweep, channel = modules["sweep"], modules["channel"]
        patches.append((sweep, "minimize", sweep.minimize,
                        self.wrap(sweep.minimize, "sweep.minimize", self._on_minimize)))
        post_init = channel.DensityMatrix.__post_init__
        patches.append((channel.DensityMatrix, "__post_init__", post_init,
                        self.wrap(post_init, "channel.DensityMatrix.__post_init__")))
        return patches

    def _on_channel_map(self, args, kwargs, result) -> None:
        params = args[0] if args else kwargs["params"]
        self.channels.add(params)

    def _on_grid_sweep(self, args, kwargs, result) -> None:
        self.counts["sweep.grid_points"] += int(result.values.size)

    def _on_minimize(self, args, kwargs, result) -> None:
        self.counts["sweep.simplex_nfev"] += int(result.nfev)
        self.counts["sweep.simplex_nit"] += int(result.nit)

    def save(self, path) -> None:
        """Write spans, counters and the distinct channel parameters as one .npz file."""
        names = sorted({s[1] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names, dtype=str),
            span=np.array([s[0] for s in self.spans], dtype=np.int64),
            name=np.array([code[s[1]] for s in self.spans], dtype=np.int32),
            start=np.array([s[2] for s in self.spans], dtype=float),
            end=np.array([s[3] for s in self.spans], dtype=float),
            parent=np.array([s[4] for s in self.spans], dtype=np.int64),
            thread=np.array([s[5] for s in self.spans], dtype=np.uint64),
            count_names=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
            channels=np.array(sorted(map(_channel_key, self.channels)), dtype=float).reshape(-1, 7),
        )


def _channel_key(params) -> tuple[float, ...]:
    return (params.gamma13, params.gamma23, params.theta, params.chi, params.phi, params.gamma_t, params.delta_R)


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(start: np.ndarray, end: np.ndarray, span: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children in pool threads may overlap each other, so their intervals are
    merged before they are subtracted.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    index = {int(s): i for i, s in enumerate(span)}
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p in index:
            children.setdefault(index[int(p)], []).append(i)
    for i, kids in children.items():
        intervals = sorted((max(start[k], start[i]), min(end[k], end[i])) for k in kids)
        total = 0.0
        lo, hi = intervals[0]
        for a, b in intervals[1:]:
            if a > hi:
                total += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered[i] = total + hi - lo
    return duration - covered


# Per-layer metric stem -> the span names it sums.
TIMED = {
    "cli.main": ("cli.main",),
    "cli.config": ("cli.build_config",),
    "cli.format": ("cli.format_csv", "cli.format_grid_json"),
    "sweep.grid_sweep": ("sweep.grid_sweep",),
    "sweep.maximize_ic": ("sweep.maximize_ic",),
    "sweep.simplex": ("sweep.minimize",),
    "lambda_system.channel_map": ("lambda_system.channel_map",),
    "lambda_system.pulse_propagator": ("lambda_system.pulse_propagator",),
    "lambda_system.decay_isometry": ("lambda_system.decay_isometry",),
    "channel.coherent_information": ("channel.coherent_information",),
    "channel.apply_channel": ("channel.apply_channel",),
    "channel.joint_output": ("channel.joint_output",),
    "channel.density_matrix": ("channel.DensityMatrix.__post_init__",),
    "linalg.eigensystem": ("linalg.hermitian_eigensystem",),
    "linalg.entropy_bits": ("linalg.entropy_bits",),
}
CALLS = {
    "lambda_system.channel_map_calls": "lambda_system.channel_map",
    "channel.coherent_information_calls": "channel.coherent_information",
    "channel.density_matrix_count": "channel.DensityMatrix.__post_init__",
    "linalg.eigensystem_calls": "linalg.hermitian_eigensystem",
}
COUNTERS = ("sweep.grid_points", "sweep.simplex_nfev", "sweep.simplex_nit")


def layer_metrics(traces: list[dict], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round inclusive and self times and counts, summed over trace files.

    A layer the workload never enters reports 0.
    """
    inclusive: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    channels = set()
    for data in traces:
        names = data["names"][data["name"]]
        duration = data["end"] - data["start"]
        self_time = self_times(data["start"], data["end"], data["span"], data["parent"])
        for name in np.unique(names):
            mask = names == name
            inclusive[name] += float(duration[mask].sum())
            own[name] += float(self_time[mask].sum())
            calls[name] += int(mask.sum())
        counts.update(dict(zip(data["count_names"].tolist(), data["count_values"].tolist())))
        channels.update(map(tuple, data["channels"].tolist()))

    metrics: dict[str, tuple[float, str]] = {}
    for stem, names in TIMED.items():
        metrics[f"{stem}_s"] = (sum(inclusive[n] for n in names) / rounds, "s")
        metrics[f"{stem}_self_s"] = (sum(own[n] for n in names) / rounds, "s")
    metrics["sweep.coarse_seed_s"] = (metrics["sweep.maximize_ic_s"][0] - metrics["sweep.simplex_s"][0], "s")
    for metric, name in CALLS.items():
        metrics[metric] = (calls[name] / rounds, "count")
    for name in COUNTERS:
        metrics[name] = (counts[name] / rounds, "count")
    metrics["lambda_system.distinct_channels"] = (len(channels), "count")
    return metrics


def import_metrics(reports: list[str]) -> dict[str, tuple[float, str]]:
    """Import-layer times from ``python -X importtime`` reports; medians over reports."""
    samples: dict[str, list[float]] = {}
    for report in reports:
        self_us: dict[str, int] = {}
        cumulative_us: dict[str, int] = {}
        for line in report.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, module = line.removeprefix("import time:").split("|")
            module = module.strip()
            if not own.strip().isdigit():  # the header line
                continue
            self_us[module] = int(own)
            cumulative_us[module] = int(cumulative)
        found = {
            "import.total_s": cumulative_us["lambda_capacity"],
            "import.scipy_optimize_s": cumulative_us["scipy.optimize"],
            "import.numpy_s": cumulative_us["numpy"],
            "import.lambda_capacity_self_s": sum(
                us for m, us in self_us.items() if m == "lambda_capacity" or m.startswith("lambda_capacity.")),
        }
        for key, us in found.items():
            samples.setdefault(key, []).append(us / 1e6)
    return {key: (float(np.median(values)), "s") for key, values in samples.items()}

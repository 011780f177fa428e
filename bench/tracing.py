"""Outside-in tracing of the dpsco layers for the benchmark's traced run.

The tracer wraps public names of the package from outside: a module-level
function is replaced in every ``dpsco`` module namespace that holds it, and
a method is replaced on its class. Every wrapped call pushes one frame on a
single span stack, so each name's self time (its duration minus the time of
the wrapped calls made inside it) is exact.

Memory stays bounded: only spans at the trial level and above (the CLI
call, the per-grid-point sweep, each trial, each accounting query) are kept
as full records (name, start, end, parent, trial id). Per-step calls are
folded into per-name counters as they return.

A name that no longer exists is skipped and reported as absent, so a
refactor that removes it does not break the benchmark.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from contextlib import contextmanager


class Stat:
    """Aggregate of one wrapped name: calls, inclusive and self seconds, and
    one optional work counter (steps, examples, moved points, warnings)."""

    __slots__ = ("calls", "time_s", "self_s", "count", "count_ok")

    def __init__(self):
        self.calls = 0
        self.time_s = 0.0
        self.self_s = 0.0
        self.count = 0
        self.count_ok = True


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _moved(args, kwargs, result):
    # project returns its input unchanged (the same array) for interior points
    point = _arg(args, kwargs, 1, "point")
    return 0 if result is point else 1


# Counter of a call: the warnings it raised, read from ``Tracer.warning_log``.
WARNINGS = object()

# (layer name, module, attribute path, counter name, counter, keep full spans)
# A counter maps (args, kwargs, result) to the work done by one call.
TARGETS = (
    ("cli.main", "dpsco.cli", "main", None, None, True),
    ("empirics.excess_loss_sweep", "dpsco.empirics", "excess_loss_sweep", None, None, True),
    ("optimizers.pnsgd", "dpsco.optimizers", "pnsgd",
     "steps", lambda a, k, r: _arg(a, k, 4, "schedule").num_steps, False),
    ("optimizers.phased_sgd", "dpsco.optimizers", "phased_sgd", None, None, False),
    ("optimizers.NoiseStream.gaussian", "dpsco.optimizers", "NoiseStream.gaussian",
     None, None, False),
    ("losses.LossFamily.batch_grad", "dpsco.losses", "LossFamily.batch_grad",
     "examples", lambda a, k, r: len(_arg(a, k, 2, "batch")), False),
    ("losses.LossFamily.grad", "dpsco.losses", "LossFamily.grad", None, None, False),
    ("losses.Dataset.example", "dpsco.losses", "Dataset.example", None, None, False),
    ("losses.SyntheticDistribution.sample_dataset", "dpsco.losses",
     "SyntheticDistribution.sample_dataset",
     "examples", lambda a, k, r: int(_arg(a, k, 1, "n")), False),
    ("losses.SyntheticDistribution.excess_loss", "dpsco.losses",
     "SyntheticDistribution.excess_loss", None, None, False),
    ("geometry.project", "dpsco.geometry", "project", "active", _moved, False),
    ("schedules.snowball_batches", "dpsco.schedules", "snowball_batches", None, None, False),
    ("schedules.jnn_steps", "dpsco.schedules", "jnn_steps", None, None, False),
    ("schedules.Schedule.validate", "dpsco.schedules", "Schedule.__post_init__",
     "steps", lambda a, k, r: len(a[0].batch_sizes), False),
    ("schedules.Schedule.from_json", "dpsco.schedules", "Schedule.from_json",
     None, None, False),
    ("accountant.pai_rho", "dpsco.accountant", "pai_rho",
     "steps", lambda a, k, r: _arg(a, k, 0, "schedule").num_steps, False),
    ("accountant.rdp_to_dp", "dpsco.accountant", "rdp_to_dp", "loose_warnings", WARNINGS, False),
    ("accountant.rdp_to_dp_general", "dpsco.accountant", "rdp_to_dp_general",
     None, None, False),
)

# Each call of a sweep algorithm's ``run`` is one trial span.
TRIAL = "empirics.trial"
# The benchmark's own span around each accounting query.
QUERY = "bench.query"
LAYERS = tuple(t[0] for t in TARGETS) + (TRIAL, QUERY)
COUNTERS = {t[0]: t[3] for t in TARGETS if t[3] is not None}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []  # (name, start, end, parent, trial_id, info)
        self.warning_log: list | None = None
        self._stack: list[float] = []  # child seconds of each open wrapped call
        self._span_stack: list[int] = []  # indices of open full spans
        self._trial = -1
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module, path, _, counter, keep in TARGETS:
            try:
                mod = importlib.import_module(module)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = owner.__dict__[attr] if owner_name else getattr(mod, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrap(name, raw.__func__, counter, keep)
                self._set(owner, attr, type(raw)(wrapped))
            elif owner_name:
                self._set(owner, attr, self._wrap(name, raw, counter, keep))
            else:
                self._replace_everywhere(raw, self._wrap(name, raw, counter, keep))
        self._wrap_trials()

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, old, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "dpsco" and not modname.startswith("dpsco."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, attr, new)

    def _wrap_trials(self) -> None:
        try:
            registry = importlib.import_module("dpsco.empirics").ALGORITHMS
            wrapped = {key: dataclasses.replace(algo, run=self._wrap(
                TRIAL, algo.run, None, True, trial_of=key)) for key, algo in registry.items()}
        except (ImportError, AttributeError, TypeError):
            self.absent.append(TRIAL)
            return
        for key, algo in wrapped.items():
            self._undo.append((registry, key, registry[key]))
            registry[key] = algo

    # -- recording ----------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, name, fn, counter, keep, trial_of=None):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter
        count_warnings = counter is WARNINGS

        if keep:
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                info = None
                if trial_of is not None:
                    self._trial += 1
                    info = {"algorithm": trial_of, "n": args[1] if len(args) > 1 else None}
                with self.span(name, info=info, stat=stat):
                    return fn(*args, **kwargs)
            return spanned

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_warnings:
                log = self.warning_log
                seen = 0 if log is None else len(log)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.time_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if count_warnings:
                if log is not None:
                    stat.count += len(log) - seen
            elif counter is not None and stat.count_ok:
                try:
                    stat.count += counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    stat.count_ok = False
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, info=None, stat: Stat | None = None):
        """A full span: recorded with its parent span and the current trial id,
        and also aggregated into ``name``'s counters like any wrapped call."""
        stat = stat if stat is not None else self._stat(name)
        parent = self._span_stack[-1] if self._span_stack else -1
        trial_id = self._trial if name == TRIAL else None
        index = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(index)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            child = self._stack.pop()
            self._span_stack.pop()
            stat.calls += 1
            stat.time_s += dt
            stat.self_s += dt - child
            if self._stack:
                self._stack[-1] += dt
            self.spans[index] = (name, t0, t1, parent, trial_id, info)

    # -- reporting ----------------------------------------------------------

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def totals(self) -> tuple[dict, list]:
        """Calls, inclusive and self seconds, and the work counter of every
        layer, summed over the traced calls; and the metrics that are absent
        because their name or counter no longer exists."""
        metrics, absent = {}, []
        for layer in LAYERS:
            fields = [("calls", "count"), ("time_s", "s"), ("self_s", "s")]
            if layer in COUNTERS:
                fields.append(("count", "count"))
            stat = self.stats.get(layer, Stat())
            for field, unit in fields:
                name = f"{layer}.{COUNTERS[layer] if field == 'count' else field}"
                if layer in self.absent or (field == "count" and not stat.count_ok):
                    absent.append(name)
                else:
                    metrics[name] = (getattr(stat, field), unit)
        return metrics, absent

    def trial_ms(self) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == TRIAL]

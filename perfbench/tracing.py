"""Run-time tracing of the uwbheading layers, installed from outside the package.

`Tracer.install()` replaces public module attributes (for example
`iekf.predict` or `gp.GpModel.predict_many`) with wrappers that record a span
(name, start, end, parent span, op id) or bump a counter, and
`Tracer.uninstall()` puts the originals back. Spans stay in memory until
`write_spans()` at the end of a run. The package source is never edited:
its modules call each other through module attributes, so a patched
attribute sees every internal call too.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from uwbheading import gp, heading, iekf, pipeline, so2, world


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


class Tracer:
    """Spans and counters for one benchmark process, grouped by op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> n
        self.op = "setup-0"
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.op][name] += n

    def record(self, name: str, value: float) -> None:
        self.counts[self.op][name] = value

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def write_spans(self, path) -> None:
        lines = ["id,name,start,end,parent,op"]
        lines += [
            f"{s.id},{s.name},{s.start!r},{s.end!r},"
            f"{'' if s.parent is None else s.parent},{s.op}"
            for s in self.spans
        ]
        Path(path).write_text("\n".join(lines) + "\n")

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        t = self

        def dataset_bytes(args, _):
            for path in (Path(args[0]), world.metadata_path(args[0])):
                if path.exists():
                    t.count("world.dataset_bytes", path.stat().st_size)

        def fit_rows(args, model):
            t.count("gp.rows_offered", args[0].n)
            t.count("gp.rows_used", model.train.n)

        def trained(_, pair):
            t.record("gp.lml.sin", pair.gp_sin.lml)
            t.record("gp.lml.cos", pair.gp_cos.lml)

        def traces_bytes(args, _):
            t.count("pipeline.traces_bytes", (Path(args[3]) / "traces.csv").stat().st_size)

        spanned = {
            world: {
                "generate_trajectory": None,
                "build_dataset": lambda a, recs: t.count("world.epochs_synthesized", len(recs)),
                "write_dataset": dataset_bytes,
                "read_dataset": None,
            },
            gp: {"fit": fit_rows},
            heading: {
                "predict_pseudo_trig": None,
                "predict_pseudo_trig_many": None,
            },
            iekf: {"predict": None, "correct": None},
            pipeline: {
                "cmd_train": trained,
                "cmd_run": traces_bytes,
                "cmd_report": None,
                "run_filter": None,
            },
        }
        for module, attrs in spanned.items():
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr, after in attrs.items():
                fn = getattr(module, attr)
                self._patch(module, attr, self._spanned(f"{prefix}.{attr}", fn, after))

        normalize = heading.normalize

        def traced_normalize(pt):
            try:
                return t.run("heading.normalize", normalize, pt)
            except heading.DegeneratePredictionError:
                t.count("heading.degenerate_epochs")
                raise

        self._patch(heading, "normalize", functools.wraps(normalize)(traced_normalize))

        from_params = gp.GpModel.from_params.__func__
        self._patch(gp.GpModel, "from_params", classmethod(
            self._spanned("gp.from_params", from_params)
        ))
        predict_many = gp.GpModel.predict_many

        def traced_predict_many(model, x_raw):
            t.count("gp.predict_rows", np.atleast_2d(x_raw).shape[0])
            return t.run("gp.predict_many", predict_many, model, x_raw)

        self._patch(gp.GpModel, "predict_many", functools.wraps(predict_many)(traced_predict_many))

        for attr, name in (
            ("exp_so2", "so2.exp_calls"),
            ("log_so2", "so2.log_calls"),
            ("is_rotation", "so2.is_rotation_calls"),
            ("project_to_so2", "so2.project_calls"),
        ):
            self._patch(so2, attr, self._counted(name, getattr(so2, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, how it is measured, the span whose presence makes it apply)
#   ("span", s)  summed duration of spans named s
#   ("calls", s) number of spans named s
#   ("self", s)  summed self time of spans named s
#   ("count", c) counter c
LAYER_METRICS = {
    "world.generate_trajectory_s": ("s", "span", "world.generate_trajectory"),
    "world.build_dataset_s": ("s", "span", "world.build_dataset"),
    "world.write_dataset_s": ("s", "span", "world.write_dataset"),
    "world.epochs_synthesized": ("count", "count", "world.build_dataset"),
    "world.dataset_bytes": ("bytes", "count", "world.write_dataset"),
    "world.read_dataset_s": ("s", "span", "world.read_dataset"),
    "gp.fit_s": ("s", "span", "gp.fit"),
    "gp.fit_calls": ("count", "calls", "gp.fit"),
    "gp.rows_offered": ("count", "count", "gp.fit"),
    "gp.rows_used": ("count", "count", "gp.fit"),
    "gp.lml.sin": ("nat", "count", "gp.fit"),
    "gp.lml.cos": ("nat", "count", "gp.fit"),
    "gp.from_params_s": ("s", "span", "gp.from_params"),
    "gp.predict_many_s": ("s", "span", "gp.predict_many"),
    "gp.predict_rows": ("count", "count", "gp.predict_many"),
    "heading.predict_pseudo_trig_many_s": ("s", "span", "heading.predict_pseudo_trig_many"),
    "heading.predict_pseudo_trig_s": ("s", "span", "heading.predict_pseudo_trig"),
    "heading.normalize_s": ("s", "span", "heading.normalize"),
    "heading.normalize_calls": ("count", "calls", "heading.normalize"),
    "heading.degenerate_epochs": ("count", "count", "heading.normalize"),
    "iekf.predict_s": ("s", "span", "iekf.predict"),
    "iekf.predict_calls": ("count", "calls", "iekf.predict"),
    "iekf.correct_s": ("s", "span", "iekf.correct"),
    "iekf.correct_calls": ("count", "calls", "iekf.correct"),
    "pipeline.run_filter_s": ("s", "span", "pipeline.run_filter"),
    "pipeline.run_filter_calls": ("count", "calls", "pipeline.run_filter"),
    "so2.exp_calls": ("count", "count", "so2.exp_calls"),
    "so2.log_calls": ("count", "count", "so2.log_calls"),
    "so2.is_rotation_calls": ("count", "count", "so2.is_rotation_calls"),
    "so2.project_calls": ("count", "count", "so2.project_calls"),
    "pipeline.cmd_run_self_s": ("s", "self", "pipeline.cmd_run"),
    "pipeline.traces_bytes": ("bytes", "count", "pipeline.cmd_run"),
    "pipeline.cmd_report_s": ("s", "span", "pipeline.cmd_report"),
}


def _unit_values(tracer: Tracer) -> dict[str, tuple[dict, set]]:
    """Op id -> (per-layer values of that op, the layers it touched)."""
    selfs = self_times(tracer.spans)
    raw = defaultdict(lambda: defaultdict(float))
    touched = defaultdict(set)
    for s in tracer.spans:
        raw[s.op][("span", s.name)] += s.duration
        raw[s.op][("calls", s.name)] += 1
        raw[s.op][("self", s.name)] += selfs[s.id]
        touched[s.op].add(s.name)
    for op, counts in tracer.counts.items():
        for name, n in counts.items():
            raw[op][("count", name)] = n
            touched[op].add(name)
    out = {}
    for op in raw:
        out[op] = (
            {
                metric: raw[op].get((kind, metric if kind == "count" else layer), 0.0)
                for metric, (_, kind, layer) in LAYER_METRICS.items()
            },
            touched[op],
        )
    return out


def layer_metrics(tracer: Tracer, ops, setups) -> tuple[dict, list[str]]:
    """Per-layer metrics for a workload and the names that do not apply to it.

    A metric is the median over the traced ops of its per-op value when its
    layer runs inside the ops, else the median over the traced set-ups, else
    0 and reported as not applicable.
    """
    units = _unit_values(tracer)
    empty = ({metric: 0.0 for metric in LAYER_METRICS}, set())
    per_op = [units.get(op, empty) for op in ops]
    per_setup = [units.get(op, empty) for op in setups]
    result, not_applicable = {}, []
    for metric, (unit, _, layer) in LAYER_METRICS.items():
        for units in (per_op, per_setup):
            if any(layer in touched for _, touched in units):
                value = statistics.median(vals[metric] for vals, _ in units)
                break
        else:
            value = 0.0
            not_applicable.append(metric)
        result[metric] = (value, unit)
    return result, not_applicable

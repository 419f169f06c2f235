"""Per-layer spans for the traced run, recorded from outside ``mzdual``.

:class:`Tracer` replaces module attributes with wrappers that record one
span per call: the layer, the wrapped name, start and end (ns), the
enclosing span, the operation it belongs to (the enclosing check, or the
command for ``compute``) and a work count.  Spans stay in memory until
:meth:`Tracer.write`.  :func:`layer_metrics` turns a span list into the
per-layer metrics; a layer's time is its self time, its spans' durations
minus the durations of their direct children.

A hook whose target no longer exists is listed in ``Tracer.missing`` and
the metrics of its layer are left out; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from time import perf_counter_ns


def _terms_out(args, kwargs, result) -> int:
    # a LinComb has one term per word; dual returns a single Word
    return len(result) if hasattr(result, "__len__") else 1


def _converged(args, kwargs, result) -> int:
    return int(result.converged)


def _level_terms(args, kwargs, result) -> int:
    # run_block returns the outer prefix over the indices it streamed
    return len(result) * args[0].spec.depth


@functools.lru_cache(maxsize=None)
def _node_count(h: float, kmax: int) -> int:
    from mzdual.verifier import _tanh_sinh_nodes

    return len(_tanh_sinh_nodes(h, kmax)[0])


def _quad_points(args, kwargs, result) -> int:
    # the tensor rule evaluates nodes**dimension integrand points
    return _node_count(kwargs["h"], kwargs["kmax"]) ** len(args[0])


# (module, attribute, layer, work count); "check_*" hooks every check
HOOKS = (
    *(("mzdual.verifier", name, "words", _terms_out)
      for name in ("sigma_b1", "sigma_eps", "sigma_b2", "dual",
                   "v_y_monomials", "v_prime_monomials")),
    *(("mzdual.evaluators", name, "compile", None)
      for name in ("z_spec", "zstar_spec", "hurwitz_spec", "hstar_spec")),
    ("mzdual.evaluators", "eval_spec", "lookup", None),
    ("mzdual.evaluators", "evaluate", "evaluate", _converged),
    ("mzdual.nested_sum", "_Stream.run_block", "stream", _level_terms),
    ("mzdual.nested_sum", "_tail_fit", "fit", None),
    ("mzdual.verifier", "check_*", "check", None),
    ("mzdual.verifier", "_simplex_integral", "quad", _quad_points),
    ("mzdual.cli", "run_suite", "suite", None),
)

# spans of these layers name the operation their child spans belong to
_OP_LAYERS = ("command", "check")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, layer, start, end, parent, op, count)
        self.missing: dict[str, str] = {}  # hook target -> its layer
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, fn, name: str, layer: str, count=None):
        """``fn`` with a span recorded around each call."""
        spans, stack = self.spans, self._stack
        sets_op = layer in _OP_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_op = self._op
            if sets_op:
                self._op = idx
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._op = outer_op
            work = count(args, kwargs, result) if count else 0
            spans[idx] = (name, layer, start, end, parent, idx if sets_op else self._op, work)
            return result

        return traced

    def install(self):
        """Wrap every hook target that exists."""
        for module_name, attr, layer, count in HOOKS:
            module = importlib.import_module(module_name)
            if attr == "check_*":
                names = [n for n in dir(module)
                         if n.startswith("check_") and callable(getattr(module, n))]
                if not names:
                    self.missing[f"{module_name}.{attr}"] = layer
                for n in names:
                    setattr(module, n, self.wrap(getattr(module, n), n, layer, count))
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            target = getattr(owner, leaf, None) if owner is not None else None
            if target is None:
                self.missing[f"{module_name}.{attr}"] = layer
                continue
            setattr(owner, leaf, self.wrap(target, leaf, layer, count))

    def write(self, path: str):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": work}) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# metric -> (unit, layers it needs)
LAYER_METRICS = {
    "words.calls": ("count", ("words",)),
    "words.s": ("s", ("words",)),
    "words.terms_out": ("count", ("words",)),
    "evaluators.compile_calls": ("count", ("compile",)),
    "evaluators.compile_s": ("s", ("compile",)),
    "evaluators.lookups": ("count", ("lookup",)),
    "evaluators.lookup_s": ("s", ("lookup",)),
    "evaluators.cache_hit_ratio": ("ratio", ("cache_info",)),
    "nested_sum.evaluate_calls": ("count", ("evaluate",)),
    "nested_sum.evaluate_s": ("s", ("evaluate",)),
    "nested_sum.converged_ratio": ("ratio", ("evaluate",)),
    "nested_sum.level_terms": ("count", ("stream",)),
    "nested_sum.stream_s": ("s", ("stream",)),
    "nested_sum.stream_ns_per_level_term": ("ns", ("stream",)),
    "nested_sum.fit_calls": ("count", ("fit",)),
    "nested_sum.fit_s": ("s", ("fit",)),
    "nested_sum.fit_ms_per_call": ("ms", ("fit",)),
    "nested_sum.fits_per_evaluate": ("ratio", ("fit", "evaluate")),
    "verifier.checks": ("count", ("check",)),
    "verifier.check_p50_ms": ("ms", ("check",)),
    "verifier.check_p90_ms": ("ms", ("check",)),
    "verifier.self_s": ("s", ("check", "suite")),
    "verifier.quad_calls": ("count", ("quad",)),
    "verifier.quad_s": ("s", ("quad",)),
    "verifier.quad_points": ("count", ("quad",)),
}
# the p90 of fewer checks rests on fewer than ten samples beyond it
P90_MIN_CHECKS = 100


def _ratio(num: float, den: float) -> float:
    # 0 stands for "no such work on this workload"
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], missing_layers: set[str], cache_info) -> dict:
    """Per-layer metrics of one traced pass; ``{name: (value, unit)}``."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    work: dict[str, int] = {}
    check_ms: list[float] = []
    for i, s in enumerate(spans):
        layer, dur = s["layer"], s["end"] - s["start"]
        calls[layer] = calls.get(layer, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        work[layer] = work.get(layer, 0) + s["count"]
        if layer == "check":
            check_ms.append(dur / 1e6)

    def n(layer):
        return calls.get(layer, 0)

    def sec(*layers):
        return sum(self_ns.get(layer, 0) for layer in layers) / 1e9

    p90 = 0.0
    if len(check_ms) >= P90_MIN_CHECKS:
        p90 = statistics.quantiles(check_ms, n=10, method="inclusive")[8]

    hits, misses = (cache_info if cache_info else (0, 0))
    values = {
        "words.calls": n("words"),
        "words.s": sec("words"),
        "words.terms_out": work.get("words", 0),
        "evaluators.compile_calls": n("compile"),
        "evaluators.compile_s": sec("compile"),
        "evaluators.lookups": n("lookup"),
        "evaluators.lookup_s": sec("lookup"),
        "evaluators.cache_hit_ratio": _ratio(hits, hits + misses),
        "nested_sum.evaluate_calls": n("evaluate"),
        "nested_sum.evaluate_s": sec("evaluate"),
        "nested_sum.converged_ratio": _ratio(work.get("evaluate", 0), n("evaluate")),
        "nested_sum.level_terms": work.get("stream", 0),
        "nested_sum.stream_s": sec("stream"),
        "nested_sum.stream_ns_per_level_term": _ratio(self_ns.get("stream", 0), work.get("stream", 0)),
        "nested_sum.fit_calls": n("fit"),
        "nested_sum.fit_s": sec("fit"),
        "nested_sum.fit_ms_per_call": _ratio(sec("fit") * 1e3, n("fit")),
        "nested_sum.fits_per_evaluate": _ratio(n("fit"), n("evaluate")),
        "verifier.checks": n("check"),
        "verifier.check_p50_ms": statistics.median(check_ms) if check_ms else 0.0,
        "verifier.check_p90_ms": p90,
        "verifier.self_s": sec("check", "suite"),
        "verifier.quad_calls": n("quad"),
        "verifier.quad_s": sec("quad"),
        "verifier.quad_points": work.get("quad", 0),
    }
    if cache_info is None:
        missing_layers = missing_layers | {"cache_info"}
    return {name: (values[name], unit) for name, (unit, needs) in LAYER_METRICS.items()
            if not missing_layers.intersection(needs)}

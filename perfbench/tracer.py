"""In-memory span tracer wrapped around the library's layer entry points.

The library itself carries no instrumentation, so the benchmark wraps the
entry points from outside: every module namespace of `elliptic_dpp` that holds
a layer function gets the wrapper in its place (the function is looked up by
identity, so `from .theta_core import theta_parts` copies are caught too), as
do `numpy.linalg.slogdet`, `numpy.linalg.cond` and the verification suite
table.  A name the library no longer has is skipped and listed in `missing`.

Each span is (name, start, end, parent); a layer's self time is its span's
duration minus the time its traced children cover.  Spans are recorded only
while `active` is set, so the benchmark's own checks never show up.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _theta_points(args, kwargs, out):
    return {"points": int(np.size(_arg(args, kwargs, 1, "v")))}


def _grid_values(args, kwargs, out):
    xs = _arg(args, kwargs, 1, "xs")
    ys = _arg(args, kwargs, 2, "ys")
    return {"values": int(np.size(xs)) * int(np.size(ys))}


def _batch_rows(args, kwargs, out):
    return {"rows": int(np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "X"))).shape[0])}


def _gram_nodes(args, kwargs, out):
    return {"nodes": int(getattr(out, "nodes", 0))}


def _stacked_matrices(args, kwargs, out):
    shape = np.shape(_arg(args, kwargs, 0, "a"))
    return {"matrices": int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1}


def _sampler_steps(args, kwargs, out):
    # chain-steps = chains x (burn-in + thinned steps), read off the config the
    # caller passed; acceptance is the post-burn-in mean over chains
    cfg = _arg(args, kwargs, 1, "chain")
    chains = int(getattr(cfg, "chains", 0) or 0)
    steps = 0
    if chains:
        per_chain = -(-int(cfg.samples) // chains)
        steps = chains * (int(cfg.burn_in) + per_chain * int(cfg.thinning))
    rates = getattr(out, "acceptance_rates", None)
    acc = float(np.mean(rates)) if rates is not None and np.size(rates) else 0.0
    return {"chain_steps": steps, "accept_sum": acc}


# (module, attribute, span name, counter function)
LAYERS = (
    ("theta_core", "theta_parts", "theta_core.theta_parts", _theta_points),
    ("theta_core", "theta", "theta_core.theta", None),
    ("theta_core", "eta_and_q", "theta_core.eta_and_q", None),
    ("biortho", "m_fn_parts", "biortho.m_fn_parts", None),
    ("biortho", "gram_converged", "biortho.gram_converged", _gram_nodes),
    ("macdonald", "det_m_logc", "macdonald.det_m_logc", None),
    ("macdonald", "weyl_w_parts", "macdonald.weyl_w_parts", None),
    ("dpp_kernels", "kernel_matrix", "dpp_kernels.kernel_matrix", _grid_values),
    ("dpp_kernels", "density_batch", "dpp_kernels.density_batch", _batch_rows),
    ("dpp_kernels", "infinite_kernel", "dpp_kernels.infinite_kernel", None),
    ("dpp_kernels", "mcmc_sample", "dpp_kernels.sampler", _sampler_steps),
    ("bridges", "transition", "bridges.transition", None),
    ("cli", "main", "cli", None),
)
NUMPY_LAYERS = (
    ("slogdet", "linalg.slogdet", _stacked_matrices),
    ("cond", "linalg.cond", None),
)
SUITE_NAMES = ("theta", "biortho", "denominator", "matrix", "bridge", "kernel")

# per-layer metrics: (metric name, span name, statistic, unit)
METRICS = (
    ("theta_core.theta_parts.calls", "theta_core.theta_parts", "calls", "count"),
    ("theta_core.theta_parts.points", "theta_core.theta_parts", "points", "count"),
    ("theta_core.theta_parts.self_s", "theta_core.theta_parts", "self_s", "s"),
    ("theta_core.theta.calls", "theta_core.theta", "calls", "count"),
    ("theta_core.theta.self_s", "theta_core.theta", "self_s", "s"),
    ("theta_core.eta_and_q.calls", "theta_core.eta_and_q", "calls", "count"),
    ("theta_core.eta_and_q.self_s", "theta_core.eta_and_q", "self_s", "s"),
    ("biortho.m_fn_parts.calls", "biortho.m_fn_parts", "calls", "count"),
    ("biortho.m_fn_parts.self_s", "biortho.m_fn_parts", "self_s", "s"),
    ("biortho.gram_converged.calls", "biortho.gram_converged", "calls", "count"),
    ("biortho.gram_converged.nodes", "biortho.gram_converged", "nodes", "count"),
    ("biortho.gram_converged.self_s", "biortho.gram_converged", "self_s", "s"),
    ("macdonald.det_m_logc.calls", "macdonald.det_m_logc", "calls", "count"),
    ("macdonald.det_m_logc.self_s", "macdonald.det_m_logc", "self_s", "s"),
    ("macdonald.weyl_w_parts.calls", "macdonald.weyl_w_parts", "calls", "count"),
    ("macdonald.weyl_w_parts.self_s", "macdonald.weyl_w_parts", "self_s", "s"),
    ("dpp_kernels.kernel_matrix.calls", "dpp_kernels.kernel_matrix", "calls", "count"),
    ("dpp_kernels.kernel_matrix.values", "dpp_kernels.kernel_matrix", "values", "count"),
    ("dpp_kernels.kernel_matrix.self_s", "dpp_kernels.kernel_matrix", "self_s", "s"),
    ("dpp_kernels.density_batch.rows", "dpp_kernels.density_batch", "rows", "count"),
    ("dpp_kernels.density_batch.self_s", "dpp_kernels.density_batch", "self_s", "s"),
    ("dpp_kernels.infinite_kernel.calls", "dpp_kernels.infinite_kernel", "calls", "count"),
    ("dpp_kernels.infinite_kernel.theta_points", "dpp_kernels.infinite_kernel", "theta_points",
     "count"),
    ("dpp_kernels.infinite_kernel.self_s", "dpp_kernels.infinite_kernel", "self_s", "s"),
    ("dpp_kernels.sampler.self_s", "dpp_kernels.sampler", "self_s", "s"),
    ("dpp_kernels.sampler.chain_steps", "dpp_kernels.sampler", "chain_steps", "count"),
    ("dpp_kernels.sampler.accept_ratio", "dpp_kernels.sampler", "accept_ratio", "ratio"),
    ("linalg.slogdet.calls", "linalg.slogdet", "calls", "count"),
    ("linalg.slogdet.matrices", "linalg.slogdet", "matrices", "count"),
    ("linalg.slogdet.self_s", "linalg.slogdet", "self_s", "s"),
    ("linalg.cond.calls", "linalg.cond", "calls", "count"),
    ("linalg.cond.self_s", "linalg.cond", "self_s", "s"),
    ("bridges.transition.calls", "bridges.transition", "calls", "count"),
    ("bridges.transition.self_s", "bridges.transition", "self_s", "s"),
) + tuple(
    (f"verification.{s}.s", f"verification.{s}", "total_s", "s") for s in SUITE_NAMES
) + (
    ("cli.self_s", "cli", "self_s", "s"),
)


class Tracer:
    """Span recorder plus the wrappers that feed it; `install` / `uninstall`."""

    def __init__(self):
        self.active = False
        self.names = []
        self.spans = []          # [name index, start, end, parent span index]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.missing = []
        self._stack = []         # open frames: [span index, child time, theta points]
        self._name_ids = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, spans, stats = self._stack, self.spans, self.stats
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append([nid, 0.0, 0.0, parent])
            frame = [idx, 0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                spans[idx][1] = start
                spans[idx][2] = end
                st = stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            extra = count(args, kwargs, out) if count else {}
            frame[2] += extra.get("points", 0)
            st["theta_points"] += frame[2]
            if stack:
                stack[-1][2] += frame[2]
            for key, val in extra.items():
                st[key] += val
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "elliptic_dpp"
                                   or modname.startswith("elliptic_dpp.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self):
        for modname, attr, name, count in LAYERS:
            mod = sys.modules.get(f"elliptic_dpp.{modname}")
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(fn, self._wrap(name, fn, count))
        for attr, name, count in NUMPY_LAYERS:
            fn = getattr(np.linalg, attr)
            wrapper = self._wrap(name, fn, count)
            setattr(np.linalg, attr, wrapper)
            self._undo.append((np.linalg, attr, fn))
            self._replace_everywhere(fn, wrapper)
        suites = getattr(sys.modules.get("elliptic_dpp.verification"), "SUITES", None)
        for suite in SUITE_NAMES:
            if not suites or suite not in suites:
                self.missing.append(f"verification.SUITES[{suite!r}]")
                continue
            fn = suites[suite]
            suites[suite] = self._wrap(f"verification.{suite}", fn, None)
            self._undo.append((suites, suite, fn))

    def uninstall(self):
        for target, key, fn in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def value(self, span, stat):
        st = self.stats.get(span, {})
        if stat == "accept_ratio":
            calls = st.get("calls", 0)
            return st.get("accept_sum", 0.0) / calls if calls else 0.0
        val = st.get(stat, 0)
        return float(val) if stat.endswith("_s") else int(round(val))

    def metrics(self):
        out = {}
        for metric, span, stat, unit in METRICS:
            out[metric] = {"value": self.value(span, stat), "unit": unit}
        return out

    def write(self, path):
        """Spans as {"names": [...], "spans": [[name, start, end, parent], ...]}."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
        return path


"""Span recording around singspect's public functions, and per-layer sums.

The child side (`Recorder`, `install_spans`, `install_counters`) wraps the
package's public functions from outside: each wrapper records a span
(name, start, end, parent index, attributes read from the return value) in
memory, and the child writes all spans out when its job ends.  The package
itself is not modified.

Two import patterns need care.  `cli.py` and `spectral.py` bind functions
by `from ... import name`, so a wrapper must also replace every other
module attribute that refers to the same function object; methods are
patched on their class (including aliases such as `__rmul__ = __mul__`).

The parent side (`pass_layers`) turns the span documents of one traced
pass into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

perf_counter = time.perf_counter


class Recorder:
    """In-memory span list: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        return wrapper

    def count(self, name, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(orig, replacement) -> None:
    """Point every singspect module attribute and class attribute at the wrapper."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("singspect") or mod is None:
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
            elif isinstance(val, type) and val.__module__ == modname:
                for ckey, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, ckey, replacement)
                    elif isinstance(cval, staticmethod) and cval.__func__ is orig:
                        setattr(val, ckey, staticmethod(replacement))


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _points(args, kwargs, out):
    return {"points": int(out.shape[0])}


def _index_attrs(args, kwargs, out):
    return {"t": out.t, "method": out.method, "budget": out.budget,
            "estimate": out.estimate, "stderr": out.std_error}


def _zeta_result_attrs(args, kwargs, out):
    return {"fit_condition": out.fit_condition, "fit_unstable": bool(out.fit_unstable),
            "exponents": list(out.exponents), "error_bar": out.error_bar}


def _mellin_attrs(args, kwargs, out):
    return {"fit_condition": out.fit_condition, "fit_residual": out.fit_residual,
            "exponents": list(out.exponents)}


# (span name, module, attribute path, attribute extractor)
SPAN_TARGETS = [
    ("cli.main", "singspect.cli", "main", None),
    ("poly.parse", "singspect.poly", "parse", None),
    ("poly.mul", "singspect.poly", "MixedPolynomial.__mul__", None),
    ("poly.evaluate_many", "singspect.poly", "MixedPolynomial.evaluate_many", _points),
    ("weights.solve_weights", "singspect.weights", "solve_weights", None),
    ("weights.nondegeneracy_check", "singspect.weights", "nondegeneracy_check",
     lambda a, k, out: {"samples": out.samples}),
    ("weights.milnor_brute_force", "singspect.weights", "milnor_brute_force", None),
    ("clifford.matmul", "singspect.clifford", "ExteriorOperator.matmul", None),
    ("clifford.supertrace", "singspect.clifford", "ExteriorOperator.supertrace", None),
    ("parametrix.build_U", "singspect.parametrix", "build_U",
     lambda a, k, out: {"k": out.k}),
    ("parametrix.tau_weighted", "singspect.parametrix", "OperatorPolynomial.tau_weighted",
     lambda a, k, out: {"j": _arg(a, k, 1, "j")}),
    ("parametrix.recursion_residual", "singspect.parametrix", "recursion_residual",
     lambda a, k, out: {"j": _arg(a, k, 1, "j")}),
    ("index_integral.compute_index", "singspect.index_integral", "compute_index", _index_attrs),
    ("index_integral.mckean_singer_check", "singspect.index_integral",
     "mckean_singer_check", None),
    ("index_integral.hermgauss", "numpy.polynomial.hermite", "hermgauss",
     lambda a, k, out: {"nodes": int(len(out[0]))}),
    ("spectral.choose_oscillator_scale", "singspect.spectral", "choose_oscillator_scale",
     lambda a, k, out: {"omega": out}),
    ("spectral.eigensolve", "singspect.spectral", "eigensolve",
     lambda a, k, out: {"levels": len(out.levels), "complete_below": out.complete_below}),
    ("spectral.fit_weyl_tail", "singspect.spectral", "fit_weyl_tail", None),
    ("spectral.mellin_derivative_at_zero", "singspect.spectral",
     "mellin_derivative_at_zero", _mellin_attrs),
    ("spectral.renormalize_and_torsion", "singspect.spectral", "renormalize_and_torsion",
     _zeta_result_attrs),
    ("spectrum.cluster_eigenvalues", "singspect.spectrum", "cluster_eigenvalues", None),
    ("zeta.zeta_and_derivative", "singspect.zeta", "zeta_and_derivative", None),
]

OSCILLATOR_FUNCTIONS = (
    "spectrum_k_forms", "kernel_functions", "kernel_normalization_factor",
    "euclidean_heat_kernel", "convolve_0form_kernel", "heat_trace_0forms",
    "heat_trace_0forms_printed", "heat_trace_k_forms", "ground_state_limit_minus",
    "a1_diagonal_supertrace_flat",
)

PACKAGE_MODULES = (
    "singspect.cli", "singspect.poly", "singspect.weights", "singspect.clifford",
    "singspect.parametrix", "singspect.index_integral", "singspect.spectral",
    "singspect.spectrum", "singspect.zeta", "singspect.oscillator",
    "singspect.gaussian_rational",
)


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install_spans(rec: Recorder) -> None:
    """Wrap every SPAN_TARGETS entry and the oscillator's public functions."""
    for modname in PACKAGE_MODULES:
        importlib.import_module(modname)
    targets = list(SPAN_TARGETS) + [
        (f"oscillator.{fn}", "singspect.oscillator", fn, None) for fn in OSCILLATOR_FUNCTIONS
    ]
    for name, modname, path, attrs in targets:
        owner, attr = _resolve(modname, path)
        orig = vars(owner)[attr]
        wrapper = rec.wrap(name, orig, attrs)
        if modname.startswith("singspect"):
            _rebind(orig, wrapper)
        else:
            setattr(owner, attr, wrapper)

    from singspect import parametrix

    cache = parametrix._matmul_cache
    orig = parametrix._cached_matmul
    stats = rec.counters
    stats["parametrix.matmul_cache.lookups"] = 0
    stats["parametrix.matmul_cache.misses"] = 0

    def cached_matmul(a, b):
        before = len(cache)
        out = orig(a, b)
        stats["parametrix.matmul_cache.lookups"] += 1
        stats["parametrix.matmul_cache.misses"] += len(cache) > before
        return out

    _rebind(orig, cached_matmul)


def install_counters(rec: Recorder) -> None:
    """Count GaussianRational multiplications and additions (no spans)."""
    from singspect.gaussian_rational import GaussianRational

    for name, method in (("gaussian_rational.mul", "__mul__"),
                         ("gaussian_rational.add", "__add__")):
        orig = vars(GaussianRational)[method]
        _rebind(orig, rec.count(name, orig))


# -- parent side: one traced pass -> per-layer metrics ---------------------------


class JobSpans:
    """Durations, self times and ancestry queries over one job's spans."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.spans = doc["spans"]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_s = [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def has_ancestor(self, idx: int, prefix: str) -> bool:
        """Whether a span above `idx` has a name starting with `prefix`."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def total(self, name: str) -> float:
        """Inclusive time of `name` spans not nested in another `name` span."""
        return sum(self.dur(i) for i in self.select(name) if not self.has_ancestor(i, name))

    def dur(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def ancestor(self, idx: int, name: str):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None

    def order_costs(self) -> dict:
        """build_U cost per recursion order j: gap between tau_weighted(j-1) and (j) ends."""
        out: dict = {}
        for b in self.select("parametrix.build_U"):
            ends = {self.spans[i][4]["j"]: self.spans[i][2]
                    for i in self.select("parametrix.tau_weighted")
                    if self.ancestor(i, "parametrix.build_U") == b}
            for j in sorted(ends):
                if j - 1 in ends:
                    out[j] = out.get(j, 0.0) + ends[j] - ends[j - 1]
        return out


def pass_layers(docs, count_docs) -> dict:
    """Per-layer metrics of one traced pass (spans) plus one counting pass."""
    jobs = [JobSpans(d) for d in docs]
    m: dict = {}

    def tot(name):
        return sum(j.total(name) for j in jobs)

    def calls(name):
        return sum(len(j.select(name)) for j in jobs)

    def attrs(name):
        return [(j, i, j.spans[i][4]) for j in jobs for i in j.select(name)
                if j.spans[i][4] is not None]

    cli_jobs = [j for j in jobs if j.doc["kind"] == "cli"]
    m["cli.import_s"] = statistics.median(j.doc["import_s"] for j in cli_jobs) if cli_jobs else 0.0
    m["cli.self_s"] = statistics.median(
        sum(j.self_s[i] for i in j.select("cli.main")) for j in cli_jobs) if cli_jobs else 0.0

    ev = attrs("poly.evaluate_many")
    m["poly.evaluate_many.calls"] = calls("poly.evaluate_many")
    m["poly.evaluate_many.points"] = sum(a["points"] for _, _, a in ev)
    m["poly.evaluate_many.s"] = tot("poly.evaluate_many")
    m["poly.evaluate_many.points_per_s"] = (
        m["poly.evaluate_many.points"] / m["poly.evaluate_many.s"]
        if m["poly.evaluate_many.s"] > 0 else 0.0)
    m["poly.mul.calls"] = calls("poly.mul")
    m["poly.mul.s"] = tot("poly.mul")
    m["poly.parse.s"] = tot("poly.parse")
    for name in ("gaussian_rational.mul.calls", "gaussian_rational.add.calls"):
        m[name] = sum(d["counters"].get(name[: -len(".calls")], 0) for d in count_docs)

    for fn in ("solve_weights", "nondegeneracy_check", "milnor_brute_force"):
        m[f"weights.{fn}.s"] = tot(f"weights.{fn}")
    m["weights.nondegeneracy_check.samples"] = sum(
        a["samples"] for _, _, a in attrs("weights.nondegeneracy_check"))

    m["clifford.matmul.calls"] = calls("clifford.matmul")
    m["clifford.matmul.s"] = tot("clifford.matmul")
    m["clifford.supertrace.calls"] = calls("clifford.supertrace")

    m["parametrix.build_U.s"] = tot("parametrix.build_U")
    orders: dict = {}
    for j in jobs:
        for order, cost in j.order_costs().items():
            orders[order] = orders.get(order, 0.0) + cost
    for order in range(1, 6):
        m[f"parametrix.order_{order}.s"] = orders.get(order, 0.0)
    m["parametrix.recursion_residual.s"] = tot("parametrix.recursion_residual")
    lookups = sum(d["counters"].get("parametrix.matmul_cache.lookups", 0) for d in docs)
    misses = sum(d["counters"].get("parametrix.matmul_cache.misses", 0) for d in docs)
    m["parametrix.matmul_cache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    m["parametrix.matmul_cache.entries"] = max(d["matmul_cache_entries"] for d in docs)

    for method in ("mc", "quadrature"):
        idx = [(j, i) for j, i, a in attrs("index_integral.compute_index")
               if a["method"] == method]
        m[f"index_integral.compute_index.{method}.s"] = sum(j.dur(i) for j, i in idx)
        m[f"index_integral.compute_index.{method}.self_s"] = sum(j.self_s[i] for j, i in idx)
    mc_samples = sum(a["budget"] for _, _, a in attrs("index_integral.compute_index")
                     if a["method"] == "mc")
    mc_s = m["index_integral.compute_index.mc.s"]
    m["index_integral.mc.samples_per_s"] = mc_samples / mc_s if mc_s > 0 else 0.0
    quad_points, quad_nodes = 0, 0
    for j, i, a in attrs("index_integral.hermgauss"):
        top = j.ancestor(i, "index_integral.compute_index")
        if top is not None and j.spans[top][4] and j.spans[top][4]["method"] == "quadrature":
            n = j.doc["n"]
            quad_points += a["nodes"] ** (2 * n)
            quad_nodes = max(quad_nodes, a["nodes"])
    m["index_integral.quadrature.points"] = quad_points
    m["index_integral.quadrature.nodes_used"] = quad_nodes

    for fn in ("choose_oscillator_scale", "eigensolve", "fit_weyl_tail",
               "mellin_derivative_at_zero", "renormalize_and_torsion"):
        m[f"spectral.{fn}.s"] = tot(f"spectral.{fn}")
    m["spectral.levels"] = sum(a["levels"] for _, _, a in attrs("spectral.eigensolve"))
    zr = [a for _, _, a in attrs("spectral.renormalize_and_torsion")]
    mel = [a for _, _, a in attrs("spectral.mellin_derivative_at_zero")]
    m["spectral.fit_condition"] = max((a["fit_condition"] for a in zr), default=0.0)
    m["spectral.fit_residual"] = max((a["fit_residual"] for a in mel), default=0.0)
    m["spectral.fit_unstable.count"] = sum(a["fit_unstable"] for a in zr)
    m["spectrum.cluster_eigenvalues.s"] = tot("spectrum.cluster_eigenvalues")
    m["zeta.zeta_and_derivative.calls"] = calls("zeta.zeta_and_derivative")
    m["zeta.zeta_and_derivative.s"] = tot("zeta.zeta_and_derivative")
    m["oscillator.s"] = sum(
        j.dur(i) for j in jobs for i, s in enumerate(j.spans)
        if s[0].startswith("oscillator.") and not j.has_ancestor(i, "oscillator."))
    return m


def self_time_table(docs) -> list:
    """(span name, self seconds) over one pass, largest first."""
    acc: dict = {}
    for d in docs:
        j = JobSpans(d)
        for (name, *_), s in zip(j.spans, j.self_s):
            acc[name] = acc.get(name, 0.0) + s
    return sorted(acc.items(), key=lambda kv: -kv[1])


def job_stages(doc: dict) -> list:
    """Per-stage (label, seconds) rows for one job, in call order."""
    j = JobSpans(doc)
    rows = []
    for i, (name, start, end, _, a) in enumerate(j.spans):
        if name == "index_integral.compute_index" and a:
            rows.append((f"compute_index[{a['method']} t={a['t']:g}]", end - start))
        elif name in ("poly.parse", "weights.solve_weights", "weights.nondegeneracy_check",
                      "weights.milnor_brute_force", "spectral.fit_weyl_tail",
                      "spectral.mellin_derivative_at_zero", "spectral.choose_oscillator_scale"):
            if not j.has_ancestor(i, name) and j.ancestor(i, "parametrix.build_U") is None:
                rows.append((name.split(".")[-1], end - start))
        elif name == "spectral.eigensolve":
            inner = sum(j.dur(c) for c in j.select("spectral.choose_oscillator_scale")
                        if j.ancestor(c, name) == i)
            rows.append(("eigensolve[excl. scale]", end - start - inner))
        elif name == "parametrix.recursion_residual" and a:
            rows.append((f"recursion_residual[j={a['j']}]", end - start))
    for order, cost in sorted(j.order_costs().items()):
        rows.append((f"build_U order j={order}", cost))
    return rows

"""Per-layer tracing from outside the package.

`Tracer.install` wraps every public function of every `gaussgauge` module,
by object identity, in each module namespace that binds it, plus
`GaussianChannel.__post_init__` (channel validation). Each call records a
span (binding, start, end, parent, matrix size, raised) in flat arrays kept
in memory; `layer_metrics` reduces the spans of one pass to the per-layer
metrics at the end. `Tracer.restore` puts every original object back and
fails loudly if a wrapper is left anywhere.

Layers are the package's modules. A span belongs to the module that defines
the function; `via` names the namespace whose binding was called, so a
function defined in one module can be attributed to the caller's layer.
"""

import sys
import time
from array import array

import numpy as np

PACKAGE = "gaussgauge"
_MARK = "__perfbench_wrapped__"


def _relative_residual(result):
    peak = float(np.max(np.abs(result.S)))
    return result.residual / peak if peak > 0 else result.residual


def _probe(qualname):
    """What to read off a function's result: (probe name, reader) or None."""
    if qualname in ("matrix_equations.solve_stein", "matrix_equations.solve_lyapunov"):
        return "residual", _relative_residual
    if qualname.startswith("sweeps.run_"):
        return "rows", lambda table: len(table.rows)
    return None


def _short(module_name):
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.bindings = []      # binding id -> (qualified name, via namespace)
        self._saved = []        # (owner, attribute, original object)
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.size = array("i")
        self.raised = array("b")
        self.probes = {"residual": [], "rows": []}  # probe -> [(span index, value)]
        self._stack = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = _package_modules()
        targets = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == module.__name__):
                    targets[id(obj)] = (obj, f"{_short(module.__name__)}.{attr}")
        for module in modules:
            via = _short(module.__name__)
            for attr, obj in list(vars(module).items()):
                entry = targets.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._replace(module, attr, obj, entry[1], via)
        channel = sys.modules[f"{PACKAGE}.phase_space"].GaussianChannel
        self._replace(channel, "__post_init__", channel.__post_init__,
                      "phase_space.GaussianChannel", "phase_space")

    def _replace(self, owner, attr, original, qualname, via):
        binding = len(self.bindings)
        self.bindings.append((qualname, via))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, binding, _probe(qualname)))

    def _wrap(self, fn, binding, probe):
        stack, names, t0s, t1s = self._stack, self.name, self.t0, self.t1
        parents, sizes, raised = self.parent, self.size, self.raised
        if probe:
            probed, read = self.probes[probe[0]], probe[1]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(binding)
            parents.append(stack[-1] if stack else -1)
            first = args[0] if args else None
            sizes.append(first.shape[0] if type(first) is np.ndarray and first.ndim == 2 else 0)
            t0s.append(0.0)
            t1s.append(0.0)
            raised.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                t0s[idx] = start
                t1s[idx] = end
            if probe:
                probed.append((idx, read(result)))
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        left = [f"{m.__name__}.{attr}" for m in _package_modules()
                for attr, obj in vars(m).items() if getattr(obj, _MARK, False)]
        channel = sys.modules[f"{PACKAGE}.phase_space"].GaussianChannel
        if getattr(channel.__post_init__, _MARK, False):
            left.append("GaussianChannel.__post_init__")
        if left:
            raise RuntimeError(f"trace wrappers left installed: {left}")

    def __len__(self):
        return len(self.name)

    # -- reduction --------------------------------------------------------

    def spans(self, start, stop):
        """Spans [start, stop) of one pass as numpy columns; parents re-based."""
        # slicing an array copies it, so no buffer view pins the growing arrays
        parent = np.array(self.parent[start:stop], dtype=np.int64)
        return {
            "name": np.array(self.name[start:stop], dtype=np.int64),
            "dur": np.array(self.t1[start:stop]) - np.array(self.t0[start:stop]),
            "parent": np.where(parent >= start, parent - start, -1),
            "size": np.array(self.size[start:stop], dtype=np.int64),
            "raised": np.array(self.raised[start:stop], dtype=bool),
            **{name: [v for i, v in values if start <= i < stop]
               for name, values in self.probes.items()},
        }


def _median_ms(values):
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(tracer, sp, bytes_written):
    """Per-layer metrics of one traced pass, by name.

    `<layer>.self_s` is the layer's self time: each span's duration minus the
    time its child spans cover, summed over the layer's functions. `<fn>_s` is
    inclusive time in that function, `<fn>_calls` its call count, and
    `*_ms_n<k>` the median inclusive milliseconds per call at matrix size k
    (0 where the pass makes no such call). Rows are those of the tables the
    sweep functions return; `bytes_written` is measured by the harness.
    """
    qualnames = [q for q, _ in tracer.bindings]
    codes = {q: i for i, q in enumerate(sorted(set(qualnames)))}
    layers = {name: i for i, name in enumerate(sorted({q.split(".", 1)[0] for q in qualnames}))}
    binding = sp["name"]
    qual = np.array([codes[q] for q in qualnames], dtype=np.int64)[binding]
    layer = np.array([layers[q.split(".", 1)[0]] for q in qualnames], dtype=np.int64)[binding]
    from_generators = np.array([v == "generators" for _, v in tracer.bindings])[binding]
    dur, parent, size = sp["dur"], sp["parent"], sp["size"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    writer = np.isin(qual, [c for q, c in codes.items() if q.startswith("sweeps.write_")])

    def is_fn(q):
        return qual == codes.get(q, -1)

    def in_layer(name):
        return layer == layers.get(name, -1)

    def self_s(name):
        return float(self_time[in_layer(name)].sum())

    def total_s(q):
        return float(dur[is_fn(q)].sum())

    def calls(q):
        return int(np.count_nonzero(is_fn(q)))

    def ms_at(q, n):
        return _median_ms(dur[is_fn(q) & (size == n)])

    rows = sum(sp["rows"])

    def per_row(count):
        return count / rows if rows else 0.0

    gauge = "gauging.gauge_semigroup"
    in_semigroup = 0
    for idx in np.flatnonzero(is_fn("matrix_equations.solve_lyapunov")):
        p = parent[idx]
        while p >= 0 and qual[p] != codes.get(gauge):
            p = parent[p]
        in_semigroup += p >= 0
    residuals = sp["residual"]
    m = {
        "sweeps.self_s": float(self_time[in_layer("sweeps") & ~writer].sum()),
        "sweeps.write_s": float(self_time[writer].sum()),
        "sweeps.bytes_written": bytes_written,
        "sweeps.rows": rows,
        "cli.self_s": self_s("cli"),
        "models.self_s": self_s("models"),
        "models.nm_channel_calls": calls("models.nm_channel"),
        "models.rows_undefined": int(np.count_nonzero(is_fn("models.nm_channel") & sp["raised"])),
        "phase_space.cp_check_s": total_s("phase_space.cp_check"),
        "phase_space.cp_check_calls": calls("phase_space.cp_check"),
        "phase_space.cp_checks_per_row": per_row(calls("phase_space.cp_check")),
        "phase_space.channel_build_s": total_s("phase_space.GaussianChannel"),
        "phase_space.channel_builds": calls("phase_space.GaussianChannel"),
        "matrix_equations.stability_per_row": per_row(calls("matrix_equations.stability")),
        "matrix_equations.max_rel_residual": max(residuals) if residuals else 0.0,
        "kernels.s": self_s("_kernels"),
        "kernels.calls": int(np.count_nonzero(in_layer("_kernels"))),
        "spectral.jordan_structure_s": total_s("spectral.jordan_structure"),
        "spectral.jordan_structure_calls": calls("spectral.jordan_structure"),
        "generators.semigroup_channel_s": total_s("generators.semigroup_channel"),
        "generators.semigroup_channel_calls": calls("generators.semigroup_channel"),
        "generators.drift_exponential_s": float(
            dur[is_fn("matrix_equations.drift_exponential") & from_generators].sum()),
        "gauging.gauge_semigroup_s": total_s(gauge),
        "gauging.lyapunov_solves_per_semigroup": in_semigroup / calls(gauge) if calls(gauge) else 0.0,
        "verify.run_s": total_s("verify.run_verification"),
    }
    for fn in ("stability", "expm2", "solve_stein", "solve_lyapunov"):
        m[f"matrix_equations.{fn}_s"] = total_s(f"matrix_equations.{fn}")
        m[f"matrix_equations.{fn}_calls"] = calls(f"matrix_equations.{fn}")
    for n in (2, 6, 12, 20):
        m[f"matrix_equations.stein_ms_n{n}"] = ms_at("matrix_equations.solve_stein", n)
        m[f"matrix_equations.lyapunov_ms_n{n}"] = ms_at("matrix_equations.solve_lyapunov", n)
    for n in (4, 8):
        m[f"spectral.jordan_ms_n{n}"] = ms_at("spectral.jordan_structure", n)
    return m

"""Per-layer tracing of qkdrates, installed from outside the package.

The tracer replaces each traced public function at every module attribute
that binds it (the defining module, ``from ... import`` sites such as
``qkdrates.cli.sweep``, and the package namespace), wraps the entries of
``cli.VERIFY_SUITES``, and restores the originals on ``uninstall``. No
library file is changed.

Coarse calls become spans (name, id, parent, op, start, end, self time).
Leaf calls made 10^4+ times per op only update a counter keyed by
(function, enclosing span name), so memory stays bounded. Every traced call
pushes a frame that collects the time of its traced children; self time is
duration minus that child time. The benchmark is single-threaded, so child
intervals never overlap.
"""

from __future__ import annotations

import statistics
import time

SPAN = "span"
COUNTER = "counter"

# (module, function, kind). The order fixes the order of the per-layer metrics.
LAYERS = (
    ("cli", "main", SPAN),
    ("cli", "load_config", SPAN),
    ("protocols", "sweep", SPAN),
    ("protocols", "optimize_source_param", SPAN),
    ("protocols", "point_rate", COUNTER),
    ("protocols", "point_stats", COUNTER),
    ("protocols", "rate_bb84", COUNTER),
    ("protocols", "rate_ekert", COUNTER),
    ("protocols", "cutoff_distance", SPAN),
    ("sources", "bb84_stats", COUNTER),
    ("sources", "ekert_ideal_stats", COUNTER),
    ("sources", "pdc_stats", COUNTER),
    ("sources", "pdc_coefficients", COUNTER),
    ("sources", "swap_stats_from_segment", COUNTER),
    ("ratecore", "tau", COUNTER),
    ("ratecore", "tau_multiphoton", COUNTER),
    ("ratecore", "binary_entropy", COUNTER),
    ("ratecore", "ec_efficiency", COUNTER),
    ("ratecore", "collision_bound", COUNTER),
    ("channel", "arm_alpha", COUNTER),
    ("channel", "arm_alpha_from_loss_db", COUNTER),
    ("channel", "dark_click_prob", COUNTER),
    ("channel", "db_to_transmission", COUNTER),
    ("channel", "fiber_transmission", COUNTER),
    ("security", "maximize_attack_collision", SPAN),
    ("security", "attack_collision", COUNTER),
    ("security", "attack_epsilon", COUNTER),
    ("security", "pa_entropy_bound_check", SPAN),
    ("security", "ec_leak_bits", SPAN),
    ("security", "final_key_length", SPAN),
    ("fockoracle", "build_pdc_state", SPAN),
    ("fockoracle", "apply_loss_and_trace", SPAN),
    ("fockoracle", "extract_pdc_coefficients", SPAN),
    ("fockoracle", "pair_sector_residual", SPAN),
    ("fockoracle", "dephasing_invariance_check", SPAN),
)
MODULES = ("cli", "protocols", "sources", "ratecore", "channel", "security", "fockoracle")
VERIFY_SUITE_NAMES = ("attack-bound", "pdc-oracle", "dephasing", "privacy-amp", "multi-photon")

OPTIMIZE = "protocols.optimize_source_param"
CUTOFF = "protocols.cutoff_distance"
POINT_RATE = "protocols.point_rate"


def namespaces() -> dict:
    """The qkdrates modules and package, keyed as install expects."""
    import qkdrates
    from qkdrates import channel, cli, fockoracle, protocols, ratecore, security, sources

    return {
        "cli": cli, "protocols": protocols, "sources": sources, "ratecore": ratecore,
        "channel": channel, "security": security, "fockoracle": fockoracle, "qkdrates": qkdrates,
    }


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _point_rate_observe(args, kwargs, result):
    """(elements, failed) of one point_rate call.

    Elements is the array size of the abscissa or source-parameter argument
    (1 for scalars), so counts stay comparable once calls are vectorised.
    """
    src = args[1] if len(args) > 1 else kwargs.get("src")
    abscissa = args[3] if len(args) > 3 else kwargs.get("abscissa")
    param = getattr(src, "nbar", getattr(src, "chi", None))
    failed = 1 if result is None or getattr(result, "note", "") else 0
    return max(_size(abscissa), _size(param)), failed


def _optimize_observe(args, kwargs, result):
    return {"zero_rate": bool(getattr(result, "zero_rate", False))}


OBSERVERS = {
    POINT_RATE: _point_rate_observe,
    OPTIMIZE: _optimize_observe,
}


class Tracer:
    """Spans and counters for the wrapped functions, kept in memory.

    Args:
        clock: Monotonic clock in integer nanoseconds; tests pass a fake.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.op = None
        self.spans: list = []
        # (name, parent span name) -> [calls, elements, failed, total_ns, self_ns]
        self.counters: dict = {}
        self._frames: list = []
        self._open: list = []
        self._next_id = 1
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """Wrap fn so each call records a span named name."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            rec = {
                "id": tracer._next_id,
                "parent": parent["id"] if parent else None,
                "parent_name": parent["name"] if parent else None,
                "op": tracer.op,
                "name": name,
            }
            tracer._next_id += 1
            frame = [0]
            tracer._frames.append(frame)
            tracer._open.append(rec)
            result = None
            rec["start"] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                tracer._open.pop()
                tracer._frames.pop()
                duration = end - rec["start"]
                if tracer._frames:
                    tracer._frames[-1][0] += duration
                rec["end"] = end
                rec["self_ns"] = duration - frame[0]
                if observe is not None and result is not None:
                    rec.update(observe(args, kwargs, result))
                tracer.spans.append(rec)

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn, observe=None):
        """Wrap fn so each call only updates a (name, parent span) counter."""
        tracer = self

        def counted(*args, **kwargs):
            frame = [0]
            tracer._frames.append(frame)
            result = None
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = tracer.clock() - start
                tracer._frames.pop()
                if tracer._frames:
                    tracer._frames[-1][0] += duration
                key = (name, tracer._open[-1]["name"] if tracer._open else None)
                entry = tracer.counters.get(key)
                if entry is None:
                    entry = tracer.counters[key] = [0, 0, 0, 0, 0]
                elements, failed = observe(args, kwargs, result) if observe else (1, 0)
                entry[0] += 1
                entry[1] += elements
                entry[2] += failed
                entry[3] += duration
                entry[4] += duration - frame[0]

        counted.__wrapped__ = fn
        return counted

    def install(self, namespaces: dict, suites: dict | None = None) -> None:
        """Replace every binding of each LAYERS function in namespaces.

        Args:
            namespaces: Map of short module name to module object; every
                module in it is searched for bindings, and the LAYERS
                entries are looked up in it by their module name.
            suites: The ``cli.VERIFY_SUITES`` mapping, whose values become
                ``cli.verify.<suite>`` spans.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, func, kind in LAYERS:
            name = f"{module}.{func}"
            original = getattr(namespaces[module], func)
            make = self.span if kind == SPAN else self.counter
            wrapper = make(name, original, OBSERVERS.get(name))
            for owner in namespaces.values():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        for suite, fn in list((suites or {}).items()):
            self._patches.append((suites, suite, fn))
            suites[suite] = self.span(f"cli.verify.{suite}", fn)

    def uninstall(self) -> None:
        """Restore every binding replaced by install."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def drain(self) -> tuple:
        """Return (spans, counters) recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metrics of one traced pass, in LAYERS order.

    Returns a map metric name -> value: ``<module>.<function>.calls`` and
    ``.self_ms`` for every traced function, ``cli.verify.<suite>.ms`` and
    ``.self_ms`` for every suite, ``<module>.self_ms`` per module, and the
    derived counts: point_rate ``elements`` and ``failed`` (points carrying
    a note), optimizer ``evals_per_call`` (point_rate elements inside an
    optimize span per optimize call) and ``zero_rate_share``, and cutoff
    ``probes_per_call`` (optimize or point_rate calls made directly by a
    cutoff span per cutoff call).
    """
    calls: dict = {}
    self_ns: dict = {}
    total_ns: dict = {}
    for rec in spans:
        name = rec["name"]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + rec["self_ns"]
        total_ns[name] = total_ns.get(name, 0) + rec["end"] - rec["start"]
    for (name, _parent), (n, _el, _fail, total, own) in counters.items():
        calls[name] = calls.get(name, 0) + n
        self_ns[name] = self_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + total

    out: dict = {}
    module_ns = {m: 0 for m in MODULES}
    for module, func, _kind in LAYERS:
        name = f"{module}.{func}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        module_ns[module] += self_ns.get(name, 0)
    for suite in VERIFY_SUITE_NAMES:
        name = f"cli.verify.{suite}"
        out[f"{name}.ms"] = total_ns.get(name, 0) / 1e6
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        module_ns["cli"] += self_ns.get(name, 0)
    for module in MODULES:
        out[f"{module}.self_ms"] = module_ns[module] / 1e6

    rate_entries = [(key, v) for key, v in counters.items() if key[0] == POINT_RATE]
    out[f"{POINT_RATE}.elements"] = sum(v[1] for _, v in rate_entries)
    out[f"{POINT_RATE}.failed"] = sum(v[2] for _, v in rate_entries)

    n_opt = calls.get(OPTIMIZE, 0)
    evals = sum(v[1] for key, v in rate_entries if key[1] == OPTIMIZE)
    zero = sum(1 for rec in spans if rec["name"] == OPTIMIZE and rec.get("zero_rate"))
    out[f"{OPTIMIZE}.evals_per_call"] = evals / n_opt if n_opt else 0.0
    out[f"{OPTIMIZE}.zero_rate_share"] = zero / n_opt if n_opt else 0.0

    n_cut = calls.get(CUTOFF, 0)
    probes = sum(1 for rec in spans if rec["name"] == OPTIMIZE and rec["parent_name"] == CUTOFF)
    probes += sum(v[0] for key, v in rate_entries if key[1] == CUTOFF)
    out[f"{CUTOFF}.probes_per_call"] = probes / n_cut if n_cut else 0.0
    return out


COUNT_SUFFIXES = (".calls", ".elements", ".failed", ".evals_per_call", ".zero_rate_share", ".probes_per_call")


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is a count, which repeats exactly per pass."""
    return metric.endswith(COUNT_SUFFIXES)


def combine_passes(per_pass: list) -> tuple:
    """Fold the metrics of several identical traced passes into one set.

    Counts are taken from the first pass; times are medians over passes.
    Returns (metrics, names of counts that differed between passes).
    """
    first = per_pass[0]
    unstable = sorted(k for k in first if is_count(k) and any(p[k] != first[k] for p in per_pass))
    combined = {
        k: first[k] if is_count(k) else statistics.median(p[k] for p in per_pass) for k in first
    }
    return combined, unstable

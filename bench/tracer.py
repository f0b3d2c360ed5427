"""Spans and counters around monofilt's functions, installed from outside the package.

Every spanned or timed function is re-bound in each ``monofilt`` namespace
that binds it (``associated_primes`` lives in ``decomposition``, ``powers``
and the package root), so no call path escapes.  Three kinds of wrapper keep
the cost proportional to what is needed:

* span: calls, self time and a recorded span (name, start, end, parent);
* timed: calls and self time, no span record, for hot ring operations;
* counted: a call or weight count without timing, for leaf calls that run
  up to a million times per job.  A leaf shared by two modules, such as
  ``colon_prime_support``, is counted apart in each namespace.

Self time is the span's duration minus the durations of its direct children.
After installation, ``check_bindings`` asks the garbage collector for every
object that still refers to a wrapped monofilt function; anything but the
tracer's own wrappers (a missed namespace, a dispatch table, a default
argument, a closure) would let calls escape the wrapper, and is an error.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict

_FALLBACK_REASONS = {
    "no superficial certificate for this module": "no_certificate",
    "level below the certified colon threshold": "below_threshold",
    "colon identity failed on recheck at this level": "recheck_failed",
}

# Wrapped with spans: (module, attribute, metric name).
SPANNED = (
    ("decomposition", "associated_primes", "decomposition.associated_primes"),
    ("decomposition", "irreducible_decomposition", "decomposition.irreducible_decomposition"),
    ("filtration", "naive_prime_filtration", "filtration.naive_prime_filtration"),
    ("filtration", "validate", "filtration.validate"),
    ("filtration", "glue", "filtration.glue"),
    ("filtration", "cm_certificate", "filtration.cm_certificate"),
    ("superficial", "search_certificate", "superficial.search_certificate"),
    ("powers", "powers_report", "powers.powers_report"),
    ("powers", "ass_stability", "powers.ass_stability"),
    ("powers", "filtration_digest", "powers.filtration_digest"),
    ("closure", "newton_polyhedron", "closure.newton_polyhedron"),
    ("closure", "integral_closure_power", "closure.integral_closure_power"),
    ("closure", "noetherian_exponent", "closure.noetherian_exponent"),
    ("closure", "rees_cofinality_constant", "closure.rees_cofinality_constant"),
    ("epsilon", "h0_length", "epsilon.h0_length"),
    ("epsilon", "epsilon_estimate", "epsilon.epsilon_estimate"),
    ("epsilon", "filtration_bound_check", "epsilon.filtration_bound_check"),
    ("cli", "build_parser", "cli.parse"),
    ("cli", "_load_ideal", "cli.parse"),
    ("cli", "_emit", "cli.render"),
)

# Methods wrapped on their class: (module, class, method, metric name, span).
METHODS = (
    ("ring", "MonomialIdeal", "__mul__", "ring.mul", False),
    ("ring", "MonomialIdeal", "intersect", "ring.intersect", False),
    ("ring", "MonomialIdeal", "saturation", "ring.saturation", True),
)


class Tracer:
    def __init__(self):
        self.job = 0
        self.stack = []  # frames: [child seconds, span id seen by children, name]
        self.spans = []  # (job, span id, parent span id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_gens = 0
        self._next_id = 0
        self._newton = None
        self._wrappers = []  # every wrapper made, for check_bindings
        self._originals = []  # monofilt functions with timed wrappers

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, span=True, after=None):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if span:
                self._next_id += 1
                sid = self._next_id
            else:
                sid = parent
            frame = [0.0, sid, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if span:
                    spans.append((self.job, sid, parent, name, start, end))
            if after is not None:
                after(args, result)
            return result

        self._wrappers.append(wrapper)
        if getattr(fn, "__module__", "").startswith("monofilt"):
            self._originals.append(fn)
        return wrapper

    def counted(self, name, fn, weight=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if weight is None else weight(args, result)
            return result

        self._wrappers.append(wrapper)
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace ``original`` in every monofilt namespace that binds it."""
        bound = 0
        for module in _monofilt_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is bound in no monofilt namespace")

    def install(self):
        import monofilt.cli as cli
        import monofilt.closure as closure
        import monofilt.decomposition as decomposition
        import monofilt.epsilon as epsilon
        import monofilt.filtration as filtration
        import monofilt.ring as ring
        import monofilt.superficial as superficial

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in _monofilt_modules() if "." in m.__name__}
        after = {
            "filtration.validate": self._after_validate,
            "superficial.search_certificate": self._after_search,
            "powers.powers_report": self._after_powers_report,
        }
        self._newton = closure.newton_polyhedron
        wrappers = {}
        for module, attr, name in SPANNED:
            original = getattr(modules[module], attr)
            if original not in wrappers:
                wrappers[original] = self.timed(name, original, after=after.get(name))
                self._rebind(original, wrappers[original])

        for module, cls, attr, name, span in METHODS:
            owner = getattr(modules[module], cls)
            setattr(owner, attr, self.timed(name, getattr(owner, attr), span=span))

        original = ring.minimal_generators
        antichain = self.timed("ring.minimal_generators", original, span=False)

        def minimal_generators(ctx, gens):
            gens = list(gens)
            result = antichain(ctx, gens)
            self.counts["ring.antichain.in"] += len(gens)
            self.counts["ring.antichain.out"] += len(result)
            if len(result) > self.max_gens:
                self.max_gens = len(result)
            return result

        self._wrappers.append(functools.wraps(original)(minimal_generators))
        self._rebind(original, self._wrappers[-1])

        ideal_cls = ring.MonomialIdeal
        ideal_cls.colon_monomial = self.counted("ring.colon_monomial.calls", ideal_cls.colon_monomial)
        colon = ideal_cls.colon

        def colon_round(ideal, other):
            if self.stack and self.stack[-1][2] == "ring.saturation":
                self.counts["ring.saturation.colon_rounds"] += 1
            return colon(ideal, other)

        ideal_cls.colon = functools.wraps(colon)(colon_round)
        superficial.TermSystem.term_plus = self.counted(
            "superficial.term_plus.calls", superficial.TermSystem.term_plus
        )

        # Leaf counters, bound only in the namespace whose scans they count.
        decomposition.colon_prime_support = self.counted(
            "decomposition.cells_scanned", decomposition.colon_prime_support
        )
        filtration.colon_prime_support = self.counted(
            "filtration.cells_scanned", filtration.colon_prime_support
        )
        decomposition._witness_for = self.counted("decomposition.witnesses", decomposition._witness_for)
        closure.box_monomials = self.counted(
            "closure.cells_scanned", closure.box_monomials, weight=lambda args, result: len(result)
        )
        epsilon._cartesian = self.counted(
            "epsilon.cells_scanned",
            epsilon._cartesian,
            weight=lambda args, result: math.prod(len(r) for r in args),
        )

        # cli renders through json.dumps; give the cli namespace its own copy.
        cli.json = _JsonProxy(self.timed("cli.render", cli.json.dumps))
        parse_args = cli._Parser.parse_args
        cli._Parser.parse_args = self.timed("cli.parse", parse_args)

    def check_bindings(self):
        """Fail if anything outside the tracer still refers to a timed function."""
        allowed = {id(self.__dict__), id(self._originals), id(self._wrappers)}
        for wrapper in self._wrappers:
            allowed.add(id(wrapper.__dict__))
            allowed.update(id(cell) for cell in wrapper.__closure__ or ())
        escapes = [
            f"{fn.__module__}.{fn.__qualname__} from {type(ref).__name__}"
            for fn in self._originals
            for ref in gc.get_referrers(fn)
            if id(ref) not in allowed and not isinstance(ref, types.FrameType)
        ]
        if escapes:
            raise RuntimeError("calls can bypass the tracer: " + "; ".join(escapes))

    # -- after-call hooks -------------------------------------------------

    def _after_validate(self, args, result):
        self.counts["filtration.validate.steps"] += len(args[0].steps)

    def _after_search(self, args, result):
        self.counts["superficial.search_certificate.found"] += result is not None

    def _after_powers_report(self, args, report):
        engine = report.engine
        if engine is None:
            return
        self.counts["powers.engine.glue_nodes"] += len(engine.glue_nodes)
        for reason in engine.fallback_nodes.values():
            self.counts["powers.engine.fallback_nodes"] += 1
            self.counts["powers.engine.fallback_nodes." + _FALLBACK_REASONS.get(reason, "other")] += 1

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        info = self._newton.cache_info()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "max_gens": self.max_gens,
            "newton_cache": {"hits": info.hits, "misses": info.misses},
            "spans": len(self.spans),
        }

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["job", "id", "parent", "name", "start", "end"], "spans": self.spans}, handle)


class _JsonProxy:
    """Stands in for the json module inside monofilt.cli, with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def _monofilt_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "monofilt" or name.startswith("monofilt."))
    ]

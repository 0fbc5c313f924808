"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces each target function by a wrapper in every
`kummer_brauer.*` namespace that holds it (`from .curves import ap` copies
the binding, so patching the defining module alone would miss callers), and
`uninstall` puts every original back.  A target that no longer exists is
reported as absent instead of failing the run.

Spans are aggregated as they close: per name, the number of calls and the
self time (the span's duration minus the time of the spans it encloses).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "kummer_brauer"

# count_points per-call time is reported per band of p.
P_BANDS = (("b1e2", 100), ("b1e3", 1_000), ("b1e4", 10_000))


def _band(p: int) -> str:
    for name, top in P_BANDS:
        if p <= top:
            return name
    return "above"


def _on_count_points(t: "Tracer", args, kwargs, result, self_s: float) -> None:
    band = _band(args[1] if len(args) > 1 else kwargs["p"])
    t.extra["count_points.band_calls." + band] += 1
    t.extra["count_points.band_s." + band] += self_s


def _on_factor(t: "Tracer", args, kwargs, result, self_s: float) -> None:
    n = args[0] if args else kwargs["n"]
    t.extra["factor.max_digits"] = max(t.extra["factor.max_digits"], len(str(abs(n))))


def _on_surjectivity(t: "Tracer", args, kwargs, result, self_s: float) -> None:
    t.extra["mod_ell_surjectivity.surjective"] += result.verdict == "surjective"


def _on_subgroups(t: "Tracer", args, kwargs, result, self_s: float) -> None:
    t.extra["enumerate_subgroups.subgroups"] += len(result)


# (span name, module, attribute path, hook run after each call)
TARGETS = (
    ("curves.count_points", "curves", "count_points", _on_count_points),
    ("curves.ap", "curves", "ap", None),
    ("curves.good_reduction_at", "curves", "good_reduction_at", None),
    ("curves.to_rt2", "curves", "to_rt2", None),
    ("curves.cm_status", "curves", "cm_status", None),
    ("arith.factor", "arith", "factor", _on_factor),
    ("arith.square_class", "arith", "square_class", None),
    ("arith.is_prime", "arith", "is_prime", None),
    ("arith.primes_up_to", "arith", "primes_up_to", None),
    ("residues.residue_matrix", "residues", "residue_matrix", None),
    ("residues.kernel_dimension", "residues", "kernel_dimension", None),
    ("homrank.nonisogeny_certificate", "homrank", "nonisogeny_certificate", None),
    ("homrank.same_curve", "homrank", "same_curve", None),
    ("oddpart.mod_ell_surjectivity", "oddpart", "mod_ell_surjectivity", _on_surjectivity),
    ("oddpart.congruence_evidence", "oddpart", "congruence_evidence", None),
    ("oddpart.six_torsion_cm_certificate", "oddpart", "six_torsion_cm_certificate", None),
    ("gl2.witness_classes", "gl2", "witness_classes", None),
    ("gl2.GL2.init", "gl2", "GL2.__init__", None),
    ("gl2.enumerate_subgroups", "gl2", "enumerate_subgroups", _on_subgroups),
    ("report.analyze", "report", "analyze", None),
    ("report.render_report", "report", "render_report", None),
    ("report.pair_surface_equation", "report", "pair_surface_equation", None),
    ("cli.main", "cli", "main", None),
)

# Spans whose count is also kept per enclosing span: count_points calls
# inside `ap` are cache misses, inside the non-isogeny scan they are the
# a_p that scan computed.
NESTED = frozenset({"curves.count_points"})


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.extra: defaultdict = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time in child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        tracer = self
        stack = self._stack
        nested = name in NESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested:
                for enclosing in {frame[0] for frame in stack}:
                    tracer.nested[enclosing, name] += 1
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, elapsed - frame[2])
                except Exception:  # a changed signature must not end the run
                    tracer.hook_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, hook in self.targets:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if owner_name:  # a method: the class object is shared by every importer
                self._patch(owner, fn_name, original, wrapper)
                continue
            for modname, m in list(sys.modules.items()):
                if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def summary(self) -> dict:
        """Everything recorded, JSON-ready."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "nested": {f"{outer}>{inner}": n for (outer, inner), n in self.nested.items()},
            "extra": dict(self.extra),
            "absent": list(self.absent),
            "hook_errors": dict(self.hook_errors),
        }

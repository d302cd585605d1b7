"""Span tracer that wraps x1torsion's public functions from outside.

Each traced function is replaced, in every x1torsion module that holds
it (``from .curves import scalar_mul`` binds a second name, so patching
the defining module alone misses callers), by a wrapper that opens a
span on entry and closes it on exit.  Spans nest on one stack because
the benchmark is single-threaded.  Self time is a span's duration minus
the time its child spans cover, accumulated as children close.  The first
SPAN_CAP spans are kept in memory with their parents and written out by
write_spans; counts and times cover every span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import update_wrapper
from time import perf_counter

SPAN_CAP = 100_000

# span name -> (defining module, attribute); a dotted attribute is a method.
SPANS = {
    "cli": ("cli", "main"),
    "fixtures.load": ("fixtures", "load_fixture"),
    "fixtures.verify_fixture": ("fixtures", "verify_fixture"),
    "polys.certify_irreducible": ("polys", "certify_irreducible_over_q"),
    "polys.find_irreducible": ("polys", "find_irreducible"),
    "curves.invariants": ("curves", "curve_invariants"),
    "curves.verify_order": ("curves", "verify_order"),
    "curves.scalar_mul": ("curves", "scalar_mul"),
    "curves.add_points": ("curves", "add_points"),
    "curves.on_curve_check": ("curves", "Curve.contains"),
    "scan.scan_fp": ("scan", "scan_fp"),
    "scan.place_degree": ("scan", "place_degree"),
    "fields.mul": ("fields", "FieldElement.__mul__"),
    "fields.inverse": ("fields", "FieldElement.inverse"),
}
# Counted per calling span, without a span of their own, so that their
# time stays in the certificate / search that calls them.
COUNTED = {"polys.is_irreducible_mod_p": ("polys", "is_irreducible_mod_p")}


def _max_bits(t):
    if isinstance(t, tuple):
        return max(map(_max_bits, t))
    return max(t.numerator.bit_length(), t.denominator.bit_length())


class Tracer:
    """Installs span wrappers on the x1torsion modules and collects spans."""

    def __init__(self, package):
        self.package = package
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.stage_s = defaultdict(float)
        self.coeff_bits_max = 0
        self.active_scans = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sys.modules.items() if name.startswith(prefix)]

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in self._modules()}
        hooks = {
            "fields.mul": self._on_field_result,
            "fields.inverse": self._on_field_result,
            "fixtures.verify_fixture": self._on_verify_fixture,
            "polys.certify_irreducible": self._on_certify,
            "curves.invariants": self._on_invariants,
            "curves.verify_order": self._on_verify_order,
            "curves.scalar_mul": self._on_scalar_mul,
        }
        for span, (mod, attr) in SPANS.items():
            self._patch(mods, mod, attr, self._span_wrapper(span, hooks.get(span)))
        self._patch(mods, "fields", "FieldElement.__rmul__",
                    self._span_wrapper("fields.mul", self._on_field_result))
        for name, (mod, attr) in COUNTED.items():
            self._patch(mods, mod, attr, self._count_wrapper(name))

    def _patch(self, mods, mod, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, make(original))
            return
        original = getattr(mods[mod], attr)
        wrapped = make(original)
        for m in mods.values():
            if getattr(m, attr, None) is original:
                self._set(m, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, hook):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                parent = stack[-1] if stack else None
                span_id = tracer.next_id
                tracer.next_id += 1
                # [name, child time, args, parent frame, id]
                frame = [name, 0.0, args, parent, span_id]
                stack.append(frame)
                if name == "scan.scan_fp":
                    tracer.active_scans += 1
                raised = True
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                    return result
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    if name == "scan.scan_fp":
                        tracer.active_scans -= 1
                    dur = t1 - t0
                    tracer.calls[name] += 1
                    tracer.self_s[name] += dur - frame[1]
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, -1 if parent is None else parent[4],
                                             tracer.op, name, t0, t1))
                    if hook is not None and not raised:
                        hook(frame, dur, result)
                    if parent is not None:
                        # bookkeeping counts as covered, not as parent self time
                        parent[1] += perf_counter() - t0

            return update_wrapper(wrapper, fn)

        return make

    def _count_wrapper(self, name):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                caller = tracer.stack[-1][0] if tracer.stack else None
                tracer.counts[name, caller] += 1
                return fn(*args, **kwargs)

            return update_wrapper(wrapper, fn)

        return make

    # -- hooks: counts observed at the layer boundaries ---------------------

    @staticmethod
    def _parent_name(frame):
        return frame[3][0] if frame[3] is not None else None

    def _on_field_result(self, frame, dur, result):
        if result.descriptor.base is None:
            bits = _max_bits(result.coords)
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def _on_verify_fixture(self, frame, dur, check):
        if check.passed:
            return
        if check.disc_nonzero is False:
            self.counts["reject.disc"] += 1
        elif check.order_certificate is None:
            self.counts["reject.field_error"] += 1
        elif not check.order_certificate.checks[0][1]:
            self.counts["reject.order_top"] += 1
        else:
            self.counts["reject.order_divisor"] += 1

    def _on_certify(self, frame, dur, result):
        if self._parent_name(frame) == "fixtures.verify_fixture":
            self.stage_s["irreducibility_s"] += dur

    def _on_invariants(self, frame, dur, inv):
        parent = self._parent_name(frame)
        if parent == "fixtures.verify_fixture":
            self.stage_s["disc_s"] += dur
        elif parent == "scan.scan_fp" and inv.disc.is_zero():
            self.counts["scan.singular"] += 1

    def _on_verify_order(self, frame, dur, cert):
        if self._parent_name(frame) == "scan.scan_fp":
            self.counts["scan.survivors"] += 1
            self.counts["scan.hits"] += cert.passed

    def _on_scalar_mul(self, frame, dur, result):
        parent = frame[3]
        if self.active_scans and (parent is None or parent[0] != "curves.scalar_mul"):
            self.counts["scan.scalar_mul"] += 1
        if parent is None or parent[0] != "curves.verify_order":
            return
        grand = parent[3]
        if grand is None or grand[0] != "fixtures.verify_fixture":
            return
        n = parent[2][2]
        k = frame[2][1]
        self.stage_s["order_top_s" if k == n else "order_divisors_s"] += dur

    # -- results ------------------------------------------------------------

    def metrics(self, pairs):
        """The per-layer metrics; `pairs` is the grid pairs the traced scans covered."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "fields.mul.calls": (self.calls["fields.mul"], "count"),
            "fields.mul.self_s": (self.self_s["fields.mul"], "s"),
            "fields.inverse.calls": (self.calls["fields.inverse"], "count"),
            "fields.inverse.self_s": (self.self_s["fields.inverse"], "s"),
            "fields.coeff_bits_max": (self.coeff_bits_max, "bits"),
            "polys.certify_irreducible.self_s": (self.self_s["polys.certify_irreducible"], "s"),
            "polys.primes_per_certificate": (
                ratio(c["polys.is_irreducible_mod_p", "polys.certify_irreducible"],
                      self.calls["polys.certify_irreducible"]), "count"),
            "polys.find_irreducible.self_s": (self.self_s["polys.find_irreducible"], "s"),
            "polys.trials_per_irreducible": (
                ratio(c["polys.is_irreducible_mod_p", "polys.find_irreducible"],
                      self.calls["polys.find_irreducible"]), "count"),
            "curves.add_points.calls": (self.calls["curves.add_points"], "count"),
            "curves.add_points.self_s": (self.self_s["curves.add_points"], "s"),
            "curves.on_curve_check.calls": (self.calls["curves.on_curve_check"], "count"),
            "curves.on_curve_check.self_s": (self.self_s["curves.on_curve_check"], "s"),
            "curves.scalar_mul.calls": (self.calls["curves.scalar_mul"], "count"),
            "curves.scalar_mul.self_s": (self.self_s["curves.scalar_mul"], "s"),
            "curves.invariants.calls": (self.calls["curves.invariants"], "count"),
            "curves.invariants.self_s": (self.self_s["curves.invariants"], "s"),
            "curves.verify_order.calls": (self.calls["curves.verify_order"], "count"),
            "curves.verify_order.self_s": (self.self_s["curves.verify_order"], "s"),
            "fixtures.load.self_s": (self.self_s["fixtures.load"], "s"),
            "fixtures.stage.irreducibility_s": (self.stage_s["irreducibility_s"], "s"),
            "fixtures.stage.disc_s": (self.stage_s["disc_s"], "s"),
            "fixtures.stage.order_top_s": (self.stage_s["order_top_s"], "s"),
            "fixtures.stage.order_divisors_s": (self.stage_s["order_divisors_s"], "s"),
            "fixtures.reject.disc": (c["reject.disc"], "count"),
            "fixtures.reject.order_top": (c["reject.order_top"], "count"),
            "fixtures.reject.field_error": (c["reject.field_error"], "count"),
            "scan.singular_pairs": (c["scan.singular"], "count"),
            "scan.survivors": (c["scan.survivors"], "count"),
            "scan.hits": (c["scan.hits"], "count"),
            "scan.hit_ratio": (ratio(c["scan.hits"], c["scan.survivors"]), "ratio"),
            "scan.scalar_mul_per_pair": (ratio(c["scan.scalar_mul"], pairs), "count"),
            "scan.place_degree.self_s": (self.self_s["scan.place_degree"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
        }

    def write_spans(self, path):
        """Write the kept spans as tab-separated lines, times in microseconds."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {len(self.spans)} of {self.next_id} spans kept\n")
            fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{span_id}\t{parent}\t{op}\t{name}\t"
                         f"{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}\n")

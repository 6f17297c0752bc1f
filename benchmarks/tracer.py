"""Per-layer spans recorded from outside the package.

The layers are the modules of ``colltherm``.  :meth:`Tracer.install` wraps
every public function and every public-class method of those modules and
swaps each wrapper in, by identity, at every module-level binding of the
package, so ``from .channels import thermal_state`` style imports are
traced too.  :meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent index, point id, raised]``; the spans
of one ``protocols.evaluate`` call share its point id.  Spans stay in
memory until :func:`summarize` reduces them and :func:`write_spans` writes
them out.  The program runs on one thread, so one stack orders them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "operators", "channels", "estimation", "protocols", "cli")
LISTED = {
    "linalg": ("kron", "trace_out", "matrix_exp", "herm_eig",
               "apply_unitary_local", "apply_superop_local"),
    "channels": ("thermalization_channel", "collision_unitary",
                 "collision_superoperator", "thermal_state"),
    "estimation": ("finite_diff_derivatives", "sld", "qfim"),
    "protocols": ("evaluate", "sweep", "rho_fn"),
    "cli": ("main", "write_csv", "write_summary"),
}
PER_POINT = ("protocols.rho_fn", "channels.thermalization_channel",
             "linalg.matrix_exp", "linalg.kron")
POINT_SPAN = "protocols.evaluate"
# The state-family callback each evaluator hands to finite differences runs
# the protocol's propagation, so it is protocols time, not estimation time.
CALLBACK_SPANS = {"estimation.finite_diff_derivatives": "protocols.rho_fn"}


def package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def swap_bindings(package: str, replacements: dict) -> list:
    """Rebind every module-level name of ``package`` that refers to a key of
    ``replacements`` (matched by identity) to its value.  Returns the undo
    list for :func:`restore`."""
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    undo = []
    for module in package_modules(package):
        for attr, obj in list(vars(module).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((module, attr, obj))
                setattr(module, attr, hit[1])
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Tracer:
    def __init__(self, package: str = "colltherm"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._point = [0]
        self._points = 0
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        stack, point, clock = self._stack, self._point, time.perf_counter
        is_point = name == POINT_SPAN
        callback = CALLBACK_SPANS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callback and args:
                args = (self.wrap(callback, args[0]), *args[1:])
            if is_point:
                self._points += 1
                outer, point[0] = point[0], self._points
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, point[0], False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if is_point:
                    point[0] = outer

        return traced

    def install(self) -> None:
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        self._undo.extend(swap_bindings(self.package, replacements))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self.wrap(name, member)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self.wrap(name, member.__func__))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self.wrap(name, member.fget), member.fset, member.fdel, member.__doc__)
            else:
                continue
            self._undo.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        restore(self._undo)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Per-layer self time and errors, per-function calls and inclusive
    seconds, and the summed duration of the root spans.

    Self time is a span's duration minus the part its direct children
    cover; children nest inside their parent on the one stack, so summed
    self time equals summed root duration.  An error is an exception that
    leaves a span whose caller sits in another layer (or outside the
    package).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _point, _raised in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    errors = Counter()
    calls = Counter()
    inclusive = defaultdict(float)
    roots = 0.0
    for i, (name, start, end, parent, _point, raised) in enumerate(spans):
        layer = layer_of(name)
        self_s[layer] += end - start - covered[i]
        calls[name] += 1
        inclusive[name] += end - start
        if parent < 0:
            roots += end - start
        if raised and (parent < 0 or layer_of(spans[parent][0]) != layer):
            errors[layer] += 1
    return {"self_s": dict(self_s), "errors": dict(errors), "calls": dict(calls),
            "s": dict(inclusive), "root_s": roots, "points": calls[POINT_SPAN],
            "spans": len(spans)}


def write_spans(spans: list, path) -> None:
    """One line per span: id, name, start and end (s), parent, point, raised."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,point,raised\n")
        for i, (name, start, end, parent, point, raised) in enumerate(spans):
            fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{point},{int(raised)}\n")

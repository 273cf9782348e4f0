"""In-memory span recorder for the traced benchmark run.

The program is not changed: while a recorder is installed, the public
callables of each layer are replaced by timing wrappers where their callers
bind them, and every original is put back on ``uninstall``.

* A public function of a layer module is wrapped in the namespace of every
  other layer module that imported it, so only calls that cross a layer
  boundary are spans.  ``solve_lp``, for example, is bound separately in
  ``convex_sep``, ``functionals`` and ``interpolate``; patching
  ``conedual.lp.solve_lp`` alone would record nothing.
* Methods that do a layer's work wherever they are called from
  (``LinFun.eval``, validating constructors) are wrapped on their class.
* ``cli`` reaches ``json`` and ``jsonio.decode_extreal`` through module
  objects, so those two names get proxies in ``conedual.cli``.
* ``ExtReal`` arithmetic is only counted: a span per operation would cost
  more than the operation.

A span is ``(name, parent, start, end, request)``; ``parent`` is the index
of the enclosing span or -1, and ``request`` is the index the caller sets
before each call.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "jsonio", "convex_sep", "interpolate", "functionals", "lp",
          "extreal", "finspace", "valuations")
# extreal functions are leaves called per entry; they are counted, not spanned
SPANNED_FUNCTION_LAYERS = ("jsonio", "convex_sep", "interpolate", "functionals", "lp",
                           "finspace", "valuations")
# (layer, class, method): wrapped on the class, so every call is a span
METHOD_SPANS = (
    ("functionals", "LinFun", "eval"),
    ("functionals", "SublinFun", "eval"),
    ("functionals", "SuperlinFun", "eval"),
    ("functionals", "_BranchFun", "__init__"),
    ("functionals", "OpenSetRep", "__init__"),
    ("finspace", "FinitePoset", "__init__"),
    ("finspace", "LscFun", "__init__"),
    ("valuations", "SimpleValuation", "__init__"),
    ("valuations", "ValuationOnOpens", "__init__"),
    ("valuations", "DualFunctional", "__init__"),
)
EXTREAL_OPS = ("__add__", "__mul__", "__le__", "__lt__")
# vector coercion, called once per functional evaluation: part of the caller's work
UNSPANNED = ("as_extvec",)
ENCODERS = ("encode_extreal", "encode_fraction", "encode_fractions", "encode_vector",
            "mask_to_indices")


class _Proxy:
    """Stands in for a module object, overriding a few attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _jsonio_kind(name):
    return "jsonio.encode" if name in ENCODERS else "jsonio.decode"


class Recorder:
    def __init__(self):
        self.spans = []
        self.lp_calls = []
        self.extreal_ops = 0
        self.request = -1
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        recorder = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, stack[-1] if stack else -1, t0, t1, recorder.request)

        return traced

    def _wrap_lp(self, name, fn):
        calls = self.lp_calls
        inner = self.wrap(name, fn)

        def traced(problem, *args, **kwargs):
            result = inner(problem, *args, **kwargs)
            # sizes are read after the pass, outside every span
            calls.append((problem, result, self.request))
            return result

        return traced

    def _count(self, fn):
        recorder = self

        def counted(*args):
            recorder.extreal_ops += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------ install/remove

    def install(self):
        mods = {layer: sys.modules[f"conedual.{layer}"] for layer in LAYERS}
        for layer in SPANNED_FUNCTION_LAYERS:
            home = mods[layer]
            for fname, fn in vars(home).items():
                if fname.startswith("_") or fname in UNSPANNED or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                span = _jsonio_kind(fname) if layer == "jsonio" else f"{layer}.{fname}"
                for caller_layer, caller in mods.items():
                    if caller_layer == layer:
                        continue
                    for attr, value in list(vars(caller).items()):
                        if value is fn:
                            wrapper = (self._wrap_lp(span, fn) if layer == "lp"
                                       else self.wrap(span, fn))
                            self._set(caller, attr, wrapper)
        for layer, cls_name, meth in METHOD_SPANS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        cls = mods["extreal"].ExtReal
        for op in EXTREAL_OPS:
            self._set(cls, op, self._count(cls.__dict__[op]))
        cli = mods["cli"]
        self._set(cli, "json", _Proxy(json, loads=self.wrap("jsonio.decode", json.loads),
                                      dumps=self.wrap("jsonio.encode", json.dumps)))
        jsonio = mods["jsonio"]
        self._set(cli, "jsonio", _Proxy(
            jsonio, decode_extreal=self.wrap("jsonio.decode", jsonio.decode_extreal)))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- results

    def self_times(self):
        """Per-span self time: duration minus the time covered by children."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[4], s[3] - s[2] - c) for s, c in zip(self.spans, child)]

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, (name, parent, t0, t1, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "request": req}) + "\n")

"""Per-layer tracing of one cuspforge CLI command.

Run as a script, it imports ``cuspforge.cli`` in this fresh interpreter,
wraps every public function and method of the seven layer modules, runs
one command through ``cuspforge.cli.run`` and writes the per-layer totals
as JSON to the file named first:

    PYTHONPATH=src python3 bench/tracer.py TRACE.json genus --level 20 --gamma1

The command's stdout is the same, byte for byte, as without the wrappers.

No source file is edited.  Each wrapper is patched into every
``cuspforge`` module namespace that holds the original object, and
``uninstall`` puts the originals back.  A layer's self time is the time
inside its spans minus the time inside their child spans.  Private
helpers (``_survey_level``, ``_dispatch``) are not wrapped, so their time
counts for the public caller.  The pool workers of ``survey --jobs N``
are forked processes whose spans are never collected: their work shows
as self time of ``criteria``, the parent waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# Module -> layer name, in the import order of the package.
LAYERS = {
    "cuspforge.arith": "arith",
    "cuspforge.cusps": "cusps",
    "cuspforge.genus": "genus",
    "cuspforge.symmetry": "symmetry",
    "cuspforge.etaq": "etaq",
    "cuspforge.criteria": "criteria",
    "cuspforge.cli": "cli",
}
# Layers whose lru_cache functions are reported.
CACHED_LAYERS = ("arith", "genus", "cusps")


class Tracer:
    """Call counts and self time per layer, aggregated as spans close."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [layer, start, time in child spans]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}

    def enter(self, layer: str) -> None:
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self._stack.append([layer, self._clock(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        span = self._clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + span - child
        if self._stack:
            self._stack[-1][2] += span


def _wrap(fn, layer: str, tracer: Tracer):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _own_methods(cls, source_file: str):
    """(name, attribute, function) for methods written in the module source.

    Dataclass-generated methods (``__init__``, ``__eq__``, ...) have no
    source file and are skipped; ``__post_init__`` and operators are kept.
    """
    for name, attr in list(vars(cls).items()):
        fn = attr.__func__ if isinstance(attr, staticmethod) else attr
        if (
            inspect.isfunction(fn)
            and fn.__code__.co_filename == source_file
            and (not name.startswith("_") or _is_dunder(name))
        ):
            yield name, attr, fn


def layer_modules():
    return {name: importlib.import_module(name) for name in LAYERS}


def cache_functions() -> dict[str, list]:
    """The lru_cache functions of each cached layer, public or private."""
    out = {}
    for modname, mod in layer_modules().items():
        layer = LAYERS[modname]
        if layer in CACHED_LAYERS:
            out[layer] = [
                v
                for v in vars(mod).values()
                if hasattr(v, "cache_info") and getattr(v, "__module__", None) == modname
            ]
    return out


def cache_counts(caches: dict[str, list]) -> dict[str, list[int]]:
    """[hits, misses] per layer, summed over its caches."""
    out = {}
    for layer, fns in caches.items():
        infos = [f.cache_info() for f in fns]
        out[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos)]
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the layers' public callables; return the patches for uninstall."""
    patches = []
    wrappers = {}  # id(original) -> (original, wrapper)
    for modname, mod in layer_modules().items():
        layer = LAYERS[modname]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, type):
                for mname, attr, fn in _own_methods(obj, mod.__file__):
                    wrapped = _wrap(fn, layer, tracer)
                    if isinstance(attr, staticmethod):
                        wrapped = staticmethod(wrapped)
                    patches.append((obj, mname, attr))
                    setattr(obj, mname, wrapped)
            elif callable(obj):
                wrappers[id(obj)] = (obj, _wrap(obj, layer, tracer))
    for modname, mod in list(sys.modules.items()):
        if modname != "cuspforge" and not modname.startswith("cuspforge."):
            continue
        for name, obj in list(vars(mod).items()):
            original, wrapped = wrappers.get(id(obj), (None, None))
            if original is obj:
                patches.append((mod, name, obj))
                setattr(mod, name, wrapped)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def main(argv: list[str]) -> int:
    trace_path, command = argv[0], argv[1:]
    from cuspforge import cli

    caches = cache_functions()
    before = cache_counts(caches)
    tracer = Tracer()
    patches = install(tracer)
    try:
        code = cli.run(command)
    finally:
        uninstall(patches)
    sys.stdout.flush()
    after = cache_counts(caches)
    cache = {
        layer: [a - b for a, b in zip(after[layer], before[layer])] for layer in after
    }
    with open(trace_path, "w") as fh:
        json.dump({"calls": tracer.calls, "self_s": tracer.self_s, "cache": cache}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the public functions of the six grkoszul layers.

The tracer lives entirely in the benchmark: `install` wraps every public
module-level function of each layer module and rebinds the wrapper in every
`grkoszul.*` module that imported the function by name, so calls inside a
layer and across layers are both seen.  `MatrixExact.__init__` is wrapped
for counts only.  Spans (name, start, end, parent) are kept in memory until
`end_round` folds them into per-function totals; `uninstall` restores every
original binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exactlin", "algebra_core", "rep_homology", "qha_engine", "alcove", "klpoly")


def _module_key(rep) -> tuple:
    """Identity of a module by content: its algebra and action matrices."""
    algebra = rep.algebra
    pres = algebra.presentation
    return (pres.field.char, tuple(pres.vertices), tuple(pres.arrows),
            repr(pres.relations), tuple((b.src, b.arrows) for b in algebra.basis),
            tuple(sorted(rep.dims.items())),
            tuple((name, tuple(map(tuple, m.rows)))
                  for name, m in sorted(rep.action.items())))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list = []  # (owner, attribute, original)

    # -- per-call counters --------------------------------------------------------

    # Functions whose arguments feed a counter; arguments are bound to their
    # parameters first, so keyword calls count like positional ones.
    _COUNTED = ("exactlin.echelon", "rep_homology.minimal_resolution",
                "rep_homology.ext_groups")

    def _on_call(self, name: str, args: tuple) -> None:
        if name == "exactlin.echelon":
            self.counters["exactlin.echelon.cells"] += args[0].nrows * args[0].ncols
        elif name == "rep_homology.minimal_resolution":
            self._count_repeat(name, (_module_key(args[0]), args[1]))
        elif name == "rep_homology.ext_groups":
            self._count_repeat(name, (_module_key(args[0]), _module_key(args[1]), args[2]))

    def reset_seen(self) -> None:
        """Start a new command: repeats are counted within one command."""
        self._seen.clear()

    def _count_repeat(self, name: str, key) -> None:
        key = (name, key)
        if key in self._seen:
            self.counters[name + ".repeats"] += 1
        self._seen.add(key)

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_call = self._on_call
        signature = inspect.signature(fn) if name in self._COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                on_call(name, signature.bind(*args, **kwargs).args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        from grkoszul.exactlin import MatrixExact

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["grkoszul." + layer]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        for modname, module in list(sys.modules.items()):
            if modname != "grkoszul" and not modname.startswith("grkoszul."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

        init = MatrixExact.__init__
        counters = self.counters

        @functools.wraps(init)
        def counted_init(matrix, *args, **kwargs):
            init(matrix, *args, **kwargs)
            counters["exactlin.matrix.entries_built"] += matrix.nrows * matrix.ncols

        self._patches.append((MatrixExact, "__init__", init))
        MatrixExact.__init__ = counted_init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def end_round(self) -> list:
        """Add the spans recorded so far to the totals, clear them and return
        them.  A span's self time is its duration minus its direct children's."""
        spans = list(self.spans)
        self.spans.clear()
        self_times = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_times[parent] -= end - start
        for (name, _, _, _), seconds in zip(spans, self_times):
            self.calls[name] += 1
            self.self_s[name] += seconds
        return spans


def write_jsonl(spans: list, path) -> None:
    with open(path, "w") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")

"""Spans and call counts recorded from outside ellf by wrapping module attributes.

``lift()`` and ``assemble()`` look their helpers up through module globals on
every call, and ``validate_metadata`` imports ``decode_one`` and
``load_image`` at call time, so replacing each binding of a function in the
``ellf`` modules is seen by every caller inside the package. Nothing under
``src/`` changes: the wrappers are installed for a traced pass and the
original objects are put back afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer functions timed as spans: home module -> function names. A span is
# named "<module>.<function>" after the home module, whichever module the call
# went through.
SPANNED = {
    "ellf.asm": ("parse_assembly", "assemble", "assemble_image", "roundtrip_check"),
    "ellf.elfio": ("read_elf", "load_image", "extract_section", "inject_section",
                   "build_elf"),
    "ellf.meta": ("metadata_from_json", "validate_metadata", "encode_metadata",
                  "decode_metadata"),
    "ellf.lifter": ("lift", "lift_unsymbolized", "generate_labels",
                    "coarse_symbolize", "text_symbolize", "stack_symbolize",
                    "data_symbolize", "build_cfg", "emit_assembly"),
}

# Functions called once per instruction or per lookup: a span each would cost
# more than the call, so only the calls are counted.
COUNTED = {
    "ellf.isa": ("decode_one", "encode_one"),
}
COUNTED_METHODS = {
    ("ellf.lifter", "LabelMap"): ("lookup",),
}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def is_ellf(module_name: str) -> bool:
    return module_name == "ellf" or module_name.startswith("ellf.")


def _ellf_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and is_ellf(name)]


class Tracer:
    """In-memory spans (name, start ns, end ns, parent index) and call counts.

    Counts are kept per root span, so calls made under one stage of one
    program are told apart from calls made under another.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(Counter)  # root span index -> calls by name
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, open_ = self.spans, self._open
        index = len(spans)
        spans.append([name, time.perf_counter_ns(), 0, open_[-1] if open_ else -1])
        open_.append(index)
        try:
            yield index
        finally:
            open_.pop()
            spans[index][2] = time.perf_counter_ns()

    def _timed(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
        return wrapper

    def _counted(self, name, fn):
        counts, open_ = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[open_[0] if open_ else -1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions in the ellf modules."""
        if self._saved:
            raise RuntimeError("tracing wrappers are already installed")
        replacements = {}  # id(original) -> (original, wrapper)
        for table, make in ((SPANNED, self._timed), (COUNTED, self._counted)):
            for module_name, names in table.items():
                home = sys.modules[module_name]
                for fn_name in names:
                    fn = getattr(home, fn_name)
                    replacements[id(fn)] = (fn, make(f"{_short(module_name)}.{fn_name}", fn))
        for mod in _ellf_modules():
            for attr, value in list(vars(mod).items()):
                found = replacements.get(id(value))
                if found is not None and found[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, found[1])
        for (module_name, cls_name), names in COUNTED_METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            for meth in names:
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._counted(f"{_short(module_name)}.{cls_name}.{meth}", fn))

    def restore(self) -> None:
        """Put back every original object replaced by install()."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def totals(self, roots) -> tuple[Counter, Counter, Counter]:
        """Totals over the given root spans and everything under them.

        Returns (inclusive ns per span name, self ns per span name, calls per
        span or counted name). Self time is a span's duration minus that of
        its direct children.
        """
        roots = set(roots)
        first = min(roots)
        root_of: dict[int, int] = {}
        inclusive, self_ns, calls = Counter(), Counter(), Counter()
        spans = self.spans
        for index in range(first, len(spans)):
            name, start, end, parent = spans[index]
            root = index if index in roots else root_of.get(parent)
            if root is None:
                continue
            root_of[index] = root
            calls[name] += 1
            inclusive[name] += end - start
            self_ns[name] += end - start
            if parent in root_of:
                self_ns[spans[parent][0]] -= end - start
        for root in roots:
            calls.update(self.counts.get(root, {}))
        return inclusive, self_ns, calls

    def write(self, path) -> None:
        """Write every span as [name index, start ns, end ns, parent index].

        Times count from the first span's start; parent -1 marks a root.
        """
        names: dict[str, int] = {}
        origin = self.spans[0][1] if self.spans else 0
        rows = [[names.setdefault(name, len(names)), start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))

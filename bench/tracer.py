"""Spans around the calls into each linkrank layer, installed from outside.

A wrapper is put at every name through which one package module reaches a
function of another (for example ``ranks.multiplicity`` or
``framed.stiefel_rank``), at the package names the benchmark itself calls
and at ``linkrank.cli.main``.  Each call records a span (name, start, end,
parent id, op id).  Self time is a span's duration minus the durations of its direct child
spans; since spans nest, the self times of all spans add up to the total
duration of the op spans.  Nothing here touches stdout.
"""

import json
import sys
from time import perf_counter

from workloads import multinomial

# names that no other package module imports but that the per-layer
# counts still need: a call inside liedim, and the CLI entry point
EXTRA_TARGETS = (("linkrank.liedim", "lie_component_dim"), ("linkrank.cli", "main"))


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "linkrank" or name.startswith("linkrank."))]


def find_caches():
    """Every functools cache object defined in the package, found by its
    cache_clear/cache_info methods rather than by name."""
    found = {}
    for mod in package_modules():
        for value in vars(mod).values():
            members = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            for obj in members:
                if (callable(getattr(obj, "cache_clear", None))
                        and callable(getattr(obj, "cache_info", None))
                        and getattr(obj, "__module__", None) == mod.__name__):
                    found[id(obj)] = obj
    return list(found.values())


def clear_caches(caches):
    for cache in caches:
        cache.cache_clear()


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, keep_spans):
        self.keep_spans = keep_spans
        self.spans = []
        self.dropped = 0
        self.stack = []  # [span id, name, start, time covered by children]
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {"solutions": 0, "nonzero": 0, "words": 0}
        self.next_id = 1
        self.op = -1
        self.installed = []

    def _enter(self, name):
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, name, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        span_id, name, start, covered = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        if len(self.spans) < self.keep_spans:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def wrap(self, name, fn):
        enter, leave = self._enter, self._exit
        counts = self.counts
        if name == "liedim.enumerate_diophantine":
            def note(args, kwargs, result):
                counts["solutions"] += len(result)
        elif name == "liedim.multiplicity":
            def note(args, kwargs, result):
                counts["nonzero"] += result != 0
        elif name in ("oracle.component_dim_bruteforce", "oracle.whitehead_map_analysis"):
            def note(args, kwargs, result):
                counts["words"] += multinomial(args[1] if len(args) > 1 else kwargs["x"])
        else:
            note = None

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every cross-module function reference in the package."""
        targets = []
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                home = getattr(value, "__module__", None) or ""
                if (callable(value) and not isinstance(value, type)
                        and home.startswith("linkrank.") and home != mod.__name__):
                    targets.append((mod, attr, value))
        for mod_name, attr in EXTRA_TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is not None and callable(getattr(mod, attr, None)):
                targets.append((mod, attr, getattr(mod, attr)))
        for mod, attr, value in targets:
            name = f"{_layer(value.__module__)}.{getattr(value, '__name__', attr)}"
            setattr(mod, attr, self.wrap(name, value))
            self.installed.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self.installed):
            setattr(mod, attr, value)
        self.installed = []

    def begin_op(self, index):
        self.op = index
        self._enter("bench.op")

    def end_op(self):
        self._exit()

    def write_spans(self, path):
        with open(path, "w") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                  "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self):
        """Calls and self seconds per span name, summed per layer."""
        calls = {}
        self_s = {}
        for name, (n, _, own) in self.stats.items():
            layer = name.split(".", 1)[0]
            calls[name] = n
            self_s[layer] = self_s.get(layer, 0.0) + own
        wall = self.stats.get("bench.op", [0, 0.0, 0.0])[1]
        return calls, self_s, wall


def cache_name(cache):
    return f"{_layer(cache.__module__)}.{cache.__qualname__}"


class CacheStats:
    """Hits and misses per cache, accumulated from cache_info() deltas
    around each op so that clearing a cache between ops loses nothing."""

    def __init__(self, caches):
        self.caches = caches
        self.totals = {cache_name(c): [0, 0] for c in caches}  # name -> [hits, misses]
        self.before = None

    def _snapshot(self):
        return [c.cache_info() for c in self.caches]

    def start(self):
        self.before = self._snapshot()

    def stop(self):
        for cache, old, new in zip(self.caches, self.before, self._snapshot()):
            total = self.totals[cache_name(cache)]
            total[0] += new.hits - old.hits
            total[1] += new.misses - old.misses

    def hit_ratios(self):
        """Hit ratio per cache name, such as ``ranks._link_report``; 0.0
        for a cache that had no lookups."""
        return {name: hits / (hits + misses) if hits + misses else 0.0
                for name, (hits, misses) in self.totals.items()}

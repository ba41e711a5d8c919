"""Charge a cProfile run's host time to the package's layers.

A layer is a module of ``repro`` (see ``LAYERS``).  A function's self time
goes to the layer of the file that defines it.  Builtins and standard
library code belong to no layer, so their self time is split across their
callers by the per-caller self time cProfile records, and charged to each
caller's layer; a caller outside the package passes its share on to its
own callers in proportion to their cumulative time.  Time that reaches no
package code (the benchmark's own loop, the interpreter) lands in
``other``.  Nothing is added to the program's hot path.
"""

import os

LAYERS = (
    "sim", "core.dispatcher", "core.worker", "core.policies",
    "core.preemption", "core.server", "workloads", "hardware", "metrics",
    "cluster", "faults", "obs", "parallel", "experiments", "other",
)

_CORE_FILES = {
    "dispatcher.py": "core.dispatcher",
    "worker.py": "core.worker",
    "policies.py": "core.policies",
    "logicalqueue.py": "core.policies",
    "preemption.py": "core.preemption",
}
_PACKAGES = {
    "sim", "workloads", "hardware", "metrics", "cluster", "faults", "obs",
    "parallel", "experiments",
}


def layer_of(filename, package_root):
    """The layer of a source file, or None for code outside the package."""
    prefix = package_root + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] == "core":
        return _CORE_FILES.get(parts[-1], "core.server")
    if len(parts) > 1 and parts[0] in _PACKAGES:
        return parts[0]
    return "other"


def _label(func, package_root):
    filename, line, name = func
    if filename == "~":
        return name
    if filename.startswith(package_root + os.sep):
        filename = "repro/" + filename[len(package_root) + 1:]
    else:
        filename = os.path.basename(filename)
    return "{}:{}({})".format(filename, line, name)


def attribute(stats, package_root):
    """Split profiled self time and calls over ``LAYERS``.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}``.  Returns
    ``(self_s, calls, top)``: seconds and call counts per layer, and per
    layer ``{function label: [seconds, calls]}`` of what was charged to it.
    Calls are exact: a package function counts in its own layer, a builtin
    or library call in the one layer its caller's time goes to (``other``
    when that time is split between layers).
    """
    own = {func: layer_of(func[0], package_root) for func in stats}
    memo = {}

    def spread(func, visiting):
        """Shares of ``func``'s time per layer."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting or func not in stats:
            return {"other": 1.0}
        visiting.add(func)
        callers = stats[func][4]
        total = sum(entry[3] for entry in callers.values())
        shares = {}
        if total > 0:
            for caller, entry in callers.items():
                for layer, share in spread(caller, visiting).items():
                    shares[layer] = shares.get(layer, 0.0) + share * entry[3] / total
        visiting.discard(func)
        memo[func] = shares or {"other": 1.0}
        return memo[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    top = {layer: {} for layer in LAYERS}

    def charge(layer, func, seconds, count):
        self_s[layer] += seconds
        calls[layer] += count
        row = top[layer].setdefault(_label(func, package_root), [0.0, 0])
        row[0] += seconds
        row[1] += count

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            charge(layer, func, tt, nc)
            continue
        caller_tt = sum(entry[2] for entry in callers.values())
        if not callers:
            charge("other", func, tt, nc)
            continue
        for caller, (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
            seconds = tt * c_tt / caller_tt if caller_tt > 0 else tt / len(callers)
            shares = spread(caller, set())
            for layer, share in shares.items():
                charge(layer, func, seconds * share, 0)
            charge(next(iter(shares)) if len(shares) == 1 else "other",
                   func, 0.0, c_nc)
    return self_s, calls, top


def top_functions(top, limit=10):
    """The ``limit`` costliest functions charged to each layer."""
    return {
        layer: [
            {"function": label, "self_s": seconds, "calls": count}
            for label, (seconds, count) in sorted(
                rows.items(), key=lambda item: -item[1][0])[:limit]
        ]
        for layer, rows in top.items()
    }

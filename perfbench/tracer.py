"""In-memory tracer installed around nil2q's public calls from outside src/.

`Tracer.install` replaces each public function and method of the traced
modules (and the element-level dunders named in DUNDERS) with a wrapper
that keeps a call stack.  On every return the wrapper charges the call's
own time, its duration minus the time of its traced children, to the
call's module; summed per module this is the layer's self time.  Coarse
calls, those lasting at least SPAN_MIN_S, are also kept as spans (op, id,
parent, name, start, end), up to SPAN_CAP per process; a parent lasts at
least as long as its child, so every kept span's parent is kept too.
Dunders and generator resumes are aggregates only.
Nothing is written until the caller asks for `snapshot()`.
"""

import importlib
import inspect
import time

MODULES = ["abelian", "nil2", "qmaps", "classify", "maltsev", "verify", "cli"]

# Element-level dunders kept as aggregates (count and time).
DUNDERS = {
    "AbElement": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "__hash__"),
    "FGAbelian": ("__eq__",),
    "Nil2Element": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "__hash__"),
    "Nil2Group": ("__eq__",),
}
# Constructors that are layer work in their own right.
INITS = ("SmithForm", "GroupOracle")
# Private functions that a per-layer metric names.
PRIVATE = ("classify._section_search", "maltsev._additive_iso_search")

SPAN_CAP = 20000
SPAN_MIN_S = 1e-3

# Timers: inclusive time of the outermost call of any listed name.
TIMERS = {
    "nil2.ingest_s": ("nil2.GroupOracle.__init__", "nil2.GroupOracle.from_text",
                      "nil2.semidirect", "nil2.table_of"),
    "nil2.canonicalize_s": ("nil2.canonicalize_finite",),
    "qmaps.eval_s": ("qmaps.QMap.eval",),
    "qmaps.bruteforce_s": ("qmaps.quadratic_functions_bruteforce",),
    "classify.witness_s": ("classify.find_niq_iso_witness",),
    "classify.section_search_s": ("classify._section_search",),
    "classify.group_iso_s": ("classify.groups_isomorphic", "classify.find_group_isomorphism"),
    "maltsev.log_criterion_s": ("maltsev.log_criterion_decide",),
}
_TIMER_OF = {name: timer for timer, names in TIMERS.items() for name in names}

WITNESS = "classify.find_niq_iso_witness"
CHECKS = ("qmaps.is_qmap_function", "qmaps.is_quadratic_function")
PARSE = ("cli.parse_definitions", "cli.resolve", "cli.build_expression")


def library_modules():
    """The traced nil2q modules by short name (nil2q must be importable)."""
    return {m: importlib.import_module(f"nil2q.{m}") for m in MODULES}


def _count(table, key, n=1):
    table[key] = table.get(key, 0) + n


class Tracer:
    """Call-stack tracer; `clock` is injectable so tests can drive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = 0                 # set by the benchmark before each op
        self.stack = []             # frames: [name, module, child_s, span_id]
        self.calls = {}             # name -> calls (generator: resumes)
        self.own = {}               # name -> own seconds
        self.yields = {}            # generator name -> items yielded
        self.raised = {}            # module -> exceptions escaping it
        self.timers = {}
        self.events = {}
        self.spans = []
        self.spans_dropped = 0
        self._next_id = 0
        self._installed = []

    # -- bookkeeping -------------------------------------------------------

    def enter(self, name, module):
        self._next_id += 1
        frame = [name, module, 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def leave(self, frame, t0, t1, ok, span):
        stack = self.stack
        stack.pop()
        name, module, child, span_id = frame
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.own[name] = self.own.get(name, 0.0) + (dur - child)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if not ok and (parent is None or parent[1] != module):
            _count(self.raised, module)
        timer = _TIMER_OF.get(name)
        if timer is not None:
            names = TIMERS[timer]
            if not any(f[0] in names for f in stack):
                self.timers[timer] = self.timers.get(timer, 0.0) + dur
        if span and dur >= SPAN_MIN_S:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, span_id, parent[3] if parent else 0,
                                   name, t0, t1))
            else:
                self.spans_dropped += 1

    def caller(self):
        return self.stack[-1][0] if self.stack else None

    def after(self, name, result):
        """Counts that depend on the result or on the caller."""
        if name in CHECKS:
            _count(self.events, "function_checks")
            if result:
                _count(self.events, "function_accepted")
            if self.caller() == WITNESS:
                _count(self.events, "witness_inverse_checks")
        elif name == "verify.run_suites":
            _count(self.events, "verify_checks", len(result))
        elif name == "maltsev.log_criterion_decide":
            _count(self.events, "log_criterion_calls")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, module, span=True):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, module)
        tracer, clock = self, self.clock
        hooked = name in CHECKS or name in ("verify.run_suites",
                                            "maltsev.log_criterion_decide")

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, module)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.leave(frame, t0, clock(), ok, span)
            if hooked:
                tracer.after(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name, module):
        tracer, clock = self, self.clock

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name, module)
                    t0 = clock()
                    ok = done = False
                    try:
                        item = next(it)
                        ok = True
                    except StopIteration:
                        ok = done = True
                    finally:
                        tracer.leave(frame, t0, clock(), ok, False)
                    if done:
                        return
                    _count(tracer.yields, name)
                    if name == "qmaps.enumerate_qmaps" and tracer.caller() == WITNESS:
                        _count(tracer.events, "witness_candidates")
                    yield item
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap the public surface of each module (a name -> module dict)."""
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if not attr.startswith("_") or name in PRIVATE:
                        self._patch(mod, attr, self.wrap(obj, name, short))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        dunders = DUNDERS.get(cls.__name__, ())
        for attr, val in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr in dunders:
                self._patch(cls, attr, self.wrap(val, name, short, span=False))
            elif attr == "__init__" and cls.__name__ in INITS:
                self._patch(cls, attr, self.wrap(val, name, short))
            elif attr.startswith("_"):
                continue
            elif isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self.wrap(val.__func__, name, short)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self.wrap(val, name, short))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "own": dict(self.own),
                "yields": dict(self.yields), "raised": dict(self.raised),
                "timers": dict(self.timers), "events": dict(self.events),
                "spans": [list(s) for s in self.spans],
                "spans_dropped": self.spans_dropped}


def merge(snapshots):
    """Sum snapshots; each span's op field is kept as given."""
    out = {"calls": {}, "own": {}, "yields": {}, "raised": {}, "timers": {},
           "events": {}, "spans": [], "spans_dropped": 0}
    for snap in snapshots:
        for key in ("calls", "own", "yields", "raised", "timers", "events"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["spans"].extend(snap["spans"])
        out["spans_dropped"] += snap["spans_dropped"]
    return out


def self_times(snap):
    """Module -> self seconds: the own time of every call in the module."""
    out = {m: 0.0 for m in MODULES}
    for name, s in snap["own"].items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + s
    return out


def _sum(table, *names):
    return sum(table.get(n, 0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """Every per-layer metric, by name, from a (merged) snapshot.  The cli
    boot and import times are measured outside the tracer and added by the
    caller."""
    calls, own, ev = snap["calls"], snap["own"], snap["events"]
    timers, raised = snap["timers"], snap["raised"]
    selfs = self_times(snap)
    ops = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
    m = {
        "abelian.element_calls": calls.get("abelian.FGAbelian.element", 0),
        "abelian.op_calls": _sum(calls, *(f"abelian.AbElement.{o}" for o in ops)),
        "abelian.eq_calls": calls.get("abelian.AbElement.__eq__", 0),
        "abelian.group_eq_calls": calls.get("abelian.FGAbelian.__eq__", 0),
        "abelian.smith_calls": calls.get("abelian.SmithForm.__init__", 0),
        "abelian.homs_enumerated": snap["yields"].get("abelian.enumerate_homs", 0),
        "nil2.add_calls": _sum(calls, *(f"nil2.Nil2Element.{o}" for o in ops)),
        "nil2.eq_calls": calls.get("nil2.Nil2Element.__eq__", 0),
        "nil2.hash_calls": calls.get("nil2.Nil2Element.__hash__", 0),
        "nil2.group_eq_calls": calls.get("nil2.Nil2Group.__eq__", 0),
        "qmaps.enumerated": _sum(snap["yields"], "qmaps.enumerate_qmaps",
                                 "qmaps.enumerate_homs"),
        "qmaps.enumerate_self_s": _sum(own, "qmaps.enumerate_qmaps",
                                       "qmaps.enumerate_homs"),
        "qmaps.eval_calls": calls.get("qmaps.QMap.eval", 0),
        "qmaps.function_checks": ev.get("function_checks", 0),
        "qmaps.function_accepted": ev.get("function_accepted", 0),
        "qmaps.function_accept_ratio": _ratio(ev.get("function_accepted", 0),
                                              ev.get("function_checks", 0)),
        "classify.witness_candidates": ev.get("witness_candidates", 0),
        "classify.witness_inverse_checks": ev.get("witness_inverse_checks", 0),
        "classify.witness_check_ratio": _ratio(ev.get("witness_inverse_checks", 0),
                                               ev.get("witness_candidates", 0)),
        "maltsev.log_criterion_calls": ev.get("log_criterion_calls", 0),
        "verify.checks": ev.get("verify_checks", 0),
        "cli.parse_ms": 1000.0 * _sum(own, *PARSE),
    }
    for timer in TIMERS:
        m[timer] = timers.get(timer, 0.0)
    for module in MODULES:
        m[f"{module}.self_s"] = selfs.get(module, 0.0)
        m[f"{module}.raised"] = raised.get(module, 0)
    return m

"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


# -- the percentile rule -----------------------------------------------------

def test_p90_needs_ten_samples_beyond():
    assert run.p90(list(range(99))) is None
    samples = list(range(100, 0, -1))
    value = run.p90(samples)
    assert value == 90
    assert sum(1 for s in samples if s > value) == 10


def test_p90_is_a_sample_and_grows_with_n():
    samples = [float(i) for i in range(250)]
    value = run.p90(samples)
    assert value in samples
    assert sum(1 for s in samples if s > value) >= 10


# -- the reference unit -------------------------------------------------------

def test_reference_uses_the_median_of_the_samples_around_an_op():
    values = iter([1.0] * 4 + [9.0] + [2.0] * 7)
    ref = reference.Reference(loop=lambda: next(values))
    for _ in range(12):
        ref.sample(force=True)
    assert reference.Reference.WINDOW == 6
    assert ref.around(ref.times[0]) == 1.0
    assert ref.around(ref.times[-1]) == 2.0
    assert ref.around(ref.times[4]) == 1.5      # the 9.0 outlier does not count


def test_reference_loop_leaves_the_collector_as_it_found_it():
    import gc
    assert gc.isenabled()
    assert reference.reference_loop() > 0
    assert gc.isenabled()


# -- self-time subtraction ---------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def fake_module(name, source, **env):
    mod = types.ModuleType(f"fake.{name}")
    mod.__dict__.update(env)
    exec(source, mod.__dict__)
    return mod


@pytest.fixture
def traced():
    clock = FakeClock()
    nil2 = fake_module("nil2", """
def inner():
    clock.tick(5)

def broken():
    clock.tick(1)
    raise ValueError("boom")
""", clock=clock)
    qmaps = fake_module("qmaps", """
def outer():
    clock.tick(2)
    nil2.inner()
    helper()
    clock.tick(1)

def helper():
    clock.tick(1)
    nil2.inner()

def catches():
    try:
        nil2.broken()
    except ValueError:
        pass

def _private():
    clock.tick(100)

def gen():
    for i in range(3):
        clock.tick(1)
        yield i
""", clock=clock, nil2=nil2)
    t = tr.Tracer(clock=clock)
    t.install({"nil2": nil2, "qmaps": qmaps})
    yield t, clock, nil2, qmaps
    t.uninstall()


def test_self_time_subtracts_children_in_other_modules(traced):
    t, clock, nil2, qmaps = traced
    qmaps.outer()
    selfs = tr.self_times(t.snapshot())
    # outer spans 14 s: 10 s in two nil2.inner calls, 4 s of qmaps code,
    # one of them in the nested qmaps.helper, counted once.
    assert selfs["qmaps"] == 4
    assert selfs["nil2"] == 10
    assert t.snapshot()["calls"] == {"qmaps.outer": 1, "qmaps.helper": 1, "nil2.inner": 2}


def test_spans_record_parents(traced):
    t, clock, nil2, qmaps = traced
    qmaps.outer()
    spans = {s[3]: s for s in t.snapshot()["spans"]}
    assert spans["qmaps.outer"][2] == 0
    assert spans["qmaps.helper"][2] == spans["qmaps.outer"][1]
    assert spans["qmaps.outer"][5] - spans["qmaps.outer"][4] == 14


def test_raised_counts_escapes_at_the_module_boundary(traced):
    t, clock, nil2, qmaps = traced
    qmaps.catches()
    with pytest.raises(ValueError):
        nil2.broken()
    assert t.snapshot()["raised"] == {"nil2": 2}


def test_private_functions_are_left_alone_and_generators_are_timed(traced):
    t, clock, nil2, qmaps = traced
    qmaps._private()
    assert list(qmaps.gen()) == [0, 1, 2]
    snap = t.snapshot()
    assert "qmaps._private" not in snap["calls"]
    assert snap["yields"] == {"qmaps.gen": 3}
    assert tr.self_times(snap)["qmaps"] == 3


def test_uninstall_restores_originals(traced):
    t, clock, nil2, qmaps = traced
    wrapped = qmaps.outer
    t.uninstall()
    assert qmaps.outer is wrapped.__wrapped__


def test_merge_sums_counts():
    a = {"calls": {"x": 1}, "own": {"x": 0.5}, "yields": {}, "raised": {},
         "timers": {}, "events": {"function_checks": 2}, "spans": [[0, 1, 0, "x", 0, 1]],
         "spans_dropped": 0}
    merged = tr.merge([a, a])
    assert merged["calls"] == {"x": 2} and merged["own"] == {"x": 1.0}
    assert len(merged["spans"]) == 2
    assert tr.layer_metrics(merged)["qmaps.function_checks"] == 4


# -- golden comparison -------------------------------------------------------

@pytest.fixture(scope="module")
def lib():
    return wl.import_library()


@pytest.fixture(scope="module")
def goldens():
    import json
    with open(wl.GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def test_enumerate_golden_accepts_and_rejects_altered_output(lib, goldens):
    pair = ("Z4", "Q8")
    _, tables = wl.run_enumerate_op(pair, lib)
    assert wl.check_enumerate(pair, tables, goldens)
    altered = [row[:] for row in tables]
    altered[0] = altered[1][:]          # same count, one table changed
    assert not wl.check_enumerate(pair, altered, goldens)
    assert not wl.check_enumerate(pair, tables[1:], goldens)


def test_bruteforce_golden_accepts_and_rejects_altered_output(lib, goldens):
    op = ("Z2", "Q8", "qmap")
    _, tables = wl.run_bruteforce_op(op, lib)
    assert wl.check_bruteforce(op, tables, goldens)
    assert not wl.check_bruteforce(op, tables[:-1] + [tables[0]], goldens)


def test_decide_golden_checks_exit_code_and_verdict_lines(goldens):
    query = ["iso", "D4", "Q8", "--category", "nil"]
    good = {"exit": 1, "stdout": "iso D4 Q8 category=nil: NO\n"}
    assert wl.check_decide(query, good, goldens)
    assert not wl.check_decide(query, dict(good, exit=0), goldens)
    assert not wl.check_decide(query, dict(good, stdout="iso D4 Q8 category=nil: YES\n"),
                               goldens)
    error = ["iso", "Q8", "free(2)"]
    assert wl.check_decide(error, {"exit": 2, "stdout": "error: reworded message\n"}, goldens)


def test_altered_output_counts_as_a_failed_op(lib, goldens, monkeypatch):
    setup = types.SimpleNamespace(workload="bruteforce", lib=lib, goldens=goldens)
    runner = run.Runner(setup)
    op = ("Z2", "Z2", "qmap")
    runner.run(op, 0)
    assert runner.failed == 0
    monkeypatch.setattr(wl, "run_bruteforce_op", lambda op, lib: (0.001, [(0, 0)]))
    runner.run(op, 1)

    def boom(op, lib):
        raise RuntimeError("crash")
    monkeypatch.setattr(wl, "run_bruteforce_op", boom)
    runner.run(op, 2)
    assert (len(runner.latencies), runner.failed) == (3, 2)


def test_element_index_matches_enumeration_order(lib):
    catalog, nil2, _ = lib
    for name in wl.GROUP_NAMES:
        g = wl.build_group(name, catalog, nil2)
        assert [wl.element_index(z) for z in g.elements()] == list(range(g.order()))

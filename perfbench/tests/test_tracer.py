"""The span tracer: self-time arithmetic, binding replacement, transparency."""

import inspect
import itertools
import sys

import numpy as np

import layers
import oplimits
import oplimits.cli
from tracer import LAYERS, Span, Tracer, installed, public_functions, self_times


def _span(parent, start, end):
    span = Span("f", parent, 0)
    span.start, span.end = start, end
    return span


def test_self_time_is_duration_minus_children():
    spans = [
        _span(None, 0.0, 10.0),
        _span(0, 1.0, 3.0),
        _span(1, 1.5, 2.5),
        _span(0, 4.0, 6.0),
    ]
    assert self_times(spans) == [10.0 - 2.0 - 2.0, 2.0 - 1.0, 1.0, 2.0]


def test_overlapping_children_are_covered_once():
    # children from two threads overlap on [2, 3]; one runs past the parent
    spans = [_span(None, 0.0, 10.0), _span(0, 1.0, 3.0), _span(0, 2.0, 5.0),
             _span(0, 9.0, 12.0)]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_nested_calls_record_parent_and_pass():
    ticks = itertools.count()
    tracer = Tracer(pass_id=7, clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("inner", lambda: 1, (), {})

    assert tracer.call("outer", inner, (), {}) == 1
    outer, inner_span = tracer.spans
    assert (outer.parent, inner_span.parent) == (None, 0)
    assert {outer.pass_id, inner_span.pass_id} == {7}
    # outer 0..3, inner 1..2: self times sum to the root duration
    assert self_times(tracer.spans) == [2.0, 1.0]


def _originals():
    return {fn for layer in LAYERS for fn in public_functions(layer).values()}


def _bindings():
    """(namespace, key, value) for every function an oplimits module binds."""
    for name, mod in list(sys.modules.items()):
        if name != "oplimits" and not name.startswith("oplimits."):
            continue
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                yield name, attr, value
            elif isinstance(value, dict):
                for key, item in value.items():
                    if inspect.isfunction(item):
                        yield name, f"{attr}[{key!r}]", item


def test_every_binding_of_a_wrapped_name_is_replaced():
    originals = _originals()
    before = {(m, a): v for m, a, v in _bindings()}
    with installed(Tracer()):
        assert oplimits.harness.build_sm_kernel is oplimits.iterates.build_sm_kernel
        assert oplimits.harness.build_sm_kernel.__wrapped__ in originals
        for module in ("generator", "harness"):
            assert getattr(oplimits, module).sm_apply is oplimits.operators.sm_apply
            assert getattr(oplimits, module).weight_eval is oplimits.funcspace.weight_eval
        assert oplimits.sm_apply is oplimits.operators.sm_apply
        assert oplimits.harness._RUNNERS["semigroup"] is \
            oplimits.harness.run_semigroup_convergence
        left = [(m, a) for m, a, v in _bindings() if v in originals]
        assert left == []
    assert {(m, a): v for m, a, v in _bindings()} == before


def test_wrapping_leaves_every_report_byte_identical(tmp_path):
    def reports(tag):
        out = {}
        for experiment in ("voronovskaya", "semigroup", "kelisky-rivlin",
                           "korovkin", "weak-convergence"):
            path = tmp_path / tag / f"{experiment}.csv"
            oplimits.cli.main([experiment, "--out", str(path)])
            out[experiment] = path.read_bytes()
        return out

    # reports echo their own path, so both runs write to the same one
    plain = reports("run")
    tracer = Tracer()
    with installed(tracer):
        traced = reports("run")
    assert traced == plain
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "harness.run_experiment", "harness.emit_report",
            "operators.sm_apply", "iterates.kernel_iterate",
            "iterates.chain_terminal_values", "mc.ks_distance"} <= names
    roots = {span.name for span in tracer.spans if span.parent is None}
    assert roots == {"cli.main"}


def test_layer_metrics_count_the_work_of_each_call():
    tracer = Tracer(notes=layers.NOTES)
    with installed(tracer):
        oplimits.sm_apply(10, np.exp, 0.5)
        oplimits.iterates.chain_terminal_values(4, 3, 1.0, 50, np.random.default_rng(0))
        oplimits.semigroup_mc(oplimits.diffusion.FELLER, 0.01, 1.0, np.exp, 100, seed=1,
                              method=oplimits.diffusion.METHOD_EULER)
    wall = tracer.spans[-1].end - tracer.spans[0].start
    m = layers.layer_metrics(tracer.spans, wall, lambda n, x, eps: 1000 * n + x,
                             oplimits.mc.resolve_workers)
    assert set(m) == {name for name, _, _ in layers.PER_LAYER} - {"trace.overhead_s"}
    assert m["operators.sm_apply.calls"] == 1
    assert m["operators.sm_apply.terms"] == 10000.5
    assert m["iterates.chain_terminal_values.sample_steps"] == 150
    assert m["mc.sample_across_workers.calls"] == 1
    assert m["mc.sample_across_workers.streams"] == 4
    assert 0.0 < m["mc.sample_across_workers.overlap"] <= 1.0
    assert m["diffusion.feller_euler_terminal.path_steps_per_s"] > 0.0
    assert m["iterates.kernel_iterate.steps"] == 0
    assert 0.0 < sum(m[f"{layer}.self_share"] for layer in LAYERS) <= 1.0

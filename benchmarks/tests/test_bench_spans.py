"""Span bookkeeping: nesting, self time, patching and step attribution."""

import pytest

import spans as sp
import workloads


def test_self_time_is_duration_minus_children():
    spans = [
        ["run", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 1.5, 2.5, 1],
        ["a.child", 3.0, 3.5, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert sp.self_times(spans) == [3.0, 1.5, 1.0, 0.5, 4.0]
    assert sp.children(spans, 0) == [1, 4]


def test_recorder_nests_and_wraps():
    rec = sp.Recorder()

    def inner(x):
        return x + 1

    wrapped = rec.wrap("inner", inner)
    with rec.span("outer"):
        assert wrapped(1) == 2
        assert wrapped(2) == 3
    assert [(s[sp.NAME], s[sp.PARENT]) for s in rec.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[sp.END] >= s[sp.START] for s in rec.spans)
    selfs = sp.self_times(rec.spans)
    assert selfs[0] == pytest.approx(sp.durations(rec.spans)[0]
                                     - sum(sp.durations(rec.spans)[1:]))


def test_wrapped_exception_still_closes_span():
    rec = sp.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    with rec.span("after"):
        pass
    assert rec.spans[1][sp.PARENT] == -1


def test_wrap_context_times_enter_and_exit_but_not_body():
    from contextlib import contextmanager
    events = []

    @contextmanager
    def cm():
        events.append("enter")
        yield
        events.append("exit")

    rec = sp.Recorder()
    with rec.wrap_context("cm", cm)():
        begin = sp.CLOCK()
        while sp.CLOCK() - begin < 0.02:   # CPU work inside the body
            pass
    assert events == ["enter", "exit"]
    assert [s[sp.NAME] for s in rec.spans] == ["cm", "cm"]
    assert sum(sp.durations(rec.spans)) < 0.01


def test_patches_restore_class_and_instance_attributes():
    class K:
        def f(self):
            return "class"

    k = K()
    with sp.Patches() as patches:
        patches.set(K, "f", lambda self: "patched")
        patches.set(k, "f", lambda: "instance")
        assert k.f() == "instance"
        assert K().f() == "patched"
    assert k.f() == "class" and "f" not in vars(k)


def test_digest_steps_exclude_eval_and_setup():
    spans = [
        ["run", 0.0, 10.0, -1],
        ["load", 0.0, 1.0, 0],            # set-up, before the first step
        [workloads.CALIBRATE, 1.5, 1.75, 0],
        ["step", 2.0, 2.5, 0],
        ["inner", 2.6, 3.0, 0],
        [workloads.CALIBRATE, 3.5, 4.0, 0],
        ["step", 4.0, 4.5, 0],
        ["eval", 5.0, 7.0, 0],
        ["eval.child", 5.5, 6.0, 7],
    ]
    d = workloads.Digest()
    workloads.digest_run(d, spans, "step", "eval")
    assert d.steps == 2
    assert d.setup_s == [1.75]                      # 0..2 minus calibration
    assert d.calibration_s == [0.25, 0.5]
    # 2..4 minus calibration; 4..10 minus 2 s of eval.
    assert list(d.step_ms) == [1500.0, 4000.0]
    assert d.step_s == 5.5
    assert d.eval_s == 2.0 and d.eval_calls == 1
    assert d.setup_spans == {"load": [1.0]}
    # Step time covered by no span: (2..4 minus 1.4) + (4..10 minus 2.5).
    assert d.step_self_s == pytest.approx(0.6 + 3.5)
    assert sorted(d.by_name) == ["inner", "step"]
    assert d.by_name["step"] == [2, 1.0, 1.0]


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    d = workloads.Digest()
    workloads.digest_run(d, [["run", 0.0, 3.0, -1], ["step", 1.0, 1.5, 0],
                             ["step", 2.0, 2.5, 0]], "step")
    ref = workloads.STEP_CAL_REF_S
    d.calibration_s += [2 * ref, 2 * ref]
    slow = workloads.Measured({False: d}, 1, None, ref)
    assert slow.scale == 0.5
    m = workloads.end_to_end(slow, eval_items=10, eval_s=2.0)
    assert m["steps_per_s"][0] == pytest.approx(2 / (2.0 * 0.5))
    assert m["step_ms_p50"][0] == pytest.approx(500.0)
    assert m["setup_s"][0] == pytest.approx(0.5)
    assert m["eval_items_per_s"][0] == pytest.approx(10.0)
    assert m["bench.calibration_ms"][0] == pytest.approx(2e3 * ref)


def test_samples_with_their_own_scale_ignore_the_run_scale():
    d = workloads.Digest(steps=2, step_s=1.0, setup_s=[1.0, 3.0])
    d.step_ms.extend([10.0, 30.0])
    d.sample_scale += [2.0, 0.5]
    d.calibration_s += [workloads.SLICE_REF_S]
    m = workloads.end_to_end(workloads.Measured({False: d}, 1, None, workloads.SLICE_REF_S),
                             eval_items=1, eval_s=1.0)
    assert m["step_ms_p50"][0] == pytest.approx(17.5)   # median of 20 and 15
    assert m["setup_s"][0] == pytest.approx(1.75)       # median of 2 and 1.5
    assert m["steps_per_s"][0] == pytest.approx(2.0)    # run scale 1


def test_mark_first_call_records_once_then_gets_out_of_the_way():
    class K:
        def f(self, x):
            return x * 2

    k = K()
    rec = sp.Recorder()
    rec.mark_first_call(k, "f", "first")
    with rec.span("outer"):
        assert k.f(2) == 4
        assert k.f(3) == 6
    assert "f" not in vars(k)
    assert [(s[sp.NAME], s[sp.PARENT]) for s in rec.spans] == [("outer", -1), ("first", 0)]
    assert rec.spans[1][sp.START] == rec.spans[1][sp.END]


def test_untraced_saddle_pass_adds_one_sample_per_pass():
    grid = workloads.SaddleGrid("g", cells=(("quadratic-saddle", 1e-3, 0.1),),
                                optimizers=("sgd", "nag"))
    trials = grid.trials(0)
    expected = workloads.reference_counts(grid)
    tally, d = workloads.Tally(), workloads.Digest()
    for _ in range(2):
        workloads.saddle_pass(grid, trials, False, tally, expected, d)
    assert tally.failed == 0, tally.problems
    assert d.steps == 2 * sum(expected.values())
    assert len(d.step_ms) == len(d.setup_s) == 2
    assert d.eval_calls == 2 * len(trials) * workloads.VALUE_GRAD_BLOCK and d.eval_s > 0
    assert len(d.calibration_s) == 2 * len(trials)
    assert len(d.sample_scale) == 2 and all(x > 0 for x in d.sample_scale)
    assert d.by_name == {}

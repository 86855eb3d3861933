"""Output checks: a failing check is counted in failed_share."""

import math

import workloads

TINY = workloads.Training(
    "tiny", "mnist", n_train=128, n_test=20, settings=dict(
        arch="mlp:8", opt_kind="nag", opt_layerwise=True, schedule_t0=0.01,
        batch_size=64, max_iterations=3, checkpoints=(2, 3)))

TINY_GRID = workloads.SaddleGrid("tiny-grid", cells=(("quadratic-saddle", 1e-3, 0.1),),
                                 optimizers=("sgd", "nag"))


def test_check_training_tolerances():
    rows = [[3, 2.0, 50.0]]
    assert workloads.check_training(rows, [[3, 2.0 * (1 + 1e-7), 50.0]], 20) == []
    assert workloads.check_training(rows, [[3, 2.0, 55.0]], 20) == []  # one image
    assert workloads.check_training(rows, [[3, 2.0 * (1 + 1e-5), 50.0]], 20)
    assert workloads.check_training(rows, [[3, 2.0, 60.0]], 20)
    assert workloads.check_training([[3, math.nan, 50.0]], [[3, 2.0, 50.0]], 20)
    assert workloads.check_training(rows, [[2, 2.0, 50.0]], 20)


def test_tally_share():
    tally = workloads.Tally()
    tally.record([])
    tally.record(["bad"])
    assert (tally.attempted, tally.failed, tally.failed_share) == (2, 1, 0.5)


def _golden(tmp_path):
    return {"tiny": workloads.reference_rows(TINY, str(tmp_path / "ref"))}


def test_training_run_passes_on_recorded_values(tmp_path):
    golden = _golden(tmp_path)
    result = workloads.run_training(TINY, 1, 0.01, False, str(tmp_path / "w"), golden)
    assert result.tally.failed == 0, result.tally.problems
    # The reference run, every timed run, and the gradient check.
    assert result.tally.attempted == result.runs + 2
    assert result.metrics["steps_per_s"][0] > 0


def test_training_golden_mismatch_raises_failed_share(tmp_path):
    golden = _golden(tmp_path)
    golden["tiny"][-1][1] *= 1.01
    result = workloads.run_training(TINY, 1, 0.01, False, str(tmp_path / "w"), golden)
    assert result.tally.failed == 1 and result.tally.failed_share > 0
    assert "loss" in result.tally.problems[0]


def test_traced_training_reports_exact_counts(tmp_path):
    golden = _golden(tmp_path)
    result = workloads.run_training(TINY, 2, 0.02, True, str(tmp_path / "w"), golden)
    assert result.tally.failed == 0, result.tally.problems
    m = result.metrics
    # 3 layer groups from the harness, 2 non-empty ones inside the step.
    assert m["tensor.group_norm.calls_per_step"][0] == 5.0
    assert m["nn.0-fully-connected.fwd_ms"][0] > 0
    assert "optim.lookahead_ms" in m
    shares = [v for k, (v, _, _) in m.items() if k.endswith(".self_pct")]
    assert math.isclose(sum(shares), 100.0)


def test_saddle_count_mismatch_raises_failed_share():
    golden = {"tiny-grid": workloads.reference_counts(TINY_GRID)}
    ok = workloads.run_saddle(TINY_GRID, 5, 0.01, False, golden)
    assert ok.tally.failed == 0 and ok.metrics["steps_per_s"][0] > 0
    key = next(iter(golden["tiny-grid"]))
    golden["tiny-grid"][key] += 1
    bad = workloads.run_saddle(TINY_GRID, 5, 0.01, False, golden)
    assert bad.tally.failed_share > 0
    assert any(key in p for p in bad.tally.problems)

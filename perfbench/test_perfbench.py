"""Checks of the benchmark itself: its oracles, its determinism and its tracer.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fractalcalc import special, staircase  # noqa: E402


def _ml_series(a, b, z):
    with mpmath.workdps(50):
        a, b, z = (mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in (a, b, z))
        return float(oracles._ml_mp(a, b, z, mpmath.mp))


# -- oracles --------------------------------------------------------------------


def test_cantor_moments_match_known_values():
    m = oracles.cantor_moments(4)
    assert m[:4] == [Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16)]
    assert m[4] == Fraction(87, 320)
    # the README's f_alpha_integral(x^2) over [0, 1]
    assert float(m[2]) == 0.375


def test_measure_integral_adds_one_measure_per_unit_cell():
    m = oracles.cantor_moments(2)
    # integral of x over [0, 2]: m_1 + (1 + m_1)
    assert oracles.measure_integral([Fraction(0), Fraction(1)], 2, m) == (Fraction(2), Fraction(2))
    total, scale = oracles.measure_integral([Fraction(1), Fraction(-1)], 1, m)
    assert (total, scale) == (Fraction(1, 2), Fraction(3, 2))


def test_power_rules_and_laplace_images():
    assert oracles.rl_integral_power(1.0, 0.0, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert oracles.rl_integral_power(0.5, 1.0, 1.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-15)
    assert oracles.rl_derivative_power(0.5, 0.5, 0.3) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
    assert oracles.laplace_power(0.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert oracles.laplace_power(2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        oracles.rl_derivative_power(0.5, -0.6, 0.3)


def test_half_order_mittag_leffler_closed_form():
    assert oracles.ml_half_half(0.7) == pytest.approx(2.48128105534, abs=1e-10)
    for z in (-1.0, 0.0, 0.4, 1.0):
        assert oracles.ml_half_half(z) == pytest.approx(_ml_series(0.5, 0.5, z), abs=1e-14)


def test_example_closed_forms_at_special_points():
    assert oracles.example_value(1, 0.25, 0.0) == pytest.approx(1 + 2 / math.sqrt(math.pi), rel=1e-15)
    assert oracles.example_value(2, 1.0, 0.0) == pytest.approx(-4 / (3 * math.sqrt(math.pi)), rel=1e-15)
    # lam = 0 leaves only the leading series terms of example 4
    w = 0.6
    want = w ** (1 / 3) / math.gamma(4 / 3) + 2 * w ** (10 / 3) / math.gamma(13 / 3)
    assert oracles.example_value(4, w, 0.0) == pytest.approx(want, rel=1e-14)


def test_ternary_digit_oracles():
    assert oracles.from_ternary([2]) == Fraction(2, 3)
    assert oracles.from_ternary([0, 2]) == Fraction(2, 9)
    assert oracles.ternary_in_set(Fraction(2, 3))
    assert oracles.ternary_in_set(Fraction(8, 9))
    assert not oracles.ternary_in_set(Fraction(1, 3))
    assert not oracles.ternary_in_set(Fraction(7, 9))
    assert not oracles.ternary_in_set(Fraction(1, 4))


def test_digit_built_points_sit_where_their_label_says():
    rng = workloads.random.Random(7)
    for _ in range(200):
        x, expected = workloads._digit_point(rng, "gap")
        assert not expected
        # strictly inside some removed middle third (a/3^k + 1/3^k, a/3^k + 2/3^k)
        k = 1
        while True:
            scaled = x * 3**k
            if math.floor(scaled) % 3 == 1 and scaled != math.floor(scaled):
                break
            assert math.floor(scaled) % 3 != 1
            k += 1
    for category in ("in", "endpoint"):
        x, expected = workloads._digit_point(rng, category)
        assert expected


def test_mittag_leffler_defect_is_not_reached():
    # example 4 evaluates eta = 4/3 down to z = -10.003; example 3's variant
    # evaluates E_{1/2,1/2} down to z = -1.05
    for nu in (Fraction(4, 3), Fraction(5, 6), Fraction(13, 3)):
        want = _ml_series(Fraction(4, 3), nu, -10.003)
        assert special.mittag_leffler(4 / 3, float(nu), -10.003) == pytest.approx(want, abs=1e-12)
    assert special.mittag_leffler(0.5, 0.5, -1.05) == pytest.approx(_ml_series(0.5, 0.5, -1.05), abs=1e-14)


def test_known_miss_covers_only_the_recorded_op_within_its_cap():
    u = Fraction(1, 5)
    assert workloads._pointwise_known_miss(("rl_integral", 1.5, 2.0, u, None), 1.0787)
    assert not workloads._pointwise_known_miss(("rl_integral", 1.5, 2.0, u, None), 1.2)
    assert not workloads._pointwise_known_miss(("rl_integral", 1.4, 2.0, u, None), 1.0787)
    assert not workloads._pointwise_known_miss(("rl_integral", 1.5, 2.0, Fraction(1), None), 1.0787)
    assert not workloads._pointwise_known_miss(("rl_derivative", 1.5, 2.0, u, None), 1.0787)


# -- determinism and the runner ---------------------------------------------------


@pytest.fixture(scope="module")
def sf():
    return workloads.staircase()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name, sf):
    wl = workloads.WORKLOADS[name]
    first = workloads.make_ops(wl, 11, sf)
    assert workloads.make_ops(wl, 11, sf) == first
    assert workloads.make_ops(wl, 12, sf) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_ops_pass_their_oracles(name, sf):
    wl = workloads.WORKLOADS[name]
    for op in wl.warmup_ops(sf):
        assert wl.check(op, wl.summary(wl.run(op, sf))) <= 1.0


def _traced_counts(wl, ops, sf, passes):
    t = tracing.Tracer()
    for _ in range(passes):
        with t:
            for op in ops:
                wl.run(op, sf)
    return t.summary()


@pytest.mark.parametrize("name, prefix", [("pointwise-ops", 8), ("example-solve", 2), ("exact-measure", 400)])
def test_per_layer_counts_repeat_exactly(name, prefix, sf):
    wl = workloads.WORKLOADS[name]
    ops = workloads.make_ops(wl, 5, sf)[:prefix]
    a = _traced_counts(wl, ops, sf, passes=2)
    b = _traced_counts(wl, ops, sf, passes=1)
    assert not a["drift"]
    counts = lambda s: {k: v["calls"] for k, v in s["by_name"].items()}  # noqa: E731
    assert counts(a) == counts(b)
    assert a["mesh_nodes"] == b["mesh_nodes"]
    assert sum(counts(a).values()) > 0


def test_tracer_restores_the_original_names():
    before = staircase.StaircaseFn.__dict__["eval_exact"]
    with tracing.Tracer():
        assert staircase.StaircaseFn.__dict__["eval_exact"] is not before
    assert staircase.StaircaseFn.__dict__["eval_exact"] is before


def test_runner_lists_every_workload():
    import run

    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert run.percentile(list(range(1, 101)), 90) == 90


def _fake_workload(outputs):
    """A workload whose op k returns outputs[k][i] on its i-th execution, and
    1.0 once those run out. The check is |value - 1|: 1.0 passes, 2.5 misses."""
    calls = [0] * len(outputs)

    def run_op(op, sf):
        k = op[1]
        calls[k] += 1
        value = outputs[k][calls[k] - 1] if calls[k] <= len(outputs[k]) else 1.0
        if isinstance(value, Exception):
            raise value
        return value

    def known_miss(op, ratio):
        return op[0] == "known" and ratio <= workloads.KNOWN_MISS_CAP

    return workloads.Workload("fake", None, None, run_op, lambda out: out, lambda op, v: abs(v - 1.0), known_miss)


def test_every_execution_is_checked_not_only_the_first():
    import run

    # op 1 goes wrong on its second execution only
    wl = _fake_workload([[], [1.0, 2.5]])
    ops = [("a", 0), ("b", 1)]
    *_, executions, first, differed = run.run_ops(wl, None, ops, seconds=0.05)
    assert executions >= 4
    assert differed == [(1, 2.5)]
    failed, worst, correct, _ = run.check_ops(wl, ops, first, differed, executions)
    assert (failed, worst, correct) == (1, 1.5, False)


def test_any_exception_makes_the_run_incorrect():
    import run
    from fractalcalc.exceptions import ConvergenceError

    wl = _fake_workload([[ConvergenceError("gave up")], [1.0]])
    ops = [("a", 0), ("b", 1)]
    *_, executions, first, differed = run.run_ops(wl, None, ops)
    failed, _, correct, notes = run.check_ops(wl, ops, first, differed, executions)
    assert (failed, correct) == (1, False)
    assert "ConvergenceError" in notes[0]


def test_known_miss_keeps_the_run_correct_only_below_its_cap():
    import run

    ops = [("known", 0)]
    for value, ok in ((2.05, True), (2.2, False)):
        wl = _fake_workload([[value]])
        *_, executions, first, differed = run.run_ops(wl, None, ops)
        failed, _, correct, _ = run.check_ops(wl, ops, first, differed, executions)
        assert (failed, correct) == (1, ok)


def test_setup_probe_starts_its_clock_before_numpy_and_the_library_load():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", "pointwise-ops",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=150, cwd=HERE.parent, check=True,
    )
    sample = json.loads(proc.stdout.splitlines()[-1])
    assert sample["preloaded"] == []
    assert sample["raw_s"] > 0


def test_speed_scale_follows_the_local_reference_time():
    import speed

    log = speed.SpeedLog()
    nominal = speed.REFERENCE_NOMINAL_S
    log.at.extend(float(t) for t in range(40))
    log.took.extend([nominal] * 20 + [2 * nominal] * 20)
    scale = log.scale([2.5, 37.5])
    assert scale.tolist() == pytest.approx([1.0, 0.5])
    assert log.mean_scale() == pytest.approx(2 / 3)

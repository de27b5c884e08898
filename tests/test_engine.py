import itertools

import numpy as np
import pytest

from mimoiwf.contraction import certify
from mimoiwf.engine import (
    Schedule,
    ScheduleError,
    check_nash,
    make_schedule,
    run_game,
    trace_to_csv,
)
from mimoiwf.netmodel import sample_channels, symmetric_config
from mimoiwf.precode import build_effective_network
from mimoiwf.waterfill import (
    PowerProfile,
    greedy_profile,
    random_profile,
    uniform_profile,
)

from oracles import (
    explicit_net,
    ragged_net,
    reference_async_schedule,
    reference_best_response,
    reference_run_game,
)


def random_net(seed, cross=45.0):
    cfg = symmetric_config(4, 2, 2, 10.0, 1.0, 15.0, cross, 2.5)
    return build_effective_network(sample_channels(cfg, seed), cfg)


def test_jacobi_schedule_updates_everyone():
    s = make_schedule("jacobi", 3, it_max=5)
    assert s.update_sets == ((0, 1, 2),) * 5
    assert s.delay_bound == 0 and s.update_bound == 1
    assert s.delays is None


def test_gauss_seidel_schedule_cycles():
    s = make_schedule("gauss_seidel", 3, it_max=7)
    assert s.update_sets == ((0,), (1,), (2,), (0,), (1,), (2,), (0,))
    assert s.update_bound == 3


def test_random_schedule_respects_bounds():
    s = make_schedule("random_async", 4, it_max=200, seed=11, delay_bound=3, update_bound=5)
    last = {q: -1 for q in range(4)}
    for n, members in enumerate(s.update_sets):
        for q in range(4):
            if q in members:
                last[q] = n
            assert n - last[q] < 5, f"user {q} idle too long at step {n}"
    assert s.delays.shape == (200, 4, 4)
    assert s.delays.max() <= 3 and s.delays.min() >= 0
    assert np.all(s.delays[:, range(4), range(4)] == 0)
    # deterministic given the seed
    s2 = make_schedule("random_async", 4, it_max=200, seed=11, delay_bound=3, update_bound=5)
    assert s.update_sets == s2.update_sets
    np.testing.assert_array_equal(s.delays, s2.delays)


def test_random_schedule_matches_step_by_step_loop():
    for num_users in (1, 3, 4):
        for delay_bound in (0, 1, 3):
            for update_bound in (1, 2, 5):
                for seed in (0, 7, 123456789):
                    s = make_schedule(
                        "random_async",
                        num_users,
                        it_max=60,
                        seed=seed,
                        delay_bound=delay_bound,
                        update_bound=update_bound,
                    )
                    sets, delays = reference_async_schedule(
                        num_users, 60, seed, delay_bound, update_bound
                    )
                    assert s.update_sets == sets
                    assert s.delays.dtype == delays.dtype
                    np.testing.assert_array_equal(s.delays, delays)


def test_schedule_read_after_an_early_stop_is_the_whole_plan():
    net = random_net(0)
    for delay_bound, update_bound in ((3, 5), (0, 1), (2, 3)):
        sets, delays = reference_async_schedule(4, 120, 9, delay_bound, update_bound)
        for delays_first in (True, False):
            sched = make_schedule(
                "random_async", 4, it_max=120, seed=9, delay_bound=delay_bound,
                update_bound=update_bound,
            )
            trace = run_game(net, sched, tol=1e-6)
            assert trace.converged and trace.iterations_used < 120
            assert trace.updated == list(sets[: trace.iterations_used])
            if delays_first:
                np.testing.assert_array_equal(sched.delays, delays)
            assert sched.update_sets == sets
            assert sched.delays.dtype == delays.dtype
            np.testing.assert_array_equal(sched.delays, delays)


def test_games_draw_only_the_steps_they_play():
    sets, delays = reference_async_schedule(4, 100, 3, 3, 5)
    pulled = []

    def steps():
        for step in zip(sets, delays):
            pulled.append(step)
            yield step

    sched = Schedule("random_async", 100, [], 3, 5, 3, [], steps())
    net = random_net(1)
    starts = (uniform_profile(net.config), greedy_profile(net.config))
    played = [run_game(net, sched, start).iterations_used for start in starts]
    assert len(pulled) == max(played) < 100
    assert sched.update_sets == sets and len(pulled) == 100


def assert_same_trace(a, b):
    np.testing.assert_array_equal(a.states, b.states)
    assert a.residuals == b.residuals and a.updated == b.updated
    assert (a.converged, a.iterations_used, a.nash_gap) == (b.converged, b.iterations_used, b.nash_gap)
    np.testing.assert_array_equal(a.final_rates, b.final_rates)


def test_start_order_does_not_change_an_on_demand_schedule():
    for seed in range(3):
        net = ragged_net(seed)
        rng = np.random.default_rng(seed)
        starts = [uniform_profile(net.config), greedy_profile(net.config)]
        starts.append(random_profile(net.config, rng))
        for delay_bound, update_bound in ((0, 1), (0, 3), (1, 1), (3, 5)):
            def plan():
                return make_schedule(
                    "random_async", 3, it_max=80, seed=seed, delay_bound=delay_bound,
                    update_bound=update_bound,
                )

            full = plan()
            assert len(full.update_sets) == 80  # draws the whole horizon
            sets, delays = reference_async_schedule(3, 80, seed, delay_bound, update_bound)
            by_hand = Schedule("random_async", 80, sets, delay_bound, update_bound, seed, delays)
            expected = [run_game(net, full, start, tol=1e-9) for start in starts]
            for start, want in zip(starts, expected):
                assert_same_trace(run_game(net, by_hand, start, tol=1e-9), want)
            for order in itertools.permutations(range(3)):
                lazy = plan()
                for i in order:
                    assert_same_trace(run_game(net, lazy, starts[i], tol=1e-9), expected[i])


def test_random_schedule_degenerates_to_jacobi():
    s = make_schedule("random_async", 3, it_max=10, seed=5, delay_bound=0, update_bound=1)
    assert s.update_sets == ((0, 1, 2),) * 10


def test_schedule_validation():
    with pytest.raises(ScheduleError, match="kind"):
        make_schedule("roundrobin", 3)
    with pytest.raises(ScheduleError):
        make_schedule("jacobi", 0)
    with pytest.raises(ScheduleError, match="delay_bound"):
        make_schedule("random_async", 3, delay_bound=-1)


def test_single_user_converges_in_one_update():
    net = explicit_net([np.diag([3.0, 1.0])], {}, [10.0], [1.0])
    trace = run_game(net, make_schedule("jacobi", 1))
    assert trace.converged
    np.testing.assert_allclose(
        trace.profiles[1].powers[0], [49.0 / 9.0, 41.0 / 9.0], atol=1e-10
    )
    np.testing.assert_allclose(
        trace.profiles[-1].powers[0], [49.0 / 9.0, 41.0 / 9.0], atol=1e-10
    )
    assert trace.nash_gap <= 1e-12


def test_two_user_scalar_reaches_full_power_in_one_step():
    net = explicit_net(
        [np.eye(1), np.eye(1)],
        {(1, 0): np.array([[0.5]]), (0, 1): np.array([[0.5]])},
        [2.0, 3.0],
        [1.0, 1.0],
    )
    start = PowerProfile([np.array([0.5]), np.array([1.0])])
    trace = run_game(net, make_schedule("jacobi", 2), start)
    np.testing.assert_allclose(trace.profiles[1].stacked(), [2.0, 3.0], atol=1e-12)
    assert trace.converged
    assert trace.iterations_used == 2  # second sweep confirms the fixed point
    assert trace.nash_gap == 0.0


def test_stale_views_read_the_right_states():
    # Two users, each with two parallel scalar links (direct gains 2 and 1,
    # unit noise, budget 2). Only stream 0 of the other user interferes, with
    # normalized gain 0.5, so both streams stay active and the response is
    # p0 = 1.375 - 0.25 * v, p1 = 2 - p0, where v is the viewed stream-0
    # power of the other user. With one stream per user the response would be
    # the full budget whatever the view, and the ages would not show.
    leak = np.diag([np.sqrt(2.0), 0.0])
    net = explicit_net(
        [np.diag([2.0, 1.0])] * 2, {(0, 1): leak, (1, 0): leak}, [2.0, 2.0], [1.0, 1.0]
    )
    delays = np.zeros((4, 2, 2), dtype=np.int64)
    delays[0, 0, 1] = delays[0, 1, 0] = 2  # older than the start: reads it
    delays[1, 0, 1] = 3  # user 0 still sees the start at step 1
    delays[2, 0, 1] = 1  # user 0 sees the state after step 1
    delays[3, 1, 0] = 3  # user 1 sees the start at step 3
    sched = Schedule("random_async", 4, ((0, 1), (0, 1), (0,), (0, 1)), 3, 2, 0, delays)
    start = PowerProfile([np.array([2.0, 0.0]), np.array([0.0, 2.0])])
    trace = run_game(net, sched, start, tol=1e-12)

    # stream-0 powers (user 0, user 1) after each step, worked by hand:
    # a1 = g(b0), b1 = g(a0); a2 = g(b0), b2 = g(a1); a3 = g(b1), b3 = b2;
    # a4 = g(b3), b4 = g(a0)
    p0 = [(2.0, 0.0), (1.375, 0.875), (1.375, 1.03125), (1.15625, 1.03125), (1.1171875, 0.875)]
    assert trace.iterations_used == 4 and not trace.converged
    assert trace.updated == [(0, 1), (0, 1), (0,), (0, 1)]
    for n, (a, b) in enumerate(p0):
        np.testing.assert_allclose(
            trace.profiles[n].stacked(), [a, 2.0 - a, b, 2.0 - b], atol=1e-12, err_msg=f"step {n}"
        )


def test_batched_game_matches_per_user_loop():
    starts = (uniform_profile, greedy_profile)
    for seed in range(6):
        net = ragged_net(seed)
        assert [net.num_streams(q) for q in range(3)] == [2, 2, 1]
        for kind, d, b in (
            ("jacobi", 0, 1),
            ("gauss_seidel", 0, 3),
            ("random_async", 3, 5),
        ):
            sched = make_schedule(kind, 3, it_max=80, seed=seed, delay_bound=d, update_bound=b)
            start = starts[seed % 2](net.config)
            trace = run_game(net, sched, start, tol=1e-9)
            states, residuals, converged, gap, rates = reference_run_game(net, sched, start, 1e-9)
            assert len(trace.residuals) == len(residuals), (seed, kind)
            assert trace.converged == converged, (seed, kind)
            assert len(trace.profiles) == len(states)
            for prof, state in zip(trace.profiles, states):
                np.testing.assert_allclose(prof.stacked(), state, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.residuals, residuals, rtol=0, atol=1e-12)
            assert abs(trace.nash_gap - gap) <= 1e-12
            np.testing.assert_allclose(trace.final_rates, rates, rtol=0, atol=1e-12)


def test_trace_shapes_and_residuals():
    net = random_net(1)
    trace = run_game(net, make_schedule("jacobi", 4, it_max=50))
    assert len(trace.profiles) == trace.iterations_used + 1
    assert trace.states.shape == (trace.iterations_used + 1, 8)
    assert not trace.states.flags.writeable
    for n, prof in enumerate(trace.profiles):
        np.testing.assert_array_equal(prof.stacked(), trace.states[n])
    np.testing.assert_array_equal(trace.profile().stacked(), trace.states[-1])
    assert len(trace.residuals) == trace.iterations_used
    assert len(trace.updated) == trace.iterations_used
    assert trace.final_rates.shape == (4,)
    if trace.converged:
        assert trace.residuals[-1] < 1e-6


def test_converged_games_sit_at_fixed_point():
    for seed in range(10):
        net = random_net(seed)
        trace = run_game(net, make_schedule("jacobi", 4), tol=1e-9)
        if not trace.converged:
            continue
        final = trace.profiles[-1]
        x = final.stacked()
        for q in range(4):
            np.testing.assert_allclose(
                final.powers[q], reference_best_response(net, x, q), atol=1e-6
            )
        assert trace.nash_gap <= 1e-6


def test_schedules_share_fixed_point():
    for seed in range(8):
        net = random_net(seed)
        finals = []
        for kind, d, b in (
            ("jacobi", 0, 1),
            ("gauss_seidel", 0, 4),
            ("random_async", 3, 5),
        ):
            sched = make_schedule(kind, 4, it_max=200, seed=seed, delay_bound=d, update_bound=b)
            trace = run_game(net, sched, tol=1e-9)
            assert trace.converged, f"{kind} failed to converge on seed {seed}"
            finals.append(trace.profiles[-1].stacked())
        for other in finals[1:]:
            assert np.abs(finals[0] - other).max() <= 1e-6


def test_multiple_starts_agree_when_certified():
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(40):
        net = random_net(seed, cross=55.0)
        if certify(net).spectral_radius >= 1.0:
            continue
        finals = []
        for _ in range(10):
            trace = run_game(
                net, make_schedule("jacobi", 4), random_profile(net.config, rng), tol=1e-9
            )
            assert trace.converged
            finals.append(trace.profiles[-1].stacked())
        for a in range(len(finals)):
            for b in range(a + 1, len(finals)):
                assert np.abs(finals[a] - finals[b]).max() <= 1e-5
        checked += 1
        if checked >= 5:
            break
    assert checked >= 1


def test_perturbed_profile_has_positive_gap():
    net = random_net(2)
    trace = run_game(net, make_schedule("jacobi", 4), tol=1e-9)
    assert trace.converged
    prof = trace.profiles[-1].copy()
    moved = prof.powers[0].copy()
    # shift mass between antennas so the budget stays binding
    hi = int(np.argmax(moved))
    lo = (hi + 1) % moved.size
    delta = 0.2 * moved[hi]
    moved[hi] -= delta
    moved[lo] += delta
    prof.powers[0] = moved
    assert check_nash(net, prof) > 1e-3
    assert check_nash(net, trace.profiles[-1]) <= 1e-6


def test_game_rejects_infeasible_start():
    net = random_net(3)
    bad = uniform_profile(net.config)
    bad.powers[0] = bad.powers[0] * 3.0
    with pytest.raises(ValueError, match="budget"):
        run_game(net, make_schedule("jacobi", 4), bad)


def test_empirical_rate_within_modulus_bound():
    # soft version of the contraction-rate fit: geometric decay of the
    # residual tail should not beat the certified modulus by much
    passed = total = 0
    for seed in range(30):
        net = random_net(seed, cross=50.0)
        cert = certify(net)
        if cert.row_norm >= 1.0:
            continue
        trace = run_game(net, make_schedule("jacobi", 4), tol=1e-13)
        tail = [
            (k, np.log(r)) for k, r in enumerate(trace.residuals) if r > 1e-13
        ][1:]
        total += 1
        if len(tail) < 3:
            passed += 1
            continue
        ks = np.array([k for k, _ in tail])
        logs = np.array([v for _, v in tail])
        slope = np.polyfit(ks, logs, 1)[0]
        if np.exp(slope) <= cert.row_norm + 0.05:
            passed += 1
    assert total >= 5
    assert passed / total >= 0.9


def test_trace_csv_export(tmp_path):
    net = random_net(4)
    trace = run_game(net, make_schedule("jacobi", 4, it_max=20))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,user,antenna,power,residual"
    assert len(lines) == 1 + len(trace.profiles) * 8
    trace_to_csv(trace, str(tmp_path / "trace2.csv"))
    assert (tmp_path / "trace2.csv").read_bytes() == path.read_bytes()

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
from mimoiwf.waterfill import greedy_profile, random_profile, uniform_profile

from oracles import (
    explicit_net,
    num_streams,
    ragged_net,
    reference_async_schedule,
    reference_best_response,
    reference_run_game,
)


def random_net(seed, cross=45.0):
    cfg = symmetric_config(4, 2, 2, 10.0, 1.0, 15.0, cross, 2.5)
    return build_effective_network(sample_channels(cfg, seed), cfg)


def whole_plan(s):
    """Every step of a schedule up to it_max: (update sets, list of view ages)."""
    steps = [s.step(n) for n in range(s.it_max)]
    return tuple(members for members, _ in steps), [ages for _, ages in steps]


def assert_plan(s, sets, delays):
    """s plans the given update sets and view ages; a fresh step (no ages)
    matches ages that are all zero."""
    got_sets, got_ages = whole_plan(s)
    assert got_sets == tuple(sets)
    for n, ages in enumerate(got_ages):
        if ages is None:
            np.testing.assert_array_equal(delays[n], 0)
        else:
            assert ages.dtype == delays.dtype
            np.testing.assert_array_equal(ages, delays[n])


def test_jacobi_schedule_updates_everyone():
    s = make_schedule("jacobi", 3, it_max=5)
    assert whole_plan(s) == (((0, 1, 2),) * 5, [None] * 5)
    assert s.delay_bound == 0 and s.update_bound == 1


def test_gauss_seidel_schedule_cycles():
    s = make_schedule("gauss_seidel", 3, it_max=7)
    assert whole_plan(s) == (((0,), (1,), (2,), (0,), (1,), (2,), (0,)), [None] * 7)
    assert s.update_bound == 3


def test_random_schedule_respects_bounds():
    s = make_schedule("random_async", 4, it_max=200, seed=11, delay_bound=3, update_bound=5)
    sets, ages = whole_plan(s)
    last = {q: -1 for q in range(4)}
    for n, members in enumerate(sets):
        for q in range(4):
            if q in members:
                last[q] = n
            assert n - last[q] < 5, f"user {q} idle too long at step {n}"
    delays = np.array(ages)
    assert delays.shape == (200, 4, 4)
    assert delays.max() <= 3 and delays.min() >= 0
    assert np.all(delays[:, range(4), range(4)] == 0)
    # deterministic given the seed
    s2 = make_schedule("random_async", 4, it_max=200, seed=11, delay_bound=3, update_bound=5)
    assert_plan(s2, sets, delays)


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
                    assert_plan(s, sets, delays)
                    if delay_bound == 0:
                        assert whole_plan(s)[1] == [None] * 60


def test_schedule_read_after_an_early_stop_is_the_whole_plan():
    net = random_net(0)
    for delay_bound, update_bound in ((3, 5), (0, 1), (2, 3)):
        sets, delays = reference_async_schedule(4, 120, 9, delay_bound, update_bound)
        sched = make_schedule(
            "random_async", 4, it_max=120, seed=9, delay_bound=delay_bound,
            update_bound=update_bound,
        )
        trace = run_game(net, sched, tol=1e-6)
        assert trace.converged and trace.iterations_used < 120
        played = [sched.step(n)[0] for n in range(trace.iterations_used)]
        assert played == list(sets[: trace.iterations_used])
        assert_plan(sched, sets, delays)


def test_games_draw_only_the_steps_they_play():
    sets, delays = reference_async_schedule(4, 100, 3, 3, 5)
    pulled = []

    def steps():
        for step in zip(sets, delays):
            pulled.append(step)
            yield step

    sched = Schedule(4, 100, steps(), 3, 5)
    net = random_net(1)
    starts = (uniform_profile(net.config), greedy_profile(net.config))
    played = [run_game(net, sched, start).iterations_used for start in starts]
    assert len(pulled) == max(played) < 100
    assert_plan(sched, sets, delays)
    assert len(pulled) == 100


def assert_same_trace(a, b):
    np.testing.assert_array_equal(a.states, b.states)
    assert a.residuals == b.residuals
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
            sets, delays = reference_async_schedule(3, 80, seed, delay_bound, update_bound)
            assert_plan(full, sets, delays)  # draws the whole horizon
            by_hand = Schedule(3, 80, list(zip(sets, delays)), delay_bound, update_bound)
            expected = [run_game(net, full, start, tol=1e-9) for start in starts]
            for start, want in zip(starts, expected):
                assert_same_trace(run_game(net, by_hand, start, tol=1e-9), want)
            assert_plan(by_hand, sets, delays)
            for order in itertools.permutations(range(3)):
                lazy = plan()
                for i in order:
                    assert_same_trace(run_game(net, lazy, starts[i], tol=1e-9), expected[i])
                assert_plan(lazy, sets, delays)


def test_random_schedule_degenerates_to_jacobi():
    s = make_schedule("random_async", 3, it_max=10, seed=5, delay_bound=0, update_bound=1)
    assert whole_plan(s) == (((0, 1, 2),) * 10, [None] * 10)


def test_schedule_validation():
    with pytest.raises(ScheduleError, match="kind"):
        make_schedule("roundrobin", 3)
    with pytest.raises(ScheduleError, match="num_users must be an integer >= 1, got 0"):
        make_schedule("jacobi", 0)
    with pytest.raises(ScheduleError, match="delay_bound must be an integer >= 0, got -1"):
        make_schedule("random_async", 3, delay_bound=-1)
    with pytest.raises(ScheduleError, match="update_bound must be an integer >= 1, got 0"):
        make_schedule("random_async", 3, update_bound=0)


def test_schedule_counts_must_be_integers():
    for name, kwargs in (
        ("num_users", {"num_users": True}),
        ("num_users", {"num_users": 2.0}),
        ("it_max", {"it_max": 2.5}),
        ("delay_bound", {"delay_bound": 1.5}),
        ("update_bound", {"update_bound": False}),
    ):
        args = {"num_users": 2, **kwargs}
        with pytest.raises(ScheduleError, match=f"{name} must be an integer >= "):
            make_schedule("jacobi", **args)
    s = make_schedule("random_async", np.int64(2), it_max=np.int64(3), delay_bound=np.int64(1))
    assert len(whole_plan(s)[0]) == 3


def test_schedule_seed_is_checked_when_built():
    for seed in (-1, 2.5, "7", True):
        with pytest.raises(ScheduleError, match=f"seed must be an integer >= 0, got {seed!r}"):
            make_schedule("random_async", 2, seed=seed)
    s = make_schedule("random_async", 2, it_max=3, seed=np.uint64(7))
    assert whole_plan(s) == whole_plan(make_schedule("random_async", 2, it_max=3, seed=7))


def fresh_plan(*sets):
    """A hand-built plan: each update set with fresh views."""
    return [(members, None) for members in sets]


def test_hand_built_plan_is_checked():
    with pytest.raises(ScheduleError, match="step 2: the plan ends before it_max = 3"):
        whole_plan(Schedule(2, 3, fresh_plan((0, 1), (0, 1))))
    with pytest.raises(ScheduleError, match="step 1: user -1 is not in a 2-user network"):
        whole_plan(Schedule(2, 3, fresh_plan((0, 1), (-1,), (0,))))
    for bad in (True, 1.0, "0"):
        with pytest.raises(ScheduleError, match=f"step 0: user {bad!r} is not in a 2-user network"):
            Schedule(2, 3, fresh_plan((0, bad))).step(0)
    s = Schedule(2, 3, fresh_plan(*[(0, 1)] * 4))  # steps past it_max are never pulled
    assert whole_plan(s) == (((0, 1),) * 3, [None] * 3)
    with pytest.raises(IndexError):
        s.step(3)
    for name, args in (
        ("num_users", (True, 3)),
        ("num_users", (0, 3)),
        ("it_max", (2, 2.0)),
        ("it_max", (2, 0)),
    ):
        with pytest.raises(ScheduleError, match=f"{name} must be an integer >= 1"):
            Schedule(*args, fresh_plan((0,)))
    with pytest.raises(ScheduleError, match="update_bound must be an integer >= 1, got 0"):
        Schedule(2, 3, fresh_plan((0,)), 1, 0)


def test_game_rejects_a_schedule_for_another_network():
    net = explicit_net([np.eye(1), np.eye(1)], {}, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ScheduleError, match="step 1: user 5 is not in a 2-user network"):
        run_game(net, Schedule(2, 3, fresh_plan((0,), (5,), (1,))))
    with pytest.raises(ScheduleError, match="schedule for 3 users, network of 2"):
        run_game(net, make_schedule("jacobi", 3))
    with pytest.raises(ScheduleError, match=r"step 0: view ages have shape \(3, 3\)"):
        run_game(net, Schedule(2, 3, [((0, 1), np.zeros((3, 3), dtype=np.int64))] * 3, 1, 1))
    with pytest.raises(ScheduleError, match=r"step 0: view ages have shape \(3,\)"):
        run_game(net, Schedule(2, 3, [((0, 1), np.zeros(3, dtype=np.int64))] * 3, 1, 1))
    with pytest.raises(ScheduleError, match=r"step 0: view ages .* dtype float64"):
        run_game(net, Schedule(2, 3, [((0, 1), np.zeros((2, 2)))] * 3, 1, 1))
    trace = run_game(net, Schedule(2, 3, [((0, 1), np.zeros((2, 2), dtype=np.int64))] * 3, 1, 1))
    assert trace.converged


def test_view_ages_outside_the_bound_are_rejected():
    sets = ((0, 1),) * 4
    delays = np.zeros((4, 2, 2), dtype=np.int64)
    delays[:, 0, 1] = -2  # a view from the future
    with pytest.raises(ScheduleError, match=r"step 0: user 0 views user 1 at age -2, outside 0\.\.3"):
        whole_plan(Schedule(2, 4, list(zip(sets, delays)), 3, 2))
    delays[:, 0, 1] = 0
    delays[2, 1, 0] = 4
    with pytest.raises(ScheduleError, match=r"step 2: user 1 views user 0 at age 4, outside 0\.\.3"):
        whole_plan(Schedule(2, 4, list(zip(sets, delays)), 3, 2))
    delays[2, 1, 0] = 3
    assert_plan(Schedule(2, 4, list(zip(sets, delays)), 3, 2), sets, delays)
    with pytest.raises(ScheduleError, match="delay_bound must be an integer >= 0, got -1"):
        Schedule(2, 4, list(zip(sets, delays)), -1, 2)
    # with delay_bound 0 the ages must all be 0, and the views are fresh
    with pytest.raises(ScheduleError, match=r"step 2: user 1 views user 0 at age 3, outside 0\.\.0"):
        whole_plan(Schedule(2, 4, list(zip(sets, delays)), 0, 2))
    delays[2, 1, 0] = 0
    assert whole_plan(Schedule(2, 4, list(zip(sets, delays)), 0, 2)) == (sets, [None] * 4)


def test_drawn_plan_steps_are_checked_when_pulled():
    net = explicit_net([np.eye(1), np.eye(1)], {}, [1.0, 1.0], [1.0, 1.0])
    ok = np.zeros((2, 2), dtype=np.int64)

    def ages(q, r, age):
        out = ok.copy()
        out[q, r] = age
        return out

    # a user below 0 no longer updates the last user
    with pytest.raises(ScheduleError, match="step 0: user -1 is not in a 2-user network"):
        run_game(net, Schedule(2, 3, iter(fresh_plan((-1,), (0,), (1,))), 0, 2))
    # a view from the future no longer reads an unwritten history row
    with pytest.raises(ScheduleError, match=r"step 0: user 0 views user 1 at age -2, outside 0\.\.3"):
        run_game(net, Schedule(2, 3, iter([((0, 1), ages(0, 1, -2))] * 3), 3, 1))
    # an age past delay_bound no longer raises IndexError or reads history row -1
    with pytest.raises(ScheduleError, match=r"step 0: user 1 views user 0 at age 3, outside 0\.\.1"):
        run_game(net, Schedule(2, 3, iter([((0, 1), ages(1, 0, 3))] * 3), 1, 1))
    steps = iter([((0, 1), ok), ((0, 1), ages(1, 0, 3)), ((0, 1), ok)])
    with pytest.raises(ScheduleError, match=r"step 1: user 1 views user 0 at age 3, outside 0\.\.1"):
        run_game(net, Schedule(2, 3, steps, 1, 1), tol=0.0)
    # a plan shorter than it_max no longer escapes as StopIteration
    with pytest.raises(ScheduleError, match="step 2: the plan ends before it_max = 5"):
        run_game(net, Schedule(2, 5, iter(fresh_plan((0,), (1,))), 0, 2), tol=0.0)
    # ages of the wrong shape are refused at every step, not only at the first
    # step with those members
    steps = iter([((0, 1), ok), ((0, 1), np.zeros((3, 3), dtype=np.int64)), ((0, 1), ok)])
    with pytest.raises(ScheduleError, match=r"step 1: view ages have shape \(3, 3\)"):
        run_game(net, Schedule(2, 3, steps, 1, 1), tol=0.0)


def test_zero_delay_async_game_reads_fresh_views():
    for seed in range(4):
        net = ragged_net(seed)
        sched = make_schedule("random_async", 3, it_max=80, seed=seed, delay_bound=0, update_bound=3)
        start = greedy_profile(net.config)
        trace = run_game(net, sched, start, tol=1e-9)
        assert all(sched.step(n)[1] is None for n in range(trace.iterations_used))
        states, residuals, converged, gap, rates = reference_run_game(net, sched, start, 1e-9)
        assert (trace.converged, len(trace.residuals)) == (converged, len(residuals))
        played = [sched.step(n)[0] for n in range(trace.iterations_used)]
        assert played == list(reference_async_schedule(3, 80, seed, 0, 3)[0][: len(played)])
        np.testing.assert_allclose(trace.states, np.array(states), rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.residuals, residuals, rtol=0, atol=1e-12)
        assert abs(trace.nash_gap - gap) <= 1e-12
        np.testing.assert_allclose(trace.final_rates, rates, rtol=0, atol=1e-12)


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
    start = np.array([0.5, 1.0])
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
    sched = Schedule(2, 4, list(zip(((0, 1), (0, 1), (0,), (0, 1)), delays)), 3, 2)
    start = np.array([2.0, 0.0, 0.0, 2.0])
    trace = run_game(net, sched, start, tol=1e-12)

    # stream-0 powers (user 0, user 1) after each step, worked by hand:
    # a1 = g(b0), b1 = g(a0); a2 = g(b0), b2 = g(a1); a3 = g(b1), b3 = b2;
    # a4 = g(b3), b4 = g(a0)
    p0 = [(2.0, 0.0), (1.375, 0.875), (1.375, 1.03125), (1.15625, 1.03125), (1.1171875, 0.875)]
    assert trace.iterations_used == 4 and not trace.converged
    played = [sched.step(n)[0] for n in range(trace.iterations_used)]
    assert played == [(0, 1), (0, 1), (0,), (0, 1)]
    for n, (a, b) in enumerate(p0):
        np.testing.assert_allclose(
            trace.profiles[n].stacked(), [a, 2.0 - a, b, 2.0 - b], atol=1e-12, err_msg=f"step {n}"
        )


def test_batched_game_matches_per_user_loop():
    starts = (uniform_profile, greedy_profile)
    for seed in range(6):
        net = ragged_net(seed)
        assert [num_streams(net, q) for q in range(3)] == [2, 2, 1]
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
    sched = make_schedule("jacobi", 4, it_max=50)
    trace = run_game(net, sched)
    assert len(trace.profiles) == trace.iterations_used + 1
    assert trace.states.shape == (trace.iterations_used + 1, 8)
    assert not trace.states.flags.writeable
    for n, prof in enumerate(trace.profiles):
        np.testing.assert_array_equal(prof.stacked(), trace.states[n])
    assert len(trace.residuals) == trace.iterations_used
    played = [sched.step(n)[0] for n in range(trace.iterations_used)]
    assert played == [(0, 1, 2, 3)] * trace.iterations_used
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
    x = trace.states[-1].copy()
    moved = x[:2]  # user 0's antennas
    # shift mass between antennas so the budget stays binding
    hi = int(np.argmax(moved))
    lo = (hi + 1) % moved.size
    delta = 0.2 * moved[hi]
    moved[hi] -= delta
    moved[lo] += delta
    assert check_nash(net, x) > 1e-3
    assert check_nash(net, trace.states[-1]) <= 1e-6


def test_game_rejects_infeasible_start():
    net = random_net(3)
    bad = uniform_profile(net.config)
    bad[:2] *= 3.0  # user 0's antennas
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

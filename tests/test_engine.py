import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mimoiwf import engine
from mimoiwf.cli import network_from_dict
from mimoiwf.contraction import certify
from mimoiwf.engine import (
    SCHEDULE_KINDS,
    Schedule,
    ScheduleError,
    check_nash,
    make_schedule,
    run_game,
    trace_to_csv,
)
from mimoiwf.netmodel import NetworkConfig, sample_channels
from mimoiwf.precode import build_effective_network
from mimoiwf.waterfill import (
    best_responses,
    greedy_profile,
    random_profile,
    stream_floors,
    sum_rate,
    uniform_profile,
    user_rates,
)

from oracles import (
    explicit_net,
    num_streams,
    ragged_net,
    reference_async_schedule,
    reference_best_response,
    reference_run_game,
    reference_settled,
)


def random_net(seed, cross=45.0):
    cfg = NetworkConfig(4, 2, 2, 10.0, 1.0, 15.0, cross, 2.5)
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
    # delay_bound 2 draws from a range of 3, which numpy's bounded draw may
    # reject and redraw; update_bound 11 outlasts a block, so a forced move
    # counts from a coin move of an earlier block; it_max 61 is not a
    # multiple of the block; 3 users draw 9 ages a step, half of the 64-bit
    # word numpy buffers for them stays for the next step
    assert 61 % engine._BLOCK and 11 > engine._BLOCK
    for num_users in (1, 3, 4):
        for delay_bound in (0, 1, 2, 3):
            for update_bound in (1, 2, 5, 11):
                for seed in (0, 7, 123456789):
                    s = make_schedule(
                        "random_async",
                        num_users,
                        it_max=61,
                        seed=seed,
                        delay_bound=delay_bound,
                        update_bound=update_bound,
                    )
                    sets, delays = reference_async_schedule(
                        num_users, 61, seed, delay_bound, update_bound
                    )
                    assert_plan(s, sets, delays)
                    if delay_bound == 0:
                        assert whole_plan(s)[1] == [None] * 61


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
    for bad, source in itertools.product((True, 1.0, "0", np.int64(5), -1), (list, iter)):
        # a refused member is named wherever it stands in the step
        for members in ((bad,), (0, bad), (bad, 1)):
            message = f"step 0: user {bad!r} is not in a 2-user network"
            with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
                Schedule(2, 3, source(fresh_plan(members))).step(0)
    s = Schedule(2, 3, fresh_plan(*[(0, 1)] * 4))  # steps past it_max are never pulled
    assert whole_plan(s) == (((0, 1),) * 3, [None] * 3)
    with pytest.raises(ScheduleError, match=r"^step must be an integer in 0\.\.2, got 3$"):
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


def test_a_repeated_member_plays_like_one_entry():
    # (0, 0) names as many users as the network has, yet only user 0 moves
    cfg = NetworkConfig(2, 2, 2, 1e4, 1.0, 15.0, 20.0, 2.5)
    net = build_effective_network(sample_channels(cfg, 4), cfg)
    start = uniform_profile(cfg)
    assert not np.array_equal(best_responses(net, start)[2:], start[2:])
    once = [(0,), (1,)] * 20
    twice = [(0, 0), (1, 1)] * 20
    ages = [np.array([[0, 1], [1, 0]]) * (n % 2) for n in range(40)]
    for bound in (0, 1):
        views = ages if bound else [None] * 40
        want = run_game(net, Schedule(2, 40, zip(once, views), bound, 2), start, tol=1e-9)
        got = run_game(net, Schedule(2, 40, zip(twice, views), bound, 2), start, tol=1e-9)
        np.testing.assert_array_equal(got.states[1, 2:], start[2:])
        np.testing.assert_array_equal(got.states, want.states)
        assert (got.residuals, got.converged, got.nash_gap) == (
            want.residuals,
            want.converged,
            want.nash_gap,
        )
        np.testing.assert_array_equal(got.final_rates, want.final_rates)


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


def test_hand_built_plan_steps_are_checked_when_pulled():
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


def test_a_hand_built_step_keeps_the_ages_it_was_checked_with():
    # the ages are copied where the step enters, so an edit the caller makes
    # after the check reaches neither step(n) nor a game
    net = explicit_net([np.eye(1), np.eye(1)], {}, [1.0, 1.0], [1.0, 1.0])
    ages = np.zeros((2, 2), dtype=np.intp)
    sched = Schedule(2, 2, [((0, 1), ages), ((0, 1), ages.copy())], 1, 1)
    assert sched.step(0)[1].tolist() == [[0, 0], [0, 0]]
    ages[1, 0] = 7  # past delay_bound 1, where a gather would leave the history
    assert sched.step(0)[1].tolist() == [[0, 0], [0, 0]]
    want = run_game(net, Schedule(2, 2, [((0, 1), np.zeros((2, 2), dtype=np.intp))] * 2, 1, 1))
    assert_same_trace(run_game(net, sched), want)


def test_a_step_index_outside_the_plan_is_named():
    # step -1 used to read a step of the last block pulled, step it_max to
    # raise a bare IndexError, and True to read as step 1
    drawn = make_schedule("random_async", 3, it_max=10, seed=1, delay_bound=2, update_bound=3)
    built = Schedule(2, 3, fresh_plan((0,), (1,), (0, 1)), 0, 2)
    for sched in (drawn, built):
        last = sched.it_max - 1
        for n in (-1, sched.it_max, 10**20, True, False, 1.0, np.float64(1.0), "1", None):
            message = f"step must be an integer in 0..{last}, got {n!r}"
            with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
                sched.step(n)
        # an in-range numpy integer reads the step its int does
        assert repr(sched.step(np.int64(1))) == repr(sched.step(1))
        assert repr(sched.step(np.uint8(last))) == repr(sched.step(last))
    assert built.step(2) == ((0, 1), None)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_a_generator_seed_draws_the_plan_of_its_integer_seed(kind):
    # make_schedule reads a Generator's stream as sample_channels does; a
    # trial hands it the generator its chunk seeded
    shapes = [(1, 0, 1), (3, 2, 11), (4, 3, 5), (2, 2, 2), (4, 0, 11)]
    for users, delay_bound, update_bound in shapes:
        for seed in (0, 7, 2**64 - 1):
            want = make_schedule(kind, users, 61, seed, delay_bound, update_bound)
            rng = np.random.default_rng(seed)
            got = make_schedule(kind, users, 61, rng, delay_bound, update_bound)
            assert (got.delay_bound, got.update_bound) == (want.delay_bound, want.update_bound)
            for n in range(61):
                (members, ages), (want_members, want_ages) = got.step(n), want.step(n)
                assert members == want_members
                assert (ages is None) == (want_ages is None)
                if ages is not None:
                    assert ages.dtype == want_ages.dtype and ages.tobytes() == want_ages.tobytes()
            drawn = rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
            assert drawn is (kind == "random_async")


def random_hand_built_plan(rng, users, it_max, delay_bound, update_bound):
    """A Schedule of random members, empty steps among them, and ages."""
    odds = rng.choice([0.1, 0.5, 0.9])
    steps = []
    for moves in rng.random((it_max, users)) < odds:
        ages = None
        if delay_bound or rng.random() < 0.5:
            ages = rng.integers(0, delay_bound + 1, size=(users, users))
        steps.append((tuple(np.flatnonzero(moves).tolist()), ages))
    return Schedule(users, it_max, steps, delay_bound, update_bound)


def plan_settled(sched):
    """(who moves at each step, as a (it_max, Q) bool array; each step's
    settled flag as its source gave it)."""
    moves = np.zeros((sched.it_max, sched.num_users), dtype=bool)
    settled = []
    for n in range(sched.it_max):
        moves[n, list(sched.step(n)[0])] = True
        block = sched._block(n)
        settled.append(block.settled[n - block.start])
    return moves, settled


def test_every_plan_source_settles_by_the_running_maximum_rule():
    rng = np.random.default_rng(5)
    for _ in range(300):  # hand-built, one step a block
        users, update_bound = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        sched = random_hand_built_plan(rng, users, 40, int(rng.integers(0, 4)), update_bound)
        moves, settled = plan_settled(sched)
        assert settled == reference_settled(moves, update_bound)
    # drawn, _BLOCK steps a block; it_max 61 ends inside a block
    for kind in SCHEDULE_KINDS:
        for users, delay_bound, update_bound in [(1, 0, 1), (3, 2, 11), (4, 3, 5), (2, 1, 3)]:
            for seed in range(20):
                sched = make_schedule(kind, users, 61, seed, delay_bound, update_bound)
                moves, settled = plan_settled(sched)
                assert settled == reference_settled(moves, sched.update_bound)


@pytest.mark.parametrize(
    "users, delay_bound, update_bound",
    [(1, 0, 1), (2, 0, 11), (3, 1, 2), (3, 2, 11), (4, 3, 5), (4, 6, 1)],
)
def test_a_drawn_plan_is_valid_as_drawn(users, delay_bound, update_bound):
    # a make_schedule block is kept as drawn, with no check when it is
    # pulled, so it must already hold what a hand-built step is checked and
    # cast for; it_max 61 ends inside a block, and update_bound 11 outlasts one
    assert 61 % engine._BLOCK and 11 > engine._BLOCK
    for seed in range(100):
        sched = make_schedule(
            "random_async", users, it_max=61, seed=seed, delay_bound=delay_bound,
            update_bound=update_bound,
        )
        blocks = list({id(b): b for b in map(sched._block, range(61))}.values())
        assert sum(len(b.moves) for b in blocks) == 61
        for block in blocks:
            if delay_bound == 0:
                assert block.ages is None
                continue
            ages = block.ages
            assert ages.dtype == np.intp and ages.shape == (len(block.moves), users, users)
            assert 0 <= ages.min() and ages.max() <= delay_bound
            assert not ages[:, range(users), range(users)].any()
    # a drawn plan settles at the first step that closes a window, and stays
    for kind in SCHEDULE_KINDS:
        sched = make_schedule(
            kind, users, it_max=61, seed=3, delay_bound=delay_bound, update_bound=update_bound
        )
        window = sched.update_bound
        for n in range(61):
            block = sched._block(n)
            assert block.settled[n - block.start] is (n >= window - 1)


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


def test_a_huge_it_max_plays_like_a_small_one():
    # the history grows with the steps played, where it_max 10**12 used to
    # allocate 58 TiB up front; the async game plays 81 steps, past the 64
    # rows the history starts with
    for kind, cross, steps in (("jacobi", 25.0, 18), ("random_async", 20.0, 81)):
        cfg = NetworkConfig(4, 2, 2, 1e4, 1.0, 15.0, cross, 2.5)
        net = build_effective_network(sample_channels(cfg, 2), cfg)
        want, got = (
            run_game(net, make_schedule(kind, 4, it_max, 2, 2, 3), tol=1e-12)
            for it_max in (100, 10**12)
        )
        assert want.converged and want.iterations_used == steps
        assert_same_trace(got, want)
        assert not got.states.flags.writeable


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


def test_final_rates_are_built_once_when_read(monkeypatch):
    calls = []
    rates = engine.user_rates
    monkeypatch.setattr(engine, "user_rates", lambda *a: calls.append(a) or rates(*a))
    net = ragged_net(2)
    trace = run_game(net, make_schedule("random_async", 3, seed=4, delay_bound=2, update_bound=3))
    assert calls == []  # a game builds no rates
    assert trace.net is net and "net=" not in repr(trace)
    first = trace.final_rates
    assert first is trace.final_rates and len(calls) == 1
    assert first.tobytes() == user_rates(net, trace.states[-1]).tobytes()

    # a trace replaced as perfbench's self-check does builds its own, equal rates
    marked = dataclasses.replace(trace, converged=True, nash_gap=1e3)
    assert (marked.converged, marked.nash_gap, marked.net) == (True, 1e3, net)
    assert marked.final_rates.tobytes() == first.tobytes() and len(calls) == 2
    assert marked == dataclasses.replace(trace, converged=True, nash_gap=1e3, net=None)


@pytest.mark.parametrize(
    "kind, bounds", [("jacobi", {}), ("random_async", {"delay_bound": 2, "update_bound": 3})]
)
def test_nash_gap_is_built_once_when_read(monkeypatch, kind, bounds):
    calls = []
    monkeypatch.setattr(engine, "check_nash", lambda *a: calls.append(a) or check_nash(*a))
    net = ragged_net(2)
    trace = run_game(net, make_schedule(kind, 3, seed=4, **bounds))
    assert calls == []  # a game checks no gap
    gap = trace.nash_gap
    assert len(calls) == 1 and calls[0][0] is net
    assert calls[0][1].tobytes() == trace.states[-1].tobytes()
    assert np.float64(gap).tobytes() == np.float64(check_nash(net, trace.states[-1])).tobytes()
    assert trace.nash_gap == gap and len(calls) == 1

    # perfbench's self-check sets the gap; a replace without it keeps the built one
    marked = dataclasses.replace(trace, converged=True, nash_gap=1e3)
    assert marked.nash_gap == 1e3 and len(calls) == 1
    kept = dataclasses.replace(trace, converged=True)
    assert kept.nash_gap == gap and len(calls) == 1
    assert f"nash_gap={gap!r}" in repr(trace) and "nash_gap=1000.0" in repr(marked)
    assert marked != kept and kept == dataclasses.replace(marked, nash_gap=gap)


def test_a_game_runs_the_core_and_check_nash_the_checked_water_level(monkeypatch):
    calls = []
    checked = engine.water_level
    monkeypatch.setattr(engine, "water_level", lambda *a: calls.append(a) or checked(*a))
    net = ragged_net(2)
    for kind, bounds in (("jacobi", {}), ("random_async", {"delay_bound": 2, "update_bound": 3})):
        calls.clear()
        trace = run_game(net, make_schedule(kind, 3, seed=4, **bounds))
        assert trace.iterations_used > 1 and calls == []
        gap = trace.nash_gap
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][1], net.config.layout.budget)
        assert check_nash(net, trace.states[-1]) == gap and len(calls) == 2


def other_layout_net(seed):
    """A 3-user network whose tx counts differ from the RAGGED ones."""
    cfg = NetworkConfig(
        num_users=3,
        tx_antennas=(1, 2, 3),
        rx_antennas=(2, 2, 2),
        power_budget=(3000.0, 1000.0, 6000.0),
        noise_power=(1.0, 0.5, 2.0),
        direct_distance=(15.0, 12.0, 15.0),
        cross_distance=((15.0, 25.0, 30.0), (22.0, 12.0, 28.0), (26.0, 24.0, 15.0)),
        pathloss_exponent=2.5,
    )
    return build_effective_network(sample_channels(cfg, seed), cfg)


@pytest.mark.parametrize(
    "kind, bounds",
    [
        ("jacobi", {}),
        ("gauss_seidel", {}),
        ("random_async", {"delay_bound": 3, "update_bound": 5}),
        ("random_async", {"delay_bound": 0, "update_bound": 2}),
    ],
)
def test_one_plan_serves_two_antenna_layouts(kind, bounds):
    nets = [ragged_net(1), other_layout_net(3), ragged_net(4), other_layout_net(5)]
    assert nets[0].config.layout.offsets != nets[1].config.layout.offsets

    def plan():
        return make_schedule(kind, 3, it_max=60, seed=8, **bounds)

    shared = plan()
    for net in nets:
        for start in (uniform_profile(net.config), greedy_profile(net.config)):
            assert_same_trace(run_game(net, shared, start), run_game(net, plan(), start))


def test_narrow_integer_ages_play_past_their_largest_value():
    # int8 ages met history rows past 127 and raised numpy's OverflowError
    net = ragged_net(1)
    ages = np.zeros((3, 3), dtype=np.int64)
    ages[0, 1] = ages[2, 0] = 1
    wide, narrow = ([((0, 1, 2), ages.astype(dtype))] * 200 for dtype in (np.int64, np.int8))
    a, b = (run_game(net, Schedule(3, 200, plan, 1, 1), tol=0.0) for plan in (wide, narrow))
    assert a.iterations_used == 200
    assert_same_trace(a, b)


def shipped_layout(name):
    """The antenna layout of a network config under configs/."""
    with open(Path(__file__).resolve().parent.parent / "configs" / name) as fh:
        return network_from_dict(json.load(fh)).layout


def _settled(sched, n):
    """Whether every user moved inside the update_bound steps that end at n,
    read from the members of those steps."""
    window = sched.update_bound
    if n < window - 1:
        return False
    moved = {q for k in range(n - window + 1, n + 1) for q in sched.step(k)[0]}
    return len(moved) == sched.num_users


def prepared_step(sched, n, layout):
    """Step n of the steps a game on layout reads: (gather, keep, settled)."""
    return next(itertools.islice(sched._played(layout), n, None))


def assert_prepared_like_fancy_index(sched, n, layout):
    """Step n, prepared for layout, reads the stale views that fancy indexing
    of the history reads, bit for bit, and keeps the powers of idle users."""
    members, ages = sched.step(n)
    gather, keep, settled = prepared_step(sched, n, layout)
    owner = layout.owner
    assert sched._block(n).owner is owner and settled is _settled(sched, n)
    if len(members) == sched.num_users:
        assert keep is None
    else:
        idle = np.ones(sched.num_users, dtype=bool)
        idle[list(members)] = False
        np.testing.assert_array_equal(keep, idle[owner])
    if ages is None:
        assert gather is None
        return
    lead = sched.delay_bound
    # every entry distinct, so a wrong position cannot read an equal value
    history = np.arange((lead + sched.it_max + 1) * len(owner), dtype=float).reshape(-1, len(owner))
    history = np.sqrt(history)
    want = history[lead + n - ages.take(owner, axis=1), layout.antennas]
    got = history[n:].take(gather)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["network.json", "network_ragged.json"])
def test_a_prepared_gather_equals_the_fancy_index_gather_bit_for_bit(name):
    layout = shipped_layout(name)
    users = len(layout.offsets) - 1
    # the plan is played on another antenna layout of as many users in turn
    other = NetworkConfig(users, 1, 2, 10.0, 1.0, 15.0, 20.0, 2.5).layout
    assert other.offsets != layout.offsets
    turns = (layout, other, layout)
    for seed, delay_bound, update_bound in ((0, 1, 1), (5, 3, 5), (9, 6, 2), (2, 0, 3)):
        sched = make_schedule(
            "random_async", users, it_max=150, seed=seed, delay_bound=delay_bound,
            update_bound=update_bound,
        )
        for n in range(150):
            for turn in turns:
                assert_prepared_like_fancy_index(sched, n, turn)
    # int8 ages of a hand-built plan, past step 127
    rng = np.random.default_rng(3)
    ages = rng.integers(0, 4, size=(200, users, users)).astype(np.int8)
    members = [tuple(np.flatnonzero(row).tolist()) for row in rng.random((200, users)) < 0.5]
    sched = Schedule(users, 200, list(zip(members, ages)), 3, 1)
    for n in range(200):
        for turn in turns:
            assert_prepared_like_fancy_index(sched, n, turn)


@pytest.mark.parametrize("source", [list, iter], ids=["list", "iterator"])
def test_an_in_range_numpy_integer_member_is_accepted(source):
    net = explicit_net([np.eye(1), np.eye(1)], {}, [1.0] * 2, [1.0] * 2)
    numpy_plan = [((np.int64(1), np.uint8(0)), None), ((np.int32(1),), None)] * 3
    plain_plan = [((1, 0), None), ((1,), None)] * 3
    got = run_game(net, Schedule(2, 6, source(numpy_plan), 0, 2), tol=0.0)
    want = run_game(net, Schedule(2, 6, source(plain_plan), 0, 2), tol=0.0)
    assert_same_trace(got, want)
    sched = Schedule(2, 6, source(numpy_plan), 0, 2)
    assert sched.step(1) == ((1,), None)
    layout = net.config.layout
    assert prepared_step(sched, 1, layout)[1].tolist() == [True, False]


def test_floors_that_overflow_across_a_row_still_raise():
    # a cross gain of 100 on powers near 1e307 leaks past the largest float;
    # a game names the overflow at the step whose residual is not finite,
    # and no RuntimeWarning escapes it (the test suite fails on warnings)
    loud = np.full((1, 1), 10.0)
    net = explicit_net([np.eye(1), np.eye(1)], {(0, 1): loud, (1, 0): loud}, [1e307] * 2, [1.0] * 2)
    overflow = r"step \d+: float overflow: .* too large for a float"
    for kind, bounds in (("jacobi", {}), ("random_async", {"delay_bound": 2, "update_bound": 2})):
        with pytest.raises(ValueError, match=overflow):
            run_game(net, make_schedule(kind, 2, seed=1, **bounds))
    # the checked verifier keeps water_level's floor check
    floors = "floors must be nonnegative, with a finite floor in every row"
    with np.errstate(over="ignore"):  # numpy warns of the overflow; the check refuses it
        with pytest.raises(ValueError, match=floors):
            check_nash(net, uniform_profile(net.config))


def test_a_water_level_past_the_largest_float_raises_at_its_own_step():
    # finite floors near 1.76e308 plus a budget of 1e307 pass the largest
    # float in the water level; the floors of the next step used to refuse it
    loud = np.full((1, 1), 4.2)
    net = explicit_net([np.eye(1), np.eye(1)], {(0, 1): loud, (1, 0): loud}, [1e307] * 2, [1.0] * 2)
    assert np.isfinite(stream_floors(net, uniform_profile(net.config))).all()
    with pytest.raises(ValueError, match=r"^step 0: float overflow"):
        run_game(net, make_schedule("jacobi", 2))


def test_a_hand_built_plan_that_starves_a_user_never_converges():
    # only drawn plans keep the update bound; a hand-built plan that never
    # moves user 1 is accepted, and its game plays to it_max unconverged
    net = explicit_net([np.eye(1), np.eye(1)], {}, [1.0] * 2, [1.0] * 2)
    sched = Schedule(2, 20, [((0,), None)] * 20, 0, 1)
    trace = run_game(net, sched)
    assert not trace.converged and trace.iterations_used == 20
    assert max(trace.residuals) == 0.0
    # the plan answers once per step who keeps its power and whether every
    # user moved inside the window; the game reads both
    played = list(sched._played(net.config.layout))
    assert len(played) == 20
    for n, (gather, keep, settled) in enumerate(played):
        assert sched.step(n) == ((0,), None)
        assert gather is None and keep.tolist() == [False, True] and settled is False


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


def test_only_a_given_start_is_checked(monkeypatch):
    # the default uniform split is feasible by construction; a given start is
    # checked and refused with validate_profile's messages
    net = random_net(3)
    checked = []
    check = engine.validate_profile
    monkeypatch.setattr(engine, "validate_profile", lambda x, cfg: checked.append(x) or check(x, cfg))
    default = run_game(net, make_schedule("jacobi", 4), tol=1e-9)
    assert checked == []
    given = run_game(net, make_schedule("jacobi", 4), uniform_profile(net.config), tol=1e-9)
    assert len(checked) == 1
    assert_same_trace(default, given)
    # a list of numbers is a start, as the array of it is
    listed = uniform_profile(net.config).tolist()
    assert_same_trace(default, run_game(net, make_schedule("jacobi", 4), listed, tol=1e-9))
    budget = net.config.power_budget[0]
    for bad, message in (
        (np.array([3 * budget, 0.0] + [0.0] * 6), f"user 0 exceeds its power budget: {3 * budget!r}"),
        (np.array([0.0] * 2 + [-1.0, 0.0] + [0.0] * 4), "user 1 has a negative or NaN power entry"),
        (np.ones(7), r"profile has shape \(7,\), expected \(8,\)"),
        (["1"] * 8, r"profile\[0\] must be a number, got '1'$"),
        ([True, False] * 4, r"profile\[0\] must be a number, got True$"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            run_game(net, make_schedule("jacobi", 4), bad)


@pytest.mark.parametrize(
    "tol", [float("nan"), -1.0, float("inf"), -0.5e-300, True, "1e-6", None, [0.1], [], np.ones(1)]
)
def test_a_tol_that_is_not_a_nonnegative_finite_number_is_named(tol):
    # a list or an array is not one number, even when its entries are
    net = random_net(3)
    with pytest.raises(ValueError) as err:
        run_game(net, make_schedule("jacobi", 4), tol=tol)
    assert str(err.value) == f"tol must be a nonnegative finite number, got {tol!r}"


def test_tol_zero_plays_to_it_max_and_any_finite_number_is_a_tol():
    net = random_net(3)
    for tol in (0, 0.0, np.int64(0)):
        assert run_game(net, make_schedule("jacobi", 4, it_max=9), tol=tol).iterations_used == 9
    for tol in (1, np.float64(1e-6), np.int64(1), 1.0e308):
        assert run_game(net, make_schedule("jacobi", 4), tol=tol).converged


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


def test_trace_write_failure_names_path(tmp_path):
    trace = run_game(random_net(4), make_schedule("jacobi", 4, it_max=3))
    missing = tmp_path / "nope" / "trace.csv"
    with pytest.raises(OSError, match=r"^cannot write game trace to '.*nope.*trace\.csv': "):
        trace_to_csv(trace, str(missing))


def test_rates_and_the_nash_gap_take_a_profile_as_run_game_does():
    net = random_net(3)
    x = run_game(net, make_schedule("jacobi", 4)).states[-1]
    # a list is a profile, read as its array
    assert sum_rate(net, x.tolist()) == sum_rate(net, x)
    assert user_rates(net, x.tolist()).tobytes() == user_rates(net, x).tobytes()
    assert check_nash(net, x.tolist()) == check_nash(net, x)
    # the budget is not checked: a last state may pass it by rounding
    assert sum_rate(net, 2 * uniform_profile(net.config)) > 0
    for bad, message in (
        ([1.0] * 7, r"profile has shape \(7,\), expected \(8,\)"),
        (np.ones((1, 8)), r"profile has shape \(1, 8\), expected \(8,\)"),
        (np.array([True, False] * 4), r"profile\[0\] must be a number, got True"),
        (["1"] * 8, r"profile\[0\] must be a number, got '1'"),
    ):
        for f in (sum_rate, user_rates, check_nash):
            with pytest.raises(ValueError, match=f"^{message}$"):
                f(net, bad)

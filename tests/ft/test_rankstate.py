"""Property tests: the rankstate kernels equal compact scalar loops on
every input — randomized failure patterns, rank counts from 16 to 512,
degenerate and truncated rescue batches."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ft import rankstate
from repro.ft.control import FailureNotice
from repro.ft.roles import Role
from repro.gaspi.groups import Group, _Members

ROLE_VALUES = [int(r) for r in Role]


# ----------------------------------------------------------------------
# scalar oracles: the per-rank loops the kernels replace
# ----------------------------------------------------------------------
def avoid_mask(statuses):
    return np.array([s == Role.FAILED for s in statuses], dtype=bool)


def scan_targets(avoid, self_rank):
    return [r for r in range(len(avoid)) if r != self_rank and not avoid[r]]


def healthy_targets(avoid, statuses):
    return [r for r in range(len(avoid))
            if not avoid[r] and statuses[r] != Role.FAILED]


def ranks_with_roles(statuses, roles):
    wanted = {int(role) for role in roles}
    return [r for r in range(len(statuses)) if int(statuses[r]) in wanted]


def split_failed(failed_now, rank_map_arr):
    values = {int(p) for p in rank_map_arr}
    workers = sorted(int(r) for r in failed_now if int(r) in values)
    return workers, [int(r) for r in failed_now if int(r) not in values]


def apply_rescues(rank_map_arr, failed, rescues):
    replacement = dict(zip(failed, rescues))
    return np.array([replacement.get(int(p), int(p)) for p in rank_map_arr],
                    dtype=np.int64)


def logical_in_map(rank_map, phys):
    return next((lg for lg, p in rank_map.items() if p == phys), None)


# ----------------------------------------------------------------------
@st.composite
def rank_world(draw):
    """(statuses array, a random subset of ranks, a worker rank map)."""
    n = draw(st.integers(min_value=16, max_value=512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    statuses = rng.choice(ROLE_VALUES, size=n).astype(np.int64)
    subset_size = draw(st.integers(0, min(n, 24)))
    subset = rng.permutation(n)[:subset_size].tolist()
    n_workers = draw(st.integers(1, n))
    rank_map_arr = rng.permutation(n)[:n_workers].astype(np.int64)
    return statuses, subset, rank_map_arr


def _plain_ints(values):
    return all(type(v) is int for v in values)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world())
def test_detector_state_kernels_identical(world):
    statuses, subset, _ = world
    self_rank = len(statuses) - 1

    avoid = rankstate.avoid_mask(statuses)
    assert np.array_equal(avoid, avoid_mask(statuses))

    rankstate.mark_avoided(avoid, subset)
    expected = avoid_mask(statuses)
    expected[subset] = True
    assert np.array_equal(avoid, expected)

    targets = rankstate.scan_targets(avoid, self_rank)
    assert targets == scan_targets(avoid, self_rank) and _plain_ints(targets)

    healthy = rankstate.healthy_targets(avoid, statuses)
    assert healthy == healthy_targets(avoid, statuses)
    assert _plain_ints(healthy)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world())
def test_role_and_split_kernels_identical(world):
    statuses, subset, rank_map_arr = world
    assert (rankstate.idle_ranks(statuses)
            == ranks_with_roles(statuses, (Role.IDLE,)))
    for roles in ((Role.IDLE,), (Role.IDLE, Role.FD), (Role.WORKING,)):
        ranks = rankstate.ranks_with_roles(statuses, roles)
        assert ranks == ranks_with_roles(statuses, roles)
        assert _plain_ints(ranks)

    workers, others = rankstate.split_failed(subset, rank_map_arr)
    assert (workers, others) == split_failed(subset, rank_map_arr)
    assert _plain_ints(workers) and _plain_ints(others)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rank_world(), st.integers(0, 6), st.integers(0, 6))
def test_rescue_and_map_kernels_identical(world, n_failed, n_rescues):
    statuses, _, rank_map_arr = world
    n = len(statuses)
    rng = np.random.default_rng(int(rank_map_arr.sum()) + n)
    # failed drawn from the map's values, rescues from anywhere; the two
    # lists may have different lengths (the unrecoverable-batch case:
    # pairing must truncate like dict(zip(...)))
    failed = rng.permutation(rank_map_arr)[:n_failed].tolist()
    rescues = rng.permutation(n)[:n_rescues].tolist()
    out = rankstate.apply_rescues(rank_map_arr, failed, rescues)
    assert np.array_equal(out, apply_rescues(rank_map_arr, failed, rescues))

    rank_map = {i: int(p) for i, p in enumerate(out)}
    assert rankstate.map_members(rank_map) == sorted(rank_map.values())
    # recovery's per-epoch view of the map: membership and inverse lookup
    notice = FailureNotice(epoch=1, failed=(), rescues=(),
                           rank_map=rank_map)
    assert list(notice.members) == sorted(rank_map.values())
    for phys in (int(out[0]), n + 7):  # present and absent
        assert notice.logical_of.get(phys) == logical_in_map(rank_map, phys)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(16, 512), st.integers(0, 2**32 - 1))
def test_group_fill_kernels_identical(n, seed):
    """Adopting an interned membership equals adding ranks one by one."""
    members = np.random.default_rng(seed).permutation(n).tolist()
    filled, added = Group(tag=1), Group(tag=1)
    filled.adopt_members(_Members.of(members))
    for rank in sorted(members):
        added.add(rank)
    assert filled.members == added.members
    assert filled.identity() == added.identity()
    # an interned membership passes through as-is, without a re-sort
    assert _Members.of(filled.members) is filled.members

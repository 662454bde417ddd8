"""Unit tests for FT building blocks: config, spares, control block."""

import numpy as np
import pytest

from repro.gaspi import run_gaspi
from repro.ft import ControlBlock, FTConfig, Role, assign_rescues


class TestFTConfig:
    def test_role_layout(self):
        cfg = FTConfig(n_workers=4, n_spares=3)
        assert cfg.n_ranks == 7
        assert cfg.fd_rank == 6
        assert list(cfg.idle_ranks) == [4, 5]
        assert cfg.role_of(0) is Role.WORKING
        assert cfg.role_of(4) is Role.IDLE
        assert cfg.role_of(6) is Role.FD
        assert cfg.max_recoverable_failures == 3

    def test_single_spare_means_fd_only(self):
        cfg = FTConfig(n_workers=2, n_spares=1)
        assert list(cfg.idle_ranks) == []
        assert cfg.fd_rank == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FTConfig(n_workers=0)
        with pytest.raises(ValueError):
            FTConfig(n_spares=0)
        with pytest.raises(ValueError):
            FTConfig(fd_threads=0)
        with pytest.raises(ValueError):
            FTConfig().role_of(99)


class TestSparePool:
    def make_statuses(self, cfg):
        return np.array([int(cfg.role_of(r)) for r in range(cfg.n_ranks)],
                        dtype=np.int64)

    def test_assign_uses_lowest_idles_first(self):
        cfg = FTConfig(n_workers=4, n_spares=3)  # idles 4,5; fd 6
        statuses = self.make_statuses(cfg)
        a = assign_rescues(statuses, cfg.fd_rank, [2])
        assert a.rescues == [4]
        assert a.recoverable and not a.fd_joined
        assert statuses[2] == Role.FAILED
        assert statuses[4] == Role.WORKING

    def test_fd_joins_when_pool_dry(self):
        cfg = FTConfig(n_workers=3, n_spares=2)  # one idle (3), fd 4
        statuses = self.make_statuses(cfg)
        a1 = assign_rescues(statuses, cfg.fd_rank, [0])
        assert a1.rescues == [3]
        a2 = assign_rescues(statuses, cfg.fd_rank, [1])
        assert a2.rescues == [4] and a2.fd_joined
        assert statuses[4] == Role.WORKING

    def test_unrecoverable_shortfall(self):
        cfg = FTConfig(n_workers=3, n_spares=1)  # no idles, fd only
        statuses = self.make_statuses(cfg)
        a = assign_rescues(statuses, cfg.fd_rank, [0, 1])
        assert a.fd_joined and not a.recoverable
        assert len(a.failed) - len(a.rescues) == 1


class TestControlBlock:
    def run_single(self, fn, cfg=None):
        cfg = cfg or FTConfig(n_workers=2, n_spares=2)

        def main(ctx):
            block = ControlBlock(ctx, cfg)
            if False:
                yield
            return fn(ctx, block, cfg)

        return run_gaspi(main, n_ranks=cfg.n_ranks).result(0)

    def test_initial_state(self):
        def check(ctx, block, cfg):
            return (block.epoch, block.ack, block.done,
                    block.rank_map(), [int(s) for s in block.statuses()])

        epoch, ack, done, rank_map, statuses = self.run_single(check)
        assert epoch == 0 and not ack and not done
        assert rank_map == {0: 0, 1: 1}
        assert statuses == [0, 0, 1, 2]  # W W I FD

    def test_compose_and_read_notice(self):
        def check(ctx, block, cfg):
            statuses = block.statuses().copy()
            statuses[1] = int(Role.FAILED)
            statuses[2] = int(Role.WORKING)
            block.compose_notice(3, [1], [2], statuses, np.array([0, 2]))
            notice = block.check_failure(seen_epoch=0)
            return notice

        notice = self.run_single(check)
        assert notice.epoch == 3
        assert notice.failed == (1,)
        assert notice.rescues == (2,)
        assert notice.rank_map == {0: 0, 1: 2}
        assert notice.recoverable

    def test_check_failure_respects_seen_epoch(self):
        def check(ctx, block, cfg):
            statuses = block.statuses().copy()
            block.compose_notice(1, [1], [2], statuses, np.array([0, 2]))
            return (block.check_failure(1), block.check_failure(0) is not None)

        none_result, fresh = self.run_single(check)
        assert none_result is None
        assert fresh

    def test_unrecoverable_notice(self):
        def check(ctx, block, cfg):
            statuses = block.statuses().copy()
            block.compose_notice(1, [0, 1], [2], statuses, np.array([2, 1]))
            return block.read_notice().recoverable

        assert self.run_single(check) is False

    def test_too_many_failures_rejected(self):
        def check(ctx, block, cfg):
            statuses = block.statuses().copy()
            try:
                # capacity is n_ranks (= 4 here); 5 entries cannot fit
                block.compose_notice(1, [0, 1, 2, 3, 4], [], statuses,
                                     block.rank_map_array())
            except ValueError:
                return "rejected"

        assert self.run_single(check) == "rejected"

    def test_broadcast_lands_in_remote_blocks(self):
        cfg = FTConfig(n_workers=2, n_spares=2)

        def main(ctx):
            block = ControlBlock(ctx, cfg)
            yield from ctx.barrier()
            if ctx.rank == cfg.fd_rank:
                statuses = block.statuses().copy()
                statuses[1] = int(Role.FAILED)
                statuses[2] = int(Role.WORKING)
                block.compose_notice(1, [1], [2], statuses, np.array([0, 2]))
                yield from block.broadcast([0, 2], timeout=5.0)
                return None
            yield from ctx.barrier(timeout=30.0)  # wait for delivery window
            notice = block.check_failure(0)
            return None if notice is None else (notice.epoch, notice.failed)

        run = run_gaspi(main, n_ranks=cfg.n_ranks)
        assert run.result(0) == (1, (1,))
        assert run.result(2) == (1, (1,))
        assert run.result(1) is None  # not targeted

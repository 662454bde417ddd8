"""Edge cases of the ftlint CFG builder and dataflow engine.

The flow rules are only as good as the graph: these tests pin the
constructs the protocol code actually uses — ``while``/``else`` with
``break``, abrupt exits routed through nested ``finally`` bodies,
generator ``yield from`` positions, and ``contextlib.suppress`` escape
edges.
"""

import ast
import textwrap

from repro.analysis.ftlint.cfg import build_cfg
from repro.analysis.ftlint.dataflow import Fact, facts_at_exit, run_forward


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def blocks_matching(cfg, needle):
    """Blocks whose element's source contains ``needle``."""
    out = []
    for block in cfg.blocks:
        if block.stmt is None:
            continue
        try:
            text = ast.unparse(block.stmt)
        except (ValueError, AttributeError):
            text = ast.dump(block.stmt)
        if needle in text:
            out.append(block)
    return out


def the_block(cfg, needle):
    matches = blocks_matching(cfg, needle)
    assert len(matches) == 1, f"{needle!r}: {len(matches)} matches"
    return matches[0]


def break_block(cfg):
    (block,) = [b for b in cfg.blocks if isinstance(b.stmt, ast.Break)]
    return block


class TestWhileElse:
    def test_normal_exit_runs_else(self):
        cfg = cfg_of("""
            def f(ctx):
                while ctx.more():
                    ctx.step()
                else:
                    ctx.cleanup()
                ctx.done()
        """)
        head = the_block(cfg, "ctx.more()")
        cleanup = the_block(cfg, "ctx.cleanup()")
        done = the_block(cfg, "ctx.done()")
        assert head.idx in cleanup.preds
        assert done.idx in cfg.reachable_from(cleanup.idx)
        # body loops back to the test
        assert head.idx in the_block(cfg, "ctx.step()").succs

    def test_break_skips_the_else_clause(self):
        cfg = cfg_of("""
            def f(ctx):
                while ctx.more():
                    if ctx.bad():
                        break
                    ctx.step()
                else:
                    ctx.cleanup()
                ctx.done()
        """)
        brk = break_block(cfg)
        reachable = cfg.reachable_from(brk.idx)
        assert the_block(cfg, "ctx.done()").idx in reachable
        assert the_block(cfg, "ctx.cleanup()").idx not in reachable

    def test_while_true_without_break_has_no_exit(self):
        cfg = cfg_of("""
            def f(ctx):
                while True:
                    ctx.step()
                ctx.done()
        """)
        assert blocks_matching(cfg, "ctx.done()") == []  # unreachable
        assert cfg.exit.preds == set()
        assert cfg.in_cycle(the_block(cfg, "ctx.step()").idx)

    def test_while_true_with_break_exits(self):
        cfg = cfg_of("""
            def f(ctx):
                while True:
                    if ctx.stop():
                        break
                    ctx.step()
                ctx.done()
        """)
        done = the_block(cfg, "ctx.done()")
        assert done.idx in cfg.reachable_from(break_block(cfg).idx)


class TestFinallyRouting:
    def test_break_runs_nested_finallies_innermost_first(self):
        cfg = cfg_of("""
            def f(ctx, items):
                for x in items:
                    try:
                        try:
                            if ctx.stop(x):
                                break
                            ctx.work(x)
                        finally:
                            ctx.inner()
                    finally:
                        ctx.outer()
                ctx.done()
        """)
        # the classic duplication scheme: one copy of each finally on the
        # normal path, one fresh copy per abrupt exit
        assert len(blocks_matching(cfg, "ctx.inner()")) >= 2
        assert len(blocks_matching(cfg, "ctx.outer()")) >= 2
        brk = break_block(cfg)
        # the break's first successor is an inner() copy, not the target
        succ_texts = {ast.unparse(cfg.blocks[idx].stmt)
                      for idx in brk.succs if cfg.blocks[idx].stmt is not None}
        assert "ctx.inner()" in succ_texts
        reachable = cfg.reachable_from(brk.idx)
        assert the_block(cfg, "ctx.done()").idx in reachable
        assert the_block(cfg, "ctx.work(x)").idx not in reachable

    def test_return_routes_through_finally_to_exit(self):
        cfg = cfg_of("""
            def f(ctx):
                try:
                    return ctx.value()
                finally:
                    ctx.cleanup()
        """)
        ret = next(b for b in cfg.blocks if isinstance(b.stmt, ast.Return))
        cleanup = the_block(cfg, "ctx.cleanup()")
        assert cleanup.idx in ret.succs
        assert cfg.exit.idx in cleanup.succs

    def test_try_body_raises_into_every_handler(self):
        cfg = cfg_of("""
            def f(ctx):
                try:
                    ctx.a()
                    ctx.b()
                except ValueError:
                    ctx.h1()
                except KeyError:
                    ctx.h2()
                ctx.done()
        """)
        handlers = [b for b in cfg.blocks
                    if isinstance(b.stmt, ast.ExceptHandler)]
        assert len(handlers) == 2
        for needle in ("ctx.a()", "ctx.b()"):
            succs = the_block(cfg, needle).succs
            for handler in handlers:
                assert handler.idx in succs


class TestYield:
    SRC = """
        def f(ctx, q):
            ret = yield from ctx.wait(q)
            return ret
    """

    def test_yield_from_recorded_on_block(self):
        cfg = cfg_of(self.SRC)
        (block,) = cfg.yield_blocks
        assert block.has_yield
        assert "ctx.wait" in ast.unparse(block.stmt)
        # by default a resumed generator continues: no edge to exit
        assert cfg.exit.idx not in block.succs


class TestWithSuppress:
    def test_suppress_adds_escape_edges(self):
        cfg = cfg_of("""
            def f(risky):
                with contextlib.suppress(ValueError):
                    risky.a()
                    risky.b()
                risky.after()
        """)
        a = the_block(cfg, "risky.a()")
        b = the_block(cfg, "risky.b()")
        after = the_block(cfg, "risky.after()")
        # a() may raise: the join point (and so after()) is reachable
        # without executing b()
        escape = a.succs - {b.idx}
        assert escape, "no escape edge from the suppressed body"
        assert all(after.idx in cfg.reachable_from(idx) | {idx}
                   for idx in escape)

    def test_plain_with_has_no_escape_edges(self):
        cfg = cfg_of("""
            def f(risky):
                with risky.lock():
                    risky.a()
                    risky.b()
                risky.after()
        """)
        a = the_block(cfg, "risky.a()")
        assert a.succs == {the_block(cfg, "risky.b()").idx}


class TestDataflow:
    @staticmethod
    def _transfer(cfg, post_needle, clear_needle=None):
        def transfer(idx, state):
            stmt = cfg.blocks[idx].stmt
            if stmt is None:
                return state
            text = ast.unparse(stmt)
            if clear_needle is not None and clear_needle in text:
                return frozenset()
            if post_needle in text:
                return state | {Fact("obligation", "k", idx)}
            return state
        return transfer

    def test_union_join_keeps_branch_fact_live_at_exit(self):
        cfg = cfg_of("""
            def f(ctx, flag):
                if flag:
                    ctx.post()
                ctx.end()
        """)
        in_states = run_forward(cfg, self._transfer(cfg, "ctx.post()"))
        (fact,) = facts_at_exit(cfg, in_states)
        assert fact.kind == "obligation"
        assert cfg.blocks[fact.origin].stmt is the_block(cfg, "ctx.post()").stmt

    def test_discharge_on_every_path_clears_exit(self):
        cfg = cfg_of("""
            def f(ctx, flag):
                if flag:
                    ctx.post()
                ctx.wait()
                ctx.end()
        """)
        in_states = run_forward(
            cfg, self._transfer(cfg, "ctx.post()", "ctx.wait()"))
        assert facts_at_exit(cfg, in_states) == frozenset()

    def test_loop_fixpoint_terminates_and_propagates(self):
        cfg = cfg_of("""
            def f(ctx, n):
                for i in range(n):
                    ctx.post()
                ctx.end()
        """)
        in_states = run_forward(cfg, self._transfer(cfg, "ctx.post()"))
        assert {f.kind for f in facts_at_exit(cfg, in_states)} == {"obligation"}

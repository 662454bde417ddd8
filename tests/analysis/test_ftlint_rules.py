"""Per-rule fixtures for ftlint: positive, negative, suppressed, baselined.

Every rule gets the same four-way treatment via the CASES table; the
targeted classes below pin down the trickier semantics (FT001's decision
table, FT004's yield-gap analysis, multi-line suppression spans).
"""

import textwrap
from collections import Counter

import pytest

from repro.analysis.ftlint import (
    Baseline,
    all_rules,
    analyze_file,
    fingerprint,
    split_by_baseline,
)


def lint(tmp_path, source, display_path, rule_id):
    """Run one rule over ``source`` pretending it lives at ``display_path``."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [r for r in all_rules() if r.id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    return analyze_file(path, rules=rules, display_path=display_path)


# ----------------------------------------------------------------------
# the four-way table: (rule, path, positive, negative, suppressed)
# ----------------------------------------------------------------------
CASES = [
    (
        "FT001", "src/repro/ft/fixture.py",
        """
        def step(ctx, q):
            ret = yield from ctx.wait(q)
            return ret
        """,
        """
        def step(ctx, guard, q):
            while True:
                guard.assert_healthy()
                ret = yield from ctx.wait(q, 5.0)
                if ret is None:
                    return
        """,
        """
        def step(ctx, q):
            ret = yield from ctx.wait(q)  # ftlint: disable=FT001 -- test fixture
            return ret
        """,
    ),
    (
        "FT002", "src/repro/sim/fixture.py",
        """
        import time

        def stamp():
            return time.time()
        """,
        """
        def draw(sim):
            return sim.rng.stream("jitter").normal()
        """,
        """
        import time

        def stamp():
            return time.time()  # ftlint: disable=FT002 -- test fixture
        """,
    ),
    (
        "FT003", "src/repro/ft/fixture.py",
        """
        def note(tracer, t):
            tracer.emit(t, 0, "ping")
        """,
        """
        def note(tracer, t):
            if tracer.enabled:
                tracer.emit(t, 0, "ping")
        """,
        """
        def note(tracer, t):
            tracer.emit(t, 0, "ping")  # ftlint: disable=FT003 -- test fixture
        """,
    ),
    (
        "FT004", "src/repro/ft/fixture.py",
        """
        def post(ctx):
            ctx.write(0, 0, 8, 1, 0, 0)
        """,
        """
        def post(ctx, full):
            ret = ctx.write(0, 0, 8, 1, 0, 0)
            if ret is full:
                return False
            return True
        """,
        """
        def post(ctx):
            ctx.write(0, 0, 8, 1, 0, 0)  # ftlint: disable=FT004 -- test fixture
        """,
    ),
    (
        "FT005", "src/repro/ft/fixture.py",
        """
        def recover(risky):
            try:
                risky()
            except Exception:
                pass
        """,
        """
        def recover(risky):
            try:
                risky()
            except ValueError:
                pass
        """,
        """
        def recover(risky):
            try:
                risky()
            except Exception:  # ftlint: disable=FT005 -- test fixture
                pass
        """,
    ),
    (
        "FT006", "src/repro/fixture.py",
        """
        def api(x):
            return x
        """,
        """
        def api(x: int) -> int:
            return x
        """,
        """
        def api(x):  # ftlint: disable=FT006 -- test fixture
            return x
        """,
    ),
]

IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("rule,path,positive,negative,suppressed",
                         CASES, ids=IDS)
class TestFourWay:
    def test_positive_flags(self, tmp_path, rule, path, positive,
                            negative, suppressed):
        findings = lint(tmp_path, positive, path, rule)
        assert [f.rule for f in findings] == [rule]
        assert findings[0].path == path
        assert findings[0].message

    def test_negative_clean(self, tmp_path, rule, path, positive,
                            negative, suppressed):
        assert lint(tmp_path, negative, path, rule) == []

    def test_suppression_mutes(self, tmp_path, rule, path, positive,
                               negative, suppressed):
        assert lint(tmp_path, suppressed, path, rule) == []

    def test_baselined_not_new(self, tmp_path, rule, path, positive,
                               negative, suppressed):
        findings = lint(tmp_path, positive, path, rule)
        baseline = Baseline(counts=Counter(fingerprint(f) for f in findings))
        new, baselined, stale = split_by_baseline(findings, baseline)
        assert new == []
        assert baselined == findings
        assert stale == []

    def test_out_of_scope_path_ignored(self, tmp_path, rule, path, positive,
                                       negative, suppressed):
        assert lint(tmp_path, positive, "scripts/fixture.py", rule) == []


# ----------------------------------------------------------------------
# FT001: the decision table
# ----------------------------------------------------------------------
class TestFT001Semantics:
    PATH = "src/repro/solvers/fixture.py"

    def test_finite_timeout_outside_loop_passes(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(q, 5.0)
            return ret
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_gaspi_block_timeout_still_flags(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(q, GASPI_BLOCK)
            return ret
        """
        assert len(lint(tmp_path, src, self.PATH, "FT001")) == 1

    def test_while_retry_with_timeout_but_no_check_flags(self, tmp_path):
        # a timeout bounds one attempt; the loop spins past a failure
        src = """
        def step(ctx, q):
            while True:
                ret = yield from ctx.wait(q, 5.0)
                if ret is None:
                    return
        """
        findings = lint(tmp_path, src, self.PATH, "FT001")
        assert len(findings) == 1
        assert "retry loop" in findings[0].message

    def test_health_check_earlier_in_function_passes(self, tmp_path):
        src = """
        def step(ctx, guard, q):
            guard.assert_healthy()
            ret = yield from ctx.wait(q)
            return ret
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_yielded_waitevent_flags_and_timeout_passes(self, tmp_path):
        flagged = """
        def step(done):
            ok, _ = yield WaitEvent(done)
        """
        timed = """
        def step(done):
            ok, _ = yield WaitEvent(done, 2.0)
        """
        assert len(lint(tmp_path, flagged, self.PATH, "FT001")) == 1
        assert lint(tmp_path, timed, self.PATH, "FT001") == []

    def test_plain_dict_get_not_confused_with_channel_get(self, tmp_path):
        # 'get' is blocking only as a yield-from generator, never as a
        # plain call
        src = """
        def lookup(d):
            return d.get("key", 1)
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_detector_module_exempt(self, tmp_path):
        src = """
        def probe(ctx, rank):
            ret = yield from ctx.wait(0)
            return ret
        """
        assert lint(tmp_path, src, "src/repro/ft/detector.py", "FT001") == []

    def test_check_inside_for_loop_body_passes(self, tmp_path):
        src = """
        def fanout(ctx, guard, queues):
            for q in queues:
                guard.assert_healthy()
                ret = yield from ctx.wait(q)
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_rechecked_wait_reads_the_flag(self, tmp_path):
        # the kernel reads the flag at every timeout of a recheck= wait,
        # inside a loop or not, whatever its timeout
        src = """
        def flush(ctx, guard, q, event):
            ret = yield from ctx.wait(q, recheck=guard.check)
            while True:
                ok, _ = yield WaitEvent(event, 1.0, recheck=guard.check)
                ret = yield from ctx.barrier(None, 1.0, recheck=guard.check)
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_team_collectives_are_guarded(self, tmp_path):
        src = """
        def finish(self, ftx, team, op):
            while True:
                yield from ftx.team.barrier()
                total = yield from self.team.allreduce(1, op)
                total = yield from team.allreduce(total, op)
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_unguarded_collectives_off_a_team_still_flag(self, tmp_path):
        src = """
        def agree(ctx, comm, op):
            while True:
                ret, total = yield from ctx.allreduce(1, op, None, 1.0)
                ret = yield from comm.barrier()
                ret = yield from ctx.team_of.barrier()
        """
        findings = lint(tmp_path, src, self.PATH, "FT001")
        assert len(findings) == 3
        assert all("retry loop" in f.message for f in findings)


# ----------------------------------------------------------------------
# FT002: randomness sources
# ----------------------------------------------------------------------
class TestFT002Semantics:
    PATH = "src/repro/gaspi/fixture.py"

    def test_numpy_global_rng_flags(self, tmp_path):
        src = """
        import numpy as np

        def draw():
            return np.random.rand(3)
        """
        assert len(lint(tmp_path, src, self.PATH, "FT002")) == 1

    def test_unseeded_default_rng_flags_seeded_passes(self, tmp_path):
        unseeded = """
        import numpy as np

        def make():
            return np.random.default_rng()
        """
        seeded = """
        import numpy as np

        def make():
            return np.random.default_rng(1234)
        """
        findings = lint(tmp_path, unseeded, self.PATH, "FT002")
        assert len(findings) == 1 and "seed" in findings[0].message
        assert lint(tmp_path, seeded, self.PATH, "FT002") == []

    def test_stdlib_random_alias_flags(self, tmp_path):
        src = """
        import random as rnd

        def draw():
            return rnd.random()
        """
        assert len(lint(tmp_path, src, self.PATH, "FT002")) == 1

    def test_datetime_now_flags(self, tmp_path):
        src = """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
        assert len(lint(tmp_path, src, self.PATH, "FT002")) == 1


# ----------------------------------------------------------------------
# FT003 / FT004 / FT005 specifics
# ----------------------------------------------------------------------
class TestFT003Semantics:
    def test_obs_package_exempt(self, tmp_path):
        src = """
        def note(tracer, t):
            tracer.emit(t, 0, "ping")
        """
        assert lint(tmp_path, src, "src/repro/obs/export.py", "FT003") == []

    def test_non_tracer_emit_ignored(self, tmp_path):
        src = """
        def pulse(beacon, t):
            beacon.emit(t)
        """
        assert lint(tmp_path, src, "src/repro/ft/fixture.py", "FT003") == []


class TestFT004Semantics:
    PATH = "src/repro/ft/fixture.py"

    def test_yield_before_check_flags(self, tmp_path):
        src = """
        def post(ctx, full):
            ret = ctx.write(0, 0, 8, 1, 0, 0)
            yield Sleep(1.0)
            return ret is full
        """
        findings = lint(tmp_path, src, self.PATH, "FT004")
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_result_never_checked_flags(self, tmp_path):
        src = """
        def post(ctx):
            ret = ctx.write(0, 0, 8, 1, 0, 0)
            return None
        """
        findings = lint(tmp_path, src, self.PATH, "FT004")
        assert len(findings) == 1
        assert "never checked" in findings[0].message

    def test_file_write_receiver_not_flagged(self, tmp_path):
        src = """
        def save(fh, data):
            fh.write(data)
        """
        assert lint(tmp_path, src, self.PATH, "FT004") == []


class TestFT005Semantics:
    PATH = "src/repro/ft/fixture.py"

    def test_bare_except_flags(self, tmp_path):
        src = """
        def recover(risky):
            try:
                risky()
            except:
                pass
        """
        assert len(lint(tmp_path, src, self.PATH, "FT005")) == 1

    def test_broad_member_of_tuple_flags(self, tmp_path):
        src = """
        def recover(risky):
            try:
                risky()
            except (ValueError, Exception):
                pass
        """
        assert len(lint(tmp_path, src, self.PATH, "FT005")) == 1

    def test_reraise_passes(self, tmp_path):
        src = """
        def recover(risky, cleanup):
            try:
                risky()
            except Exception:
                cleanup()
                raise
        """
        assert lint(tmp_path, src, self.PATH, "FT005") == []


class TestFT006Semantics:
    PATH = "src/repro/fixture.py"

    def test_private_and_nested_functions_exempt(self, tmp_path):
        src = """
        def _helper(x):
            return x

        def outer() -> int:
            def closure(y):
                return y
            return closure(1)
        """
        assert lint(tmp_path, src, self.PATH, "FT006") == []

    def test_init_needs_params_not_return(self, tmp_path):
        ok = """
        class Thing:
            def __init__(self, x: int):
                self.x = x
        """
        bad = """
        class Thing:
            def __init__(self, x):
                self.x = x
        """
        assert lint(tmp_path, ok, self.PATH, "FT006") == []
        findings = lint(tmp_path, bad, self.PATH, "FT006")
        assert len(findings) == 1 and "x" in findings[0].message

    def test_private_class_exempt(self, tmp_path):
        src = """
        class _Internal:
            def method(self, x):
                return x
        """
        assert lint(tmp_path, src, self.PATH, "FT006") == []


# ----------------------------------------------------------------------
# suppression mechanics and baseline identity
# ----------------------------------------------------------------------
class TestSuppressionMechanics:
    PATH = "src/repro/ft/fixture.py"

    def test_pragma_on_any_line_of_multiline_statement(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(
                q,
            )  # ftlint: disable=FT001 -- pragma on the closing line
            return ret
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_disable_file_scope(self, tmp_path):
        src = """
        # ftlint: disable-file=FT001 -- whole fixture exempt

        def a(ctx, q):
            ret = yield from ctx.wait(q)

        def b(ctx, q):
            ret = yield from ctx.wait(q)
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_disable_all_keyword(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(q)  # ftlint: disable=all -- fixture
        """
        assert lint(tmp_path, src, self.PATH, "FT001") == []

    def test_unrelated_rule_pragma_does_not_mute(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(q)  # ftlint: disable=FT006 -- wrong rule
        """
        assert len(lint(tmp_path, src, self.PATH, "FT001")) == 1


class TestBaselineIdentity:
    PATH = "src/repro/ft/fixture.py"
    SRC = """
    def step(ctx, q):
        ret = yield from ctx.wait(q)
        return ret
    """

    def test_fingerprint_survives_line_shift(self, tmp_path):
        first = lint(tmp_path, self.SRC, self.PATH, "FT001")
        shifted = lint(tmp_path, "\n\n\n# padding\n" + textwrap.dedent(self.SRC),
                       self.PATH, "FT001")
        assert len(first) == len(shifted) == 1
        assert first[0].line != shifted[0].line
        assert fingerprint(first[0]) == fingerprint(shifted[0])

    def test_stale_entries_reported(self, tmp_path):
        findings = lint(tmp_path, self.SRC, self.PATH, "FT001")
        baseline = Baseline(counts=Counter(
            [fingerprint(findings[0]), "feedfacedeadbeef"]))
        new, baselined, stale = split_by_baseline(findings, baseline)
        assert new == []
        assert len(baselined) == 1
        assert [e["fingerprint"] for e in stale] == ["feedfacedeadbeef"]

    def test_duplicate_findings_match_as_multiset(self, tmp_path):
        src = """
        def step(ctx, q):
            ret = yield from ctx.wait(q)
            ret = yield from ctx.wait(q)
            return ret
        """
        findings = lint(tmp_path, src, self.PATH, "FT001")
        assert len(findings) == 2
        # baseline holds only one occurrence: the second is new
        baseline = Baseline(counts=Counter([fingerprint(findings[0])]))
        new, baselined, _ = split_by_baseline(findings, baseline)
        assert len(baselined) == 1 and len(new) == 1

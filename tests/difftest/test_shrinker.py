"""Shrinker unit behaviour: ddmin, query simplification, repro emission."""

import pytest

from repro.difftest import MUTANTS, Case, Config, emit_repro, run_case
from repro.difftest.generators import CoreWindowCase
from repro.difftest.oracle import Divergence, run_core_window_case
from repro.difftest.shrinker import (
    _ddmin,
    _window_expr,
    emit_core_repro,
    shrink_case,
    shrink_core_case,
)


class TestDdmin:
    def test_minimises_to_single_culprit(self):
        failing = {7}
        result = _ddmin(list(range(20)),
                        lambda items: failing <= set(items))
        assert result == [7]

    def test_minimises_pair_of_culprits(self):
        failing = {3, 17}
        result = _ddmin(list(range(24)),
                        lambda items: failing <= set(items))
        assert sorted(result) == [3, 17]

    def test_keeps_all_when_everything_needed(self):
        items = [1, 2, 3]
        assert _ddmin(list(items), lambda c: c == items) == items


class TestCqlShrinking:
    def _failing_case(self):
        # A synthetic oracle below treats any case containing temp == 30
        # as failing, so real evaluator behaviour does not matter here.
        rows = [({"id": i, "room": "a", "temp": 30 if i == 4 else 1}, i)
                for i in range(8)]
        return Case(query="ISTREAM SELECT id, temp FROM Obs [Range 9]",
                    streams={"Obs": rows, "Alerts": []})

    @staticmethod
    def _oracle(case):
        hot = any(row["temp"] == 30
                  for rows in case.streams.values() for row, _ in rows)
        return Divergence("executor", "synthetic") if hot else None

    def test_shrinks_streams_and_query(self):
        case = self._failing_case()
        shrunk, divergence = shrink_case(case, self._oracle(case),
                                         oracle=self._oracle)
        assert divergence.kind == "executor"
        assert shrunk.total_rows() == 1
        # The R2S prefix and the wide window are irrelevant to the
        # synthetic failure, so query simplification strips both.
        assert "ISTREAM" not in shrunk.query
        assert "[Range 1]" in shrunk.query

    def test_preserves_divergence_kind(self):
        case = self._failing_case()

        def flipping(candidate):
            # Fewer than 2 rows -> a different kind; shrinking must not
            # chase it below that point.
            hot = self._oracle(candidate)
            if hot is None:
                return None
            if candidate.total_rows() < 2:
                return Divergence("dsms", "different bug")
            return hot

        shrunk, divergence = shrink_case(case, flipping(case),
                                         oracle=flipping)
        assert divergence.kind == "executor"
        assert shrunk.total_rows() == 2


class TestReproEmission:
    def test_emitted_file_is_runnable_and_passes_on_fixed_code(self, tmp_path):
        case = Case(
            query="SELECT COUNT(temp) AS n FROM Obs [Range 2]",
            streams={"Obs": [({"id": 0, "room": "a", "temp": None}, 0)],
                     "Alerts": []})
        assert run_case(case) is None
        path = emit_repro(case, Divergence("executor", "example"),
                          tmp_path / "test_repro_example.py")
        text = path.read_text()
        assert case.query in text
        namespace: dict = {}
        exec(compile(text, str(path), "exec"), namespace)
        namespace["test_shrunk_counterexample"]()

    def test_shrink_and_repro_pin_the_config_that_diverged(self, tmp_path):
        # The split prefix and the free axes are drawn from the case, so
        # a shrunk case must be judged by the config that diverged, not
        # by the configs it would draw itself.
        config = Config("dsms-crashed", driver="dsms", delivery="per-arrival",
                        crash="aimed", obs="profile")
        case = Case(query="SELECT O.id, R.floor FROM Obs O [Range 1], "
                          "Rooms R",
                    streams={"Obs": [({"id": 0, "room": "a", "temp": 0}, 0)]
                             * 3, "Alerts": []})
        factory, _leg = MUTANTS["state-log-coalesce"]
        with factory():
            divergence = run_case(case, configs=[config])
            assert divergence.kind == "dsms-crashed"
            assert divergence.config == config
            # The flight recorder's newest events name the checkpoints
            # and the recovery around the divergence.
            assert "'kind': 'recovery.attempt'" in divergence.detail
            _, shrunk = shrink_case(case, divergence)
            assert shrunk.config == config
            path = emit_repro(case, shrunk, tmp_path / "test_repro_pin.py")
            assert f"configs=[{config!r}]" in path.read_text()
            namespace: dict = {}
            exec(compile(path.read_text(), str(path), "exec"), namespace)
            with pytest.raises(AssertionError):
                namespace["test_shrunk_counterexample"]()
        namespace["test_shrunk_counterexample"]()

    def test_core_repro_uses_constructor_expressions(self, tmp_path):
        from repro.core.windows import SteppedRangeWindow

        window = SteppedRangeWindow(4, 3)
        assert _window_expr(window) == "SteppedRangeWindow(4, 3)"
        case = CoreWindowCase(window=window,
                              rows=[({"id": 0, "v": 1}, 2)])
        assert run_core_window_case(case) is None
        path = emit_core_repro(case, Divergence("core-sparse", "example"),
                               tmp_path / "test_repro_core.py")
        namespace: dict = {}
        text = path.read_text()
        exec(compile(text, str(path), "exec"), namespace)
        namespace["test_shrunk_core_counterexample"]()

    def test_core_shrink_minimises_rows(self):
        from repro.core.windows import SlidingWindow

        window = SlidingWindow(3, 7, 5)
        rows = [({"id": i, "v": 0}, t) for i, t in enumerate([0, 1, 5, 9])]
        case = CoreWindowCase(window=window, rows=rows)

        def oracle_rows(candidate_rows):
            return run_core_window_case(
                CoreWindowCase(window=window, rows=candidate_rows))

        # On fixed code there is nothing to shrink — returned unchanged.
        clean = run_core_window_case(case)
        assert clean is None
        unchanged, _ = shrink_core_case(
            case, Divergence("core-sparse", "not reproducible"))
        assert unchanged.rows == rows


@pytest.mark.difftest
def test_window_expr_covers_every_generated_window():
    import random

    from repro.difftest.generators import gen_core_window

    rng = random.Random(0)
    for _ in range(100):
        window = gen_core_window(rng)
        expression = _window_expr(window)
        assert type(window).__name__ in expression

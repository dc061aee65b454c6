"""Property-based tests for the PipeSort pipeline planner (SCD cover)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.kit.buildalgs.pipesort import plan_pipelines

names_strategy = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestPlannerProperties:
    @given(names_strategy)
    @settings(max_examples=100)
    def test_every_cuboid_covered(self, names):
        pipelines = plan_pipelines(names)
        covered = set()
        for order in pipelines:
            for plen in range(len(order) + 1):
                covered.add(frozenset(order[:plen]))
        assert len(covered) == 2 ** len(names)

    @given(names_strategy)
    @settings(max_examples=100)
    def test_pipeline_count_is_optimal(self, names):
        # symmetric chain decomposition: exactly C(n, n//2) pipelines
        n = len(names)
        assert len(plan_pipelines(names)) == math.comb(n, n // 2)

    @given(names_strategy)
    @settings(max_examples=100)
    def test_orders_are_permutations_of_their_sets(self, names):
        for order in plan_pipelines(names):
            assert len(set(order)) == len(order)
            assert set(order) <= set(names)

    @given(names_strategy)
    @settings(max_examples=100)
    def test_full_order_present_exactly_once(self, names):
        pipelines = plan_pipelines(names)
        full = [o for o in pipelines if len(o) == len(names)]
        assert len(full) == 1

    @given(names_strategy)
    @settings(max_examples=50)
    def test_deterministic(self, names):
        assert plan_pipelines(names) == plan_pipelines(list(reversed(names)))

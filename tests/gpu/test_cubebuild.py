"""Unit tests for GPU-side cube construction."""

import numpy as np
import pytest

from benchmarks.kit.cubebuild import build_cube_on_device
from repro.errors import CubeError, DeviceError
from repro.gpu.device import SimulatedGPU, TableDescriptor
from repro.olap.cube import OLAPCube
from repro.units import GB, MB


@pytest.fixture()
def device(fact_table):
    dev = SimulatedGPU(global_memory_bytes=GB)
    dev.load_table(fact_table)
    return dev


class TestCorrectness:
    @pytest.mark.parametrize("n_sm", [1, 4, 14])
    def test_matches_host_build(self, device, fact_table, n_sm):
        result = build_cube_on_device(device, "quantity", [1, 1, 1], n_sm=n_sm)
        direct = OLAPCube.from_fact_table(fact_table, "quantity", resolutions=[1, 1, 1])
        assert np.allclose(result.cube.component("sum"), direct.component("sum"))
        assert np.array_equal(
            result.cube.component("count"), direct.component("count")
        )

    def test_mixed_resolutions(self, device, fact_table):
        result = build_cube_on_device(device, "sales_price", [0, 2, 1])
        direct = OLAPCube.from_fact_table(
            fact_table, "sales_price", resolutions=[0, 2, 1]
        )
        assert np.allclose(result.cube.component("sum"), direct.component("sum"))

    def test_built_cube_answers_queries(self, device, fact_table):
        from repro.olap.subcube import answer_with_cube
        from repro.query.model import Condition, Query

        result = build_cube_on_device(device, "quantity", [1, 1, 1])
        q = Query(conditions=(Condition("date", 1, lo=0, hi=6),), measures=("quantity",))
        assert np.isclose(
            answer_with_cube(result.cube, q), fact_table.execute(q).value()
        )


class TestTimingAndAccounting:
    def test_more_sms_is_faster(self, device):
        t1 = build_cube_on_device(device, "quantity", [1, 1, 1], n_sm=1).simulated_time
        t14 = build_cube_on_device(device, "quantity", [1, 1, 1], n_sm=14).simulated_time
        assert t14 < t1

    def test_reduction_depth_is_log2(self, device):
        result = build_cube_on_device(device, "quantity", [0, 0, 0], n_sm=8)
        assert result.reduction_depth == 3
        single = build_cube_on_device(device, "quantity", [0, 0, 0], n_sm=1)
        assert single.reduction_depth == 0

    def test_bytes_streamed_accounts_columns_and_cube(self, device, fact_table):
        result = build_cube_on_device(device, "quantity", [0, 0, 0])
        dims = fact_table.schema.dimensions
        col_bytes = sum(
            fact_table.column_nbytes(f"{d.name}__{d.level(0).name}") for d in dims
        ) + fact_table.column_nbytes("quantity")
        assert result.bytes_streamed >= col_bytes


class TestGuards:
    def test_analytic_device_rejected(self, small_schema):
        dev = SimulatedGPU(global_memory_bytes=GB)
        dev.load_table(TableDescriptor(schema=small_schema, num_rows=1000))
        with pytest.raises(DeviceError, match="materialised"):
            build_cube_on_device(dev, "quantity", [0, 0, 0])

    def test_cell_budget(self, device):
        with pytest.raises(CubeError, match="budget"):
            build_cube_on_device(device, "quantity", [3, 3, 3], max_cells=1000)

    def test_memory_pressure(self, fact_table):
        dev = SimulatedGPU(global_memory_bytes=4 * MB)
        dev.load_table(fact_table)
        with pytest.raises(DeviceError, match="fit"):
            build_cube_on_device(dev, "quantity", [2, 2, 2])

    def test_resolution_count(self, device):
        with pytest.raises(CubeError):
            build_cube_on_device(device, "quantity", [0, 0])

"""``SELECT count(*)`` reads no column and still completes on both planes.

With no filter and no group-by, step 2 prices the GPU at a column
fraction of 0 (eq. 12-13).  Both GPU model families are affine in the
fraction, so such a query costs their fixed part; it must be scheduled
and answered with the table's row count, simulated or served.
"""

import dataclasses

import pytest

from repro.core.baselines import GPUOnlyScheduler
from repro.core.scheduler import HybridScheduler
from repro.gpu.device import SimulatedGPU
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.paper import XEON_X5667_8T, paper_partition_scheme
from repro.query.parser import parse_query
from repro.query.workload import QueryStream, TimedQuery
from repro.serve import FakeClock, MaterialisedExecutor, ServeEngine
from repro.sim.system import HybridSystem, SystemConfig
from repro.units import GB


@pytest.fixture(scope="module")
def config(fact_table, pyramid):
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    return SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        time_constraint=0.5,
    )


@pytest.fixture(scope="module")
def count_star(small_schema):
    hierarchies = {d.name: d for d in small_schema.dimensions}
    return parse_query("SELECT count(*)", hierarchies)


@pytest.mark.parametrize(
    "scheduler, target", [(HybridScheduler, "Q_CPU"), (GPUOnlyScheduler, "Q_G1")]
)
def test_simulated_count_star_is_the_row_count(
    config, count_star, fact_table, scheduler, target
):
    stream = QueryStream([TimedQuery(0.0, count_star, "default")])
    system = HybridSystem(dataclasses.replace(config, scheduler_factory=scheduler))
    (record,) = system.run(stream).records
    assert (record.target, record.answer) == (target, len(fact_table))


def test_served_count_star_is_the_row_count(config, count_star, fact_table):
    engine = ServeEngine(
        config,
        clock=FakeClock(),
        executor=MaterialisedExecutor(config, cpu_threads=1),
    )
    with engine:
        outcome = engine.submit(count_star)
        assert outcome.accepted
        assert outcome.ticket.wait(timeout=30)
    (record,) = engine.report().records
    assert (record.target, record.answer) == ("Q_CPU", len(fact_table))

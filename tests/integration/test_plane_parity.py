"""Plane parity: simulation and serving answer one stream identically.

Both drivers of the :class:`~repro.sim.lifecycle.QueryLifecycle`
realise a stage's work through the same
:class:`~repro.sim.executors.QueryExecutor`, so one materialised config
and one stream give ``==`` answers per query id whether the run is
simulated or served — on CPU-served, GPU-served and translated queries
alike — and both agree with the brute-force reference scan.
"""

import math

import numpy as np
import pytest

from repro.gpu.device import SimulatedGPU
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.paper import XEON_X5667_8T, paper_partition_scheme
from repro.query.workload import ArrivalProcess, QueryClass, WorkloadSpec
from repro.serve import FakeClock, MaterialisedExecutor, ServeEngine
from repro.sim.system import HybridSystem, SystemConfig
from repro.units import GB


@pytest.fixture(scope="module")
def config(fact_table, pyramid, translator):
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(fact_table)
    return SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=0.5,
    )


@pytest.fixture(scope="module")
def stream(small_schema, dataset):
    """Arrivals 10 s apart: every query is decided on an idle system, so
    both planes make the same Figure-10 decision for it."""
    spec = WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass("small", 0.5, resolution=1, coverage=(0.1, 0.5)),
            QueryClass(
                "mid",
                0.3,
                resolution=2,
                dims_constrained=(1, 2),
                coverage=(0.5, 1.0),
                text_prob=0.7,
            ),
            QueryClass("fine", 0.2, resolution=3, coverage=(0.2, 0.8), text_prob=0.5),
        ],
        measures=("sales_price",),
        text_levels=list(small_schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=19,
    )
    return spec.generate(60, ArrivalProcess("uniform", rate=0.1))


def served(config, stream):
    """The stream through a fake-clock engine, one query at a time."""
    clock = FakeClock()
    engine = ServeEngine(
        config, clock=clock, executor=MaterialisedExecutor(config, cpu_threads=1)
    )
    with engine:
        for timed in stream:
            ticket = engine.submit(timed.query, timed.query_class).ticket
            assert ticket.wait(timeout=30)
            clock.advance(10.0)
    return engine.report()


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def test_simulated_and_served_answers_are_equal(config, stream, fact_table, translator):
    simulated = {r.query_id: r for r in HybridSystem(config).run(stream).records}
    live = {r.query_id: r for r in served(config, stream).records}
    assert simulated.keys() == live.keys() == {t.query.query_id for t in stream}

    kinds = set()
    for timed in stream:
        sim, srv = simulated[timed.query.query_id], live[timed.query.query_id]
        assert (sim.target, sim.translated) == (srv.target, srv.translated)
        assert same(sim.answer, srv.answer), (timed.query, sim, srv)
        resolved = timed.query
        if resolved.needs_translation:
            resolved = translator.translate(resolved).query
        expected = fact_table.execute(resolved).value()
        assert np.isclose(sim.answer, expected, equal_nan=True), (timed.query, sim)
        kinds.add(("cpu" if sim.target == "Q_CPU" else "gpu", sim.translated))
    # the stream reaches every kind of work a stage performs
    assert kinds >= {("cpu", False), ("gpu", False), ("gpu", True)}
    assert any(
        t.query.needs_translation and simulated[t.query.query_id].target == "Q_CPU"
        for t in stream
    ), "no CPU-served text query (inline resolution) in the stream"

"""Serve-plane spans live in the injected clock's domain, not the wall's.

The regression this file pins: a serve engine given a
:class:`~repro.serve.FakeClock` must stamp *every* span — roots opened
in ``submit`` and stage spans recorded from worker threads — from that
clock, never from ``time.monotonic()`` directly.  Two identical runs
therefore produce byte-identical span buffers, and every timestamp is
bounded by the fake clock's final reading (a ``time.monotonic`` leak
would stamp hours of machine uptime instead).  The simulated plane
keeps the same rule for translated queries: the translator reports no
wall-clock cost onto any span.
"""

import json

import pytest

from repro.gpu.device import SimulatedGPU
from repro.gpu.timing import TESLA_C2070_TIMING
from repro.obs import SpanTracer
from repro.paper import XEON_X5667_8T, paper_partition_scheme, paper_system_config
from repro.query.model import Condition, Query
from repro.query.workload import QueryClass, WorkloadSpec
from repro.serve import FakeClock, NullExecutor, ServeEngine
from repro.sim import HybridSystem
from repro.sim.system import SystemConfig
from repro.sim.validate import assert_valid
from repro.units import GB

from tests.serve.conftest import CPU_FAST, GPU_TEXT, FixedEstimator
from tests.sim.test_system_rollup import make_router

SEED = 31


@pytest.fixture(scope="module")
def serve_config():
    return paper_system_config(include_32gb=False)


def traced_run(serve_config, router=None):
    """One scripted run: fixed query ids, fixed estimates, fake clock.

    With a ``router`` a fifth query is answered by the rollup tier.
    """
    clock = FakeClock()
    tracer = SpanTracer(1.0, seed=SEED, process="serve")
    engine = ServeEngine(
        serve_config,
        clock=clock,
        executor=NullExecutor(),
        estimator=FixedEstimator(CPU_FAST, GPU_TEXT),
        rollup=router,
        spans=tracer,
    ).start()
    submitted = [1, 2, 3, 4]
    try:
        for qid in submitted:
            engine.submit(Query(conditions=(), measures=("v",), query_id=qid))
            clock.advance(0.25)
        if router is not None:
            covered = Query(
                conditions=(Condition("date", 1, lo=0, hi=3),),
                measures=("sales_price",),
                query_id=5,
            )
            assert engine.submit(covered).cache_hit
            submitted.append(5)
            clock.advance(0.25)
        engine.drain()
    finally:
        engine.stop(finish_queued=False)
    report = engine.report()
    spans = tracer.spans()
    assert_valid(report, spans=spans, seed=SEED, sample_rate=1.0, submitted=submitted)
    return spans, clock.now()


def fingerprint(spans):
    """Every field of every span, minus the one attribute that is a
    measured wall-time *cost* (a hit's real projection ``seconds``)
    rather than a timestamp."""
    docs = [s.to_dict() for s in spans]
    for doc in docs:
        doc["attributes"].pop("seconds", None)
    return sorted(json.dumps(doc, sort_keys=True) for doc in docs)


@pytest.fixture()
def router(fact_table, small_schema):
    return make_router(fact_table, small_schema)


@pytest.fixture(scope="module")
def text_config(fact_table, pyramid, translator):
    """A materialised config whose text queries really are translated."""
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
def text_stream(small_schema, dataset):
    spec = WorkloadSpec(
        small_schema.dimensions,
        [
            QueryClass(
                "mid", 1.0, resolution=2, dims_constrained=(1, 2), coverage=(0.5, 1.0),
                text_prob=1.0,
            )
        ],
        measures=("sales_price",),
        text_levels=list(small_schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=23,
    )
    return spec.generate(12)


def simulated_spans(config, stream):
    tracer = SpanTracer(1.0, seed=SEED, process="sim")
    HybridSystem(config).run(stream, spans=tracer)
    return tracer.spans()


class TestClockDomains:
    def test_identical_runs_stamp_identical_spans(self, serve_config):
        first, _ = traced_run(serve_config)
        second, _ = traced_run(serve_config)
        assert fingerprint(first) == fingerprint(second)

    def test_a_rollup_hit_is_stamped_in_the_fake_domain_too(
        self, serve_config, router
    ):
        """The hit's real projection takes wall-clock microseconds; none
        of them may reach a span timestamp."""
        first, _ = traced_run(serve_config, router)
        second, _ = traced_run(serve_config, router)
        assert any(s.name == "rollup.hit" for s in first)
        assert fingerprint(first) == fingerprint(second)

    def test_timestamps_are_in_the_fake_domain(self, serve_config):
        spans, final = traced_run(serve_config)
        assert spans
        assert final < 10.0
        for span in spans:
            # a time.monotonic() leak would stamp machine uptime here
            assert 0.0 <= span.start <= final + 1e-9
            assert 0.0 <= span.end <= final + 1e-9

    def test_translated_simulated_runs_stamp_identical_spans(
        self, text_config, text_stream
    ):
        """Two identical simulated runs with translated queries: every
        span field agrees, so no wall-clock translation cost rides on
        any of them."""
        first = simulated_spans(text_config, text_stream)
        second = simulated_spans(text_config, text_stream)
        assert any(s.track == "Q_TRANS" for s in first)
        assert fingerprint(first) == fingerprint(second)

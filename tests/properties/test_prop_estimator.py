"""Property tests: step 2 is one feature pass, equal to its reference.

``SystemEstimator.features`` turns a query into the three model inputs
of Figure 10's step 2 — :math:`SC_{size}` (eq. 3), the column fraction
(eq. 12-13) and the eq. 18 terms — and both ``estimate`` and
``estimate_batch`` read it.  The reference is written here from the
pieces the rest of the system uses: ``CubePyramid.subcube_size_mb``,
``decompose``, ``SimulatedGPU.estimate_time`` and the eq. 18 sum.  The
two must give the same floats (``==``, no tolerance) or raise the same
exception type, for grouped, count, code, text and range queries, a
``SELECT count(*)`` that reads no column, bad ranges and resolutions
and unknown dimensions, on a monotone pyramid and on a zigzag one (a
dimension coarser in a bigger level).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import QueryEstimates
from repro.errors import CubeNotAvailableError, TranslationError
from repro.gpu.timing import LinearColumnTiming
from repro.olap.pyramid import CubePyramid, PyramidLevel
from repro.paper import paper_system_config
from repro.query.model import Condition, Query, decompose
from repro.sim.system import SystemEstimator

#: the paper system, with a dictionary for every d1-d3 column (the
#: customer columns keep theirs only at the finest level, so a text
#: condition on ``cust.segment`` has no length: a TranslationError)
PAPER = replace(
    paper_system_config(include_32gb=False),
    dict_lengths={
        **{f"d{i}__L{r}": 8 * 5**r for i in (1, 2, 3) for r in range(4)},
        "cust__name": 1_130_000,
    },
)
ZIGZAG = replace(
    PAPER,
    pyramid=CubePyramid(
        PAPER.pyramid.dimensions,
        [
            PyramidLevel((3, 0, 1), 16),
            PyramidLevel((0, 2, 2), 16),
            PyramidLevel((1, 1, 3), 16),
        ],
        measure=PAPER.pyramid.measure,
    ),
)
#: the pyramid's three dimensions, one the pyramid lacks, one unknown
DIMENSIONS = ("d1", "d2", "d3", "cust", "nowhere")
#: an adapted GPU family, so both branches of the GPU model are drawn
ADAPTED_GPU = LinearColumnTiming({1: (0.31, 0.011), 4: (0.07, 0.002)})


@st.composite
def conditions(draw, dimension):
    res = draw(st.integers(0, 4))  # 4 is past every finest level
    kind = draw(st.sampled_from(("range", "codes", "text")))
    if kind == "range":
        lo = draw(st.integers(0, 1700))
        return Condition(dimension, res, lo=lo, hi=lo + draw(st.integers(1, 2000)))
    if kind == "codes":
        codes = draw(st.lists(st.integers(0, 1700), min_size=1, max_size=4))
        return Condition(dimension, res, codes=tuple(codes))
    literals = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
    return Condition(dimension, res, text_values=tuple(literals))


#: ``SELECT count(*)``: no filter, no group-by, no measure, so step 2
#: prices the GPU at a column fraction of 0
COUNT_STAR = Query(conditions=(), measures=(), agg="count")


@st.composite
def queries(draw):
    if draw(st.integers(0, 9)) == 0:
        return COUNT_STAR
    filtered = draw(st.lists(st.sampled_from(DIMENSIONS), unique=True, max_size=4))
    grouped = draw(st.lists(st.sampled_from(DIMENSIONS), unique=True, max_size=2))
    agg = draw(st.sampled_from(("sum", "count", "avg")))
    choices = (("m1",), ("m2",)) + (((), ("m1", "m2")) if agg == "count" else ())
    measures = draw(st.sampled_from(choices))
    return Query(
        conditions=tuple(draw(conditions(d)) for d in filtered),
        measures=measures,
        agg=agg,
        group_by=tuple((d, draw(st.integers(0, 4))) for d in grouped),
    )


def reference(config, bundle, query) -> QueryEstimates:
    """Step 2 from the pyramid, the decomposition and the device."""
    try:
        t_cpu = bundle.cpu.time(config.pyramid.subcube_size_mb(query))
    except CubeNotAvailableError:
        t_cpu = None
    decomposition = decompose(query, config.device.descriptor.schema.hierarchies)
    if bundle.gpu is None:
        t_gpu = {
            n_sm: config.device.estimate_time(decomposition, n_sm)
            for n_sm in config.scheme.distinct_sm_counts
        }
    else:
        frac = decomposition.column_fraction(config.device.descriptor.total_columns)
        t_gpu = {
            n_sm: bundle.gpu.query_time(frac, n_sm)
            for n_sm in config.scheme.distinct_sm_counts
        }
    t_trans = 0.0
    for pred in decomposition.text_predicates:
        if pred.column not in config.dict_lengths:
            raise TranslationError(f"no dictionary length known for column {pred.column!r}")
        d_l = config.dict_lengths[pred.column]
        t_trans += len(pred.condition.text_values) * bundle.dict_model.time(d_l)
    return QueryEstimates(t_cpu=t_cpu, t_gpu=t_gpu, t_trans=t_trans)


def outcome(call, *args):
    """The value, or the exception type, of one call."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return "raised", type(exc)


@settings(max_examples=150, deadline=None)
@given(
    config=st.sampled_from((PAPER, ZIGZAG)),
    adapted=st.booleans(),
    drawn=st.lists(queries(), min_size=1, max_size=8),
)
def test_estimate_is_the_reference_and_the_batch_is_the_loop(config, adapted, drawn):
    estimator = SystemEstimator(config)
    if adapted:
        estimator.install(replace(estimator.models(), gpu=ADAPTED_GPU))
    bundle = estimator.models()
    estimated = []
    for query in drawn:
        got = outcome(estimator.estimate, query)
        assert got == outcome(reference, config, bundle, query), query
        if got[0] == "ok":
            estimated.append((query, got[1]))
    batch = [query for query, _ in estimated]
    assert estimator.estimate_batch(batch) == [est for _, est in estimated]


def test_the_draws_reach_every_branch():
    """Guard against a vacuous pass: the strategies reach a CPU level
    on both pyramids, grouped and text queries that estimate, and each
    error the reference raises."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(config=st.sampled_from((PAPER, ZIGZAG)), query=queries())
    def collect(config, query):
        got = outcome(SystemEstimator(config).estimate, query)
        if got[0] == "raised":
            seen.add(got[1].__name__)
        else:
            pyramid = "paper" if config is PAPER else "zigzag"
            if got[1].t_cpu is not None:
                seen.add(f"cpu-{pyramid}")
            if query.group_by:
                seen.add("grouped")
            if got[1].t_trans > 0:
                seen.add("text")
            if query is COUNT_STAR:
                seen.add("zero-column")

    collect()
    assert {
        "cpu-paper",
        "cpu-zigzag",
        "grouped",
        "text",
        "zero-column",
        "DimensionError",
        "ResolutionError",
        "TranslationError",
    } <= seen

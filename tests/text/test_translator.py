"""Unit tests for the query translation service (Section III-F)."""

import numpy as np
import pytest

from repro.errors import TranslationError, UnknownTokenError
from repro.query.model import Condition, Query
from repro.text.dictionary import ColumnDictionary
from repro.text.translator import TranslationService


@pytest.fixture(scope="module")
def text_column(small_schema):
    return small_schema.text_columns[0]  # store__city


@pytest.fixture(scope="module")
def city_query(dataset, text_column, small_schema):
    vocab = dataset.vocabularies[text_column.name]
    cond = Condition(
        text_column.dimension,
        text_column.resolution,
        text_values=(vocab[3], vocab[7]),
    )
    return Query(conditions=(cond,), measures=("quantity",))


class TestTranslate:
    def test_text_replaced_by_codes(self, translator, city_query):
        result = translator.translate(city_query)
        (cond,) = result.query.conditions
        assert not cond.is_text
        assert cond.codes == (3, 7)

    def test_query_identity_preserved(self, translator, city_query):
        result = translator.translate(city_query)
        assert result.query.query_id == city_query.query_id

    def test_lookup_records(self, translator, city_query, text_column):
        result = translator.translate(city_query)
        assert result.parameters_translated == 2
        assert all(col == text_column.name for col, _, _ in result.lookups)

    def test_numeric_query_passthrough(self, translator, small_schema):
        d = small_schema.dimensions[0].name
        q = Query(conditions=(Condition(d, 1, lo=0, hi=4),), measures=("quantity",))
        result = translator.translate(q)
        assert result.query is q
        assert result.parameters_translated == 0

    def test_unknown_literal_raises(self, translator, text_column):
        cond = Condition(
            text_column.dimension, text_column.resolution, text_values=("Atlantis!",)
        )
        q = Query(conditions=(cond,), measures=("quantity",))
        with pytest.raises(UnknownTokenError):
            translator.translate(q)

    def test_mixed_conditions(self, translator, dataset, text_column, small_schema):
        vocab = dataset.vocabularies[text_column.name]
        other_dim = next(
            d.name for d in small_schema.dimensions if d.name != text_column.dimension
        )
        q = Query(
            conditions=(
                Condition(other_dim, 1, lo=2, hi=5),
                Condition(
                    text_column.dimension,
                    text_column.resolution,
                    text_values=(vocab[0],),
                ),
            ),
            measures=("quantity",),
        )
        result = translator.translate(q)
        numeric, coded = result.query.conditions
        assert numeric.is_range
        assert coded.codes == (0,)

    def test_translated_answers_match_raw_codes(
        self, translator, dataset, fact_table, text_column
    ):
        vocab = dataset.vocabularies[text_column.name]
        q_text = Query(
            conditions=(
                Condition(
                    text_column.dimension,
                    text_column.resolution,
                    text_values=(vocab[5],),
                ),
            ),
            measures=("quantity",),
        )
        q_codes = Query(
            conditions=(
                Condition(text_column.dimension, text_column.resolution, codes=(5,)),
            ),
            measures=("quantity",),
        )
        translated = translator.translate(q_text).query
        assert np.isclose(
            fact_table.execute(translated).value("quantity"),
            fact_table.execute(q_codes).value("quantity"),
        )


class TestEstimation:
    """Eq. 18 over this service's dictionaries.

    The service reports the lengths; the bound itself is the configured
    :class:`DictPerfModel` read through :class:`SystemEstimator` — the
    figure the scheduler books.
    """

    @pytest.fixture(scope="class")
    def config(self, fact_table, pyramid, translator):
        from repro.core.perfmodel import XEON_X5667_8T
        from repro.gpu import SimulatedGPU, paper_partition_scheme
        from repro.gpu.timing import TESLA_C2070_TIMING
        from repro.sim import SystemConfig
        from repro.units import GB

        device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
        device.load_table(fact_table)
        return SystemConfig(
            cpu_model=XEON_X5667_8T,
            pyramid=pyramid,
            device=device,
            scheme=paper_partition_scheme(),
            translation_service=translator,
        )

    @pytest.fixture(scope="class")
    def two_column_query(self, dataset, small_schema, city_query):
        brand = small_schema.text_columns[2]  # item__brand
        cond = Condition(
            brand.dimension,
            brand.resolution,
            text_values=(dataset.vocabularies[brand.name][1],),
        )
        return Query(conditions=city_query.conditions + (cond,), measures=("quantity",))

    def expected(self, translator, dict_model):
        # two literals against store__city, one against item__brand
        return 2 * dict_model.time(
            translator.dictionary_length("store__city")
        ) + 1 * dict_model.time(translator.dictionary_length("item__brand"))

    def test_eq18_sums_per_parameter(self, translator, config, two_column_query):
        from repro.core.perfmodel import PAPER_DICT_MODEL
        from repro.sim.system import SystemEstimator

        t_trans = SystemEstimator(config).estimate(two_column_query).t_trans
        assert t_trans == self.expected(translator, PAPER_DICT_MODEL) > 0.0

    def test_custom_cost_model(self, translator, config, two_column_query):
        """The configured model is the one used, not the paper's."""
        from dataclasses import replace

        from repro.core.perfmodel import DictPerfModel
        from repro.sim.system import SystemEstimator

        slow = DictPerfModel(cost_per_entry=1e-3)
        estimator = SystemEstimator(replace(config, dict_model=slow))
        t_trans = estimator.estimate(two_column_query).t_trans
        assert t_trans == self.expected(translator, slow)
        assert estimator.estimate_batch([two_column_query])[0].t_trans == t_trans


class TestValidation:
    def test_mismatched_registration(self, small_schema):
        wrong = ColumnDictionary("other", ["a", "b"])
        with pytest.raises(TranslationError):
            TranslationService({"store__city": wrong}, small_schema.hierarchies)

    def test_missing_dictionary(self, dictionaries, small_schema):
        svc = TranslationService(
            {k: v for k, v in dictionaries.items() if k != "store__city"},
            small_schema.hierarchies,
        )
        with pytest.raises(TranslationError):
            svc.dictionary_for("store__city")


class TestScanText:
    def test_finds_dictionary_terms_in_free_text(self, translator, dataset):
        column = "store__city"
        city = dataset.vocabularies[column][11]
        hits = translator.scan_text(f"total sales in {city} last month")
        assert any(col == column and m.keyword == city for col, m in hits)

    def test_no_terms(self, translator):
        assert translator.scan_text("0123456789 @@@") == []


class TestTranslateBatch:
    """``translate_batch`` == a ``translate`` loop."""

    @pytest.fixture()
    def batch_queries(self, dataset, small_schema):
        queries = []
        for col in small_schema.text_columns[:2]:
            vocab = dataset.vocabularies[col.name]
            queries.append(
                Query(
                    conditions=(
                        Condition(
                            col.dimension,
                            col.resolution,
                            text_values=(vocab[1], vocab[0]),
                        ),
                    ),
                    measures=("quantity",),
                )
            )
        numeric_dim = small_schema.dimensions[0].name
        queries.append(
            Query(
                conditions=(Condition(numeric_dim, 1, lo=0, hi=3),),
                measures=("quantity",),
            )
        )
        return queries

    def test_results_equal_scalar_loop(self, translator, batch_queries):
        batch = translator.translate_batch(batch_queries)
        for query, via_batch in zip(batch_queries, batch):
            scalar = translator.translate(query)
            assert via_batch == scalar

    def test_unknown_token_matches_scalar_error(
        self, translator, dataset, text_column
    ):
        vocab = dataset.vocabularies[text_column.name]
        good = Query(
            conditions=(
                Condition(
                    text_column.dimension,
                    text_column.resolution,
                    text_values=(vocab[2],),
                ),
            ),
            measures=("quantity",),
        )
        bad = Query(
            conditions=(
                Condition(
                    text_column.dimension,
                    text_column.resolution,
                    text_values=("Atlantis!",),
                ),
            ),
            measures=("quantity",),
        )
        with pytest.raises(UnknownTokenError) as batch_err:
            translator.translate_batch([good, bad])
        with pytest.raises(UnknownTokenError) as scalar_err:
            translator.translate(bad)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_cross_column_tokens_stay_unknown(self, dataset, small_schema):
        # a token known to column B but not column A must still be
        # rejected for A: each literal resolves in its own column
        col_a, col_b = small_schema.text_columns[:2]
        token_b = dataset.vocabularies[col_b.name][0]
        assert token_b not in dataset.vocabularies[col_a.name]
        service = TranslationService(
            {
                col_a.name: ColumnDictionary(
                    col_a.name, dataset.vocabularies[col_a.name]
                ),
                col_b.name: ColumnDictionary(
                    col_b.name, dataset.vocabularies[col_b.name]
                ),
            },
            small_schema.hierarchies,
        )
        query = Query(
            conditions=(
                Condition(
                    col_a.dimension, col_a.resolution, text_values=(token_b,)
                ),
            ),
            measures=("quantity",),
        )
        with pytest.raises(UnknownTokenError, match=col_a.name):
            service.translate_batch([query])

    def test_separator_fallback_leaves_scan_text_whole(self, small_schema, text_column):
        # free-text scanning matches a vocabulary term that contains a
        # NUL, also after the same service translated a batch
        service = TranslationService(
            {
                text_column.name: ColumnDictionary(
                    text_column.name, ("plain", "with\x00separator")
                )
            },
            small_schema.hierarchies,
        )
        query = Query(
            conditions=(
                Condition(
                    text_column.dimension, text_column.resolution, text_values=("plain",)
                ),
            ),
            measures=("quantity",),
        )
        service.translate_batch([query])
        found = [m.keyword for _, m in service.scan_text("a with\x00separator b")]
        assert found == ["with\x00separator"]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_component
from wlsynth.catalog import (
    ORIGIN_AUGMENTED,
    ORIGIN_BENCHMARK,
    Catalog,
    DatabaseDescriptor,
    WorkloadComponent,
    SimulatedExecutor,
    load_catalog,
    profile_component,
    save_catalog,
)
from wlsynth.errors import ProfilingError, SchemaError, TraceParseError, ValidationError
from wlsynth.features import FeatureSchema, PerformanceFeature


class TestCatalog:
    def test_round_trip(self, schema, tmp_path):
        catalog = make_catalog(schema, [
            ("c1", 30000, [5, 2, 1, 0, 1, 0]),
            ("c2", 12000, [1.5, 8, 0, 2, 0, 1]),
        ])
        path = tmp_path / "cat.csv"
        save_catalog(catalog, path)
        back = load_catalog(path, schema)
        assert len(back) == 2
        for a, b in zip(catalog, back):
            assert a.component_id == b.component_id
            assert a.duration_ms == b.duration_ms
            assert a.database_ref == b.database_ref
            assert a.feature == b.feature
            assert a.origin == b.origin

    def test_duplicate_id_rejected(self, schema):
        with pytest.raises(ValidationError, match="duplicate"):
            make_catalog(schema, [
                ("c1", 1000, [1, 1, 0, 0, 0, 0]),
                ("c1", 2000, [2, 2, 0, 0, 0, 0]),
            ])

    def test_dimension_mismatch_rejected(self, schema, small_schema):
        catalog = make_catalog(schema, [("c1", 1000, [1, 1, 0, 0, 0, 0])])
        with pytest.raises(SchemaError):
            catalog.add(make_component(small_schema, "c2", 1000, [1, 1, 0, 0]))

    def test_unknown_id_is_loud(self, schema):
        catalog = make_catalog(schema, [("c1", 1000, [1, 1, 0, 0, 0, 0])])
        with pytest.raises(ValidationError, match="c9"):
            catalog.get("c9")

    def test_feature_matrix_order(self, schema):
        catalog = make_catalog(schema, [
            ("c1", 1000, [1, 2, 3, 4, 5, 6]),
            ("c2", 1000, [7, 8, 9, 10, 11, 12]),
        ])
        np.testing.assert_array_equal(
            catalog.feature_matrix(),
            [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]],
        )

    def test_short_row_is_typed_error(self, schema, tmp_path):
        path = tmp_path / "cat.csv"
        save_catalog(make_catalog(schema, [("c1", 1000, [1, 1, 0, 0, 0, 0])]), path)
        header, row = path.read_text().splitlines()
        path.write_text(header + "\n" + ",".join(row.split(",")[:4]) + "\n")
        with pytest.raises(TraceParseError, match="row 2, column 'cpu_time_ms': missing value"):
            load_catalog(path, schema)

    @pytest.mark.parametrize("cut, column", [(1, "origin"), (2, "query_ref")])
    def test_row_without_trailing_cells_is_typed_error(self, schema, tmp_path, cut, column):
        path = tmp_path / "cat.csv"
        save_catalog(make_catalog(schema, [("c1", 1000, [1, 1, 0, 0, 0, 0])]), path)
        header, row = path.read_text().splitlines()
        path.write_text(header + "\n" + ",".join(row.split(",")[:-cut]) + "\n")
        with pytest.raises(TraceParseError, match=f"row 2, column '{column}': missing value"):
            load_catalog(path, schema)

    def test_fractional_skewness_is_typed_error(self, schema, tmp_path):
        path = tmp_path / "cat.csv"
        save_catalog(make_catalog(schema, [("c1", 1000, [1, 1, 0, 0, 0, 0])]), path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[header.split(",").index("skewness")] = "1.5"
        path.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(ValidationError,
                           match="row 2, column 'skewness': non-integral value 1.5"):
            load_catalog(path, schema)

    def test_descriptor_validation(self):
        with pytest.raises(ValidationError):
            DatabaseDescriptor("tpch", 0.0)
        with pytest.raises(ValidationError):
            DatabaseDescriptor("tpch", 1.0, skewness=5)


_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=8)
_values = st.floats(0, 1e300, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def catalog_rows(draw):
    ids = draw(st.lists(_text, unique=True, max_size=6))
    return [(cid, draw(_text), draw(_positive), draw(st.integers(0, 4)), draw(_positive),
             draw(st.lists(_values, min_size=6, max_size=6)), draw(_text),
             draw(st.sampled_from((ORIGIN_BENCHMARK, ORIGIN_AUGMENTED)))) for cid in ids]


@settings(max_examples=100, deadline=None)
@given(rows=catalog_rows())
def test_catalog_csv_round_trip(tmp_path_factory, rows):
    """save_catalog then load_catalog gives back every value, including query
    texts with commas, quotes and newlines."""
    schema = FeatureSchema(metrics=("cpu_time_ms", "scanned_bytes"),
                           operators=("filter_num", "aggregate_num", "join_num", "sort_num"))
    catalog = Catalog([
        WorkloadComponent(cid, query_ref, DatabaseDescriptor(benchmark, scale_factor, skewness),
                          duration_ms, PerformanceFeature(values[:2], values[2:]), origin)
        for cid, benchmark, scale_factor, skewness, duration_ms, values, query_ref, origin
        in rows], schema)
    path = tmp_path_factory.getbasetemp() / "catalog.csv"
    save_catalog(catalog, path)
    back = load_catalog(path, schema)
    assert [(c.component_id, c.database_ref, c.duration_ms, c.feature.as_vector().tolist(),
             c.query_ref, c.origin) for c in back] == \
        [(c.component_id, c.database_ref, c.duration_ms, c.feature.as_vector().tolist(),
          c.query_ref, c.origin) for c in catalog]


class TestSimulatedExecutor:
    def test_annotation_parsing(self, schema):
        ex = SimulatedExecutor(schema)
        query = "SELECT 1 /* profile: duration_ms=120; cpu_time_ms=40; scanned_bytes=7.5; filter_num=2; */"
        duration, feature = ex.run(query, DatabaseDescriptor("tpch", 1.0))
        assert duration == 120
        np.testing.assert_array_equal(feature.metrics, [40, 7.5])
        np.testing.assert_array_equal(feature.operators, [2, 0, 0, 0])

    def test_metric_caps_scale_with_database(self, schema):
        ex = SimulatedExecutor(schema, metric_caps_per_sf={"scanned_bytes": 3.0})
        query = "SELECT 1 /* profile: duration_ms=10; cpu_time_ms=5; scanned_bytes=100; */"
        _, at_sf1 = ex.run(query, DatabaseDescriptor("tpch", 1.0))
        _, at_sf4 = ex.run(query, DatabaseDescriptor("tpch", 4.0))
        assert at_sf1.metrics[1] == 3.0
        assert at_sf4.metrics[1] == 12.0
        assert at_sf1.metrics[0] == 5.0  # uncapped metric untouched

    def test_no_annotation_fails(self, schema):
        ex = SimulatedExecutor(schema)
        with pytest.raises(ValidationError):
            ex.run("SELECT 1", DatabaseDescriptor("tpch", 1.0))

    def test_noise_is_seeded(self, schema):
        query = "SELECT 1 /* profile: duration_ms=100; cpu_time_ms=50; */"
        db = DatabaseDescriptor("tpch", 1.0)
        runs_a = [SimulatedExecutor(schema, noise_sigma=0.1, seed=5).run(query, db)
                  for _ in range(1)]
        runs_b = [SimulatedExecutor(schema, noise_sigma=0.1, seed=5).run(query, db)
                  for _ in range(1)]
        assert runs_a[0][0] == runs_b[0][0]
        assert runs_a[0][0] != 100.0


class TestProfileComponent:
    def test_mean_over_repetitions(self, schema):
        comp = make_component(schema, "c1", 1.0, [0, 0, 0, 0, 0, 0])
        comp.query_ref = "q /* profile: duration_ms=100; cpu_time_ms=30; */"
        ex = SimulatedExecutor(schema, noise_sigma=0.2, seed=1)
        profile_component(comp, ex, repetitions=5)
        twin = SimulatedExecutor(schema, noise_sigma=0.2, seed=1)
        runs = [twin.run(comp.query_ref, comp.database_ref) for _ in range(5)]
        assert len({duration for duration, _ in runs}) == 5
        assert comp.duration_ms == np.mean([duration for duration, _ in runs])
        np.testing.assert_array_equal(comp.feature.metrics,
                                      np.mean([f.metrics for _, f in runs], axis=0))

    def test_noiseless_profile_is_exact(self, schema):
        comp = make_component(schema, "c1", 1.0, [0, 0, 0, 0, 0, 0])
        comp.query_ref = "q /* profile: duration_ms=100; cpu_time_ms=30; scanned_bytes=4; */"
        profile_component(comp, SimulatedExecutor(schema), repetitions=3)
        assert comp.duration_ms == 100.0
        np.testing.assert_array_equal(comp.feature.metrics, [30, 4])

    def test_failed_run_leaves_component_untouched(self, schema):
        comp = make_component(schema, "c1", 77.0, [9, 9, 0, 0, 0, 0])
        with pytest.raises(ProfilingError) as excinfo:
            profile_component(comp, SimulatedExecutor(schema), repetitions=3)
        assert excinfo.value.run_index == 0
        assert comp.duration_ms == 77.0
        np.testing.assert_array_equal(comp.feature.metrics, [9, 9])

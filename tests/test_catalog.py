import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_catalog, make_component
from wlsynth.catalog import (
    ORIGIN_AUGMENTED,
    ORIGIN_BENCHMARK,
    Catalog,
    DatabaseDescriptor,
    SimulatedExecutor,
    load_catalog,
    profile_query,
    save_catalog,
)
from wlsynth.errors import ProfilingError, SchemaError, TraceParseError, ValidationError
from wlsynth.features import FeatureSchema


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
        for a, b in zip(map(catalog.row, range(2)), map(back.row, range(2))):
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
        columns = make_catalog(small_schema, [("c1", 1000, [1, 1, 0, 0])]).columns
        with pytest.raises(SchemaError, match="component 'c1' feature dimensions"):
            Catalog(*columns, schema)

    @pytest.mark.parametrize("column, value, message", [
        (2, 0.0, "scale_factor must be positive"),
        (3, 5, "skewness level must be in 0..4"),
        (3, -1, "skewness level must be in 0..4"),
        (4, 0.0, "duration_ms must be positive"),
        (4, np.nan, "duration_ms must be finite"),
        (4, np.inf, "duration_ms must be finite"),
        (4, -np.inf, "duration_ms must be finite"),
        (5, [1, np.inf, 0, 0, 0, 0], "feature entries must be finite"),
        (5, [1, 1, 0, -1, 0, 0], "feature entries must be nonnegative"),
    ])
    def test_column_checks_name_the_first_offending_component(self, schema, column, value,
                                                              message):
        columns = list(make_catalog(schema, [(f"c{j}", 1000, [1, 1, 0, 0, 0, 0])
                                             for j in range(4)]).columns)
        columns[column][2] = columns[column][3] = value
        with pytest.raises(ValidationError, match=f"^component 'c2': {message}$"):
            Catalog(*columns, schema)

    def test_first_offending_row_wins_over_check_order(self, schema):
        """A repeated id reported before a bad duration in a later row, as a
        row-by-row check would."""
        columns = list(make_catalog(schema, [(f"c{j}", 1000, [1, 1, 0, 0, 0, 0])
                                             for j in range(3)]).columns)
        columns[0] = ["c0", "c0", "c2"]
        columns[4] = np.array([1000.0, 1000.0, -1.0])
        with pytest.raises(ValidationError, match="^duplicate component_id 'c0'$"):
            Catalog(*columns, schema)

    def test_id_ending_in_nul_rejected(self, schema):
        """A numpy str array drops a trailing NUL, so `c1` and `c1\\x00` would
        replay as one component; a NUL inside an id is kept."""
        values = [1, 1, 0, 0, 0, 0]
        with pytest.raises(ValidationError, match=r"^component 'c1\\x00': component_id ends "
                                                  "in a NUL character$"):
            make_catalog(schema, [("c1", 1000, values), ("c1\0", 1000, values)])
        assert make_catalog(schema, [("c\x001", 1000, values)]).ids == ["c\x001"]

    def test_index_maps_ids_to_rows(self, schema):
        catalog = make_catalog(schema, [(cid, 1000, [1, 1, 0, 0, 0, 0]) for cid in "bca"])
        np.testing.assert_array_equal(catalog.index(["a", "b", "a"]), [2, 0, 2])
        with pytest.raises(ValidationError, match="unknown component_id 'z'"):
            catalog.index(np.array(["a", "z"]))

    def test_appended_leaves_the_catalog_unchanged(self, schema):
        catalog = make_catalog(schema, [("c1", 1000, [1, 2, 3, 4, 5, 6])])
        features = catalog.features
        grown = catalog.appended(make_component(schema, "c2", 2000, [7, 8, 9, 10, 11, 12],
                                                scale_factor=2.0, skewness=1))
        assert len(catalog) == 1 and catalog.features is features
        assert grown.ids == ["c1", "c2"]
        assert grown.row(1) == make_component(schema, "c2", 2000, [7, 8, 9, 10, 11, 12],
                                              scale_factor=2.0, skewness=1)
        with pytest.raises(ValidationError, match="duplicate component_id 'c1'"):
            grown.appended(catalog.row(0))

    @pytest.mark.parametrize("duration", ["nan", "inf", "1e400", "-inf"])
    def test_component_of_no_finite_duration_rejected(self, schema, duration):
        with pytest.raises(ValidationError, match="^component 'c2': duration_ms must be finite$"):
            make_component(schema, "c2", float(duration), [1, 1, 0, 0, 0, 0])

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
            catalog.features,
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
# texts the CSV writer must quote, and empty ones, more often than st.text draws them
_cell = st.one_of(_text, st.text(st.sampled_from(',"\r\n a'), max_size=4))
_big = st.sampled_from([2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 64, 1e300])
_values = st.one_of(st.floats(0, 1e300, allow_nan=False, allow_infinity=False), _big)
_positive = st.one_of(st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False), _big)


@st.composite
def catalog_rows(draw):
    ids = draw(st.lists(_cell, unique=True, max_size=6))
    return [(cid, draw(_cell), draw(_positive), draw(st.integers(0, 4)), draw(_positive),
             draw(st.lists(_values, min_size=6, max_size=6)), draw(_cell),
             draw(st.sampled_from((ORIGIN_BENCHMARK, ORIGIN_AUGMENTED)))) for cid in ids]


def _per_row_catalog_bytes(path, catalog):
    """The bytes of the per-row csv.writer writer save_catalog once was: a
    float cell is its integer digits when integral, else its repr."""
    def number(value):
        return str(int(value)) if value.is_integer() else repr(value)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component_id", "benchmark", "scale_factor", "skewness",
                         "duration_ms", *catalog.schema.dimensions, "query_ref", "origin"])
        for comp in map(catalog.row, range(len(catalog))):
            writer.writerow([comp.component_id, comp.database_ref.benchmark_name,
                             number(comp.database_ref.scale_factor), comp.database_ref.skewness,
                             number(comp.duration_ms),
                             *map(number, comp.feature.as_vector().tolist()),
                             comp.query_ref, comp.origin])
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(rows=catalog_rows())
@example(rows=[("a,b", 'tp"ch', 0.5, 0, 2.0 ** 53, [0.1, 2.0 ** 60, 0, 1e300, 3.25, 7],
                "SELECT 1,\r\n 2", ORIGIN_BENCHMARK),
               ("", "", 2.0 ** 53 + 2, 4, 1e-300, [0] * 6, "", ORIGIN_AUGMENTED),
               ("\r", "\n", 1.0, 2, 12.5, [1.5] * 6, '"', ORIGIN_BENCHMARK)])
def test_catalog_csv_round_trip(tmp_path_factory, rows):
    """save_catalog writes the bytes of the per-row csv.writer writer, and
    load_catalog gives back every value, including query texts with commas,
    quotes and newlines."""
    schema = FeatureSchema(metrics=("cpu_time_ms", "scanned_bytes"),
                           operators=("filter_num", "aggregate_num", "join_num", "sort_num"))
    columns = list(zip(*rows)) or [()] * 8
    ids, benchmark, scale_factor, skewness, duration_ms, values, query_ref, origin = columns
    catalog = Catalog(ids, benchmark, scale_factor, skewness, duration_ms,
                      np.array(values, dtype=float).reshape(len(rows), 6), query_ref, origin,
                      schema)
    path = tmp_path_factory.getbasetemp() / "catalog.csv"
    save_catalog(catalog, path)
    assert path.read_bytes() == _per_row_catalog_bytes(path.with_name("reference.csv"), catalog)
    back = load_catalog(path, schema)
    assert [(c.component_id, c.database_ref, c.duration_ms, c.feature.as_vector().tolist(),
             c.query_ref, c.origin) for c in map(back.row, range(len(back)))] == \
        [(c.component_id, c.database_ref, c.duration_ms, c.feature.as_vector().tolist(),
          c.query_ref, c.origin) for c in map(catalog.row, range(len(catalog)))]


class TestSimulatedExecutor:
    def test_annotation_parsing(self, schema):
        ex = SimulatedExecutor(schema)
        query = "SELECT 1 /* profile: duration_ms=120; cpu_time_ms=40; scanned_bytes=7.5; filter_num=2; */"
        duration, feature = ex.run(query, DatabaseDescriptor("tpch", 1.0))
        assert duration == 120
        np.testing.assert_array_equal(feature[:2], [40, 7.5])
        np.testing.assert_array_equal(feature[2:], [2, 0, 0, 0])

    def test_metric_caps_scale_with_database(self, schema):
        ex = SimulatedExecutor(schema, metric_caps_per_sf={"scanned_bytes": 3.0})
        query = "SELECT 1 /* profile: duration_ms=10; cpu_time_ms=5; scanned_bytes=100; */"
        _, at_sf1 = ex.run(query, DatabaseDescriptor("tpch", 1.0))
        _, at_sf4 = ex.run(query, DatabaseDescriptor("tpch", 4.0))
        assert at_sf1[1] == 3.0
        assert at_sf4[1] == 12.0
        assert at_sf1[0] == 5.0  # uncapped metric untouched

    def test_no_annotation_fails(self, schema):
        ex = SimulatedExecutor(schema)
        with pytest.raises(ValidationError):
            ex.run("SELECT 1", DatabaseDescriptor("tpch", 1.0))

    @pytest.mark.parametrize("value, message", [
        ("-3", "feature entries must be nonnegative"),
        ("nan", "feature entries must be finite"),
    ])
    def test_unfit_annotated_value_fails(self, schema, value, message):
        ex = SimulatedExecutor(schema)
        with pytest.raises(ValidationError, match=message):
            ex.run(f"SELECT 1 /* profile: cpu_time_ms={value}; */",
                   DatabaseDescriptor("tpch", 1.0))

    def test_noise_is_seeded(self, schema):
        query = "SELECT 1 /* profile: duration_ms=100; cpu_time_ms=50; */"
        db = DatabaseDescriptor("tpch", 1.0)
        runs_a = [SimulatedExecutor(schema, noise_sigma=0.1, seed=5).run(query, db)
                  for _ in range(1)]
        runs_b = [SimulatedExecutor(schema, noise_sigma=0.1, seed=5).run(query, db)
                  for _ in range(1)]
        assert runs_a[0][0] == runs_b[0][0]
        assert runs_a[0][0] != 100.0


class TestProfileQuery:
    def test_mean_over_repetitions(self, schema):
        query = "q /* profile: duration_ms=100; cpu_time_ms=30; */"
        db = DatabaseDescriptor("tpch", 1.0)
        ex = SimulatedExecutor(schema, noise_sigma=0.2, seed=1)
        duration, feature = profile_query(ex, query, db, repetitions=5)
        twin = SimulatedExecutor(schema, noise_sigma=0.2, seed=1)
        runs = [twin.run(query, db) for _ in range(5)]
        assert len({duration for duration, _ in runs}) == 5
        assert duration == np.mean([duration for duration, _ in runs])
        np.testing.assert_array_equal(feature[:2], np.mean([f[:2] for _, f in runs], axis=0))

    def test_noiseless_profile_is_exact(self, schema):
        query = "q /* profile: duration_ms=100; cpu_time_ms=30; scanned_bytes=4; */"
        duration, feature = profile_query(SimulatedExecutor(schema), query,
                                          DatabaseDescriptor("tpch", 1.0), repetitions=3)
        assert duration == 100.0
        np.testing.assert_array_equal(feature[:2], [30, 4])

    def test_failed_run_raises_its_index(self, schema):
        with pytest.raises(ProfilingError) as excinfo:
            profile_query(SimulatedExecutor(schema), "c1.sql", DatabaseDescriptor("tpch", 1.0),
                          repetitions=3)
        assert excinfo.value.run_index == 0

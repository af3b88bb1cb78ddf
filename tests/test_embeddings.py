import numpy as np
import pytest

from mteval.embeddings import (
    ContextualRecord,
    cosine,
    decontextualize,
    group_records,
    load_contextual,
    load_static,
)
from mteval.errors import DataError

from oracles import naive_decontextualize


def write_static(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_static_word_vector_format(tmp_path):
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5\ndog 0.0 2.0 -1.0\n")
    store = load_static(path)
    assert store.dim == 3
    assert len(store) == 2
    assert store["cat"].tolist() == [1.0, 0.0, 0.5]
    assert "cat" in store
    assert "fish" not in store
    assert store.get("fish") is None


def test_load_static_header_errors(tmp_path):
    path = write_static(tmp_path, "nonsense\n")
    with pytest.raises(DataError, match=":1:"):
        load_static(path)
    path = write_static(tmp_path, "x y\n")
    with pytest.raises(DataError, match="integer header"):
        load_static(path)
    path = write_static(tmp_path, "1 0\ncat\n")
    with pytest.raises(DataError, match="positive"):
        load_static(path)


def test_load_static_row_errors_carry_line_numbers(tmp_path):
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5\ndog 0.0 2.0\n")
    with pytest.raises(DataError, match=":3:"):
        load_static(path)
    path = write_static(tmp_path, "1 2\ncat 1.0 oops\n")
    with pytest.raises(DataError, match=":2:.*non-numeric"):
        load_static(path)
    # a trailing space does not hide a missing value
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5 \ndog 0.0 2.0 \n")
    with pytest.raises(DataError, match=":3:.*3 values, got 3 fields"):
        load_static(path)


def test_load_static_accepts_trailing_space_rows(tmp_path):
    # the original word2vec C tool ends every row with a space
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5 \ndog 0.0 2.0 -1.0 \n")
    store = load_static(path)
    assert store["cat"].tolist() == [1.0, 0.0, 0.5]
    assert store["dog"].tolist() == [0.0, 2.0, -1.0]


def test_load_static_duplicate_keeps_last_and_warns(tmp_path, caplog):
    path = write_static(tmp_path, "2 2\ncat 1.0 0.0\ncat 0.0 1.0\n")
    with caplog.at_level("WARNING"):
        store = load_static(path)
    assert store["cat"].tolist() == [0.0, 1.0]
    assert any("duplicate token" in message for message in caplog.messages)


def test_load_static_count_mismatch_is_only_a_warning(tmp_path, caplog):
    path = write_static(tmp_path, "5 2\ncat 1.0 0.0\n")
    with caplog.at_level("WARNING"):
        store = load_static(path)
    assert len(store) == 1
    assert any("header declares" in message for message in caplog.messages)


def test_cosine_properties():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        c = cosine(u, v)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        assert cosine(u, v) == cosine(v, u)
        # scaling either argument by a positive factor changes nothing
        assert abs(cosine(3.0 * u, v) - c) < 1e-12
    assert abs(cosine([1.0, 0.0], [1.0, 0.0]) - 1.0) < 1e-15
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(cosine([1.0, 0.0], [-1.0, 0.0]) + 1.0) < 1e-15


def test_cosine_zero_vector_and_mismatch():
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


def record(seg, side, idx, token, vec):
    return ContextualRecord(segment_id=seg, side=side, token_index=idx, token=token, vector=np.array(vec, dtype=float))


def test_contextual_record_validation():
    with pytest.raises(DataError, match="bad side"):
        record("s1", "translation", 0, "a", [1.0])
    with pytest.raises(DataError, match="negative"):
        record("s1", "source", -1, "a", [1.0])
    with pytest.raises(DataError, match="non-finite"):
        record("s1", "source", 0, "a", [np.nan])


def test_decontextualize_averages_per_token():
    records = [
        record("s1", "source", 0, "cat", [1.0, 0.0]),
        record("s1", "hypothesis", 0, "cat", [3.0, 2.0]),
        record("s2", "source", 0, "dog", [0.0, 4.0]),
    ]
    store = decontextualize(records)
    assert store.dim == 2
    assert store["cat"].tolist() == [2.0, 1.0]
    assert store["dog"].tolist() == [0.0, 4.0]


def test_decontextualize_matches_naive_oracle():
    rng = np.random.default_rng(99)
    tokens = ["a", "b", "c", "d"]
    for _ in range(50):
        records = []
        idx = {side: 0 for side in ("source", "reference", "hypothesis")}
        for _ in range(int(rng.integers(1, 30))):
            side = ("source", "reference", "hypothesis")[int(rng.integers(0, 3))]
            records.append(
                record(f"s{int(rng.integers(0, 4))}", side, idx[side], tokens[int(rng.integers(0, 4))], rng.normal(size=3))
            )
            idx[side] += 1
        store = decontextualize(records)
        expected = naive_decontextualize(records)
        assert set(store.table) == set(expected)
        for token in expected:
            assert np.allclose(store[token], expected[token], atol=1e-12, rtol=0)


def test_decontextualize_rejects_empty_and_mixed_dims():
    with pytest.raises(DataError):
        decontextualize([])
    records = [record("s1", "source", 0, "a", [1.0]), record("s1", "source", 1, "b", [1.0, 2.0])]
    with pytest.raises(DataError, match="mixed"):
        decontextualize(records)


def test_load_contextual_roundtrip(tmp_path):
    path = tmp_path / "ctx.tsv"
    path.write_text(
        "segment_id\tside\ttoken_index\ttoken\tvector\n"
        "s1\tsource\t0\tcat\t1.0 2.0\n"
        "s1\thypothesis\t0\tcat\t3.0 4.0\n",
        encoding="utf-8",
    )
    records = load_contextual(path)
    assert len(records) == 2
    assert records[0].segment_id == "s1"
    assert records[0].vector.tolist() == [1.0, 2.0]


def test_load_contextual_errors(tmp_path):
    path = tmp_path / "ctx.tsv"
    path.write_text("wrong\theader\n", encoding="utf-8")
    with pytest.raises(DataError, match=":1:"):
        load_contextual(path)

    head = "segment_id\tside\ttoken_index\ttoken\tvector\n"
    path.write_text(head + "s1\tsource\t0\tcat\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:.*columns"):
        load_contextual(path)

    path.write_text(head + "s1\tsource\tzero\tcat\t1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        load_contextual(path)

    path.write_text(head + "s1\tsource\t0\tcat\t1.0\ns1\tsource\t0\tdog\t2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate"):
        load_contextual(path)

    path.write_text(head + "s1\tsource\t0\tcat\t1.0\ns1\tsource\t1\tdog\t2.0 3.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=":3:.*expected 1"):
        load_contextual(path)


def test_group_records_sorted_by_token_index():
    records = [
        record("s1", "source", 2, "c", [1.0]),
        record("s1", "source", 0, "a", [1.0]),
        record("s1", "hypothesis", 0, "x", [1.0]),
        record("s1", "source", 1, "b", [1.0]),
    ]
    groups = group_records(records)
    assert set(groups) == {("s1", "source"), ("s1", "hypothesis")}
    assert [r.token for r in groups[("s1", "source")]] == ["a", "b", "c"]

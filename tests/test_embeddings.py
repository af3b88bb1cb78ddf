import logging
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mteval.embeddings import (
    ContextualRecord,
    cosine,
    decontextualize,
    group_records,
    load_contextual,
    load_static,
)
from mteval.errors import DataError

from oracles import loop_load_static, naive_decontextualize


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


def test_load_static_header_only_file_is_an_empty_store(tmp_path):
    path = write_static(tmp_path, "0 3\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = load_static(path)
    assert store.dim == 3
    assert len(store) == 0


def test_load_static_reports_the_first_bad_line(tmp_path):
    # a non-finite row before a row that is malformed in another way
    for late in ("dog 1.0\n", "dog 1.0 oops\n"):
        path = write_static(tmp_path, "3 2\ncat 1.0 0.0\nbird nan 0.0\n" + late)
        with pytest.raises(DataError, match=r":3: non-finite"):
            load_static(path)
    path = write_static(tmp_path, "3 2\ncat 1.0 oops\nbird nan 0.0\ndog 1.0\n")
    with pytest.raises(DataError, match=r":2: non-numeric"):
        load_static(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661", "0x10", "nan(1)"])
def test_load_static_accepts_only_numpy_number_syntax(tmp_path, value):
    # float() also reads digit grouping and non-ASCII digits; the loader does not
    path = write_static(tmp_path, f"2 2\ncat 1.0 0.0\ndog 1.0 {value}\n")
    with pytest.raises(DataError, match=r":3: non-numeric vector component"):
        load_static(path)


def test_load_static_does_not_blame_a_number_for_bad_utf8(tmp_path):
    path = tmp_path / "vectors.txt"
    # far enough in that the decoder meets the byte while numpy is reading rows
    rows = b"".join(b"w%d 1.0 0.0\n" % i for i in range(3000))
    path.write_bytes(b"3001 2\n" + rows + b"dog 1.0 \xff\n")
    with pytest.raises(DataError, match=r"vectors\.txt:3002: not valid UTF-8 \(invalid start byte\)$"):
        load_static(path)


def test_load_static_rows_share_one_matrix(tmp_path):
    path = write_static(tmp_path, "2 2\ncat 1.0 0.0\ndog 0.0 1.0\n")
    store = load_static(path)
    assert store["cat"].base is not None
    assert store["cat"].base is store["dog"].base


# ---------------------------------------------------------------------------
# load_static against the row-by-row loader
# ---------------------------------------------------------------------------

ORACLE_LOG = logging.getLogger("oracles.load_static")
SWEEP_TOKENS = ["cat", "#tag", '"quoted', "naïve", "日本語", "x", "-1", "1e5", "[UNK]", "a\u00a0b"]
SWEEP_NUMBERS = ["0", "-0", "-0.0", "+2", ".5", "5.", "1E3", "1e-320", "2.5e+300", "-7", "1.0000000000000002"]
SWEEP_FAULTS = {
    "non-numeric": ["abc", "1,5", "", "0x10", "1e", "--1", "1.2.3"],
    "non-finite": ["nan", "inf", "-inf", "1e400", "-1e400", "Infinity", "-nan", "NaN"],
}
BLANK_LINES = ["", "   ", "\t", " \t "]


def random_value(rng) -> str:
    if rng.random() < 0.3:
        return SWEEP_NUMBERS[rng.integers(len(SWEEP_NUMBERS))]
    return repr(float(rng.normal() * 10.0 ** rng.integers(-8, 8)))


def random_vector_file(rng) -> tuple[str, set[str]]:
    """Text of a random word-vector file and the kinds of fault planted in it."""
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(0, 10))
    faulty = set(rng.choice(n, size=min(n, int(rng.choice([0, 0, 1, 2]))), replace=False).tolist()) if n else set()
    kinds = set()
    lines = []
    for row in range(n):
        while rng.random() < 0.2:
            lines.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
        token = SWEEP_TOKENS[rng.integers(len(SWEEP_TOKENS))]
        values = [random_value(rng) for _ in range(dim)]
        if row in faulty:
            kind = ["count", "non-numeric", "non-finite"][rng.integers(3)]
            kinds.add(kind)
            if kind == "count":
                if rng.random() < 0.5:
                    values.pop()
                else:
                    values.append(random_value(rng))
            else:
                values[rng.integers(dim)] = SWEEP_FAULTS[kind][rng.integers(len(SWEEP_FAULTS[kind]))]
        lines.append(" ".join([token] + values) + " " * int(rng.integers(0, 3)))
    count = n + int(rng.choice([0, 0, 0, -1, 1]))
    newline = "\r\n" if rng.random() < 0.25 else "\n"
    return newline.join([f"{count} {dim}"] + lines) + newline, kinds


def load_outcome(load, caplog):
    """(tokens with the bits of their vectors, or the DataError text; warning texts)."""
    caplog.clear()
    try:
        table = load()
        outcome = [(token, vector.dtype.str, vector.tobytes()) for token, vector in table.items()]
    except DataError as exc:
        outcome = str(exc)
    return outcome, [record.getMessage() for record in caplog.records]


def test_load_static_matches_the_row_by_row_loader(tmp_path, caplog):
    rng = np.random.default_rng(2024)
    path = tmp_path / "vectors.txt"
    seen = {"count": 0, "non-numeric": 0, "non-finite": 0, "two faults": 0, "duplicates": 0, "empty": 0}
    for _ in range(600):
        text, kinds = random_vector_file(rng)
        path.write_bytes(text.encode("utf-8"))
        with caplog.at_level("WARNING"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_outcome(lambda: load_static(path).table, caplog)
            want = load_outcome(lambda: loop_load_static(path, ORACLE_LOG)[1], caplog)
        assert got == want, text
        for kind in kinds:
            seen[kind] += 1
        seen["two faults"] += len(kinds) == 2
        seen["duplicates"] += any("duplicate" in message for message in want[1])
        seen["empty"] += want[0] == []
    assert min(seen.values()) >= 10, seen


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
            ),
            max_size=8,
            unique_by=lambda row: row[0],
        ).map(lambda rows: (dim, rows))
    )
)
def test_load_static_round_trips_repr_written_vectors(tmp_path, case):
    dim, rows = case
    lines = [f"{len(rows)} {dim}"] + [" ".join([token] + [repr(v) for v in vector]) for token, vector in rows]
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    store = load_static(path)
    assert list(store.table) == [token for token, _ in rows]
    for token, vector in rows:
        assert store[token].tobytes() == np.array(vector, dtype=np.float64).tobytes()


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

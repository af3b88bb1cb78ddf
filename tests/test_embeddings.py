import io
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mteval import embeddings
from mteval.embeddings import ContextualTable, decontextualize, load_contextual, load_static
from mteval.errors import DataError

from oracles import (
    contextual_table,
    loop_decontextualize,
    loop_load_contextual,
    loop_load_static,
    naive_decontextualize,
    table_rows,
)


def write_static(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_static_word_vector_format(tmp_path):
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5\ndog 0.0 2.0 -1.0\n")
    store = load_static(path, {"cat", "dog", "fish"})
    assert store.dim == 3
    assert len(store) == 2
    assert store["cat"].tolist() == [1.0, 0.0, 0.5]
    assert "cat" in store
    assert "fish" not in store


def test_load_static_header_errors(tmp_path):
    path = write_static(tmp_path, "nonsense\n")
    with pytest.raises(DataError, match=":1:"):
        load_static(path, {"cat"})
    path = write_static(tmp_path, "x y\n")
    with pytest.raises(DataError, match="integer header"):
        load_static(path, {"cat"})
    path = write_static(tmp_path, "1 0\ncat\n")
    with pytest.raises(DataError, match="positive"):
        load_static(path, {"cat"})


def test_load_static_row_errors_carry_line_numbers(tmp_path):
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5\ndog 0.0 2.0\n")
    with pytest.raises(DataError, match=":3:"):
        load_static(path, {"cat", "dog"})
    path = write_static(tmp_path, "1 2\ncat 1.0 oops\n")
    with pytest.raises(DataError, match=":2:.*non-numeric"):
        load_static(path, {"cat"})
    # a trailing space does not hide a missing value
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5 \ndog 0.0 2.0 \n")
    with pytest.raises(DataError, match=":3:.*3 values, got 3 fields"):
        load_static(path, {"cat", "dog"})


def test_load_static_accepts_trailing_space_rows(tmp_path):
    # the original word2vec C tool ends every row with a space
    path = write_static(tmp_path, "2 3\ncat 1.0 0.0 0.5 \ndog 0.0 2.0 -1.0 \n")
    store = load_static(path, {"cat", "dog"})
    assert store["cat"].tolist() == [1.0, 0.0, 0.5]
    assert store["dog"].tolist() == [0.0, 2.0, -1.0]


def test_load_static_duplicate_keeps_last_and_warns(tmp_path, caplog):
    path = write_static(tmp_path, "2 2\ncat 1.0 0.0\ncat 0.0 1.0\n")
    with caplog.at_level("WARNING"):
        store = load_static(path, {"cat"})
    assert store["cat"].tolist() == [0.0, 1.0]
    assert any("duplicate token" in message for message in caplog.messages)


def test_load_static_count_mismatch_is_only_a_warning(tmp_path, caplog):
    path = write_static(tmp_path, "5 2\ncat 1.0 0.0\n")
    with caplog.at_level("WARNING"):
        store = load_static(path, {"cat"})
    assert len(store) == 1
    assert any("header declares" in message for message in caplog.messages)


def test_load_static_header_only_file_is_an_empty_store(tmp_path):
    path = write_static(tmp_path, "0 3\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = load_static(path, set())
    assert store.dim == 3
    assert len(store) == 0


def test_load_static_reports_the_first_bad_line(tmp_path):
    # a non-finite row before a row that is malformed in another way
    for late in ("dog 1.0\n", "dog 1.0 oops\n"):
        path = write_static(tmp_path, "3 2\ncat 1.0 0.0\nbird nan 0.0\n" + late)
        with pytest.raises(DataError, match=r":3: non-finite"):
            load_static(path, {"cat", "bird", "dog"})
    path = write_static(tmp_path, "3 2\ncat 1.0 oops\nbird nan 0.0\ndog 1.0\n")
    with pytest.raises(DataError, match=r":2: non-numeric"):
        load_static(path, {"cat", "bird", "dog"})


@pytest.mark.parametrize("value", ["1_0", "\u0661", "0x10", "nan(1)"])
def test_load_static_accepts_only_numpy_number_syntax(tmp_path, value):
    # float() also reads digit grouping and non-ASCII digits; the loader does not
    path = write_static(tmp_path, f"2 2\ncat 1.0 0.0\ndog 1.0 {value}\n")
    with pytest.raises(DataError, match=r":3: non-numeric vector component"):
        load_static(path, {"cat", "dog"})


def test_load_static_does_not_blame_a_number_for_bad_utf8(tmp_path):
    path = tmp_path / "vectors.txt"
    # far enough in that the decoder meets the byte while numpy is reading rows
    rows = b"".join(b"w%d 1.0 0.0\n" % i for i in range(3000))
    path.write_bytes(b"3001 2\n" + rows + b"dog 1.0 \xff\n")
    with pytest.raises(DataError, match=r"vectors\.txt:3002: not valid UTF-8 \(invalid start byte\)$"):
        load_static(path, {"dog"})


def test_load_static_parses_only_the_kept_rows(tmp_path, caplog):
    # a row of another token is checked for its field count and its UTF-8 only
    path = tmp_path / "vectors.txt"
    path.write_bytes("4 2\ncat 1.0 0.0\ndog nan oops\nemu 1.0 \xff\ncat 0.5 0.5\n".encode("latin-1"))
    with pytest.raises(DataError, match=r":4: not valid UTF-8"):
        load_static(path, {"cat"})
    path = write_static(tmp_path, "4 2\ncat 1.0 0.0\ndog nan oops\nemu 1.0\ncat 0.5 0.5\n")
    with pytest.raises(DataError, match=r":4: expected 1 token \+ 2 values, got 2 fields"):
        load_static(path, {"cat"})
    path = write_static(tmp_path, "4 2\ncat 1.0 0.0\ndog nan oops\nemu 1.0 inf\ncat 0.5 0.5\n")
    with caplog.at_level("WARNING"):
        store = load_static(path, {"cat", "fish"})
    assert {token: vector.tolist() for token, vector in store.table.items()} == {"cat": [0.5, 0.5]}
    # the header counts the distinct tokens of every row, kept or not
    assert caplog.messages == [f"{path}:5: duplicate token 'cat', keeping the later vector", f"{path}: header declares 4 tokens but 3 were read"]


def test_load_static_rows_share_one_matrix(tmp_path):
    path = write_static(tmp_path, "2 2\ncat 1.0 0.0\ndog 0.0 1.0\n")
    store = load_static(path, {"cat", "dog"})
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
    rng, keep_rng = np.random.default_rng(2024), np.random.default_rng(2026)
    path = tmp_path / "vectors.txt"
    seen = dict.fromkeys(["count", "non-numeric", "non-finite", "two faults", "duplicates", "empty", "fault not kept"], 0)
    for _ in range(600):
        text, kinds = random_vector_file(rng)
        path.write_bytes(text.encode("utf-8"))
        some = set(keep_rng.choice(SWEEP_TOKENS, size=int(keep_rng.integers(len(SWEEP_TOKENS) + 1)), replace=False).tolist())
        outcomes = []
        for keep in (some, set(SWEEP_TOKENS)):
            with caplog.at_level("WARNING"), warnings.catch_warnings():
                warnings.simplefilter("error")
                got = load_outcome(lambda: load_static(path, keep).table, caplog)
                want = load_outcome(lambda: loop_load_static(path, keep, ORACLE_LOG)[1], caplog)
            assert got == want, (text, keep)
            outcomes.append(want[0])
        seen["fault not kept"] += isinstance(outcomes[1], str) and outcomes[0] != outcomes[1]
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
    store = load_static(path, {token for token, _ in rows})
    assert list(store.table) == [token for token, _ in rows]
    for token, vector in rows:
        assert store[token].tobytes() == np.array(vector, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# load_contextual against the row-by-row loader
# ---------------------------------------------------------------------------

CONTEXTUAL_FAULTS = ["columns", "index", "count", "non-numeric", "non-finite", "duplicate", "side", "negative"]


def random_contextual_file(rng) -> tuple[str, set[str]]:
    """Text of a random contextual-records file within the shared vector rule, and its planted faults.

    At most one fault per line: within a line the two loaders check in different orders.
    """
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(0, 10))
    faulty = set(rng.choice(n, size=min(n, int(rng.choice([0, 0, 1, 2]))), replace=False).tolist()) if n else set()
    kinds = set()
    lines = ["segment_id\tside\ttoken_index\ttoken\tvector"]
    keys = []
    for row in range(n):
        while rng.random() < 0.2:
            lines.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
        key = [f"s{rng.integers(3)}", ["source", "reference", "hypothesis"][rng.integers(3)], str(row)]
        values = [random_value(rng) for _ in range(dim)]
        kind = CONTEXTUAL_FAULTS[rng.integers(len(CONTEXTUAL_FAULTS))] if row in faulty else None
        if kind in ("duplicate", "count") and not keys:
            kind = None  # the first row sets the dimension and has no key before it
        kinds.add(kind)
        if kind == "index":
            key[2] = ["x", "1.5", ""][rng.integers(3)]
        elif kind == "count":
            if rng.random() < 0.5 and dim > 1:
                values.pop()
            else:
                values.append(random_value(rng))
        elif kind in ("non-numeric", "non-finite"):
            choices = [fault for fault in SWEEP_FAULTS[kind] if fault]  # an empty value is a double space
            values[rng.integers(dim)] = choices[rng.integers(len(choices))]
        elif kind == "duplicate":
            key = list(keys[rng.integers(len(keys))])
        elif kind == "side":
            key[1] = ["src", "Source", ""][rng.integers(3)]
        elif kind == "negative":
            key[2] = "-1"
        keys.append(key)
        fields = key + [SWEEP_TOKENS[rng.integers(len(SWEEP_TOKENS))], " ".join(values) + " " * int(rng.integers(0, 3))]
        if kind == "columns":
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["extra"]
        lines.append("\t".join(fields))
    newline = "\r\n" if rng.random() < 0.25 else "\n"
    return newline.join(lines) + newline, kinds - {None}


def contextual_outcome(load):
    """Every field of every row ``load`` returns, or where and what kind the first fault is.

    The two loaders word a bad number, a bad token_index and a non-finite
    vector differently; the line and the kind of fault must agree.
    """
    try:
        return [(*fields, vector.dtype.str, vector.shape, vector.tobytes()) for *fields, vector in load()]
    except DataError as exc:
        location, _, message = str(exc).partition(": ")
        if message.startswith(("malformed", "non-numeric")):
            message = "malformed"
        elif message.startswith("non-finite"):
            message = "non-finite"
        return location, message


def test_load_contextual_matches_the_row_by_row_loader(tmp_path):
    rng = np.random.default_rng(2025)
    path = tmp_path / "ctx.tsv"
    seen = dict.fromkeys(CONTEXTUAL_FAULTS + ["two faults", "clean"], 0)
    for _ in range(600):
        text, kinds = random_contextual_file(rng)
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = contextual_outcome(lambda: table_rows(load_contextual(path)))
        assert got == contextual_outcome(lambda: loop_load_contextual(path)), text
        for kind in kinds:
            seen[kind] += 1
        seen["two faults"] += len(kinds) == 2
        seen["clean"] += isinstance(got, list) and len(got) > 0
    assert min(seen.values()) >= 10, seen


def row(seg, side, idx, token, vec):
    return seg, side, idx, token, np.array(vec, dtype=float)


# one faulty row each, after a clean one; the faulty row is line 3
RECORD_FAULTS = {
    "side": ("s1\ttranslation\t1\ta\t1.0", "bad side 'translation'; expected one of ('source', 'reference', 'hypothesis')"),
    "negative": ("s1\tsource\t-1\ta\t1.0", "negative token_index -1"),
    "duplicate": ("s1\tsource\t0\tb\t2.0", "duplicate (segment_id, side, token_index) ('s1', 'source', 0)"),
    "non-finite": ("s1\tsource\t1\ta\tnan", "non-finite vector component"),
    "range": ("s1\tsource\t9223372036854775808\ta\t1.0", "token_index 9223372036854775808 is out of the 64-bit range"),
}


def test_contextual_record_validation(tmp_path):
    path = tmp_path / "ctx.tsv"
    for line, message in RECORD_FAULTS.values():
        path.write_text(CONTEXTUAL_HEADER + f"s1\tsource\t0\ta\t1.0\n{line}\ns1\tsource\t-2\tb\t1.0\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_contextual(path)
        assert str(caught.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("fault", ["side", "negative", "duplicate"])
def test_the_table_checks_run_on_a_cache_hit(tmp_path, cache_home, caplog, fault):
    # the row parses cleanly, so its first load writes an entry and its second load is a hit
    path = tmp_path / "ctx.tsv"
    path.write_text(CONTEXTUAL_HEADER + f"s1\tsource\t0\ta\t1.0\n{RECORD_FAULTS[fault][0]}\n", encoding="utf-8")
    miss = cached_load(load_contextual, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    hit = cached_load(load_contextual, path, caplog)
    assert miss[0] == hit[0] == f"{path}:3: {RECORD_FAULTS[fault][1]}"
    assert miss[2] == f"{path}: vector cache miss, {entry} written"
    assert hit[2] == f"{path}: vector cache hit, {entry}"


def test_decontextualize_averages_per_token():
    table = contextual_table([
        row("s1", "source", 0, "cat", [1.0, 0.0]),
        row("s1", "hypothesis", 0, "cat", [3.0, 2.0]),
        row("s2", "source", 0, "dog", [0.0, 4.0]),
    ])
    store = decontextualize(table)
    assert store.dim == 2
    assert store["cat"].tolist() == [2.0, 1.0]
    assert store["dog"].tolist() == [0.0, 4.0]


def test_decontextualize_matches_naive_oracle():
    rng = np.random.default_rng(99)
    tokens = ["a", "b", "c", "d"]
    for _ in range(50):
        rows = []
        idx = {side: 0 for side in ("source", "reference", "hypothesis")}
        for _ in range(int(rng.integers(1, 30))):
            side = ("source", "reference", "hypothesis")[int(rng.integers(0, 3))]
            rows.append(
                row(f"s{int(rng.integers(0, 4))}", side, idx[side], tokens[int(rng.integers(0, 4))], rng.normal(size=3))
            )
            idx[side] += 1
        store = decontextualize(contextual_table(rows))
        expected = naive_decontextualize(rows)
        assert set(store.table) == set(expected)
        for token in expected:
            assert np.allclose(store[token], expected[token], atol=1e-12, rtol=0)


def test_decontextualize_matches_the_running_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-5, 5, size=(n, 1))
        values[rng.random(size=values.shape) < 0.1] = -0.0
        # one matrix, as load_contextual keeps it
        tokens = ["abc"[int(rng.integers(0, 3))] for _ in range(n)]
        table = ContextualTable(values, ["s1"] * n, ["source"] * n, range(n), tokens, range(2, n + 2))
        assert table.vectors is values
        got, want = decontextualize(table), loop_decontextualize(table_rows(table))
        assert got.dim == want.dim
        assert {t: v.tobytes() for t, v in got.table.items()} == {t: v.tobytes() for t, v in want.table.items()}


def test_decontextualize_rejects_an_empty_table():
    with pytest.raises(DataError, match="empty table"):
        decontextualize(ContextualTable(np.empty((0, 2)), [], [], [], [], []))


CONTEXTUAL_HEADER = "segment_id\tside\ttoken_index\ttoken\tvector\n"


def test_load_contextual_roundtrip(tmp_path):
    path = tmp_path / "ctx.tsv"
    path.write_text(
        "segment_id\tside\ttoken_index\ttoken\tvector\n"
        "s1\tsource\t0\tcat\t1.0 2.0\n"
        "s1\thypothesis\t0\tcat\t3.0 4.0\n",
        encoding="utf-8",
    )
    table = load_contextual(path)
    assert len(table) == 2
    assert table.segment_id[0] == "s1"
    assert table.vectors[0].tolist() == [1.0, 2.0]


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


def test_load_contextual_records_share_one_matrix(tmp_path):
    path = tmp_path / "ctx.tsv"
    path.write_text(CONTEXTUAL_HEADER + "s1\tsource\t0\tcat\t1.0 2.0\ns1\tsource\t1\tdog\t3.0 4.0 \n", encoding="utf-8")
    table = load_contextual(path)
    assert table.vectors.dtype == np.float64 and table.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    tokens, vectors = table.side_of("s1", "source")
    assert tokens == ["cat", "dog"] and vectors.tolist() == table.vectors.tolist()
    assert not np.shares_memory(vectors, table.vectors)  # a take of the side's rows


def test_load_contextual_rejects_an_empty_vector(tmp_path):
    # numpy's parser skips an empty line, which would shift every later vector up one record
    path = tmp_path / "ctx.tsv"
    for rows in (["1.0", " ", "2.0"], ["", "1.0"]):
        lines = [f"s1\tsource\t{i}\tcat\t{vector}\n" for i, vector in enumerate(rows)]
        path.write_text(CONTEXTUAL_HEADER + "".join(lines), encoding="utf-8")
        line = 2 + [vector.strip() for vector in rows].index("")
        with pytest.raises(DataError, match=rf":{line}: empty vector$"):
            load_contextual(path)


@pytest.mark.parametrize("vector", ["1.0 1_0", "1.0 \u0661", "1.0  2.0", "1.0\u00a02.0", " 1.0 2.0", ""])
def test_both_loaders_reject_a_vector_outside_the_shared_rule(tmp_path, vector):
    # float() and a whitespace split read all of these; neither loader does
    static = write_static(tmp_path, f"2 2\ncat 1.0 0.0\ndog {vector}\n")
    contextual = tmp_path / "ctx.tsv"
    contextual.write_text(CONTEXTUAL_HEADER + f"s1\tsource\t0\tcat\t1.0 0.0\ns1\tsource\t1\tdog\t{vector}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":3: "):
        load_static(static, {"cat", "dog"})
    with pytest.raises(DataError, match=r":3: "):
        load_contextual(contextual)


def test_a_side_is_its_rows_in_token_index_order():
    table = contextual_table([
        row("s1", "source", 2, "c", [2.0]),
        row("s1", "source", 0, "a", [0.0]),
        row("s1", "hypothesis", 0, "x", [9.0]),
        row("s0", "source", 0, "y", [8.0]),
        row("s1", "source", 1, "b", [1.0]),
    ])
    tokens, vectors = table.side_of("s1", "source")
    assert tokens == ["a", "b", "c"] and vectors.tolist() == [[0.0], [1.0], [2.0]]
    tokens, vectors = table.side_of("s1", "reference")
    assert tokens == [] and vectors.shape == (0, 1)
    assert table.documents() == [["y"], ["x"], ["a", "b", "c"]]  # sorted by (segment_id, side)


# ---------------------------------------------------------------------------
# the parsed-vector cache
# ---------------------------------------------------------------------------

# a trailing NUL, a character outside the BMP, a subnormal value and a 64-bit token index
CACHE_FILES = {
    load_contextual: (
        "ctx.tsv",
        CONTEXTUAL_HEADER + "s\x00\U0001d518\tsource\t0\tcat\x00\t1.5 -0.25\n\ns1\thypothesis\t4294967296\t\U0001d518x\t0.0 1e-320\n",
    ),
}
CACHE_TOKENS = ["cat\x00", "\U0001d518x"]


def write_cache_case(tmp_path, load, old="", new=""):
    name, text = CACHE_FILES[load]
    path = tmp_path / name
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


def cached_load(load, path, caplog):
    """(bits of what ``load(path)`` returned, or its DataError text; warnings; its one cache line)."""
    caplog.clear()
    with caplog.at_level("INFO", logger="mteval.embeddings"):
        try:
            loaded = load(path)
        except DataError as exc:
            loaded = str(exc)
    if not isinstance(loaded, str):
        loaded = [(*fields, vector.dtype.str, vector.tobytes()) for *fields, vector in table_rows(loaded)]
    warned = [record.getMessage() for record in caplog.records if record.levelno >= logging.WARNING]
    cache_lines = [message for message in caplog.messages if "vector cache" in message]
    assert len(cache_lines) <= 1, cache_lines
    return loaded, warned, cache_lines[0] if cache_lines else None


def cache_entries(cache_home):
    return sorted(path.name for path in (cache_home / "mteval").glob("*"))


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_hit_is_the_parse_bit_for_bit(tmp_path, cache_home, caplog, load):
    path = write_cache_case(tmp_path, load)
    miss = cached_load(load, path, caplog)
    (entry,) = cache_entries(cache_home)
    hit = cached_load(load, path, caplog)
    assert miss[2] == f"{path}: vector cache miss, {cache_home / 'mteval' / entry} written"
    assert hit[2] == f"{path}: vector cache hit, {cache_home / 'mteval' / entry}"
    assert hit[:2] == miss[:2]
    assert len(miss[1]) == 0
    assert [row[3] for row in miss[0]] == CACHE_TOKENS
    assert [row[:3] for row in hit[0]] == [("s\x00\U0001d518", "source", 0), ("s1", "hypothesis", 2**32)]
    assert entry.startswith("contextual-") and entry.endswith(".npz")


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_misses_on_one_changed_byte(tmp_path, cache_home, caplog, load):
    first = cached_load(load, write_cache_case(tmp_path, load), caplog)
    changed = cached_load(load, write_cache_case(tmp_path, load, "1e-320", "2e-320"), caplog)
    assert "cache miss" in changed[2] and len(cache_entries(cache_home)) == 2
    assert changed[0] != first[0]
    assert cached_load(load, write_cache_case(tmp_path, load), caplog)[0] == first[0]


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_keeps_items_that_splitlines_would_break(tmp_path, cache_home, caplog, load):
    # U+2028 is a line break to str.splitlines()
    text = CONTEXTUAL_HEADER + "s\u2028\tsource\t0\tk\u2028l\t1.5 -0.25\ns1\thypothesis\t1\tm\t0.0 1.0\n"
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    miss = cached_load(load, path, caplog)
    hit = cached_load(load, path, caplog)
    assert "cache miss" in miss[2] and "cache hit" in hit[2]
    assert hit[:2] == miss[:2]
    assert [row[3] for row in hit[0]] == ["k\u2028l", "m"]
    assert hit[0][0][:3] == ("s\u2028", "source", 0)


VALUES, ITEMS = "values", "items"  # members of an entry besides "linenos", the line numbers


def read_arrays(entry):
    with np.load(entry) as archive:
        return {name: archive[name] for name in archive.files}


def save_arrays(arrays, changes):
    buffer = io.BytesIO()
    np.savez(buffer, **{**arrays, **changes})
    return buffer.getvalue()


def truncate(arrays, raw):
    return raw[: len(raw) // 2]


def garbage(arrays, raw):
    return b"not a cache entry"


def trailing_bytes(arrays, raw):
    return raw + b"\0"


def missing_row(arrays, raw):
    return save_arrays(arrays, {VALUES: arrays[VALUES][:-1]})


def non_finite(arrays, raw):
    values = arrays[VALUES].copy()
    values[-1, -1] = np.inf
    return save_arrays(arrays, {VALUES: values})


def short_items(arrays, raw):  # the text of every item but the last
    text = arrays[ITEMS].tobytes()
    return save_arrays(arrays, {ITEMS: np.frombuffer(text[: text.rindex(b"\n")], dtype=np.uint8)})


def pickled_items(arrays, raw):
    return save_arrays(arrays, {ITEMS: np.array([object()], dtype=object)})


SPOILS = [truncate, garbage, trailing_bytes, missing_row, non_finite, short_items, pickled_items]


@pytest.mark.parametrize(
    ("load", "spoil"),
    [(load, spoil) for load in CACHE_FILES for spoil in SPOILS],
    ids=lambda value: value.__name__,
)
def test_vector_cache_spoiled_entry_is_a_miss_and_rewritten(tmp_path, cache_home, caplog, load, spoil):
    path = write_cache_case(tmp_path, load)
    want = cached_load(load, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    entry.write_bytes(spoil(read_arrays(entry), entry.read_bytes()))
    got = cached_load(load, path, caplog)
    assert got[:2] == want[:2]
    if spoil is trailing_bytes:  # a zip archive is found from its end record, so bytes after an intact one are ignored
        assert got[2] == f"{path}: vector cache hit, {entry}"
    else:
        assert got[2].startswith(f"{path}: vector cache miss (") and got[2].endswith(f", {entry} written")
    assert cached_load(load, path, caplog) == (want[0], want[1], f"{path}: vector cache hit, {entry}")
    assert cache_entries(cache_home) == [entry.name]


def lost_tab(arrays, raw):  # the first item's segment id and side run together
    text = arrays[ITEMS].tobytes().replace(b"\t", b" ", 1)
    return save_arrays(arrays, {ITEMS: np.frombuffer(text, dtype=np.uint8)})


def non_integer_index(arrays, raw):
    text = arrays[ITEMS].tobytes().replace(b"\t0\t", b"\tx\t", 1)
    return save_arrays(arrays, {ITEMS: np.frombuffer(text, dtype=np.uint8)})


@pytest.mark.parametrize("spoil", [lost_tab, non_integer_index], ids=lambda spoil: spoil.__name__)
def test_vector_cache_contextual_entry_with_a_spoiled_item_is_a_miss(tmp_path, cache_home, caplog, spoil):
    path = write_cache_case(tmp_path, load_contextual)
    want = cached_load(load_contextual, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    entry.write_bytes(spoil(read_arrays(entry), entry.read_bytes()))
    got = cached_load(load_contextual, path, caplog)
    assert got[:2] == want[:2]
    assert got[2].startswith(f"{path}: vector cache miss (ValueError: ") and got[2].endswith(f", {entry} written")
    assert cached_load(load_contextual, path, caplog) == (want[0], want[1], f"{path}: vector cache hit, {entry}")


QUARTER = np.float64(-0.25).tobytes()  # a value of the cache case, as an entry stores it


@pytest.mark.parametrize(
    ("load", "old", "new"),
    [
        *[(load, QUARTER, bytes([QUARTER[0] ^ 1]) + QUARTER[1:]) for load in CACHE_FILES],  # the significand's lowest bit
        (load_contextual, b"\t0\t", b"\t5\t"),  # still an item the item rule accepts
        (load_contextual, b"\tsource\t", b"\tsourcX\t"),  # an item the record checks would blame on the file
    ],
    ids=["contextual-value_bit", "contextual-token_index", "contextual-side"],
)
def test_vector_cache_entry_edited_in_place_is_a_miss(tmp_path, cache_home, caplog, load, old, new):
    path = write_cache_case(tmp_path, load)
    want = cached_load(load, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    raw = entry.read_bytes()
    assert raw.count(old) == 1
    entry.write_bytes(raw.replace(old, new))
    got = cached_load(load, path, caplog)
    assert got[:2] == want[:2]
    assert got[2].startswith(f"{path}: vector cache miss (") and got[2].endswith(f", {entry} written")
    assert cached_load(load, path, caplog) == (want[0], want[1], f"{path}: vector cache hit, {entry}")


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_entry_with_any_flipped_bit_loads_the_parse(tmp_path, cache_home, caplog, load):
    path = write_cache_case(tmp_path, load)
    want = cached_load(load, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    raw = entry.read_bytes()
    for offset in range(len(raw)):
        entry.write_bytes(raw[:offset] + bytes([raw[offset] ^ 1]) + raw[offset + 1 :])
        assert cached_load(load, path, caplog)[:2] == want[:2], offset
    assert cache_entries(cache_home) == [entry.name]


# Members past zipfile's read-ahead, so a shape shrunk in a member's header leaves the member's tail unread.
LARGE_CACHE_FILES = {
    load_contextual: (
        "ctx.tsv",
        CONTEXTUAL_HEADER + "".join(f"s{i}\tsource\t0\tw\t{' '.join(['0.5'] * 8)}\n" for i in range(200)),
        b"(200, 8)",
        b"(200, 7)",
    ),
}


@pytest.mark.parametrize("load", LARGE_CACHE_FILES, ids=["contextual-values_width"])
def test_vector_cache_entry_with_a_shrunk_member_shape_is_a_miss(tmp_path, cache_home, caplog, load):
    name, text, old, new = LARGE_CACHE_FILES[load]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    want = cached_load(load, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    raw = entry.read_bytes()
    assert raw.count(old) == 1
    entry.write_bytes(raw.replace(old, new))
    got = cached_load(load, path, caplog)
    assert got[:2] == want[:2]
    assert got[2].startswith(f"{path}: vector cache miss (") and got[2].endswith(f", {entry} written")
    assert cached_load(load, path, caplog) == (want[0], want[1], f"{path}: vector cache hit, {entry}")


def test_vector_cache_entry_is_owner_only_and_never_written_through_a_link(tmp_path, cache_home, caplog):
    path = write_cache_case(tmp_path, load_contextual)
    want = cached_load(load_contextual, path, caplog)
    (entry,) = (cache_home / "mteval").glob("*.npz")
    assert entry.stat().st_mode & 0o777 == 0o600  # an entry holds the evaluation's segment ids and tokens
    target = tmp_path / "target"
    target.write_bytes(b"not an entry")
    entry.unlink()
    entry.symlink_to(target)
    assert cached_load(load_contextual, path, caplog)[:2] == want[:2]
    assert target.read_bytes() == b"not an entry"


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_that_cannot_be_written_still_loads(tmp_path, cache_home, caplog, monkeypatch, load):
    path = write_cache_case(tmp_path, load)
    want = cached_load(load, path, caplog)
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    for _ in range(2):
        got = cached_load(load, path, caplog)
        assert got[:2] == want[:2]
        assert "cache miss" in got[2] and " not written: " in got[2]
    assert blocked.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_keys_an_entry_by_the_bytes_it_parsed(tmp_path, cache_home, caplog, monkeypatch, load):
    path = write_cache_case(tmp_path, load)
    parse = embeddings._parse_vectors

    def change_then_parse(*args):  # the file changes after the lookup, before the parse
        write_cache_case(tmp_path, load, "1e-320", "2e-320")
        return parse(*args)

    monkeypatch.setattr(embeddings, "_parse_vectors", change_then_parse)
    changed = cached_load(load, path, caplog)
    monkeypatch.setattr(embeddings, "_parse_vectors", parse)
    again = cached_load(load, path, caplog)
    assert again[0] == changed[0] and again[2].startswith(f"{path}: vector cache hit, ")
    original = cached_load(load, write_cache_case(tmp_path, load), caplog)
    assert "cache miss" in original[2] and original[0] != changed[0]
    assert len(cache_entries(cache_home)) == 2


@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_misses_when_the_row_rule_changes(tmp_path, cache_home, caplog, monkeypatch, load):
    path = write_cache_case(tmp_path, load)
    first = cached_load(load, path, caplog)
    source = Path(embeddings.__file__)
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("embeddings.py", "errors.py"):
        (copy / name).write_bytes(source.with_name(name).read_bytes())
    monkeypatch.setattr(embeddings, "__file__", str(copy / "embeddings.py"))
    assert "cache hit" in cached_load(load, path, caplog)[2]  # the same source elsewhere
    with open(copy / "errors.py", "a", encoding="utf-8") as errors:
        errors.write("# another revision of the row rule\n")
    changed = cached_load(load, path, caplog)
    assert "cache miss" in changed[2] and changed[:2] == first[:2]
    assert len(cache_entries(cache_home)) == 2


@pytest.mark.parametrize(("value", "fault"), [("abc", "non-numeric"), ("inf", "non-finite"), ("1e400", "non-finite")])
@pytest.mark.parametrize("load", CACHE_FILES, ids=["contextual"])
def test_vector_cache_never_keeps_a_faulty_file(tmp_path, cache_home, caplog, load, value, fault):
    path = write_cache_case(tmp_path, load, "1e-320", value)
    first = cached_load(load, path, caplog)
    assert first[0] == f"{path}:4: {fault} vector component"
    assert cached_load(load, path, caplog)[:2] == first[:2]
    assert cache_entries(cache_home) == []

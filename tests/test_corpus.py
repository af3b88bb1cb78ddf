import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteval._rng import round_half_up
from mteval.corpus import (
    Dataset,
    Segment,
    average_judgements,
    dataset_gold,
    load_dataset,
    split_by_source,
    split_sources,
)
from mteval.errors import DataError

TSV_HEADER = "id\tsrc_lang\ttgt_lang\tsource\treference\thypothesis\tjudgements\tpos_source\tpos_reference\tpos_hypothesis"


def make_segment(i, source="src text", judgements=(1.0,)):
    return Segment(
        id=f"s{i}",
        src_lang="de",
        tgt_lang="en",
        source=source,
        reference="a reference",
        hypothesis="a hypothesis",
        judgements=tuple(judgements),
    )


def write_tsv(path, rows):
    lines = [TSV_HEADER] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_tsv_roundtrip(tmp_path):
    path = tmp_path / "data.tsv"
    write_tsv(
        path,
        [
            "a\tde\ten\tQuelle eins\tref one\thyp one\t1.5,2.5\tN V\tD N\tD N",
            "b\tde\ten\tQuelle zwei\tref two\thyp two\t3\t\t\t",
            "c\tde\ten\tQuelle eins\tref three\thyp three\t0.25,0.75\t\t\t",
        ],
    )
    ds = load_dataset(path)
    assert len(ds.segments) == 3
    assert [s.id for s in ds.segments] == ["a", "b", "c"]
    assert ds.segments[0].judgements == (1.5, 2.5)
    assert ds.segments[0].pos_source == ("N", "V")
    assert ds.segments[1].pos_source is None
    assert ds.segments[1].judgements == (3.0,)


def test_load_tsv_error_names_line(tmp_path):
    path = tmp_path / "bad.tsv"
    write_tsv(
        path,
        [
            "a\tde\ten\tQuelle\tref\thyp\t1.0\t\t\t",
            "b\tde\ten\tQuelle\tref\t\t1.0\t\t\t",  # empty hypothesis
        ],
    )
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert ":3" in str(err.value)  # header is line 1


def test_load_tsv_has_no_field_length_limit(tmp_path):
    path = tmp_path / "long.tsv"
    hypothesis = " ".join(["word"] * 40_000)  # 199,999 characters
    write_tsv(path, [f"a\tde\ten\tQuelle\tref\t{hypothesis}x\t1.0\t\t\t"])
    assert len(load_dataset(path).segments[0].hypothesis) == 200_000


def test_load_tsv_duplicate_id(tmp_path):
    path = tmp_path / "dup.tsv"
    write_tsv(
        path,
        [
            "a\tde\ten\tQuelle\tref\thyp\t1.0\t\t\t",
            "a\tde\ten\tQuelle\tref\thyp2\t1.0\t\t\t",
        ],
    )
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_json(tmp_path):
    path = tmp_path / "data.json"
    payload = [
        {
            "id": "x1",
            "src_lang": "cs",
            "tgt_lang": "en",
            "source": "zdroj",
            "reference": "ref",
            "hypothesis": "hyp",
            "judgements": [1, 2],
        }
    ]
    path.write_text(json.dumps(payload), encoding="utf-8")
    ds = load_dataset(path)
    assert ds.segments[0].judgements == (1.0, 2.0)
    assert ds.segments[0].pos_source is None


def test_load_json_judgement_lists_read_as_the_tsv_column(tmp_path):
    path = tmp_path / "data.json"
    record = {"id": "x1", "src_lang": "cs", "tgt_lang": "en", "source": "zdroj", "hypothesis": "hyp"}
    path.write_text(json.dumps([{**record, "judgements": ["70", 80.5]}]), encoding="utf-8")
    assert load_dataset(path).segments[0].judgements == (70.0, 80.5)
    # each element is one number or a string holding one; anything else is quoted as JSON wrote it
    for element, quoted in (("70,80", '"70,80"'), (True, "true"), ("x", '"x"'), ([1], "[1]")):
        path.write_text(json.dumps([{**record, "judgements": [70, element]}]), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}:record 0: bad judgement {quoted}") + "$"):
            load_dataset(path)


def test_pos_tags_must_match_token_count():
    with pytest.raises(DataError):
        Segment(
            id="a",
            src_lang="de",
            tgt_lang="en",
            source="two words",
            reference=None,
            hypothesis="hyp",
            judgements=(1.0,),
            pos_source=("N",),  # source has 2 tokens
        )


def test_average_judgements():
    seg = make_segment(0, judgements=(1.0, 2.0, 3.0))
    assert average_judgements(seg) == 2.0
    assert average_judgements(make_segment(1, judgements=(0.5,))) == 0.5
    assert average_judgements(make_segment(2, judgements=(-1.0, 1.0))) == 0.0


def test_average_judgements_permutation_invariant():
    import numpy as np

    rng = np.random.default_rng(3)
    values = list(rng.normal(size=9))
    base = average_judgements(make_segment(0, judgements=values))
    for _ in range(20):
        rng.shuffle(values)
        assert average_judgements(make_segment(0, judgements=values)) == base


def test_average_judgements_empty_errors():
    seg = make_segment(0, judgements=())
    with pytest.raises(DataError):
        average_judgements(seg)


def test_dataset_gold_order():
    ds = Dataset(segments=[make_segment(0, judgements=(2.0,)), make_segment(1, judgements=(4.0,))], name="d")
    assert dataset_gold(ds) == [2.0, 4.0]


def _dataset_with_sources(sources):
    segments = [make_segment(i, source=s) for i, s in enumerate(sources)]
    return Dataset(segments=segments, name="d")


def test_split_counts_and_disjointness():
    ds = _dataset_with_sources([f"src {i}" for i in range(10)])
    train, test = split_by_source(ds, 0.8, seed=1)
    assert len(train.segments) == 8 and len(test.segments) == 2
    assert not (set(train.unique_sources()) & set(test.unique_sources()))


def test_split_keeps_shared_sources_together():
    ds = _dataset_with_sources(["s1", "s2", "s1", "s3", "s1"])
    for seed in range(30):
        train, test = split_by_source(ds, 0.5, seed=seed)
        sides = [("s1" in d.unique_sources()) for d in (train, test)]
        assert sides.count(True) == 1  # all three s1 segments on one side
        n_s1_train = sum(s.source == "s1" for s in train.segments)
        assert n_s1_train in (0, 3)


def test_split_partitions_ids():
    ds = _dataset_with_sources([f"src {i % 7}" for i in range(20)])
    train, test = split_by_source(ds, 0.6, seed=9)
    train_ids = {s.id for s in train.segments}
    test_ids = {s.id for s in test.segments}
    assert train_ids | test_ids == {s.id for s in ds.segments}
    assert not (train_ids & test_ids)


def test_split_is_deterministic():
    ds = _dataset_with_sources([f"src {i}" for i in range(13)])
    first = split_by_source(ds, 0.8, seed=42)
    second = split_by_source(ds, 0.8, seed=42)
    assert [s.id for s in first[0].segments] == [s.id for s in second[0].segments]
    third = split_by_source(ds, 0.8, seed=43)
    # a different seed should normally shuffle differently
    assert [s.id for s in third[0].segments] != [s.id for s in first[0].segments]


def test_split_needs_two_sources():
    ds = _dataset_with_sources(["only source", "only source"])
    with pytest.raises(DataError):
        split_by_source(ds, 0.8, seed=0)
    with pytest.raises(ValueError):
        split_by_source(_dataset_with_sources(["a", "b"]), 1.0, seed=0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcdefghij"), max_size=40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_split_sources_is_deterministic_and_source_disjoint(sources, ratio, seed):
    first, second = split_sources(sources, ratio, seed)
    assert (first, second) == split_sources(list(sources), ratio, seed)
    assert not set(first) & set(second)
    assert sorted(first + second) == sorted(set(sources))
    assert len(first) == round_half_up(ratio * len(set(sources)))

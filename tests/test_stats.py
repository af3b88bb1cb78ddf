import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from mteval.stats import average_ranks, spearman

from oracles import loop_average_ranks, rank_oracle, spearman_oracle


def test_average_ranks_plain():
    assert average_ranks([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]


def test_average_ranks_ties_share_mean_position():
    # 1, 2, 2, 3 -> ranks 1, 2.5, 2.5, 4
    assert average_ranks([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    # all equal -> everyone gets the middle rank
    assert average_ranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]


def test_average_ranks_matches_definition_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        values = rng.integers(0, 8, size=n).astype(float)  # lots of ties
        assert np.allclose(average_ranks(values), rank_oracle(values), atol=0)


def test_average_ranks_is_bit_identical_to_the_loop():
    for values in ([], [3.0], [2.0, 1.0], [4.0, 4.0], [7.0] * 5, [np.nan, 1.0, np.nan], [-0.0, 0.0, -0.0, 1.0]):
        assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()
    rng = np.random.default_rng(31)
    specials = np.array([np.nan, -0.0, 0.0, 1.0, -1.0, np.inf, -np.inf])
    for trial in range(600):
        n = int(rng.integers(0, 50))
        if trial % 3 == 0:
            values = rng.normal(size=n)
        elif trial % 3 == 1:
            values = rng.integers(0, 4, size=n).astype(float)
        else:
            values = rng.choice(specials, size=n)
        assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()


def test_spearman_identity_and_reversal_are_exact():
    a = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert spearman(a, a) == 1.0
    assert spearman(a, [-v for v in a]) == -1.0
    # monotone transform, not equality
    assert spearman(a, [np.exp(v) for v in a]) == 1.0


def test_spearman_worked_tie_case():
    got = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0])
    want = spearman_oracle([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0])
    assert abs(got - want) < 1e-12


def test_spearman_random_matches_oracle():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(3, 60))
        a = rng.integers(0, 10, size=n).astype(float)
        b = rng.integers(0, 10, size=n).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert abs(spearman(a, b) - spearman_oracle(a, b)) < 1e-12


def test_spearman_is_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert spearman(a, b) == spearman(b, a)
        assert -1.0 <= spearman(a, b) <= 1.0


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(11)
    a = rng.normal(size=25)
    b = rng.normal(size=25)
    base = spearman(a, b)
    assert abs(spearman(np.exp(a), b) - base) < 1e-12
    assert abs(spearman(a, 3.0 * b + 7.0) - base) < 1e-12
    assert abs(spearman(-a, b) + base) < 1e-12


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    assert spearman([2.0, 2.0], [5.0, 5.0]) == 0.0  # both constant: undefined, scored as 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_a_non_finite_value_on_either_side(value):
    finite = [1.0, 2.0, 3.0, 4.0, 5.0]
    for a, b in [([value] * 5, finite), ([1.0, value, 3.0, 4.0, 5.0], finite)]:
        for pair in [(a, b), (b, a), (a, finite[::-1])]:
            with pytest.raises(ValueError, match="finite"):
                spearman(*pair)


def test_spearman_scores_undefined_rho_as_zero():
    assert spearman([2.0, 2.0], [5.0, 5.0]) == 0.0
    assert spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == -0.5
    with pytest.raises(ValueError):
        spearman([1.0, 1.0], [1.0, 1.0, 1.0])


def test_spearman_single_constant_side_is_neutral_zero():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0


# a few distinct values per sequence, so most draws hold ties
tied_values = st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spearman_matches_scipy_with_ties(data):
    a = data.draw(tied_values)
    b = data.draw(st.lists(st.integers(-3, 3).map(float), min_size=len(a), max_size=len(a)))
    assume(len(set(a)) > 1 and len(set(b)) > 1)  # scipy has no rho for a constant input
    assert abs(spearman(a, b) - spearmanr(a, b).statistic) <= 1e-12

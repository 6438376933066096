import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import generator_ffa, generator_ffc, pairwise_auc
from modeval.curves import auc, roc_curve
from modeval.dataset import ScoredBinarySet
from modeval.errors import DataError
from modeval.gp_fitness import (ClassOutputs, d_score, ffa, ffc, ffd, sig_scaled,
                                wmw)

LN3 = math.log(3.0)


def random_outputs(rng, spread=3.0):
    n_min = rng.randint(1, 12)
    n_maj = rng.randint(1, 12)
    return ClassOutputs([rng.uniform(-spread, spread) for _ in range(n_min)],
                        [rng.uniform(-spread, spread) for _ in range(n_maj)])


def swapped_negated(data: ClassOutputs) -> ClassOutputs:
    """Exchange the two classes and negate every output."""
    return ClassOutputs([-v for v in data.majority], [-v for v in data.minority])


class TestSigScaled:
    def test_zero(self):
        assert sig_scaled(0.0) == 0.0

    def test_closed_form_half(self):
        assert sig_scaled(LN3) == pytest.approx(0.5, rel=1e-15)

    def test_asymptotes(self):
        assert sig_scaled(60.0) == pytest.approx(1.0, abs=1e-15)
        assert sig_scaled(-60.0) == pytest.approx(-1.0, abs=1e-15)
        assert abs(sig_scaled(1e6)) <= 1.0

    def test_matches_logistic_form(self):
        for x in (-5.0, -0.7, 0.3, 2.2, 8.0):
            assert sig_scaled(x) == pytest.approx(2.0 / (1.0 + math.exp(-x)) - 1.0,
                                                  rel=1e-12)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_odd(self, x):
        assert sig_scaled(-x) == -sig_scaled(x)


class TestClassOutputs:
    def test_requires_nonempty(self):
        with pytest.raises(DataError):
            ClassOutputs([], [1.0])
        with pytest.raises(DataError):
            ClassOutputs([1.0], [])

    def test_requires_finite(self):
        with pytest.raises(DataError):
            ClassOutputs([float("nan")], [1.0])

    def test_population_std(self):
        data = ClassOutputs([1.0, 3.0], [-1.0, -3.0])
        assert data.minority_std == 1.0
        assert data.majority_std == 1.0


class TestWmw:
    def test_clean_separation(self):
        data = ClassOutputs([0.9, 0.5], [-0.2, -0.8])
        assert wmw(data).value == 1.0

    def test_pair_enumeration_fixture(self):
        data = ClassOutputs([0.4, -0.2], [0.1, -0.5])
        assert wmw(data).value == 0.5

    def test_tied_pair_does_not_count(self):
        # only a strict win counts: the 0.5/0.5 pair would make it 3/4
        data = ClassOutputs([0.5, 0.2], [0.5, 0.1])
        assert wmw(data).value == 0.5

    def test_negative_minority_scores_never_count(self):
        data = ClassOutputs([-0.1, -0.9], [-2.0, -3.0])
        assert wmw(data).value == 0.0

    def test_never_exceeds_pooled_auc(self):
        rng = random.Random(107)
        for _ in range(200):
            data = random_outputs(rng)
            pooled = ScoredBinarySet(
                [True] * len(data.minority) + [False] * len(data.majority),
                list(data.minority) + list(data.majority))
            pooled_auc = auc(roc_curve(pooled)).value
            assert wmw(data).value <= pooled_auc + 1e-12
            assert pooled_auc == pytest.approx(
                pairwise_auc(pooled.labels, pooled.scores), rel=1e-12, abs=1e-12)


class TestFfa:
    def test_on_target_outputs(self):
        data = ClassOutputs([LN3, LN3], [-LN3, -LN3, -LN3])
        assert ffa(data).value == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_outputs(self):
        data = ClassOutputs([0.0, 0.0], [0.0, 0.0, 0.0])
        assert ffa(data).value == pytest.approx(0.875, rel=1e-15)

    def test_saturated_wrong_outputs(self):
        data = ClassOutputs([-60.0] * 3, [60.0] * 3)
        assert ffa(data).value == pytest.approx(-0.125, rel=1e-9)

    def test_swap_negate_invariance(self):
        rng = random.Random(109)
        for _ in range(100):
            data = random_outputs(rng)
            assert ffa(swapped_negated(data)).value == pytest.approx(
                ffa(data).value, rel=1e-12, abs=1e-15)


class TestFfc:
    def test_perfect_split(self):
        data = ClassOutputs([1.0, 1.0], [-1.0, -1.0])
        assert ffc(data).value == 1.0

    def test_identical_distributions(self):
        data = ClassOutputs([0.3, -0.3], [0.3, -0.3])
        assert ffc(data).value == 0.0

    def test_hand_value(self):
        data = ClassOutputs([2.0, 0.0], [0.0, -2.0])
        assert ffc(data).value == pytest.approx((math.sqrt(0.5) + 1.0) / 2.0,
                                                rel=1e-12)

    def test_constant_pooled_outputs_undefined(self):
        data = ClassOutputs([0.5, 0.5], [0.5])
        assert ffc(data).reason == "zero_denominator"

    def test_swap_negate_invariance(self):
        rng = random.Random(113)
        for _ in range(100):
            data = random_outputs(rng)
            base = ffc(data)
            again = ffc(swapped_negated(data))
            if base.is_defined:
                assert again.value == pytest.approx(base.value, rel=1e-12,
                                                    abs=1e-15)

    def test_bounded_part_in_unit_interval(self):
        rng = random.Random(127)
        for _ in range(200):
            mv = ffc(random_outputs(rng))
            if mv.is_defined:
                assert -1e-12 <= mv.value <= 1.0 + 1e-12


# unit-scale outputs, and any finite ones, so that squares overflow and underflow
_outputs = st.lists(
    st.one_of(st.floats(-10, 10), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=20)


def _hex_outcome(fn, *args):
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return None if value is None else value.hex()


@given(_outputs, _outputs)
def test_ffa_and_ffc_match_their_generator_forms_bit_for_bit(minority, majority):
    data = ClassOutputs(minority, majority)
    assert (_hex_outcome(lambda: ffa(data).value)
            == _hex_outcome(generator_ffa, minority, majority))
    assert (_hex_outcome(lambda: ffc(data).value)
            == _hex_outcome(generator_ffc, minority, majority))


class TestFfd:
    def test_identical_distributions(self):
        data = ClassOutputs([1.0, 3.0], [1.0, 3.0])
        assert ffd(data).value == 0.0

    def test_hand_value(self):
        data = ClassOutputs([1.0, 3.0], [-1.0, -3.0])
        assert ffd(data).value == pytest.approx(2.0, rel=1e-15)

    def test_gate_blocks_same_sign_means(self):
        data = ClassOutputs([5.0, 6.0], [1.0, 2.0])
        assert ffd(data).value == 0.0

    def test_zero_variance_undefined(self):
        data = ClassOutputs([1.0, 1.0], [1.0, 1.0])
        assert ffd(data).reason == "zero_denominator"

    def test_numerator_is_shift_invariant(self):
        rng = random.Random(131)
        for _ in range(100):
            data = random_outputs(rng)
            shift = rng.uniform(-5, 5)
            moved = ClassOutputs([v + shift for v in data.minority],
                                 [v + shift for v in data.majority])
            base_gap = abs(data.minority_mean - data.majority_mean)
            moved_gap = abs(moved.minority_mean - moved.majority_mean)
            assert moved_gap == pytest.approx(base_gap, rel=1e-9, abs=1e-9)

    def test_shift_preserves_value_while_gate_unchanged(self):
        data = ClassOutputs([1.0, 3.0], [-1.0, -3.0])
        nudged = ClassOutputs([1.1, 3.1], [-0.9, -2.9])
        assert ffd(nudged).value == pytest.approx(ffd(data).value, rel=1e-12)


class TestDScore:
    def test_ideal_limit(self):
        data = ClassOutputs([60.0, 55.0], [-60.0, -58.0])
        assert d_score(data).value == pytest.approx(1.0, abs=1e-9)

    def test_one_class_misclassified(self):
        data = ClassOutputs([-1.0, -2.0], [-3.0, -0.5])
        assert d_score(data).value == 0.0

    def test_both_sides_empty_correctness(self):
        data = ClassOutputs([-1.0], [1.0])
        assert d_score(data).value == 0.0

    def test_symmetric_half(self):
        data = ClassOutputs([LN3], [-LN3])
        assert d_score(data).value == pytest.approx(0.5, rel=1e-12)

    def test_harmonic_mean_recomputation(self):
        rng = random.Random(137)
        for _ in range(200):
            data = random_outputs(rng)
            c1 = math.fsum(abs(sig_scaled(p)) for p in data.majority
                           if p <= 0) / len(data.majority)
            c2 = math.fsum(abs(sig_scaled(p)) for p in data.minority
                           if p > 0) / len(data.minority)
            expected = 0.0 if c1 + c2 == 0 else 2 * c1 * c2 / (c1 + c2)
            assert d_score(data).value == pytest.approx(expected, rel=1e-12,
                                                        abs=1e-15)

    def test_swap_negate_invariance(self):
        rng = random.Random(139)
        for _ in range(100):
            data = random_outputs(rng)
            assert d_score(swapped_negated(data)).value == pytest.approx(
                d_score(data).value, rel=1e-12, abs=1e-15)

import numpy as np
import pytest

from parcornet.errors import ShapeError
from parcornet.matrices import EdgeSet, PartialCorrelationMatrix
from parcornet.metrics import (
    ConfusionCounts,
    confusion,
    f1_score,
    false_discovery_rate,
    frobenius_distance,
)


class TestConfusion:
    def test_hand_example(self):
        est = EdgeSet.from_pairs(4, [(0, 1), (0, 2)])
        truth = EdgeSet.from_pairs(4, [(0, 1), (1, 3)])
        c = confusion(est, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 3)
        assert c.tp + c.fp + c.fn + c.tn == 6  # all unordered pairs of 4 nodes

    def test_perfect_recovery(self):
        e = EdgeSet.from_pairs(5, [(0, 1), (2, 3)])
        c = confusion(e, e)
        assert (c.tp, c.fp, c.fn) == (2, 0, 0)
        assert f1_score(c) == 1.0
        assert false_discovery_rate(c) == 0.0

    def test_p_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(EdgeSet(3), EdgeSet(4))


class TestScores:
    def test_f1_formula(self):
        c = ConfusionCounts(tp=3, fp=2, fn=1, tn=4)
        assert f1_score(c) == pytest.approx(6.0 / 9.0)
        p, r = 3 / (3 + 2), 3 / (3 + 1)
        assert f1_score(c) == pytest.approx(2 * p * r / (p + r))

    def test_f1_empty_both(self):
        assert f1_score(ConfusionCounts(0, 0, 0, 10)) == 1.0

    def test_f1_zero_tp_with_errors(self):
        assert f1_score(ConfusionCounts(0, 2, 0, 8)) == 0.0
        assert f1_score(ConfusionCounts(0, 0, 3, 7)) == 0.0

    def test_fdr_conventions(self):
        assert false_discovery_rate(ConfusionCounts(0, 0, 2, 8)) == 0.0
        assert false_discovery_rate(ConfusionCounts(1, 3, 0, 6)) == pytest.approx(0.75)


class TestFrobenius:
    def test_hand_2x2(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        b = np.array([[0.0, 0.1], [0.1, 0.0]])
        # the off-diagonal difference is counted twice
        assert frobenius_distance(a, b) == pytest.approx(0.4 * np.sqrt(2.0))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(70)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        assert frobenius_distance(a, b) == pytest.approx(np.linalg.norm(a - b, "fro"))

    def test_accepts_matrix_types(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 0.4
        pc = PartialCorrelationMatrix(vals)
        assert frobenius_distance(pc, np.zeros((3, 3))) == pytest.approx(0.4 * np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_distance(np.zeros((2, 2)), np.zeros((3, 3)))

import numpy as np
import pytest

from otce import (
    Coupling,
    FeatureSet,
    GradConfig,
    MetricConfig,
    MetricId,
    ScoredPair,
    SinkhornConfig,
    SyntheticTaskSpec,
    TransferabilityScore,
)
from otce.errors import DimensionMismatch, LabelOutOfRange, NonFiniteValue

from conftest import make_set


class TestFeatureSet:
    def test_minimal(self):
        fs = FeatureSet(np.array([[0.0]]), np.array([0]), 1)
        assert fs.n == 1 and fs.dim == 1 and fs.class_count == 1

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange, match="record 2"):
            make_set([[0.0], [1.0], [2.0]], [0, 1, 5], classes=3)

    def test_negative_label(self):
        with pytest.raises(LabelOutOfRange):
            make_set([[0.0], [1.0]], [0, -1], classes=2)

    def test_non_finite_feature_names_record(self):
        with pytest.raises(NonFiniteValue, match="record 1"):
            make_set([[0.0, 1.0], [np.nan, 2.0]], [0, 0], classes=1)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            FeatureSet(np.zeros(3), np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(DimensionMismatch):
            FeatureSet(np.zeros((2, 2)), np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(DimensionMismatch):
            FeatureSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 1)

    def test_float_labels_rejected(self):
        with pytest.raises(LabelOutOfRange):
            FeatureSet(np.zeros((2, 1)), np.array([0.0, 1.0]), 2)

    @pytest.mark.parametrize(
        "classes", [2.9, 2.0, np.float64(2.0), True, np.nan, "2", None],
        ids=["float", "whole-float", "numpy-float", "bool", "nan", "str", "none"],
    )
    def test_non_integer_class_count_rejected(self, classes):
        # int() truncated 2.9 to 2, took True as 1 and raised a bare
        # ValueError on NaN.
        with pytest.raises(LabelOutOfRange, match="class_count must be an integer"):
            FeatureSet(np.zeros((2, 1)), np.array([0, 1]), classes)

    @pytest.mark.parametrize("classes", [0, -1, np.int32(0)])
    def test_class_count_below_one_rejected(self, classes):
        with pytest.raises(LabelOutOfRange, match="class_count must be >= 1"):
            FeatureSet(np.zeros((1, 1)), np.array([0]), classes)

    def test_numpy_integer_class_count_held_as_int(self):
        fs = FeatureSet(np.zeros((1, 1)), np.array([0]), np.int64(3))
        assert fs.class_count == 3 and type(fs.class_count) is int

    def test_absent_classes_allowed(self):
        fs = make_set([[0.0], [1.0]], [0, 4], classes=5)
        assert fs.present_classes.tolist() == [0, 4]

    def test_immutable_after_construction(self):
        fs = make_set([[1.0, 2.0]], [0])
        with pytest.raises(ValueError):
            fs.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            fs.labels[0] = 1

    def test_no_aliasing_with_input(self):
        raw = np.array([[1.0, 2.0]])
        fs = FeatureSet(raw, np.array([0]), 1)
        raw[0, 0] = 7.0
        assert fs.features[0, 0] == 1.0


class TestCoupling:
    def test_valid(self):
        c = Coupling(np.full((2, 2), 0.25), np.full(2, 0.5), np.full(2, 0.5))
        assert c.marginal_violation() == 0.0

    def test_mass_must_be_one(self):
        with pytest.raises(NonFiniteValue):
            Coupling(np.full((2, 2), 0.3), np.full(2, 0.5), np.full(2, 0.5))

    def test_negative_entries_rejected(self):
        values = np.array([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(NonFiniteValue):
            Coupling(values, np.full(2, 0.5), np.full(2, 0.5))

    def test_marginal_shapes(self):
        with pytest.raises(DimensionMismatch):
            Coupling(np.full((2, 3), 1 / 6), np.full(3, 1 / 3), np.full(3, 1 / 3))


class TestTransferabilityScore:
    def test_positive_value_rejected(self):
        with pytest.raises(ValueError):
            TransferabilityScore(MetricId.F_OTCE, 0.1, 0.1, None, 3, True)

    def test_gamma_presence_tied_to_metric(self):
        with pytest.raises(ValueError):
            TransferabilityScore(MetricId.F_OTCE, -0.5, 0.1, 0.5, 3, True)
        with pytest.raises(ValueError):
            TransferabilityScore(MetricId.JC_OTCE, -0.5, 0.1, None, 3, True)
        score = TransferabilityScore(MetricId.JC_OTCE, -0.5, 0.1, 0.5, 3, True)
        assert score.gamma == 0.5


# Each real-valued field, with a constructor that sets it alone and an
# int it accepts.
_REAL_FIELDS = {
    "SinkhornConfig.lam": (lambda v: SinkhornConfig(lam=v), 1),
    "SinkhornConfig.marginal_tolerance": (lambda v: SinkhornConfig(marginal_tolerance=v), 1),
    "MetricConfig.gamma": (lambda v: MetricConfig(gamma=v), 0),
    "GradConfig.learning_rate": (lambda v: GradConfig(learning_rate=v), 5),
    "TransferabilityScore.value": (
        lambda v: TransferabilityScore(MetricId.F_OTCE, v, 0.1, None, 3, True), 0),
    "TransferabilityScore.gamma": (
        lambda v: TransferabilityScore(MetricId.JC_OTCE, -0.5, 0.1, v, 3, True), 1),
    "SyntheticTaskSpec.centroid_separation": (
        lambda v: SyntheticTaskSpec(centroid_separation=v), 4),
    "SyntheticTaskSpec.domain_shift": (lambda v: SyntheticTaskSpec(domain_shift=v), 2),
    "SyntheticTaskSpec.label_permutation_fraction": (
        lambda v: SyntheticTaskSpec(label_permutation_fraction=v), 1),
    "ScoredPair.transferability": (lambda v: ScoredPair("b", v), -3),
    "ScoredPair.accuracy": (lambda v: ScoredPair("b", -0.5, accuracy=v), 1),
}


@pytest.mark.parametrize("make, valid", _REAL_FIELDS.values(), ids=_REAL_FIELDS.keys())
def test_real_fields_finite_real_numbers(make, valid):
    # NaN fails every comparison and True compares as 1, so a range test
    # alone passed both.
    for bad in (np.nan, np.inf, -np.inf, True, "1"):
        with pytest.raises(ValueError):
            make(bad)
    for good in (valid, np.int64(valid), float(valid), np.float64(valid), np.float32(valid)):
        make(good)


@pytest.mark.parametrize("value", [False, 0, "yes"])
def test_plain_scaling_rejected(value):
    # Plain scaling was removed: a value that once selected it (False, 0),
    # or that a truth test would take as on ("yes"), raises rather than
    # being ignored.
    with pytest.raises(ValueError, match=r"plain scaling \(log_domain=False\) was removed"):
        SinkhornConfig(log_domain=value)
    assert SinkhornConfig(log_domain=True).log_domain is True

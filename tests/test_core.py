import numpy as np
import pytest

from fedcs_sim.core import (
    Megabits,
    MegabitsPerSecond,
    ParameterError,
    RngStream,
    Seconds,
    UnitError,
)


class TestUnits:
    def test_accepts_non_negative(self):
        assert Seconds(0.0) == 0.0
        assert Seconds(180) == 180.0
        assert MegabitsPerSecond(8.64) == 8.64

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -0.001])
    def test_rejects_invalid_reals(self, bad):
        for unit in (Seconds, Megabits, MegabitsPerSecond):
            with pytest.raises(UnitError):
                unit(bad)

    def test_megabytes_conversion_is_explicit(self):
        assert Megabits.from_megabytes(18.3) == pytest.approx(146.4)
        assert Megabits.from_megabytes(0) == 0.0

    def test_arithmetic_degrades_to_float(self):
        total = Seconds(2.0) + Seconds(3.0)
        assert total == 5.0
        assert not isinstance(total, Seconds)


class TestRngStream:
    def test_same_seed_and_label_repeat_exactly(self):
        a = RngStream(42, "fluctuation").generator().random(8)
        b = RngStream(42, "fluctuation").generator().random(8)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        labels = ["placement", "fluctuation", "selection", "training", "partition"]
        draws = [RngStream(7, lab).generator().random(4) for lab in labels]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_child_streams_are_namespaced(self):
        root = RngStream(11)
        assert root.child("selection").label == "root/selection"
        a = root.child("a").generator().random(4)
        b = root.child("b").generator().random(4)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(2**64)
        with pytest.raises(ParameterError):
            RngStream(1, "")

import numpy as np
import pytest

from lomarlab.params import LayoutError, ParamLayout, ParamVector


def layout_2x3():
    # two labels, three coords each, no shared block
    return ParamLayout(label_ranges=((0, 3), (3, 6)), shared_range=(6, 6))


def layout_with_shared():
    return ParamLayout(label_ranges=((0, 2), (2, 4), (4, 6)), shared_range=(6, 10))


class TestLayout:
    def test_sizes_and_slices(self):
        lay = layout_with_shared()
        assert lay.num_labels == 3
        assert lay.size == 10
        assert lay.label_slice(0) == slice(0, 2)
        assert lay.label_slice(2) == slice(4, 6)
        assert lay.shared_slice() == slice(6, 10)

    def test_empty_shared_block(self):
        lay = layout_2x3()
        assert lay.size == 6
        assert lay.shared_slice() == slice(6, 6)

    def test_label_out_of_range(self):
        lay = layout_2x3()
        with pytest.raises(LayoutError):
            lay.label_slice(2)
        with pytest.raises(LayoutError):
            lay.label_slice(-1)

    def test_rejects_gap_between_blocks(self):
        with pytest.raises(LayoutError):
            ParamLayout(label_ranges=((0, 3), (4, 6)), shared_range=(6, 6))

    def test_rejects_empty_label_block(self):
        with pytest.raises(LayoutError):
            ParamLayout(label_ranges=((0, 0), (0, 3)), shared_range=(3, 3))

    def test_rejects_shared_not_trailing(self):
        with pytest.raises(LayoutError):
            ParamLayout(label_ranges=((0, 3),), shared_range=(4, 6))

    def test_rejects_no_labels(self):
        with pytest.raises(LayoutError):
            ParamLayout(label_ranges=(), shared_range=(0, 0))


class TestVector:
    def test_zeros_and_views(self):
        v = ParamVector.zeros(layout_with_shared())
        assert v.values.shape == (10,)
        v.label_slice(1)[:] = 7.0
        assert np.array_equal(v.values[2:4], [7.0, 7.0])
        v.shared_slice()[:] = -1.0
        assert np.array_equal(v.values[6:], [-1.0] * 4)

    def test_coerces_to_float64(self):
        v = ParamVector(np.arange(6, dtype=np.int32), layout_2x3())
        assert v.values.dtype == np.float64

    def test_length_mismatch(self):
        with pytest.raises(LayoutError):
            ParamVector(np.zeros(5), layout_2x3())

    def test_copy_is_independent(self):
        a = ParamVector(np.zeros(6), layout_2x3())
        c = a.copy()
        c.values[0] = 5.0
        assert a.values[0] == 0.0

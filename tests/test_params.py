import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lomarlab.models import ParamLayout, ParamVector


def layout_2x3():
    # two labels, three coords each, no shared block
    return ParamLayout((3, 3))


def layout_with_shared():
    return ParamLayout((2, 2, 2), 4)


class TestLayout:
    def test_sizes_and_slices(self):
        lay = layout_with_shared()
        assert lay.num_labels == 3
        assert lay.size == 10
        assert lay.label_slice(0) == slice(0, 2)
        assert lay.label_slice(2) == slice(4, 6)
        assert lay.shared_size == 4

    def test_empty_shared_block(self):
        lay = layout_2x3()
        assert lay.size == 6
        assert lay.shared_size == 0

    def test_label_out_of_range(self):
        lay = layout_2x3()
        with pytest.raises(ValueError, match="label 2 out of range for 2 labels"):
            lay.label_slice(2)
        with pytest.raises(ValueError, match="label -1 out of range for 2 labels"):
            lay.label_slice(-1)

    def test_rejects_empty_label_block(self):
        with pytest.raises(ValueError, match=r"label sizes >= 1 .*got \(0, 3\), 0"):
            ParamLayout((0, 3))

    def test_rejects_negative_shared_size(self):
        with pytest.raises(ValueError, match=r"shared_size >= 0, got \(3,\), -1"):
            ParamLayout((3,), -1)

    def test_rejects_no_labels(self):
        with pytest.raises(ValueError, match=r"need label sizes .*got \(\), 0"):
            ParamLayout(())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(0, 40))
    def test_label_slices_tile_the_label_blocks_in_order(self, sizes, shared):
        lay = ParamLayout(tuple(sizes), shared)
        assert lay.num_labels == len(sizes)
        assert lay.size == sum(sizes) + shared
        index = np.arange(lay.size)
        blocks = [index[lay.label_slice(r)] for r in range(lay.num_labels)]
        assert [len(block) for block in blocks] == sizes
        assert np.array_equal(np.concatenate(blocks), np.arange(sum(sizes)))


class TestVector:
    def test_zeros_and_views(self):
        v = ParamVector(np.zeros(10), layout_with_shared())
        assert v.values.shape == (10,)
        v.values[v.layout.label_slice(1)] = 7.0
        assert np.array_equal(v.values[2:4], [7.0, 7.0])
        assert np.array_equal(v.values[[0, 1, 4, 5, 6, 7, 8, 9]], np.zeros(8))

    def test_coerces_to_float64(self):
        v = ParamVector(np.arange(6, dtype=np.int32), layout_2x3())
        assert v.values.dtype == np.float64

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"values of shape \(5,\) for layout size 6"):
            ParamVector(np.zeros(5), layout_2x3())
        with pytest.raises(ValueError, match=r"values of shape \(2, 3\) for layout size 6"):
            ParamVector(np.zeros((2, 3)), layout_2x3())

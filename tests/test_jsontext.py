"""``jsontext.int_rows`` against ``json.dumps`` of the listed array."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depcoder.jsontext import int_rows


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(st.sampled_from([np.int32, np.int64]),
                  st.tuples(st.integers(0, 40), st.integers(1, 3)),
                  elements=st.integers(0, 10 ** 6)))
def test_matches_json_dumps_of_the_list(a):
    assert int_rows(a) == json.dumps(a.tolist(), separators=(",", ":"))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_negative_value_is_a_broken_invariant(dtype):
    with pytest.raises(RuntimeError, match="non-negative"):
        int_rows(np.array([[0, 1], [2, -3]], dtype=dtype))

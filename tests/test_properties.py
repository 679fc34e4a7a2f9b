"""Property tests: the batched tensor route against the per-state route."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steerq import correlation, lsc_value, scg_lhs_entropic
from steerq.criteria import analytic_joints, analytic_tensor, criterion_values

QS = (2.0, 1.5, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.0, math.pi / 4),
       chis=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_batched_kernel_matches_per_state_route(theta, chis):
    values = criterion_values(analytic_tensor(theta, chis), QS)
    for idx, chi in enumerate(chis):
        joints = analytic_joints(theta, chi)
        for q in QS:
            assert abs(values[f"scg_q{q:g}"][idx] - scg_lhs_entropic(joints, q)) <= 1e-12
        lsc = lsc_value([correlation(jd) for jd in joints])
        assert abs(values["lsc"][idx] - lsc) <= 1e-12
    assert set(values) == {"scg_q2", "scg_q1.5", "scg_q1", "lsc"}
    assert np.shape(values["lsc"]) == (len(chis),)

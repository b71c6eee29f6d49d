"""Hypothesis strategies for barycenter problems, shared by the solver tests."""

import numpy as np
from hypothesis import strategies as st

from treeshrink.ot_core import BarycenterBatch, BarycenterProblem


def weights(draw, n):
    """A probability vector of length n from small integer weights, zeros included."""
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    if w.sum() == 0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum()


costs = st.one_of(st.integers(0, 8).map(lambda v: v / 4.0),
                  st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def barycenter_problems(draw, r, max_measures=3, max_atoms=4):
    """One problem on r support points: 1-max_measures measures of
    1-max_atoms atoms, zero-mass atoms and zero weights included."""
    m_count = draw(st.integers(1, max_measures))
    q = [weights(draw, draw(st.integers(1, max_atoms))) for _ in range(m_count)]
    alpha = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   min_size=m_count, max_size=m_count)))
    if not alpha.any():
        alpha[0] = 1.0
    D = [a * np.array(draw(st.lists(costs, min_size=r * qm.shape[0],
                                    max_size=r * qm.shape[0]))).reshape(r, -1)
         for a, qm in zip(alpha, q)]
    return BarycenterProblem(q=q, D=D, alpha=alpha)


@st.composite
def problem_lists(draw, r_values=(2, 3, 4)):
    """1-5 problems on one support size, ragged in measures and atoms."""
    r = draw(st.sampled_from(r_values))
    return draw(st.lists(barycenter_problems(r, max_measures=4, max_atoms=5),
                         min_size=1, max_size=5))


def stack(problems):
    """The batch of the given one-problem batches, in order."""
    sizes = np.concatenate([np.diff(p.atom_ptr) for p in problems])
    counts = [p.M for p in problems]
    return BarycenterBatch(np.concatenate([p.mass for p in problems]),
                           np.concatenate([p.cost for p in problems], axis=1),
                           np.concatenate([p.alpha for p in problems]),
                           np.concatenate(([0], np.cumsum(sizes))),
                           np.concatenate(([0], np.cumsum(counts))))

"""Property test: the cascade builder's triangle rule against the pairwise hop mask it replaced."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from chiralspin import CascadeSpec, SpinSite, build_cascade_model

# derandomized and without an example database, so a run is repeatable and writes no files
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def pairwise_hops(dims, order) -> np.ndarray:
    """The entries (a, b) where S_j^+ S_l^- is nonzero for a site j before a site l in ``order``.

    One site pair at a time: b has a digit above 0 at j and below the top at l, and a is
    b with the digit at j lowered by one and the digit at l raised by one.
    """
    index = np.arange(math.prod(dims))
    strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
    raisable = [index // stride % d > 0 for stride, d in zip(strides, dims)]
    lowerable = [index // stride % d < d - 1 for stride, d in zip(strides, dims)]
    mask = np.zeros((index.size, index.size), dtype=bool)
    for at, j in enumerate(order):
        for l in order[at + 1:]:
            b = np.flatnonzero(raisable[j] & lowerable[l])
            mask[b - strides[j] + strides[l], b] = True
    return mask


rates = st.sampled_from([0.0, 0.3, 1.0, 2.5])


@SETTINGS
@given(spins=st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=5),
       gamma=rates, gamma_prime=rates, k_z=st.floats(-20.0, 20.0))
def test_triangle_rule_equals_pairwise_mask(spins, gamma, gamma_prime, k_z):
    # forward, backward or both channels over mixed spins, at most 256 states
    assume(gamma > 0 or gamma_prime > 0)
    assume(math.prod(int(2 * s) + 1 for s in spins) <= 256)
    spec = CascadeSpec(gamma, gamma_prime, k_z, tuple(SpinSite(s, 0.4 * j) for j, s in enumerate(spins)))
    model = build_cascade_model(spec)
    dims, n = model.space.dims, len(spins)
    forward, backward = (pairwise_hops(dims, order) for order in (range(n), range(n - 1, -1, -1)))
    # the hamiltonian the builder formed with the pairwise mask, from the same z^dag z
    h = np.zeros((model.space.dim,) * 2, dtype=complex)
    channels = [(rate, hops) for rate, hops in ((gamma, forward), (gamma_prime, backward)) if rate > 0]
    assert [rate for rate, _ in model.jumps] == [2.0 * rate for rate, _ in channels]
    for (rate, hops), (_, z) in zip(channels, model.jumps):
        t = (1j * rate) * np.where(hops, z.matrix.conj().T @ z.matrix, 0)
        h += t + t.conj().T
    assert h.tobytes() == model.hamiltonian.matrix.tobytes()
    # a one-way channel's K moves no excitation upstream, from a site to one before it in the
    # channel's order: those entries are exactly 0, and every downstream hop is nonzero
    k = model.generator().k
    for other_rate, upstream, downstream in ((gamma_prime, forward, backward), (gamma, backward, forward)):
        if other_rate == 0:
            assert not np.any(k[upstream])
            assert np.all(k[downstream] != 0)

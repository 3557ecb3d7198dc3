import hashlib

import numpy as np
import pytest

import chiralspin.dynamics as dynamics_module
from chiralspin import CascadeSpec, DensityMatrix, LindbladModel, Operator, SpinSite
from chiralspin.core import HilbertSpace, spin_factor
from chiralspin.validation import random_density


def model_digest(*items) -> str:
    """SHA-256 over the bits of every matrix and number in ``items``, in order.

    Takes arrays, numbers, :class:`Operator` values, :class:`LindbladModel` values (the
    Hamiltonian, each jump's rate and operator, then K of ``generator()``) and lists or
    tuples of these. Each array adds its dtype, its shape and ``tobytes()``, which keeps
    the sign of every zero, so two digests agree only when the values agree bit for bit.
    """
    digest = hashlib.sha256()

    def add(item):
        if isinstance(item, LindbladModel):
            add((item.hamiltonian, item.jumps, item.generator().k))
        elif isinstance(item, Operator):
            add(item.matrix)
        elif isinstance(item, (list, tuple)):
            for part in item:
                add(part)
        else:
            array = np.asarray(item)
            digest.update(repr((array.dtype.str, array.shape)).encode())
            digest.update(array.tobytes())

    for item in items:
        add(item)
    return digest.hexdigest()


@pytest.fixture
def rng():
    # every "random" matrix in the suite descends from this fixed seed
    return np.random.default_rng(1234567)


@pytest.fixture
def two_spins():
    return (SpinSite(0.5, 0.0, "A"), SpinSite(0.5, 2.5e-7, "B"))


@pytest.fixture
def pair_spec(two_spins):
    def make(gamma=1.0, gamma_prime=0.0, kd=0.7):
        d = two_spins[1].position_z - two_spins[0].position_z
        return CascadeSpec(gamma, gamma_prime, kd / d, two_spins)

    return make


@pytest.fixture
def two_spin_space():
    return HilbertSpace((spin_factor(0.5), spin_factor(0.5)))


@pytest.fixture
def random_state_factory(rng):
    def make(space):
        return DensityMatrix(space, random_density(rng, space.dim))

    return make


@pytest.fixture
def stepper_builds(monkeypatch):
    """Record every stepper an evolution builds, as (kind, |S|) in build order.

    The kind is "amplitude", "propagator" or "stage", and |S| the size of the run's
    closed support, the dimension of the generator the stepper receives.
    """
    builds = []
    for kind, name in (("amplitude", "_step_amplitudes"), ("propagator", "_PropagatorBlocks"),
                       ("stage", "_StageSteps")):
        def spy(gen, *args, kind=kind, build=getattr(dynamics_module, name)):
            builds.append((kind, gen.k.shape[0]))
            return build(gen, *args)

        monkeypatch.setattr(dynamics_module, name, spy)
    return builds

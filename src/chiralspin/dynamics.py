"""Time evolution of Lindblad models.

Every evolution integrates one encoding of the generator,
:class:`~chiralspin.models.Generator`: L(rho) = -i(K rho - rho K^dag) plus
sandwich terms r z rho z^dag, with K = H - (i/2) sum r z^dag z (for a cascade
channel, the paper's non-Hermitian H_nh). One step driver, :func:`evolve`,
serves every run with exactly one of three steppers chosen below, and every run
preserves the trace. No run is short-cut: a stationary start (L(rho0) = 0
exactly) is stepped like any other, and the diagnostic ``stationary`` flags it.

All evolutions are nondimensionalized by ``rate_scale`` so step sizes stay
O(1) across many orders of magnitude of physical rates. The stepper is a
fixed-step classical 4th-order method with a step-doubling error estimate:
deterministic and reproducible, which matters more here than adaptivity
because every generator in scope is bounded and non-stiff after scaling.

Every evolution runs on the closed support of its generator: the smallest
set S of basis indices that holds the initial state's support and that K
and every sandwich z map into itself (K[S', S] = 0 and z[S', S] = 0 on the
complement S'). Then -i(K rho - rho K^dag) and z rho z^dag keep an
S x S-supported rho on S x S exactly, so the step polynomial does too, and
the loop integrates the generator restricted to S x S. The set is read from
the exact nonzero pattern, with no tolerance. A one-excitation cascade run
stays in span{|G>, |e_1>, ..., |e_N>} (N+1 states instead of 2^N), because
H conserves the excitation number and each jump lowers it by one. The step
count still comes from the full generator's magnitude. Recorded states stay
on S: they are one (m, |S|, |S|) stack, a :class:`~chiralspin.core.StateStack`,
which :func:`~chiralspin.core.partial_trace_stack` reduces as a whole and
which embeds a state into the full space only when it is read. The final
state is a full-space density matrix, zero outside S x S.

For small supports (:class:`_PropagatorBlocks`, up to _PROPAGATOR_MAX_DIM
states) the one-step map P is precomputed as a dense
superoperator matrix (the 4th-order Taylor polynomial of exp(h*L), which is
exactly what the classical 4th-order step evaluates for a linear autonomous
system), and a block of K steps is one product with P^K. Every per-step
trace and every watched value inside a block is a linear functional of the
block's start state, so one product with a precomputed row stack records
them all. K follows from the sample and state strides, the diagnostics
stride and a cap on the stack's memory; it divides the state stride, so
every recorded state is a block end, and only the run's last block is
shorter. For larger supports (:class:`_StageSteps`) a block is one step,
with the stages evaluated directly.

The loop runs over chunks of blocks. Each iteration first forms a chunk's
block-end states by doubling, x[m:2m] = x[:m] Q^m with Q = P^K, in O(log)
products (the row stack too). It then checks and records the whole chunk
with array operations: the per-step traces and interior samples of every
block come from one product of the boundary states with the row stack, and
the end-of-block samples, states and diagnostics from slices of the same
boundary states. The chunk length comes from the same memory cap, so memory
does not grow with the step count. On both paths the trace-drift guard
checks every step and reports the first one that fails, even when the chunk
has already stepped past it, and the Hermiticity, positivity and
step-doubling diagnostics run at about 256 block ends per run. Both paths
implement the same method, and the choice depends only on |S|, the step
count and the strides, so results stay deterministic run to run.

The third stepper (:func:`_step_amplitudes`) serves a single excitation
decaying into one dark state. When rho0 = |i><i| for a basis state i, every
jump maps A (the closure of {i} under K alone) into one common state g
outside A, and g is dark (K and every z vanish on its row and column), the
state is exactly rho(t) = |c><c| + (1 - |c|^2)|g><g| (Gardiner; Carmichael
1993): c evolves under -iK between jumps, and every jump lands in g. This is
the master equation rewritten as H_nh plus jumps (Dalibard, Castin & Molmer
1992), with the jumped population recycled into g. The rule reads only
nonzero patterns, like the closed support, and every one-excitation basis
start of a cascade model meets it. This amplitude path advances the |A|
amplitudes with the same two degree-4 Taylor half steps, every step's
amplitudes formed by doubling in chunks under the same memory cap, and it
builds no superoperator and runs no eigensolver: watched values are
c^dag O[A,A] c + O[g,g] (1 - |c|^2), the states are recorded as the same
stack on S, and the diagnostics come from the exact spectrum
{|c|^2, 0, 1 - |c|^2}. Its per-step guard reports the first step where |c|^2
rises by more than the tolerance, which a trace-preserving generator never
does. The two paths truncate the same exponential differently, so their
results agree to about 1e-11, not bit for bit. Mixed, multi-excitation and
spin-s > 1/2 top-state starts and jump-free models take the density path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import gcd
from sys import float_info

import numpy as np

from .core import DensityMatrix, StateStack
from .errors import DomainError, FitError, IntegrationError
from .models import Generator, LindbladModel

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "evolve",
    "fit_exchange_rate",
]

# Above this closed-support size the stages are evaluated directly. It caps memory, not
# time: a d^2 x d^2 propagator takes d^4 * 16 bytes (16 MB at d=32, against a 5-spin
# cascade_chain peak of about 52 MB and a 5% bound), and building one peaks at 90 /
# 258 MiB traced at d = 27 / 36 (1 MiB staged), yet it steps faster than the stages well
# past 16: 12x at 16, 1.4x at 27, with the crossover near 30 (ROADMAP item 8).
_PROPAGATOR_MAX_DIM = 16

# Cap on the row stack of one propagator block (see _block_length), and on the
# records and boundary states of one chunk of blocks (see _chunk_blocks).
_STACK_MAX_BYTES = 1 << 19

# The most steps a run may take (20 s at 0.2 us, the cheapest step), whatever its sample grid
_MAX_STEPS = 10 ** 8

# The most bytes a run's sample table and recorded-state stack may take, times included
_MAX_RECORD_BYTES = 1 << 28


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters, all in scaled (dimensionless) time.

    ``t_final`` and ``dt`` are measured in units of 1/``rate_scale``;
    ``rate_scale`` itself is the physical normalization frequency in rad/s.
    ``dt=None`` resolves to 1e-3 divided by the scaled generator magnitude.
    ``tolerance`` bounds the per-step trace drift (on the amplitude path of a
    decaying excitation, the per-step rise of the excitation norm |c|^2, see
    the module docstring);
    violating it raises :class:`IntegrationError` with the offending step.
    ``sample_stride`` controls how often watched expectation values are
    recorded (1 = every step) and ``record_states_stride`` optionally stores
    density-matrix snapshots; a stride of the step count or more records the
    first and last step only. The loop steps a chunk of blocks at a time, K
    steps per block on small supports (K divides the state stride) and one
    step on larger ones, and then checks and records the chunk (see the
    module docstring); the guard still checks every step, and the more
    expensive hermiticity/positivity/step-doubling diagnostics run at the
    ends of ~256 evenly spaced blocks (on the amplitude path, steps) per run.
    ``t_final``, ``rate_scale`` and ``dt`` must be finite; a run over 10^8 steps, or whose
    samples and states would take over 256 MiB, is refused.
    """

    t_final: float
    rate_scale: float
    dt: float | None = None
    tolerance: float = 1e-10
    sample_stride: int = 1
    record_states_stride: int = 0

    def __post_init__(self):
        for name in ("t_final", "rate_scale", "dt"):
            value = getattr(self, name)
            if value is not None and not abs(value) <= float_info.max:
                raise DomainError(f"{name} must be finite, got {value}")
        if self.t_final < 0:
            raise DomainError(f"t_final must be non-negative, got {self.t_final}")
        if self.rate_scale <= 0:
            raise DomainError(f"rate_scale must be positive, got {self.rate_scale}")
        if self.dt is not None and self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.sample_stride < 1:
            raise DomainError("sample_stride must be >= 1")
        if self.record_states_stride < 0:
            raise DomainError("record_states_stride must be >= 0")


@dataclass
class Trajectory:
    """Sampled observables plus the final state and integrator diagnostics.

    ``times`` are dimensionless (units of 1/``rate_scale``); ``observables``
    maps each watch label to a complex array aligned with ``times``. The
    imaginary part of an observable that is Hermitian on the run's closed
    support S (O[S,S] equal to its adjoint entry for entry, as every Hermitian O
    is) is exactly 0 and its real part is Re tr(O rho); the dropped part
    comes from the anti-Hermitian rounding of rho, which the diagnostic
    ``max_hermiticity_dev`` reports.

    With ``record_states_stride`` set, ``states`` holds the state at each of
    ``state_times``. An evolution records them as a
    :class:`~chiralspin.core.StateStack` on the closed support of its run: it has a
    length and indexes (``states[-1]`` too) and iterates as full-space
    :class:`~chiralspin.core.DensityMatrix` values, each built when it is read, and
    :func:`~chiralspin.core.partial_trace_stack` reduces it without building them.
    ``final_state`` is a full-space density matrix.
    """

    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: DensityMatrix
    rate_scale: float
    diagnostics: dict[str, float] = field(default_factory=dict)
    states: Sequence[DensityMatrix] | None = None
    state_times: np.ndarray | None = None


def _generator_scale(h_scaled: np.ndarray, sandwiches) -> float:
    """||H||_2 + sum_k r_k ||z_k||_2^2: sets the default step, from H and not from K."""
    scale = float(np.linalg.norm(h_scaled, 2)) if h_scaled.size else 0.0
    for rate, z in sandwiches:
        scale += rate * float(np.linalg.norm(z, 2)) ** 2
    return scale


def _resolve_grid(cfg: IntegratorConfig, model: LindbladModel, gen: Generator) -> tuple[int, float]:
    """Step count (at most _MAX_STEPS) and step; the generator scale is formed only without ``cfg.dt``."""
    dt = cfg.dt
    if dt is None:
        magnitude = _generator_scale(model.hamiltonian.matrix / cfg.rate_scale, gen.sandwiches)
        dt = 1e-3 / magnitude if magnitude > 0 else cfg.t_final / 1000.0
    if dt <= 0:
        dt = cfg.t_final / 1000.0 if cfg.t_final > 0 else 1.0
    steps = cfg.t_final / dt
    if steps > float_info.max:
        raise DomainError(f"t_final {cfg.t_final:.3e} over dt {dt:.3e} is too many steps to count")
    n = max(1, int(round(steps)))
    if n > _MAX_STEPS:
        raise DomainError(f"the step grid of {n} steps is too large to run: the budget is {_MAX_STEPS} steps")
    return n, cfg.t_final / n


def _taylor4(f: np.ndarray, h: float) -> np.ndarray:
    """Degree-4 Taylor polynomial of exp(h*f); equals one classical 4th-order step."""
    eye = np.eye(f.shape[0], dtype=complex)
    hf = h * f
    return eye + hf @ (eye + hf @ (eye / 2.0 + hf @ (eye / 6.0 + hf / 24.0)))


def _check_records(n: int, sample_stride: int, state_stride: int, n_watch: int, d: int) -> None:
    """Refuse a run whose records exceed _MAX_RECORD_BYTES, counted before :func:`_steps` allocates."""
    item = np.dtype(complex).itemsize
    samples = -(-n // sample_stride) + 1
    states = -(-n // state_stride) + 1 if state_stride else 0
    size = samples * (n_watch * item + 8) + states * (d * d * item + 8)
    if size > _MAX_RECORD_BYTES:
        raise DomainError(f"the records of {samples} samples and {states} states take {size / 2 ** 20:.0f} MiB, "
                          f"over the budget of {_MAX_RECORD_BYTES >> 20} MiB: raise integrator.sample_stride")


def _two_half_steps(f: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """P = (the degree-4 Taylor polynomial of exp(f dt/2))^2, the one-step map, and that
    polynomial of exp(f dt) minus P; an overflow is left to the caller's per-step guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        half = _taylor4(f, 0.5 * dt)
        step = half @ half
        return step, _taylor4(f, dt) - step


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _steps(n: int, stride: int) -> np.ndarray:
    """Step indices 0, stride, 2*stride, ... plus the last step ``n``."""
    keep = np.arange(0, n + 1, stride, dtype=np.intp)
    return keep if keep[-1] == n else np.append(keep, n)


def _block_length(limit: int, sample_stride: int, state_stride: int, n_watch: int,
                  row_bytes: int) -> int:
    """Steps per block: the largest K <= ``limit`` whose row stack fits _STACK_MAX_BYTES.

    With recorded states K divides the state stride, so every recorded state is a
    block end. The stack holds one trace row per offset 1..K and ``n_watch`` rows per
    interior offset that is a multiple of gcd(K, sample_stride), which covers every
    sample step of every block. K is a multiple of the sample stride where one fits,
    so those rows sit at sample steps only.
    """
    def fits(k: int) -> bool:
        rows = k + n_watch * (k // gcd(k, sample_stride) - 1)
        return state_stride % k == 0 and rows * row_bytes <= _STACK_MAX_BYTES

    top = min(limit, _STACK_MAX_BYTES // row_bytes)
    return (next((k for k in range(top - top % sample_stride, 1, -sample_stride) if fits(k)), 0)
            or next((k for k in range(top, 1, -1) if fits(k)), 1))


def _chunk_blocks(rows: int, d: int) -> int:
    """Blocks per chunk: each block's ``rows`` values and its state fit _STACK_MAX_BYTES."""
    return max(1, _STACK_MAX_BYTES // ((rows + d * d) * np.dtype(complex).itemsize))


def _fill_powers(out: np.ndarray, squares: list) -> None:
    """Fill out[i] = out[0] @ q^i in place by doubling, out[m:2m] = out[:m] @ q^m, in O(log)
    products; ``squares`` holds q, q^2, q^4, ... and gains those it lacks, for later fills."""
    m = 1
    while m < len(out):
        if len(squares) < m.bit_length():
            squares.append(squares[-1] @ squares[-1])
        np.matmul(out[:min(m, len(out) - m)], squares[m.bit_length() - 1], out=out[m:2 * m])
        m *= 2


class _PropagatorBlocks:
    """K steps per block with the precomputed one-step map P (d <= _PROPAGATOR_MAX_DIM).

    P is the squared degree-4 Taylor polynomial of exp(dt/2 * L), i.e. two classical
    4th-order half steps. Every per-step trace and watched value inside a block is a
    linear functional of the block's start state v, so one product with the row stack
    [vec(I)^T P^j for j = 1..K; F P^j at the interior sample offsets j] gives them all.
    Only the run's last block may be shorter; it reads the first trace rows of the same
    stack. The stack and the block ends (:meth:`ends`) are built by doubling, in O(log)
    products.
    """

    def __init__(self, gen: Generator, dt: float, functionals: np.ndarray, k: int,
                 sample_stride: int):
        d = gen.k.shape[0]
        self.k = k
        step = gcd(k, sample_stride)
        self.offsets = np.arange(step, k, step)
        self.n_watch = n_watch = functionals.shape[0]
        self.rows = k + n_watch * self.offsets.size
        self.stack = np.empty((self.rows, d * d), dtype=complex)
        watched = self.stack[k:].reshape(self.offsets.size, n_watch, d * d)
        self.p, self.p_err = _two_half_steps(gen.superoperator(), dt)
        # An unstable step overflows P or its high powers; the per-step guard reports the
        # first non-finite or drifting trace, which comes from the low powers. The
        # transposed powers advance states held as rows.
        with np.errstate(over="ignore", invalid="ignore"):
            self.squares = [np.linalg.matrix_power(self.p, k).T]
            self.stack[0] = np.eye(d, dtype=complex).reshape(-1) @ self.p
            _fill_powers(self.stack[:k], [self.p])
            if watched.size:
                p_step = np.linalg.matrix_power(self.p, step)
                watched[0] = functionals @ p_step
                _fill_powers(watched, [p_step])

    def ends(self, out: np.ndarray, last: int) -> None:
        """Set out[1:] to the state after each block from out[0]; the final block has ``last`` steps.

        Every other block has K, so out[j] is P^(j * K) out[0]; a final block shorter
        than K takes one more product.
        """
        full = len(out) if last == self.k else len(out) - 1
        _fill_powers(out[:full], self.squares)
        if full < len(out):
            out[-1] = np.linalg.matrix_power(self.p, last) @ out[-2]

    def records(self, states: np.ndarray):
        """Per-step traces (blocks x K) and interior values (blocks x offsets x watched).

        ``states`` holds the chunk's block boundaries, one vectorized state per row.
        """
        out = states[:-1] @ self.stack.T
        values = out[:, self.k:].reshape(len(out), self.offsets.size, self.n_watch)
        return out[:, :self.k].real, values

    def doubling_error(self, starts: np.ndarray, ends: np.ndarray) -> float:
        """One full step against two half steps, from each block's start state."""
        return float(np.max(np.abs(starts @ self.p_err.T)))


class _StageSteps:
    """One step per block, two classical 4th-order half steps on the d x d state."""

    k = rows = 1
    offsets = np.empty(0, dtype=int)

    def __init__(self, gen: Generator, dt: float):
        self.gen, self.dt = gen, dt
        self.d = gen.k.shape[0]

    def ends(self, out: np.ndarray, last: int) -> None:
        """Set out[1:] to the state after each one-step block, each from the one before."""
        for i in range(len(out) - 1):
            half = _rk4_step(self.gen.apply, out[i].reshape(self.d, self.d), 0.5 * self.dt)
            out[i + 1] = _rk4_step(self.gen.apply, half, 0.5 * self.dt).reshape(-1)

    def records(self, states: np.ndarray):
        """Each block's one trace, read from its end state; no interior values."""
        ends = states[1:].reshape(-1, self.d, self.d)
        return np.trace(ends, axis1=1, axis2=2).real[:, None], None

    def doubling_error(self, starts: np.ndarray, ends: np.ndarray) -> float:
        """One full step against two half steps, from every block's start state at once."""
        full = _rk4_step(self.gen.apply, starts.reshape(-1, self.d, self.d), self.dt)
        return float(np.max(np.abs(full.reshape(len(starts), -1) - ends)))


def _closure(links: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """The mask ``inside`` grown by the rows ``links`` reaches from its columns, until nothing is added."""
    while True:
        grown = inside | links[:, inside].any(axis=1)
        if np.count_nonzero(grown) == np.count_nonzero(inside):  # grown holds inside
            return inside
        inside = grown


def _closed_support(gen: Generator, rho0: np.ndarray) -> np.ndarray:
    """Sorted indices of the smallest set holding rho0's support that K and every z map into itself.

    Grows the support of ``rho0`` by the rows that the nonzero entries of K and of
    every sandwich z reach from its columns, until nothing is added. Only the
    exact nonzero pattern is read.
    """
    links = gen.k != 0
    for _, z in gen.sandwiches:
        links = links | (z != 0)
    return np.flatnonzero(_closure(links, (rho0 != 0).any(axis=0) | (rho0 != 0).any(axis=1)))


def _cascade_amplitudes(gen: Generator, rho: np.ndarray):
    """(A, g) when ``rho`` is one excitation that decays into one dark state g, else None.

    The rule reads only nonzero patterns: rho = |i><i| for one basis state i; A is
    the closure of {i} under K alone; every jump z has z[A, A] = 0 and maps A into
    one common state g outside A, which at least one jump reaches; and g is dark,
    K[g, :] = K[:, g] = 0 and z[:, g] = 0. Then between jumps the state is the
    amplitude vector c on A under -iK, and every jump lands in g, so
    rho(t) = |c><c| + p_G |g><g|.
    """
    diagonal = rho.diagonal()
    if np.count_nonzero(rho) != 1 or np.count_nonzero(diagonal == 1) != 1:
        return None
    inside = _closure(gen.k != 0, diagonal != 0)
    reached = np.zeros_like(inside)
    for _, z in gen.sandwiches:
        hit = (z[:, inside] != 0).any(axis=1)
        if (hit & inside).any():
            return None
        reached |= hit
    ground = np.flatnonzero(reached)
    if ground.size != 1:
        return None
    g = int(ground[0])
    if gen.k[g].any() or gen.k[:, g].any() or any(z[:, g].any() for _, z in gen.sandwiches):
        return None
    return np.flatnonzero(inside), g


def _drift_error(what: str, step: int, drift: float, dt: float, tolerance: float) -> IntegrationError:
    t = step * dt
    return IntegrationError(f"per-step {what} {drift:.3e} exceeded tolerance {tolerance:.1e} "
                            f"at step {step} (t={t:.6g})", step=step, time=t, drift=drift)


def _step_amplitudes(gen: Generator, amps: np.ndarray, g: int, rho: np.ndarray, n: int, dt: float,
                     tolerance: float, blocks, hermitian, table: np.ndarray, states: np.ndarray,
                     diag_stride: int, sample_stride: int, state_stride: int):
    """Step one decaying excitation (see :func:`_cascade_amplitudes`) as its amplitudes c on A.

    Each step is T = (the degree-4 Taylor polynomial of exp(-iK[A, A] dt/2))^2, the
    density path's two half steps on the amplitudes. p_G = 1 - |c|^2 is exact for a
    trace-preserving generator, so the guard checks that |c|^2 never rises by more
    than the tolerance (K - K^dag = -i sum r z^dag z only lowers it). A chunk holds
    the amplitudes of up to _STACK_MAX_BYTES' worth of steps, one column per step,
    formed by doubling. A watched value is
    tr(O rho) = O_gg + sum_a (O_aa - O_gg) |c_a|^2 + sum_(a != b) O_ab conj(c_a) c_b,
    read from the populations |c_a|^2 of every step and the products at the
    watches' nonzero off-diagonal (a, b); ``hermitian`` watches skip the imaginary part.
    Returns the final state on the run's support and (max_trace_drift, the lowest
    eigenvalue over the diagnosed steps, max_step_doubling_error).
    """
    size, d = amps.size, rho.shape[0]
    cut = np.ix_(amps, amps)
    step, step_err = _two_half_steps(-1j * gen.k[cut], dt)
    on_a = np.array([block[cut] for block in blocks], dtype=complex).reshape(-1, size, size)
    on_g = np.array([block[g, g] for block in blocks], dtype=complex)[:, None]
    weights = on_a.diagonal(axis1=1, axis2=2) - on_g
    skew = np.flatnonzero(np.logical_not(hermitian))
    rows, cols = np.nonzero(np.any(on_a != 0, axis=0) & ~np.eye(size, dtype=bool))
    coherences = on_a[:, rows, cols]
    # where |c><c| and p_G sit in a row-major state on S
    flat = (amps[:, None] * d + amps).reshape(-1)

    def place(c: np.ndarray, ground: np.ndarray, out: np.ndarray) -> None:
        # one state per column of c
        out[:] = 0.0
        outer = c.T[:, :, None] * c.T.conj()[:, None, :]
        out.reshape(-1, d * d)[:, flat] = outer.reshape(-1, size * size)
        out[:, g, g] = ground

    chunk = min(n, max(1, _STACK_MAX_BYTES // ((size + rows.size) * np.dtype(complex).itemsize) - 1))
    c = np.empty((size, chunk + 1), dtype=complex)
    c[:, 0] = rho.diagonal()[amps]  # rho = |i><i|, so c = e_i
    squares = [step.T]  # the transposed powers advance the columns as rows
    max_drift, low, max_err = 0.0, np.inf, 0.0
    sample, recorded, start = 1, 1, 0
    while start < n:
        m = min(chunk, n - start)
        block = c[:, :m + 1]  # column j holds step start + j
        # A chunk may run past an unstable step; the guard below reports the first one.
        with np.errstate(over="ignore", invalid="ignore"):
            _fill_powers(block.T, squares)
            pops = np.square(block.real)
            pops += np.square(block.imag)
            norms = pops.sum(axis=0)
            rises = np.diff(norms)
        # a non-finite norm makes its rise inf or nan, which fails "<=" as well
        bad = np.flatnonzero(~(rises <= tolerance))
        if bad.size:
            raise _drift_error("rise of the excitation norm |c|^2", start + int(bad[0]) + 1,
                               float(rises[bad[0]]), dt, tolerance)

        def columns(stride: int) -> np.ndarray:
            # the chunk's columns at the multiples of stride, and at step n
            at = np.arange(stride - start % stride, m + 1, stride)
            return np.append(at, m) if start + m == n and n % stride else at

        diag = columns(diag_stride)
        if diag.size:
            norm, ground = norms[diag], 1.0 - norms[diag]
            max_drift = max(max_drift, float(np.max(np.abs(norm + ground - 1.0))))
            low = min(low, float(norm.min()), float(ground.min()))
            # one full step against the two half steps, from each diagnosed step's start
            halves = np.take(block, diag, axis=1)
            fulls = halves + step_err @ np.take(block, diag - 1, axis=1)
            outer = fulls[:, None] * fulls.conj() - halves[:, None] * halves.conj()
            full_norms = np.square(np.abs(fulls)).sum(axis=0)
            max_err = max(max_err, float(np.max(np.abs(outer))), float(np.max(np.abs(full_norms - norm))))

        keep = slice(1, m + 1) if sample_stride == 1 else columns(sample_stride)
        kept = pops[:, keep]
        values = table[:, sample:sample + kept.shape[1]]
        values.real = weights.real @ kept + on_g.real
        if skew.size:
            values.imag[skew] = weights.imag[skew] @ kept + on_g.imag[skew]
        if rows.size:
            sampled = block[:, keep]
            values += coherences @ (sampled[rows].conj() * sampled[cols])
        sample += kept.shape[1]
        if state_stride:
            at = columns(state_stride)
            place(block[:, at], 1.0 - norms[at], states[recorded:recorded + at.size])
            recorded += at.size
        c[:, 0] = block[:, m]
        start += m
    final = np.empty((1, d, d), dtype=complex)
    place(c[:, :1], 1.0 - norms[m:], final)
    return final[0], (max_drift, low, max_err)


def evolve(model: LindbladModel, rho0: DensityMatrix, cfg: IntegratorConfig,
           watch=()) -> Trajectory:
    """Integrate the master equation and record watched expectation values.

    ``watch`` is a sequence of (label, Operator) pairs sampled along the way. The
    entry checks raise :class:`DomainError` unless the model, the start state (which
    must satisfy the density-matrix invariants) and every watched operator share one
    space, the scaled generator is finite (a tiny ``rate_scale`` overflows it), and the
    step grid and its records are within _MAX_STEPS and _MAX_RECORD_BYTES.

    The block of rho on the closed support S is stepped by exactly one stepper (see
    the module docstring). Watched values are linear functionals of vec(rho),
    tr(O rho) = vec(O^T) . vec(rho), so one stacked product records them all; where
    O[S,S] is Hermitian the recorded imaginary part is exactly 0. The run aborts with
    :class:`IntegrationError` if the per-step trace drift, or on the amplitude path the
    per-step rise of |c|^2, ever exceeds ``cfg.tolerance``. The diagnostic
    ``stationary`` flags a start with L(rho0) = 0 exactly.
    """
    space = rho0.space
    if model.space != space:
        raise DomainError("initial state space does not match model space")
    rho0.validate()
    gen = model.generator(cfg.rate_scale)
    watch = list(watch)
    for label, op in watch:
        if op.space != space:
            raise DomainError(f"watched operator {label!r} acts on a different space")
    if not (np.isfinite(gen.k).all()
            and all(np.isfinite(rate) and np.isfinite(z).all() for rate, z in gen.sandwiches)):
        raise DomainError(f"rate_scale {cfg.rate_scale:.3e} leaves the scaled generator non-finite")
    n, dt = _resolve_grid(cfg, model, gen)
    diag_stride = max(1, n // 256)
    # a stride of n or more records steps 0 and n only
    sample_stride = min(cfg.sample_stride, n)
    state_stride = min(cfg.record_states_stride, n)

    support = _closed_support(gen, rho0.matrix)
    cut = np.ix_(support, support)
    d = support.size
    _check_records(n, sample_stride, state_stride, len(watch), d)
    if d < space.dim:
        gen = Generator(gen.k[cut], tuple((rate, z[cut]) for rate, z in gen.sandwiches))

    sample_steps = _steps(n, sample_stride)
    state_steps = _steps(n, state_stride) if state_stride else np.empty(0, dtype=int)
    table = np.zeros((len(watch), sample_steps.size), dtype=complex)
    states = np.empty((state_steps.size, d, d), dtype=complex)

    labels = [label for label, _ in watch]
    blocks = [op.matrix[cut] for _, op in watch]  # O[S, S], all of O that tr(O rho) reads
    hermitian = [np.array_equal(block, block.conj().T) for block in blocks]
    functionals = np.array([block.T.reshape(-1) for block in blocks],
                           dtype=complex).reshape(len(labels), d * d)

    rho = rho0.matrix[cut].astype(complex)
    table[:, 0] = functionals @ rho.reshape(-1)
    states[:1] = rho

    max_trace_drift = 0.0
    max_herm_dev = 0.0
    max_double_err = 0.0
    # zero outside S x S, which the start's value counts and the diagnosed blocks on S do not
    min_eig = rho0.min_eigenvalue()
    trace_prev = float(np.trace(rho).real)

    stationary = not np.count_nonzero(gen.apply(rho))
    cascade = _cascade_amplitudes(gen, rho)
    if cascade is not None:
        rho, (max_trace_drift, low, max_double_err) = _step_amplitudes(
            gen, *cascade, rho, n, dt, cfg.tolerance, blocks, hermitian, table, states,
            diag_stride, sample_stride, state_stride)
        min_eig = min(min_eig, low)
    else:
        if d <= _PROPAGATOR_MAX_DIM:
            k = _block_length(diag_stride, sample_stride, state_stride, len(labels),
                              d * d * np.dtype(complex).itemsize)
            stepper = _PropagatorBlocks(gen, dt, functionals, k, sample_stride)
        else:
            stepper = _StageSteps(gen, dt)
        offsets, k = stepper.offsets, stepper.k
        chunk = _chunk_blocks(stepper.rows + k, d)  # K per-step traces are copied out
        boundary = np.empty((chunk + 1, d * d), dtype=complex)  # states at one chunk's block ends
        boundary[0] = rho.reshape(-1)

        sample, start, recorded = 1, 0, 1
        while start < n:
            # every block is K steps long but the run's last
            ends = np.minimum(start + k * np.arange(1, chunk + 1), n)
            ends = ends[:np.searchsorted(ends, n) + 1]
            starts = np.concatenate(([start], ends[:-1]))
            vs = boundary[:ends.size + 1]
            # A chunk may run past an unstable step; the guard below reports the first one.
            with np.errstate(over="ignore", invalid="ignore"):
                stepper.ends(vs, int(ends[-1] - starts[-1]))
                traces, values = stepper.records(vs)
                # the chunk's steps in order; only the run's last block holds fewer than K
                traces = traces.reshape(-1)[:ends[-1] - start]
                drifts = abs(np.diff(traces, prepend=trace_prev))

            # a non-finite trace makes its drift inf or nan, which fails "<=" as well
            bad = np.flatnonzero(~(drifts <= cfg.tolerance))
            if bad.size:
                raise _drift_error("trace drift", start + int(bad[0]) + 1, float(drifts[bad[0]]), dt,
                                   cfg.tolerance)
            max_trace_drift = max(max_trace_drift, float(abs(traces - 1.0).max()))
            trace_prev = float(traces[-1])

            diag = np.flatnonzero((ends // diag_stride > starts // diag_stride) | (ends == n))
            if diag.size:
                max_double_err = max(max_double_err, stepper.doubling_error(vs[diag], vs[diag + 1]))
                r = vs[diag + 1].reshape(-1, d, d)
                max_herm_dev = max(max_herm_dev,
                                   float(np.max(np.abs(r - r.conj().transpose(0, 2, 1)))))
                lows = np.linalg.eigvalsh(0.5 * (r + np.swapaxes(r, -1, -2).conj()))[:, 0]
                min_eig = min(min_eig, float(lows.min()))

            # samples in step order: each block's interior offsets, then its end; when all
            # blocks are full and aligned to the sample stride, every entry is a sample
            picked = vs[1:] @ functionals.T
            keep = (ends % sample_stride == 0) | (ends == n)
            if offsets.size:
                inner = (offsets < (ends - starts)[:, None]) & (
                    (starts[:, None] + offsets) % sample_stride == 0)
                picked = np.concatenate((values, picked[:, None]), axis=1)
                keep = np.column_stack((inner, keep))
            picked = picked.reshape(keep.size, -1) if keep.all() else picked[keep]
            table[:, sample:sample + len(picked)] = picked.T
            sample += len(picked)
            if state_stride:
                ended = vs[1:][(ends % state_stride == 0) | (ends == n)]
                states[recorded:recorded + len(ended)] = ended.reshape(-1, d, d)
                recorded += len(ended)
            boundary[0] = vs[-1]
            start = int(ends[-1])
        rho = boundary[0].reshape(d, d)

    diagnostics = {"max_hermiticity_dev": max_herm_dev, "min_eigenvalue": min_eig,
                   "max_step_doubling_error": max_double_err, "n_steps": float(n),
                   "dt": dt, "stationary": float(stationary), "max_trace_drift": max_trace_drift}
    table.imag[hermitian] = 0.0
    traj = Trajectory(sample_steps * dt, dict(zip(labels, table)),
                      StateStack(space, support, rho[None])[0], cfg.rate_scale, diagnostics)
    if state_stride:
        traj.states = StateStack(space, support, states)
        traj.state_times = state_steps * dt
    return traj


def fit_exchange_rate(traj: Trajectory, observable_label: str) -> float:
    """Exchange rate (rad/s) from the first maximum of a transferred population.

    A full coherent swap has P(t) = sin^2(gamma t), peaking at t* = pi/(2 gamma),
    so the fit returns pi/(2 t*). The maximum is located as the global maximum
    of the sampled series (which for the monotone-envelope dynamics in scope is
    also the first one; ties resolve to the earliest sample) and refined by
    quadratic interpolation over the three bracketing samples.
    """
    if observable_label not in traj.observables:
        raise FitError(f"trajectory has no observable {observable_label!r}")
    x = np.real(traj.observables[observable_label])
    t = np.asarray(traj.times, dtype=float)
    if x.size < 3:
        raise FitError("trajectory too short to bracket a maximum")
    k = int(np.argmax(x))
    if k == 0 or k == x.size - 1 or x[k] <= x[0]:
        raise FitError("observable exhibits no interior maximum within the trajectory")
    denom = x[k - 1] - 2.0 * x[k] + x[k + 1]
    if denom == 0.0:
        t_star = t[k]
    else:
        t_star = t[k] + 0.25 * (t[k + 1] - t[k - 1]) * (x[k - 1] - x[k + 1]) / denom
    return float(np.pi / (2.0 * t_star) * traj.rate_scale)

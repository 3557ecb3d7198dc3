"""Time evolution of Lindblad models and non-Hermitian Hamiltonians.

Every evolution integrates one encoding of the generator,
:class:`~chiralspin.models.Generator`: L(rho) = -i(K rho - rho K^dag) plus
sandwich terms r z rho z^dag. A Lindblad model enters with
K = H - (i/2) sum r z^dag z; a non-Hermitian Hamiltonian enters with K = H_nh,
with or without its jump, and a pure state as rho = |psi><psi|. One step loop
serves them all.

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
count still comes from the full generator's magnitude, and recorded and
final states are full-space density matrices, zero outside S x S.

For small supports the one-step map P is precomputed as a dense
superoperator matrix (the 4th-order Taylor polynomial of exp(h*L), which is
exactly what the classical 4th-order step evaluates for a linear autonomous
system), and the loop advances a block of K steps per iteration. Every
per-step trace and every watched value inside a block is a linear
functional of the block's start state, so one product with a precomputed
row stack records them all, and P^K moves the state to the block's end. K
follows from the sample and state strides, the diagnostics stride and a cap
on the stack's memory. For larger supports the stages are evaluated
directly, one step per iteration of the same loop. On both paths the
trace-drift guard checks every step, and the Hermiticity, positivity and
step-doubling diagnostics run at about 256 block ends per run. Both paths
implement the same method, and the choice depends only on |S|, the step
count and the strides, so results stay deterministic run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .core import DensityMatrix, Operator, identity
from .errors import DomainError, FitError, IntegrationError
from .models import Generator, LindbladModel

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "evolve",
    "evolve_nonhermitian",
    "fit_exchange_rate",
]

# Above this closed-support size the stages are evaluated directly. A d^2 x d^2
# propagator takes d^4 * 16 bytes: 16 MB at d=32, against a 5-spin cascade_chain run
# that peaks at about 52 MB resident and a 5% peak-memory bound.
_PROPAGATOR_MAX_DIM = 16

# Cap on the row stack of one propagator block (see _block_length): on the d=12
# elimination model it gives K=192 steps per block.
_STACK_MAX_BYTES = 1 << 19


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters, all in scaled (dimensionless) time.

    ``t_final`` and ``dt`` are measured in units of 1/``rate_scale``;
    ``rate_scale`` itself is the physical normalization frequency in rad/s.
    ``dt=None`` resolves to 1e-3 divided by the scaled generator magnitude.
    ``tolerance`` bounds the per-step trace drift of trace-preserving
    evolutions; violating it raises :class:`IntegrationError` with the
    offending step. ``sample_stride`` controls how often watched expectation
    values are recorded (1 = every step) and ``record_states_stride``
    optionally stores full density-matrix snapshots. Small supports advance
    several steps per iteration (see the module docstring); the trace guard
    still checks every step, and the more expensive
    hermiticity/positivity/step-doubling diagnostics run at the ends of ~256
    evenly spaced blocks per run.
    """

    t_final: float
    rate_scale: float
    dt: float | None = None
    tolerance: float = 1e-10
    sample_stride: int = 1
    record_states_stride: int = 0

    def __post_init__(self):
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
    maps each watch label to a complex array aligned with ``times``.
    """

    times: np.ndarray
    observables: dict[str, np.ndarray]
    final_state: DensityMatrix
    rate_scale: float
    diagnostics: dict[str, float] = field(default_factory=dict)
    states: list[DensityMatrix] | None = None
    state_times: np.ndarray | None = None


def _generator_scale(h_scaled: np.ndarray, sandwiches) -> float:
    """||H||_2 + sum_k r_k ||z_k||_2^2: sets the default step, from H and not from K."""
    scale = float(np.linalg.norm(h_scaled, 2)) if h_scaled.size else 0.0
    for rate, z in sandwiches:
        scale += rate * float(np.linalg.norm(z, 2)) ** 2
    return scale


def _resolve_grid(cfg: IntegratorConfig, scale: float) -> tuple[int, float]:
    dt = cfg.dt
    if dt is None:
        dt = 1e-3 / scale if scale > 0 else cfg.t_final / 1000.0
    if dt <= 0:
        dt = cfg.t_final / 1000.0 if cfg.t_final > 0 else 1.0
    n = max(1, int(round(cfg.t_final / dt)))
    return n, cfg.t_final / n


def _taylor4(f: np.ndarray, h: float) -> np.ndarray:
    """Degree-4 Taylor polynomial of exp(h*f); equals one classical 4th-order step."""
    eye = np.eye(f.shape[0], dtype=complex)
    hf = h * f
    return eye + hf @ (eye + hf @ (eye / 2.0 + hf @ (eye / 6.0 + hf / 24.0)))


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _steps(n: int, stride: int) -> np.ndarray:
    """Step indices 0, stride, 2*stride, ... plus the last step ``n``."""
    keep = np.arange(0, n + 1, stride)
    return keep if keep[-1] == n else np.append(keep, n)


def _block_length(limit: int, sample_stride: int, state_stride: int, n_watch: int,
                  row_bytes: int) -> int:
    """Steps per block: the largest K <= ``limit`` whose row stack fits _STACK_MAX_BYTES.

    Blocks also end at every recorded state, so they start at multiples of
    g = gcd(K, state_stride). The stack holds one trace row per offset 1..K and
    ``n_watch`` rows per interior offset that is a multiple of
    gcd(g, sample_stride), which covers every sample step of every block. With
    recorded states K is then evened out over each state stride, so a stride
    splits into equal blocks and at most one shorter one.
    """
    def fits(k: int) -> bool:
        rows = k + n_watch * (k // gcd(k, state_stride, sample_stride) - 1)
        return rows * row_bytes <= _STACK_MAX_BYTES

    top = min(limit, _STACK_MAX_BYTES // row_bytes)
    k = next((k for k in range(top, 1, -1) if fits(k)), 1)
    if state_stride:
        even = -(-state_stride // -(-state_stride // k))
        k = even if fits(even) else k
    return k


class _PropagatorBlocks:
    """K steps per block with the precomputed one-step map P (d <= _PROPAGATOR_MAX_DIM).

    P is the squared degree-4 Taylor polynomial of exp(dt/2 * L), i.e. two classical
    4th-order half steps. Every per-step trace and watched value inside a block is a
    linear functional of the block's start state v, so one product with the row stack
    [vec(I)^T P^j for j = 1..K; F P^j at the interior sample offsets j] gives them all,
    and P^K v is the block's end state. A shorter block of m < K steps (before a
    recorded state, or at the end of the run) reads the first m trace rows of the same
    stack and ends with P^m v.
    """

    def __init__(self, gen: Generator, dt: float, functionals: np.ndarray, k: int,
                 sample_stride: int, state_stride: int):
        d = gen.k.shape[0]
        f = gen.superoperator()
        p_half = _taylor4(f, 0.5 * dt)
        self.k = k
        self.p = p_half @ p_half
        self.p_err = _taylor4(f, dt) - self.p
        step = gcd(k, state_stride, sample_stride)
        self.offsets = np.arange(step, k, step)
        self.n_watch = n_watch = functionals.shape[0]
        self.stack = np.empty((k + n_watch * self.offsets.size, d * d), dtype=complex)
        rows = np.vstack([np.eye(d, dtype=complex).reshape(1, -1), functionals])
        # An unstable step overflows the high powers; the per-step guard reports the
        # first non-finite or drifting trace, which comes from the low powers.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, k + 1):
                rows = rows @ self.p
                self.stack[j - 1] = rows[0]
                if j % step == 0 and j < k:
                    first = k + n_watch * (j // step - 1)
                    self.stack[first:first + n_watch] = rows[1:]
            self.powers = {k: np.linalg.matrix_power(self.p, k)}

    def advance(self, v: np.ndarray, m: int):
        """End state, the m per-step traces, and (offsets, values) of the interior rows."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.stack @ v
            if m not in self.powers:
                self.powers[m] = np.linalg.matrix_power(self.p, m)
            v_new = self.powers[m] @ v
        inner = self.offsets < m
        values = out[self.k:].reshape(self.offsets.size, self.n_watch).T
        return v_new, out[:m].real, self.offsets[inner], values[:, inner]

    def doubling_error(self, v: np.ndarray, v_new: np.ndarray) -> float:
        """One full step against two half steps, from the block's start state ``v``."""
        return float(np.max(np.abs(self.p_err @ v)))


class _StageSteps:
    """One step per block, two classical 4th-order half steps on the d x d state."""

    k = 1
    offsets = np.empty(0, dtype=int)

    def __init__(self, gen: Generator, dt: float):
        self.gen, self.dt = gen, dt

    def advance(self, v: np.ndarray, m: int):
        d = self.gen.k.shape[0]
        half = _rk4_step(self.gen.apply, v.reshape(d, d), 0.5 * self.dt)
        new = _rk4_step(self.gen.apply, half, 0.5 * self.dt)
        return new.reshape(-1), np.array([np.trace(new).real]), self.offsets, None

    def doubling_error(self, v: np.ndarray, v_new: np.ndarray) -> float:
        d = self.gen.k.shape[0]
        full = _rk4_step(self.gen.apply, v.reshape(d, d), self.dt)
        return float(np.max(np.abs(full.reshape(-1) - v_new)))


def _closed_support(gen: Generator, rho0: np.ndarray) -> np.ndarray:
    """Sorted indices of the smallest set holding rho0's support that K and every z map into itself.

    Grows the support of ``rho0`` by the rows that the nonzero entries of K and of
    every sandwich z reach from its columns, until nothing is added. Only the
    exact nonzero pattern is read.
    """
    links = gen.k != 0
    for _, z in gen.sandwiches:
        links = links | (z != 0)
    inside = np.any(rho0 != 0, axis=0) | np.any(rho0 != 0, axis=1)
    while True:
        grown = inside | np.any(links[:, inside], axis=1)
        if np.array_equal(grown, inside):
            return np.flatnonzero(inside)
        inside = grown


def _integrate_density(gen: Generator, scale: float, rho0: DensityMatrix, cfg, watch_ops, *,
                       check_trace: bool) -> Trajectory:
    """The fixed-step driver behind every evolution.

    ``scale`` is the generator magnitude that sets the default step. The loop
    evolves the block of rho on the generator's closed support S (see the module
    docstring) and embeds every recorded state back into the full space. Watched
    values are linear functionals of vec(rho): tr(O rho) = vec(O^T) . vec(rho),
    so one stacked product per sample records them all. The loop advances one
    block of K steps per iteration (K = 1 on the stage path) and checks the
    trace drift of every step in it; the diagnostics run on the block that
    reaches each multiple of ``n // 256`` steps.
    """
    space = rho0.space
    n, dt = _resolve_grid(cfg, scale)
    diag_stride = max(1, n // 256)
    sample_stride = cfg.sample_stride
    state_stride = cfg.record_states_stride

    support = _closed_support(gen, rho0.matrix)
    cut = np.ix_(support, support)
    d = support.size
    if d < space.dim:
        gen = Generator(gen.k[cut], tuple((rate, z[cut]) for rate, z in gen.sandwiches))

    def embedded(r: np.ndarray) -> DensityMatrix:
        out = np.zeros((space.dim, space.dim), dtype=complex)
        out[cut] = r
        return DensityMatrix(space, out)

    def lowest_eigenvalue(r: np.ndarray) -> float:
        # outside S x S the state is exactly zero, which adds the eigenvalue 0
        low = float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0])
        return low if d == space.dim else min(low, 0.0)

    labels = [label for label, _ in watch_ops]
    functionals = np.array([op.matrix[cut].T.reshape(-1) for _, op in watch_ops],
                           dtype=complex).reshape(len(labels), d * d)
    sample_steps = _steps(n, sample_stride)
    table = np.empty((len(labels), sample_steps.size), dtype=complex)

    rho = rho0.matrix[cut].astype(complex)
    v = rho.reshape(-1)
    table[:, 0] = functionals @ v
    states = [embedded(rho)] if state_stride else []

    max_trace_drift = 0.0
    max_herm_dev = 0.0
    min_eig = lowest_eigenvalue(rho)
    max_double_err = 0.0
    trace_prev = float(np.trace(rho).real)

    stationary = not np.count_nonzero(gen.apply(rho))
    if stationary:
        # Stationary input (dark state or trivial generator): the exact
        # solution is constant, so every sample repeats the first.
        table[:, 1:] = table[:, :1]
        if state_stride:
            states += [embedded(rho) for _ in _steps(n, state_stride)[1:]]
    else:
        if d <= _PROPAGATOR_MAX_DIM:
            k = _block_length(diag_stride, sample_stride, state_stride, len(labels),
                              d * d * np.dtype(complex).itemsize)
            stepper = _PropagatorBlocks(gen, dt, functionals, k, sample_stride, state_stride)
        else:
            stepper = _StageSteps(gen, dt)

        sample, start = 1, 0
        while start < n:
            end = min(start + stepper.k, n)
            if state_stride:
                end = min(end, (start // state_stride + 1) * state_stride)
            v_new, traces, offsets, values = stepper.advance(v, end - start)

            if check_trace:
                drifts = abs(traces - np.concatenate(([trace_prev], traces[:-1])))
                # a non-finite trace makes its drift inf or nan, which fails "<=" as well
                if not drifts.max() <= cfg.tolerance:
                    first = int(np.flatnonzero(~(drifts <= cfg.tolerance))[0])
                    step, drift = start + first + 1, float(drifts[first])
                    t = step * dt
                    raise IntegrationError(
                        f"per-step trace drift {drift:.3e} exceeded tolerance {cfg.tolerance:.1e} "
                        f"at step {step} (t={t:.6g})", step=step, time=t, drift=drift)
                max_trace_drift = max(max_trace_drift, float(abs(traces - 1.0).max()))
            trace_prev = float(traces[-1])

            rho_new = v_new.reshape(d, d)
            if end // diag_stride > start // diag_stride or end == n:
                max_double_err = max(max_double_err, stepper.doubling_error(v, v_new))
                herm = float(np.max(np.abs(rho_new - rho_new.conj().T)))
                max_herm_dev = max(max_herm_dev, herm)
                min_eig = min(min_eig, lowest_eigenvalue(rho_new))

            if offsets.size:
                keep = (start + offsets) % sample_stride == 0
                count = int(np.count_nonzero(keep))
                table[:, sample:sample + count] = values[:, keep]
                sample += count
            v = v_new
            if end % sample_stride == 0 or end == n:
                table[:, sample] = functionals @ v
                sample += 1
            if state_stride and (end % state_stride == 0 or end == n):
                states.append(embedded(rho_new))
            start = end
        rho = v.reshape(d, d)

    diagnostics = {"max_hermiticity_dev": max_herm_dev, "min_eigenvalue": min_eig,
                   "max_step_doubling_error": max_double_err, "n_steps": float(n),
                   "dt": dt, "stationary": float(stationary)}
    if check_trace:
        diagnostics["max_trace_drift"] = max_trace_drift
    else:
        diagnostics["final_trace"] = trace_prev
    traj = Trajectory(sample_steps * dt, dict(zip(labels, table)), embedded(rho),
                      cfg.rate_scale, diagnostics)
    if state_stride:
        traj.states = states
        traj.state_times = _steps(n, state_stride) * dt
    return traj


def evolve(model: LindbladModel, rho0: DensityMatrix, cfg: IntegratorConfig,
           watch=()) -> Trajectory:
    """Integrate the master equation and record watched expectation values.

    ``watch`` is a sequence of (label, Operator) pairs sampled along the way.
    The initial state must satisfy the density-matrix invariants; the run
    aborts with :class:`IntegrationError` if the per-step trace drift ever
    exceeds ``cfg.tolerance``.
    """
    if model.space != rho0.space:
        raise DomainError("initial state space does not match model space")
    for label, op in watch:
        if op.space != model.space:
            raise DomainError(f"watched operator {label!r} acts on a different space")
    rho0.validate()
    gen = model.generator(cfg.rate_scale)
    scale = _generator_scale(model.hamiltonian.matrix / cfg.rate_scale, gen.sandwiches)
    return _integrate_density(gen, scale, rho0, cfg, list(watch), check_trace=True)


def evolve_nonhermitian(h_nh: Operator, psi0: np.ndarray, cfg: IntegratorConfig,
                        include_jumps: bool = False, jump=None, watch=()) -> Trajectory:
    """Evolve under a non-Hermitian Hamiltonian.

    The density matrix |psi><psi| evolves under -i(H rho - rho H^dag), plus
    the sandwich term rate * z rho z^dag from ``jump = (rate, Operator)`` when
    ``include_jumps=True``, which reproduces the corresponding Lindblad
    evolution identically. Without jumps the state stays the pure
    psi(t) psi(t)^dag with dpsi/dt = -i H psi, unrenormalized: the decaying
    norm sqrt(tr rho) is recorded as the automatic observable ``"norm"`` and
    watched values are bare matrix elements <psi|O|psi>.
    """
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.size != h_nh.space.dim:
        raise DomainError("initial state length does not match Hamiltonian space")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"initial state must be normalized, got norm {norm:.6g}")
    for label, op in watch:
        if op.space != h_nh.space:
            raise DomainError(f"watched operator {label!r} acts on a different space")

    h_scaled = h_nh.matrix / cfg.rate_scale
    rho0 = DensityMatrix.from_pure(h_nh.space, psi)
    if include_jumps:
        if jump is None:
            raise DomainError("include_jumps=True requires jump=(rate, Operator)")
        rate, op = jump
        if op.space != h_nh.space:
            raise DomainError("jump operator acts on a different space")
        gen = Generator(h_scaled, ((rate / cfg.rate_scale, op.matrix),))
        return _integrate_density(gen, _generator_scale(h_scaled, gen.sandwiches), rho0, cfg,
                                  list(watch), check_trace=False)

    watch = [("norm", identity(h_nh.space))] + list(watch)
    traj = _integrate_density(Generator(h_scaled), _generator_scale(h_scaled, ()), rho0, cfg,
                              watch, check_trace=False)
    traj.observables["norm"] = np.sqrt(traj.observables["norm"].real).astype(complex)
    traj.diagnostics["final_norm"] = float(np.sqrt(traj.diagnostics.pop("final_trace")))
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

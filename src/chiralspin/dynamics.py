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

For small spaces the one-step map is precomputed as a dense superoperator
matrix (the 4th-order Taylor polynomial of exp(h*L), which is exactly what
the classical 4th-order step evaluates for a linear autonomous system); for
larger spaces the stages are evaluated directly. Both paths implement the
same method, and the choice depends only on the space dimension, so results
stay deterministic run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import DensityMatrix, Operator, identity
from .errors import ConvergenceError, DomainError, FitError, IntegrationError
from .models import Generator, LindbladModel

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "evolve",
    "evolve_nonhermitian",
    "fit_exchange_rate",
    "check_cutoff_convergence",
]

# Above this Hilbert-space dimension the d^2 x d^2 propagator matrix stops
# paying for itself and the stages are evaluated directly.
_PROPAGATOR_MAX_DIM = 16


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
    optionally stores full density-matrix snapshots. The more expensive
    hermiticity/positivity/step-doubling diagnostics run at ~256 evenly spaced
    steps per run.
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


def _integrate_density(gen: Generator, scale: float, rho0: DensityMatrix, cfg, watch_ops, *,
                       check_trace: bool) -> Trajectory:
    """The fixed-step driver behind every evolution.

    ``scale`` is the generator magnitude that sets the default step. Watched
    values are linear functionals of vec(rho): tr(O rho) = vec(O^T) . vec(rho),
    so one stacked product per sample records them all.
    """
    space = rho0.space
    d = space.dim
    n, dt = _resolve_grid(cfg, scale)
    diag_stride = max(1, n // 256)
    state_stride = cfg.record_states_stride

    labels = [label for label, _ in watch_ops]
    functionals = np.array([op.matrix.T.reshape(-1) for _, op in watch_ops],
                           dtype=complex).reshape(len(labels), d * d)
    sample_steps = _steps(n, cfg.sample_stride)
    table = np.empty((len(labels), sample_steps.size), dtype=complex)

    rho = rho0.matrix.astype(complex)
    table[:, 0] = functionals @ rho.reshape(-1)
    states = [DensityMatrix(space, rho.copy())] if state_stride else []

    max_trace_drift = 0.0
    max_herm_dev = 0.0
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    max_double_err = 0.0
    trace_prev = float(np.trace(rho).real)

    stationary = not np.count_nonzero(gen.apply(rho))
    if stationary:
        # Stationary input (dark state or trivial generator): the exact
        # solution is constant, so every sample repeats the first.
        table[:, 1:] = table[:, :1]
        if state_stride:
            states += [DensityMatrix(space, rho.copy()) for _ in _steps(n, state_stride)[1:]]
    else:
        use_matrix = d <= _PROPAGATOR_MAX_DIM
        if use_matrix:
            f = gen.superoperator()
            p_half = _taylor4(f, 0.5 * dt)
            p_macro = p_half @ p_half
            p_err = _taylor4(f, dt) - p_macro
            v = rho.reshape(-1)
            diag_idx = np.arange(d) * (d + 1)

        sample = 1
        for step in range(1, n + 1):
            if use_matrix:
                v_new = p_macro @ v
                rho_new = v_new.reshape(d, d)
                trace_new = float(v_new[diag_idx].sum().real)
            else:
                half = _rk4_step(gen.apply, rho, 0.5 * dt)
                rho_new = _rk4_step(gen.apply, half, 0.5 * dt)
                trace_new = float(np.trace(rho_new).real)

            if check_trace:
                drift = abs(trace_new - trace_prev)
                max_trace_drift = max(max_trace_drift, abs(trace_new - 1.0))
                if drift > cfg.tolerance or not np.isfinite(trace_new):
                    t = step * dt
                    raise IntegrationError(
                        f"per-step trace drift {drift:.3e} exceeded tolerance {cfg.tolerance:.1e} "
                        f"at step {step} (t={t:.6g})", step=step, time=t, drift=drift)
            trace_prev = trace_new

            if step % diag_stride == 0 or step == n:
                if use_matrix:
                    err = float(np.max(np.abs(p_err @ v)))
                else:
                    full = _rk4_step(gen.apply, rho, dt)
                    err = float(np.max(np.abs(full - rho_new)))
                max_double_err = max(max_double_err, err)
                herm = float(np.max(np.abs(rho_new - rho_new.conj().T)))
                max_herm_dev = max(max_herm_dev, herm)
                eig = float(np.linalg.eigvalsh(0.5 * (rho_new + rho_new.conj().T))[0])
                min_eig = min(min_eig, eig)

            if use_matrix:
                v = v_new
            rho = rho_new

            if step % cfg.sample_stride == 0 or step == n:
                table[:, sample] = functionals @ rho.reshape(-1)
                sample += 1
            if state_stride and (step % state_stride == 0 or step == n):
                states.append(DensityMatrix(space, rho.copy()))

    diagnostics = {"max_hermiticity_dev": max_herm_dev, "min_eigenvalue": min_eig,
                   "max_step_doubling_error": max_double_err, "n_steps": float(n),
                   "dt": dt, "stationary": float(stationary)}
    if check_trace:
        diagnostics["max_trace_drift"] = max_trace_drift
    else:
        diagnostics["final_trace"] = trace_prev
    traj = Trajectory(sample_steps * dt, dict(zip(labels, table)),
                      DensityMatrix(space, rho.copy()), cfg.rate_scale, diagnostics)
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
    return _integrate_density(gen, scale, rho0, cfg, list(watch), check_trace=model.hermitian)


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


def check_cutoff_convergence(family, cfg: IntegratorConfig, observable_label: str,
                             max_cutoff: int = 8, tol: float = 1e-8) -> int:
    """Smallest Fock cutoff whose doubling changes the watched trajectory < ``tol``.

    ``family(cutoff)`` must return (model, rho0, watch) for that cutoff; the
    step size is resolved once from the smallest-cutoff model and pinned so
    every member integrates on the same time grid. Raises
    :class:`ConvergenceError` if no cutoff up to ``max_cutoff`` converges.
    """
    cache: dict[int, np.ndarray] = {}

    pinned = cfg

    def series(cutoff: int) -> np.ndarray:
        nonlocal pinned
        if cutoff not in cache:
            model, rho0, watch = family(cutoff)
            if pinned.dt is None:
                scale = _generator_scale(model.hamiltonian.matrix / pinned.rate_scale,
                                         model.generator(pinned.rate_scale).sandwiches)
                n, dt = _resolve_grid(pinned, scale)
                pinned = replace(pinned, dt=dt)
            traj = evolve(model, rho0, pinned, watch)
            cache[cutoff] = np.asarray(traj.observables[observable_label])
        return cache[cutoff]

    for cutoff in range(1, max_cutoff // 2 + 1):
        delta = np.max(np.abs(series(cutoff) - series(2 * cutoff)))
        if delta < tol:
            return cutoff
    raise ConvergenceError(
        f"observable {observable_label!r} not converged in Fock cutoff by {max_cutoff}")

"""Depth morphing: factor one conv filter into two and splice the new
layer pair (with an initially-linear parametric activation between them)
into the network.

Two solvers are provided.  The general solver alternates least-squares
half-steps on the two factors and drives the loss to zero whenever both
factors have at least as many parameters as the padded target (the
one-step convergence condition).  The practical solver makes one factor
solve per attempt: it draws the factor on the non-expanding side, with a
progressively shrinking working kernel, and solves the expanding factor
against it, the underdetermined half-step that reaches zero loss against
any generic fixed factor.  The shrunk factor is zero-padded back to the
requested kernel afterwards, trading outer-ring sparsity for guaranteed
convergence in the expanding regime.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleMorphError, ShapeError, _finite, _index, _odd_kernel
from .netdef import ConvLayer, NetworkDef, PActLayer, ParallelLayer
from .rng import make_rng
from .tensor_ops import _adjoint, _growth, as_filter, lstsq_factor_step, pad_filter

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 20


@dataclass(frozen=True)
class DepthMorphRequest:
    layer_index: int
    c_l: int
    k1: int
    k2: int
    max_iter: int = DEFAULT_MAX_ITER
    seed: int = 0
    tol: float = DEFAULT_TOL  # relative Frobenius residual treated as "loss = 0"

    def __post_init__(self):
        for name, low in (("layer_index", None), ("c_l", 1), ("max_iter", 1), ("seed", 0)):
            _index(getattr(self, name), name, low=low)
        _odd_kernel(self.k1, "k1")
        _odd_kernel(self.k2, "k2")
        _finite(self.tol, "tol", low=0, strict=True)


@dataclass(frozen=True)
class MorphOutcome:
    f_lo: np.ndarray
    f_hi: np.ndarray
    residual: float  # relative Frobenius residual against the padded target
    iterations: int
    shrunk_kernel: int
    trace: tuple = field(default_factory=tuple)  # residual after each solve (one for the practical solver)


def converge_condition(c_lm1: int, c_l: int, c_lp1: int, k1: int, k2: int) -> bool:
    """One-step convergence test: both factors must carry at least as many
    parameters as the padded target filter."""
    if min(c_lm1, c_l, c_lp1, k1, k2) < 1:
        raise ShapeError("all counts must be positive")
    target = c_lp1 * c_lm1 * (k1 + k2 - 1) ** 2
    return min(c_l * c_lm1 * k1 * k1, c_lp1 * c_l * k2 * k2) >= target


def _alternate(g, req, rng):
    """Alternating least-squares on the two factors of g zero-padded to
    k1+k2-1, starting from a random lower factor (the first half-step
    solves the upper one from it).  The factors come back unbalanced, with
    the trace of relative residuals after each half-step."""
    g_tilde = pad_filter(g, req.k1 + req.k2 - 1)
    c_lm1 = g.shape[1]
    f_lo = rng.standard_normal((req.c_l, c_lm1, req.k1, req.k1)) / np.sqrt(c_lm1 * req.k1 * req.k1)
    scale = float(np.linalg.norm(g_tilde)) or 1.0
    trace = []
    for iterations in range(1, req.max_iter + 1):
        f_hi, res = lstsq_factor_step(g_tilde, f_lo, "upper")
        trace.append(res / scale)
        f_lo, res = lstsq_factor_step(g_tilde, f_hi, "lower")
        trace.append(res / scale)
        if trace[-1] <= req.tol:
            break
    return MorphOutcome(
        f_lo=f_lo, f_hi=f_hi, residual=trace[-1], iterations=iterations, shrunk_kernel=req.k2, trace=tuple(trace)
    )


def _attempt(g, req, k1, k2, solve_lo, rng):
    """One practical attempt at working kernels ``k1``/``k2``: draw the
    factor that is not solved, with fan-in scaling, and solve the other
    (f_lo when ``solve_lo``, else f_hi) once against g zero-padded to
    k1+k2-1.  f_lo is solved as the adjoint of an upper solve, the
    arithmetic of ``lstsq_factor_step``'s lower side.  The factors come
    back zero-padded to ``req.k1``/``req.k2``, unbalanced; the drawn
    side's working kernel is the shrunk kernel."""
    g_tilde = pad_filter(g, k1 + k2 - 1)
    c_lp1, c_lm1 = g.shape[:2]
    if solve_lo:
        f_hi = rng.standard_normal((c_lp1, req.c_l, k2, k2)) / np.sqrt(req.c_l * k2 * k2)
        f_lo, res = lstsq_factor_step(_adjoint(g_tilde), _adjoint(f_hi), "upper")
        f_lo = _adjoint(f_lo)
    else:
        f_lo = rng.standard_normal((req.c_l, c_lm1, k1, k1)) / np.sqrt(c_lm1 * k1 * k1)
        f_hi, res = lstsq_factor_step(g_tilde, f_lo, "upper")
    residual = res / (float(np.linalg.norm(g_tilde)) or 1.0)
    return MorphOutcome(
        f_lo=pad_filter(f_lo, req.k1), f_hi=pad_filter(f_hi, req.k2), residual=residual,
        iterations=1, shrunk_kernel=k2 if solve_lo else k1, trace=(residual,),
    )


def rebalance(f_lo, f_hi):
    """Rescale the factor pair to equal spread without changing their
    composition: f_lo * s and f_hi / s with s = sqrt(spread_hi/spread_lo).

    Spread is the standard deviation of the entries, or their largest
    absolute value when they are all equal (a single entry among them).
    """
    f_lo = as_filter(f_lo)
    f_hi = as_filter(f_hi)

    def spread(t):
        return float(np.std(t)) or float(np.abs(t).max())

    s_lo, s_hi = spread(f_lo), spread(f_hi)
    if s_lo == 0.0 or s_hi == 0.0:
        raise ShapeError("cannot rebalance a zero-spread factor")
    s = np.sqrt(s_hi / s_lo)
    return f_lo * s, f_hi / s


def _rebalanced(outcome: MorphOutcome) -> MorphOutcome:
    """``outcome`` with its factor pair rebalanced.  A pair with an all-zero
    factor (the solve of an all-zero filter) is returned as it is."""
    if not (outcome.f_lo.any() and outcome.f_hi.any()):
        return outcome
    f_lo, f_hi = rebalance(outcome.f_lo, outcome.f_hi)
    return replace(outcome, f_lo=f_lo, f_hi=f_hi)


def morph_general(g, req: DepthMorphRequest) -> MorphOutcome:
    """Alternating-least-squares factorization of g (general algorithm)."""
    g = as_filter(g)
    return _rebalanced(_alternate(g, req, make_rng(req.seed)))


def morph_practical(g, req: DepthMorphRequest) -> MorphOutcome:
    """One-solve factorization with kernel shrinking (practical algorithm).
    Requires that at least one factor has as many parameters as the parent
    filter ("expands" it).  Each attempt draws the factor on its shrinking
    side and solves the expanding one once."""
    g = as_filter(g)
    c_lp1, c_lm1, k, _ = g.shape
    _growth(k, req.k1 + req.k2 - 1)
    count_g = g.size
    lo_expands = req.c_l * c_lm1 * req.k1 * req.k1 >= count_g
    hi_expands = c_lp1 * req.c_l * req.k2 * req.k2 >= count_g
    if not lo_expands and not hi_expands:
        raise InfeasibleMorphError(
            "neither factor has enough parameters to absorb the parent filter "
            f"(need {count_g}, have lo={req.c_l * c_lm1 * req.k1**2}, hi={c_lp1 * req.c_l * req.k2**2})"
        )
    # (k1, k2, solve f_lo) attempts: shrink the non-expanding side's kernel
    # and solve the expanding side; when both sides expand, shrink the side
    # with the smaller kernel first (K2 on a tie).
    upper = [(req.k1, kr, True) for kr in range(req.k2, 0, -2)] if lo_expands else []
    lower = [(kr, req.k2, False) for kr in range(req.k1, 0, -2)] if hi_expands else []
    rng = make_rng(req.seed)
    for k1, k2, solve_lo in upper + lower if req.k2 <= req.k1 else lower + upper:
        if k1 + k2 - 1 < k:
            continue
        outcome = _attempt(g, req, k1, k2, solve_lo, rng)
        if outcome.residual <= req.tol:
            return _rebalanced(outcome)
    raise InfeasibleMorphError(
        "kernel shrinking exhausted without reaching zero loss; the requested "
        f"hidden width {req.c_l} cannot represent the parent filter exactly"
    )


def _conv_at(layers, index) -> ConvLayer:
    """``layers[index]`` if that is a conv layer, else a ShapeError."""
    layer = layers[index] if 0 <= _index(index, "layer_index") < len(layers) else None
    if not isinstance(layer, ConvLayer):
        raise ShapeError(f"layer {index} is not a conv layer")
    return layer


def _splice(net: NetworkDef, index: int, chains) -> NetworkDef:
    """``net`` with conv ``index`` replaced by its factor chains, each a list
    of filters: one chain in place, several as the paths of one
    ``ParallelLayer``, whose outputs sum.

    Each chain keeps the padding its target reads.  For a target of kernel
    k and pad p and a chain of effective kernel k' (the factors' kernels
    summed, less one per join), the first conv pads p + (k' - k)/2 and
    every later conv pads 0.  Unpadded convolutions of one zero-padded blob
    compose exactly, so the chain computes the target's filter zero-padded
    to k' on the whole image, border included.

    Consecutive factor convs are joined by an identity-parameter (a=1)
    activation whose base is that of the activation following the target,
    or ReLU when none follows.  Every conv keeps the target's ``fc`` hint.
    The first chain's last conv carries the target's bias; every other
    conv has a zero bias.
    """
    layers = list(net.layers)
    target = layers[index]
    nxt = layers[index + 1] if index + 1 < len(layers) else None
    base = nxt.base if isinstance(nxt, PActLayer) else "relu"
    bias, paths = target.bias, []
    for factors in chains:
        pad = target.pad + (1 + sum(f.shape[2] - 1 for f in factors) - target.kernel) // 2
        path = []
        for f in factors[:-1]:
            path += [ConvLayer(f, np.zeros(len(f)), pad, target.fc), PActLayer(base=base, a=1.0)]
            pad = 0
        path.append(ConvLayer(factors[-1], bias, pad, target.fc))
        paths.append(path)
        bias = np.zeros(target.c_out)
    layers[index : index + 1] = paths[0] if len(paths) == 1 else [ParallelLayer(paths=paths)]
    return net.with_layers(layers)


def _depth_child(net: NetworkDef, req: DepthMorphRequest, algorithm: str):
    """``insert_depth``'s child and the ``MorphOutcome`` it was built from."""
    i = req.layer_index
    target = _conv_at(net.layers, i)
    # looked up per call, so a rebinding of the module's solver names is seen
    solver = {"general": morph_general, "practical": morph_practical}.get(algorithm)
    if solver is None:
        raise ShapeError(f"unknown algorithm {algorithm!r}")
    outcome = solver(target.weights, req)
    if not outcome.residual <= req.tol:  # also rejects a NaN residual
        raise InfeasibleMorphError(
            f"depth morph did not converge: residual {outcome.residual:.3e} > tol {req.tol:g} "
            f"after {outcome.iterations} iterations"
        )
    return _splice(net, i, [[outcome.f_lo, outcome.f_hi]]), outcome


def insert_depth(net: NetworkDef, req: DepthMorphRequest, algorithm: str = "practical") -> NetworkDef:
    """Replace conv layer ``layer_index`` by the factor pair with an
    identity-parameter activation between them.  The lower conv gets zero
    bias, the upper conv inherits the parent bias, and any activation
    already following the parent layer is retained unchanged.  Either
    algorithm raises InfeasibleMorphError when its residual ends above
    ``req.tol``."""
    return _depth_child(net, req, algorithm)[0]

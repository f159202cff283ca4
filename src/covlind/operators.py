"""Dense complex operator algebra and Liouville-space machinery.

Operators are dense complex square matrices with a declared subsystem
dimension structure.  Superoperators act on column-stacked ("vec'd")
operators: the (a, b) entry of a d x d matrix maps to entry b*d + a of a
d^2 vector, so the map X -> A X B has matrix kron(B.T, A).

Qubit convention used throughout: basis order (|g>, |e>) with
sigma_z = |e><e| - |g><g| = diag(-1, +1) and sigma_minus = |g><e|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm as _scipy_expm
from scipy.special import gammaln

from .errors import ContractError, DimensionError, TruncationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


def _state_stack(x) -> np.ndarray:
    """Operator (a DensityMatrix too) or array (..., d, d); returns the complex array."""
    a = x.data if isinstance(x, Operator) else np.asarray(x, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    return a


def _as_matrix(x) -> np.ndarray:
    """Accept Operator (a DensityMatrix too) or ndarray; return the complex matrix."""
    if isinstance(x, Operator):
        return x.data
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _dims_of(x, default_flat=True):
    if isinstance(x, Operator):
        return x.dims
    a = _as_matrix(x)
    return (a.shape[0],) if default_flat else None


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with subsystem dimensions.

    ``dims`` lists the tensor factors; their product must equal the matrix
    dimension (e.g. ``(2, n_max + 1)`` for a qubit coupled to a truncated
    bosonic mode).
    """

    data: np.ndarray
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        a = np.array(self.data, dtype=complex, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"operator must be square, got shape {a.shape}")
        dims = tuple(int(d) for d in self.dims) if self.dims else (a.shape[0],)
        if math.prod(dims) != a.shape[0]:
            raise DimensionError(
                f"dims {dims} do not multiply to matrix dimension {a.shape[0]}")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.data.conj().T, self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm sqrt(tr(A^dag A))."""
        return float(np.linalg.norm(self.data))

    def __matmul__(self, other):
        return Operator(self.data @ _as_matrix(other), self.dims)

    def __add__(self, other):
        return Operator(self.data + _as_matrix(other), self.dims)

    def __sub__(self, other):
        return Operator(self.data - _as_matrix(other), self.dims)

    def __mul__(self, scalar):
        return Operator(self.data * scalar, self.dims)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.data, self.dims)


@dataclass(frozen=True)
class DensityMatrix(Operator):
    """Operator that is a quantum state: unit trace, Hermitian, positive semi-definite."""

    def __post_init__(self):
        super().__post_init__()
        validate_states(self.data[None])

    @classmethod
    def _wrap(cls, data, dims: Sequence[int] = ()) -> "DensityMatrix":
        """Wrap a matrix that ``validate_states`` has just returned, unchecked."""
        state = object.__new__(cls)
        object.__setattr__(state, "data", data)
        object.__setattr__(state, "dims", dims)
        Operator.__post_init__(state)
        return state

    @classmethod
    def from_matrix(cls, data, dims: Sequence[int] = (),
                    trace_tol: float = TRACE_TOL,
                    herm_tol: float = HERMITICITY_TOL,
                    eig_tol: float = POSITIVITY_TOL) -> "DensityMatrix":
        """Build a state, allowing looser tolerances for integrated dynamics.

        The matrix goes through ``validate_states`` as a stack of one, so
        it is Hermitized and trace-normalized after the tolerance check and
        downstream exact identities (trace one) hold.
        """
        a = validate_states(np.asarray(data, dtype=complex)[None],
                            trace_tol, herm_tol, eig_tol)[0]
        return cls._wrap(a, dims)

    @classmethod
    def from_ket(cls, ket, dims: Sequence[int] = ()) -> "DensityMatrix":
        v = np.asarray(ket, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), dims)


@dataclass(frozen=True)
class Superoperator:
    """Matrix acting on vec'd operators (column-stacking convention)."""

    data: np.ndarray
    source_dim: int = 0

    def __post_init__(self):
        a = np.array(self.data, dtype=complex, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"superoperator must be square, got {a.shape}")
        d = int(self.source_dim) if self.source_dim else int(round(math.isqrt(a.shape[0])))
        if d * d != a.shape[0]:
            raise DimensionError(f"superoperator dimension {a.shape[0]} is not a perfect square")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "source_dim", d)

    def apply(self, x):
        """Apply to an operator; returns an Operator with the input's dims."""
        a = _as_matrix(x)
        if a.shape[0] != self.source_dim:
            raise DimensionError(
                f"superoperator acts on dim {self.source_dim}, got {a.shape[0]}")
        out = unvec(self.data @ vec(a), self.source_dim)
        dims = _dims_of(x)
        return Operator(out, dims if dims is not None else ())

    def __matmul__(self, other):
        if isinstance(other, Superoperator):
            return Superoperator(self.data @ other.data, self.source_dim)
        return self.apply(other)

    def __add__(self, other):
        return Superoperator(self.data + other.data, self.source_dim)

    def __sub__(self, other):
        return Superoperator(self.data - other.data, self.source_dim)

    def __mul__(self, scalar):
        return Superoperator(self.data * scalar, self.source_dim)

    __rmul__ = __mul__

    @classmethod
    def zero(cls, d: int) -> "Superoperator":
        return cls(np.zeros((d * d, d * d), dtype=complex), d)

    @classmethod
    def identity(cls, d: int) -> "Superoperator":
        return cls(np.eye(d * d, dtype=complex), d)


# ---------------------------------------------------------------------------
# vec-ing and superoperator assembly
# ---------------------------------------------------------------------------

def vec(a) -> np.ndarray:
    """Column-stack an operator: entry (i, j) goes to position j*d + i."""
    return _as_matrix(a).reshape(-1, order="F")


def unvec(v, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d is None:
        d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionError(f"vector of length {v.size} is not a vec'd square matrix")
    return v.reshape((d, d), order="F")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without its
    per-call overhead, so the result is bitwise equal."""
    nm = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(nm, nm)


def kron(a, b) -> Operator:
    """Kronecker product; subsystem dims concatenate."""
    am, bm = _as_matrix(a), _as_matrix(b)
    dims = tuple(_dims_of(a)) + tuple(_dims_of(b))
    return Operator(_kron(am, bm), dims)


def _commutator(hm: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X] on vec'd operators."""
    eye = np.eye(hm.shape[0])
    return _kron(eye, hm) - _kron(hm.T, eye)


def _check_trace_annihilating(l_mat: np.ndarray, d: int, stage: str):
    """Raise ContractError naming ``stage`` unless vec(I)^dag L = 0 within
    1e-10 relative to L's largest entry; a non-finite L fails too.  vec(I)
    is 1 at rows j*(d+1), so this sums those rows of L: tr L[X] = 0 for
    every X."""
    worst = float(np.abs(l_mat[::d + 1].sum(axis=0)).max())
    scale = max(1.0, float(np.abs(l_mat).max()))
    if not worst <= 1e-10 * scale:
        raise ContractError(f"{stage} is not trace-annihilating ({worst:.2e})")


def _check_hermitian(m: np.ndarray, stage: str, tol: float = 1e-10):
    """Raise ContractError naming ``stage`` unless max |M - M^dag| <= tol;
    a non-finite M fails too."""
    worst = float(np.abs(m - m.conj().T).max())
    if not worst <= tol:
        raise ContractError(f"{stage} is not Hermitian ({worst:.2e})")


def sandwich_super(a, b) -> Superoperator:
    """Superoperator of X -> A X B, i.e. kron(B.T, A) on vec'd operators."""
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"incompatible shapes {am.shape} and {bm.shape}")
    return Superoperator(_kron(bm.T, am), am.shape[0])


def commutator_super(h) -> Superoperator:
    """Superoperator of X -> [H, X]; Hermitian as a matrix for Hermitian H."""
    hm = _as_matrix(h)
    return Superoperator(_commutator(hm), hm.shape[0])


def liouville_unitary(h, t: float) -> Superoperator:
    """Liouville-space map of rho -> U rho U^dag with U = exp(-i H t)."""
    u = matrix_exp(-1j * t * _as_matrix(h))
    return sandwich_super(u, u.conj().T)


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------

def hermitian_eig(h, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix with a deterministic phase.

    Returns (eigenvalues ascending, eigenvector matrix V with H V = V diag).
    Each eigenvector's first component of modulus > 1e-8 is made real and
    positive.  Within a degenerate block the basis is orthonormal but
    otherwise arbitrary.
    """
    hm = _as_matrix(h)
    _check_hermitian(hm, "hermitian_eig input", tol)
    w, v = np.linalg.eigh(hm)
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-8)
        if idx.size:
            phase = col[idx[0]] / abs(col[idx[0]])
            v[:, k] = col / phase
    return w, v


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade via scipy)."""
    return _scipy_expm(_as_matrix(a))


# ---------------------------------------------------------------------------
# state operations and metrics
# ---------------------------------------------------------------------------

def partial_trace(rho, keep: int):
    """Trace out all subsystems except ``keep`` (index into dims)."""
    if not isinstance(rho, Operator):
        raise DimensionError("partial_trace needs an Operator/DensityMatrix with dims")
    dims, a = rho.dims, rho.data
    if len(dims) < 2:
        raise DimensionError("partial_trace requires at least two subsystems")
    if not 0 <= keep < len(dims):
        raise DimensionError(f"keep index {keep} out of range for dims {dims}")
    n = len(dims)
    t = a.reshape(dims + dims)
    # einsum contracts every subsystem index pair except the kept one
    letters = "abcdefghijkl"
    in_row = "".join(letters[i] for i in range(n))
    in_col = "".join(letters[i].upper() if i == keep else letters[i]
                     for i in range(n))
    out = letters[keep] + letters[keep].upper()
    reduced = np.einsum(f"{in_row}{in_col}->{out}", t)
    return type(rho)(reduced, (dims[keep],))  # a DensityMatrix stays one


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack (..., d, d)."""
    return a.conj().swapaxes(-1, -2)


def _trace(a: np.ndarray) -> np.ndarray:
    """Trace of every matrix in a stack (..., d, d)."""
    return a.diagonal(0, -2, -1).sum(-1)


def _first(mask: np.ndarray) -> str:
    """Where the first flagged state of a stack sits, for error messages."""
    return "" if mask.size == 1 else f" (state {int(np.flatnonzero(mask)[0])})"


def validate_states(states, trace_tol: float = TRACE_TOL,
                    herm_tol: float = HERMITICITY_TOL,
                    eig_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Check a stack (..., d, d) of density matrices and return a tidied copy.

    Every matrix needs unit trace within ``trace_tol``, Hermiticity within
    ``herm_tol`` and no eigenvalue below ``-eig_tol``; the first violation
    raises ContractError.  The copy is Hermitized and trace-normalized, and
    a matrix whose negative eigenvalue tail exceeds POSITIVITY_TOL has it
    clipped, so the exact state invariants hold.  Each matrix is handled
    on its own: a stack of one gives bitwise the same matrix as the same
    state inside a longer stack.
    """
    a = _state_stack(states)
    tr = _trace(a)
    bad = ~(np.abs(tr - 1.0) <= trace_tol)
    if bad.any():
        raise ContractError(f"trace {tr[bad][0]} deviates from 1 beyond "
                            f"{trace_tol}{_first(bad)}")
    a_dag = _dagger(a)
    bad = ~(np.abs(a - a_dag).max(axis=(-2, -1)) <= herm_tol)
    if bad.any():
        raise ContractError(f"matrix is not Hermitian within tolerance{_first(bad)}")
    a = 0.5 * (a + a_dag)
    wmin = np.linalg.eigvalsh(a)[..., 0]
    bad = wmin < -eig_tol
    if bad.any():
        raise ContractError(f"minimum eigenvalue {wmin[bad][0]} below "
                            f"-{eig_tol}{_first(bad)}")
    a = a / _trace(a).real[..., None, None]
    # clip the tiny negative tail so the validated invariants hold exactly
    clip = wmin < -POSITIVITY_TOL
    if clip.any():
        w, v = np.linalg.eigh(a[clip])
        fixed = (v * np.clip(w, 0.0, None)[..., None, :]) @ _dagger(v)
        a[clip] = fixed / _trace(fixed).real[..., None, None]
    return a


def uhlmann_fidelity(rho, sigma):
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Either a pair of states, giving a float, or two equal-shape stacks
    (..., d, d), giving an array of fidelities.  A single pair is computed
    as a stack of one, so it matches the same pair inside a stack bitwise.
    """
    a, b = _state_stack(rho), _state_stack(sigma)
    if a.shape != b.shape:
        raise DimensionError("states must share a dimension")
    single = a.ndim == 2
    if single:
        a, b = a[None], b[None]
    for m in (a, b):
        if (np.abs(_trace(m) - 1.0).max(initial=0.0) > 1e-8
                or np.abs(m - _dagger(m)).max(initial=0.0) > 1e-8):
            raise ContractError("uhlmann_fidelity requires unit-trace Hermitian states")
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _dagger(v)
    m = sqrt_a @ b @ sqrt_a
    ev = np.linalg.eigvalsh(0.5 * (m + _dagger(m)))
    f = np.clip(np.sum(np.sqrt(np.clip(ev, 0.0, None)), axis=-1) ** 2, 0.0, 1.0)
    return float(f[0]) if single else f


def _shannon(p: np.ndarray) -> float:
    p = np.clip(np.real(p), 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def von_neumann_entropy(rho) -> float:
    return _shannon(np.linalg.eigvalsh(_as_matrix(rho)))


def coherence_rel_entropy(rho, basis) -> float:
    """Relative entropy of coherence in the given orthonormal basis.

    Equals S(diag of rho in the basis) - S_vn(rho); the basis is passed as
    a unitary whose columns are the reference states.
    """
    a = _as_matrix(rho)
    u = np.asarray(basis, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
        raise ContractError("basis must be unitary")
    pops = np.diag(u.conj().T @ a @ u)
    return _shannon(pops) - von_neumann_entropy(a)


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

def qubit_ops():
    """Pauli and ladder operators in the (|g>, |e>) basis."""
    sm = np.array([[0, 1], [0, 0]], dtype=complex)        # |g><e|
    sp = sm.conj().T
    sx = sm + sp
    sy = -1j * (sp - sm)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    return {"sx": sx, "sy": sy, "sz": sz, "sp": sp, "sm": sm,
            "id": np.eye(2, dtype=complex)}


def destroy(n_levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to n_levels Fock states."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1).astype(complex)


def _poisson_window(alpha: complex) -> tuple[int, int]:
    """Fock window [nbar - 10|alpha|, nbar + 10|alpha| + 20] of |alpha>:
    10 sigma of its Poisson weights plus a margin, losing below ~1e-12."""
    a = abs(alpha)
    return max(0, math.floor(a ** 2 - 10.0 * a)), math.ceil(a ** 2 + 10.0 * a) + 20


def _coherent_amplitudes(alpha: complex, n: np.ndarray) -> np.ndarray:
    """<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!) on Fock numbers n >= 0,
    in log-space so large |alpha| does not overflow (the vacuum as a case)."""
    a = abs(alpha)
    if a == 0.0:
        return (n == 0).astype(complex)
    log_mod = -0.5 * a * a + n * math.log(a) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def coherent_state(alpha: complex, n_max: int | None = None) -> np.ndarray:
    """Normalized coherent-state amplitudes on Fock states 0..n_max.

    ``n_max`` defaults to the top of the 10-sigma Poisson window; the
    truncated vector is renormalized.  An explicit n_max that loses more
    than 1e-12 of the weight raises TruncationError.
    """
    if n_max is None:
        n_max = _poisson_window(alpha)[1]
    amps = _coherent_amplitudes(alpha, np.arange(n_max + 1))
    weight = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - weight
    if deficit > 1e-12:
        raise TruncationError(
            f"n_max={n_max} keeps only {weight:.15f} of the coherent weight",
            deficit=deficit)
    return amps / math.sqrt(weight)

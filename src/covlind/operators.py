"""Dense complex operators, states and Liouville-space machinery.

``Operator``, ``DensityMatrix`` and ``Superoperator`` wrap read-only dense
complex square matrices at the API edge and define no arithmetic: library
code works on their ``data`` arrays.  An Operator declares its subsystem
dimension structure.  Superoperators act on column-stacked ("vec'd")
operators: the (a, b) entry of a d x d matrix maps to entry b*d + a of a
d^2 vector, so the map X -> A X B has matrix kron(B.T, A).

Qubit convention used throughout: basis order (|g>, |e>) with
sigma_z = |e><e| - |g><g| = diag(-1, +1) and sigma_minus = |g><e|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# covlind imports scipy only inside the one function that calls it (the Schur
# form in eigenoperators), so fig2, jc-sim, attractor, coefficients and
# touchard start without loading it; matrix_exp runs on numpy's matmul and
# solve, so every dense product runs on numpy's BLAS and its one thread pool

from .errors import ContractError, DimensionError

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


def _dims_of(x):
    return x.dims if isinstance(x, Operator) else (_as_matrix(x).shape[0],)


def _checked_dims(dims: Sequence[int], n: int) -> tuple[int, ...]:
    """``dims`` as a tuple of ints, (n,) when empty; their product must be n."""
    dims = tuple(int(d) for d in dims) if dims else (n,)
    if math.prod(dims) != n:
        raise DimensionError(f"dims {dims} do not multiply to matrix dimension {n}")
    return dims


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
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "dims", _checked_dims(self.dims, a.shape[0]))

    @classmethod
    def _adopt(cls, data: np.ndarray, dims: tuple[int, ...]) -> "Operator":
        """Wrap a square complex matrix the library has just built and holds
        no other reference to: read-only, without the defensive copy, with
        ``dims`` taken as given."""
        data.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "data", data)
        object.__setattr__(op, "dims", dims)
        return op


@dataclass(frozen=True)
class DensityMatrix(Operator):
    """Operator that is a quantum state: unit trace, Hermitian, positive semi-definite."""

    def __post_init__(self):
        super().__post_init__()
        validate_states(self.data[None])

    @classmethod
    def _wrap(cls, data: np.ndarray, dims: Sequence[int] = ()) -> "DensityMatrix":
        """Wrap a matrix of a read-only stack that ``validate_states`` has just
        returned, unchecked and without a copy: the state is a view of its
        row, and holds the stack alive."""
        return cls._adopt(data, _checked_dims(dims, data.shape[0]))

    @classmethod
    def from_matrix(cls, data, dims: Sequence[int] = (), trace_tol: float = TRACE_TOL,
                    eig_tol: float = POSITIVITY_TOL) -> "DensityMatrix":
        """Build a state, allowing looser tolerances for integrated dynamics.

        The matrix goes through ``validate_states`` as a stack of one, so
        it is Hermitized and trace-normalized after the tolerance check and
        downstream exact identities (trace one) hold.
        """
        a = validate_states(np.asarray(data, dtype=complex)[None],
                            trace_tol, HERMITICITY_TOL, eig_tol)[0]
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

    @classmethod
    def _adopt(cls, data: np.ndarray, source_dim: int) -> "Superoperator":
        """Wrap a (d^2, d^2) complex matrix the library has just built and
        holds no other reference to: read-only, without the defensive copy."""
        data.setflags(write=False)
        sup = object.__new__(cls)
        object.__setattr__(sup, "data", data)
        object.__setattr__(sup, "source_dim", source_dim)
        return sup

    def apply(self, x):
        """Apply to an operator; returns an Operator with the input's dims."""
        a = _as_matrix(x)
        _check_dim(a.shape[0], self.source_dim, "operator", "the superoperator")
        out = unvec(self.data @ vec(a), self.source_dim)
        return Operator(out, _dims_of(x))


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


@functools.lru_cache(maxsize=16)
def _identity(d: int) -> np.ndarray:
    """Read-only complex np.eye(d), built once per dimension: its products
    with complex matrices are those of the float identity, without a cast."""
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)
    return eye


def _commutator(hm: np.ndarray) -> np.ndarray:
    """Matrix of X -> [H, X] on vec'd operators."""
    eye = _identity(hm.shape[0])
    out = _kron(eye, hm)
    out -= _kron(hm.T, eye)
    return out


def _check_trace_annihilating(l_mat: np.ndarray, d: int, stage: str):
    """Raise ContractError naming ``stage`` unless vec(I)^dag L = 0 within
    1e-10 relative to L's largest entry; a non-finite L fails too.  vec(I)
    is 1 at rows j*(d+1), so this sums those rows of L: tr L[X] = 0 for
    every X."""
    # ufunc reductions rather than the array methods: no Python wrapper per call
    worst = float(np.maximum.reduce(np.abs(np.add.reduce(l_mat[::d + 1])), axis=None))
    scale = float(np.maximum.reduce(np.abs(l_mat), axis=None))  # inf or NaN when any entry is
    if not (math.isfinite(scale) and worst <= 1e-10 * max(1.0, scale)):
        raise ContractError(f"{stage} is not trace-annihilating ({worst:.2e}; "
                            f"largest entry {scale:.2e})")


def _check_dim(dim: int, want: int, what: str, ref: str):
    """Raise DimensionError naming both dimensions unless ``dim`` is ``want``."""
    if dim != want:
        raise DimensionError(f"{what} dimension {dim} does not match {ref} of dimension {want}")


def _check_count(value, least: int, what: str):
    """Raise ContractError naming ``what`` unless ``value`` is an int >= ``least``."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ContractError(f"{what} must be an integer >= {least}, got {value!r}")


def _check_hermitian(m: np.ndarray, stage):
    """Raise ContractError naming ``stage`` unless max |M - M^dag| <= 1e-10,
    or < 1e-10 max |M| as a change of time unit scales it (the scale taken
    only where 1e-10 fails); a non-finite M fails too.  A (n, d, d) stack is
    checked in one pass; its first failing matrix, the i-th, is ``stage(i)``."""
    if m.ndim == 3:
        diff = np.conjugate(m.swapaxes(1, 2))
        np.subtract(m, diff, out=diff)  # in place: the stack may outgrow the cache
        worst = np.abs(diff).max(axis=(1, 2))
        over = ~(worst <= 1e-10)
        over[over] = ~(worst[over] < 1e-10 * np.abs(m[over]).max(axis=(1, 2)))
        i = int(np.argmax(over))
        m, stage = m[i], stage(i)
    if m.shape == (1, 1):  # a scalar, as a one-term chi is, without numpy's per-call cost
        c = complex(m[0, 0])
        worst = abs(c - c.conjugate())
    else:
        worst = float(np.maximum.reduce(np.abs(m - m.conj().T), axis=None))
    if not worst <= 1e-10 and not worst < 1e-10 * float(np.abs(m).max()):
        raise ContractError(f"{stage} is not Hermitian ({worst:.2e})")


def sandwich_super(a, b) -> Superoperator:
    """Superoperator of X -> A X B, i.e. kron(B.T, A) on vec'd operators."""
    am, bm = _as_matrix(a), _as_matrix(b)
    _check_dim(bm.shape[0], am.shape[0], "B", "A")
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

def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix with a deterministic phase.

    Returns (eigenvalues ascending, eigenvector matrix V with H V = V diag).
    Each eigenvector's first component of modulus > 1e-8 is made real and
    positive.  Within a degenerate block the basis is orthonormal but
    otherwise arbitrary.
    """
    hm = _as_matrix(h)
    _check_hermitian(hm, "hermitian_eig input")
    w, v = np.linalg.eigh(hm)
    # a unit column always has an entry of modulus > 1e-8 below d = 1e16
    top = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(v.shape[1])]
    return w, v / (top / np.abs(top))


# b_k / b_0, k = 0 .. 13, of the [13/13] Pade approximant of exp (b_0 = 1, so
# a zero matrix gives exactly the identity), and theta_13, the largest 1-norm
# at which it meets double precision unscaled (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005))
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential of a matrix, or of each matrix of a (..., n, n)
    stack: scaling and squaring with the [13/13] Pade approximant (Higham
    2005) on numpy's matmul and solve.  Each matrix A takes its own s, the
    least s >= 0 with ||A / 2^s||_1 <= theta_13, and its own s squarings,
    so its result does not depend on the rest of the stack.  A matrix with
    a non-finite entry gives NaN, and an overflow in the squarings inf or
    NaN, with no exception or warning, for the caller's checks to report."""
    a = _state_stack(a)
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    frac, e = np.frexp(norm / _THETA13)  # e = 0 for inf and nan
    s = np.maximum(e - (frac == 0.5), 0)
    bad = ~np.isfinite(norm)
    with np.errstate(over="ignore", invalid="ignore"):
        x = x * np.ldexp(1.0, -s)[:, None, None]
        # the solve sees finite matrices only: how LAPACK pivots past a NaN
        # varies between builds, and an exact zero pivot would raise
        x[bad] = 0.0
        b, eye = _PADE13, _identity(n)
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2

        def even(c6, c4, c2, c0):
            """c6 x^6 + c4 x^4 + c2 x^2 + c0 I, summed in one buffer."""
            p = c6 * x6
            p += c4 * x4
            p += c2 * x2
            p += c0 * eye
            return p

        u = x6 @ even(b[13], b[11], b[9], 0.0)
        u += even(b[7], b[5], b[3], b[1])
        u = x @ u
        v = x6 @ even(b[12], b[10], b[8], 0.0)
        v += even(b[6], b[4], b[2], b[0])
        del x, x2, x4, x6  # freed before the solve's copies
        r = np.linalg.solve(v - u, v + u)
        for j in range(int(s.max(initial=0))):
            due = np.flatnonzero(s > j)
            r[due] = r[due] @ r[due]
    r[bad] = np.nan
    return r.reshape(a.shape)


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


def _min_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a stack (..., d, d).

    A qubit [[p, z], [z*, q]] takes the closed form
    (p + q) / 2 - hypot((p - q) / 2, |z|), as accurate as eigvalsh (a few
    ulp of the largest entry) at a fraction of its cost; larger matrices
    take eigvalsh.
    """
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)[..., 0]
    p, q = h[..., 0, 0].real, h[..., 1, 1].real
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), np.abs(h[..., 0, 1]))


def validate_states(states, trace_tol: float = TRACE_TOL,
                    herm_tol: float = HERMITICITY_TOL,
                    eig_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Check a stack (..., d, d) of density matrices and return a tidied,
    read-only copy.

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
    wmin = _min_eigenvalues(a)
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
    a.setflags(write=False)
    return a


def uhlmann_fidelity(rho, sigma):
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Either a pair of states, giving a float, or two equal-shape stacks
    (..., d, d), giving an array of fidelities.  A single pair is computed
    as a stack of one, so it matches the same pair inside a stack bitwise.

    Qubits take the closed form F = tr(rho sigma) + 2 sqrt(det rho det sigma)
    (Huebner, Phys. Lett. A 163, 239 (1992); Jozsa, J. Mod. Opt. 41, 2315
    (1994)), which needs no square roots of rounding-level eigenvalues, so a
    near-pure pair keeps its digits; larger states take the eigenvalue path.
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
    f = _qubit_fidelity(a, b) if a.shape[-1] == 2 else _eigen_fidelity(a, b)
    f = np.clip(f, 0.0, 1.0)
    return float(f[0]) if single else f


def _qubit_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) + 2 sqrt(det a det b) for Hermitian (..., 2, 2) stacks, in
    real arithmetic on the diagonals and the upper off-diagonal entries; a
    determinant below zero at rounding level counts as zero."""
    a00, a11, a01 = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1]
    b00, b11, b01 = b[..., 0, 0].real, b[..., 1, 1].real, b[..., 0, 1]
    overlap = a00 * b00 + a11 * b11 + 2.0 * (a01.real * b01.real + a01.imag * b01.imag)
    det_a = a00 * a11 - (a01.real * a01.real + a01.imag * a01.imag)
    det_b = b00 * b11 - (b01.real * b01.real + b01.imag * b01.imag)
    return overlap + 2.0 * np.sqrt(np.clip(det_a, 0.0, None) * np.clip(det_b, 0.0, None))


def _eigen_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(tr sqrt(sqrt(a) b sqrt(a)))^2 from eigenvalues, for Hermitian
    (..., d, d) stacks of any d."""
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _dagger(v)
    m = sqrt_a @ b @ sqrt_a
    ev = np.linalg.eigvalsh(0.5 * (m + _dagger(m)))
    return np.sum(np.sqrt(np.clip(ev, 0.0, None)), axis=-1) ** 2


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


def _poisson_window(alpha: complex) -> tuple[int, int]:
    """Fock window [nbar - 10|alpha|, nbar + 10|alpha| + 20] of |alpha>:
    10 sigma of its Poisson weights plus a margin, losing below ~1e-12."""
    a = abs(alpha)
    return max(0, math.floor(a ** 2 - 10.0 * a)), math.ceil(a ** 2 + 10.0 * a) + 20


_LOG_FACT_CUT = 32
_LOG_FACT_TABLE = np.array([math.lgamma(k + 1.0) for k in range(_LOG_FACT_CUT)])
# Stirling's coefficients B_2k / (2k (2k - 1)) of 1/n^9, 1/n^7, ..., 1/n
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _add_log_factorial(acc: np.ndarray, n: np.ndarray) -> np.ndarray:
    """acc += ln n! in place for a 1-D array of integers n >= 0; returns acc.

    Below n = 32 the term is a table of ``math.lgamma``; from there on it is
    Stirling's series for ln n! = ln Gamma(n) + ln n,
    n (ln n - 1) + (ln n)/2 + ln(2 pi)/2 + 1/(12n) - 1/(360n^3) + 1/(1260n^5)
    - 1/(1680n^7) + 1/(1188n^9), whose first omitted term is below 1e-19 at
    n = 32.  It stays within 2 ulp of ln n! and 4 ulp of scipy's gammaln
    for n up to 1e7.  The series is in n, not n + 1, so the caller's
    read-only n is the Horner operand: its three parts are formed one at a
    time in one real scratch array and added to acc, smallest first.
    """
    small = np.flatnonzero(n < _LOG_FACT_CUT)
    keep = acc[small] + _LOG_FACT_TABLE[n[small]]
    # n = 0 divides by zero and takes log(0); the table replaces those entries
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.full(n.shape, _STIRLING[0])
        for coef in _STIRLING[1:]:
            s /= n
            s /= n
            s += coef
        s /= n
        s += _HALF_LOG_2PI
        acc += s
        np.log(n, out=s)
        s *= 0.5
        acc += s
        s += s
        s -= 1.0
        s *= n
        acc += s
    acc[small] = keep
    return acc


def _coherent_amplitudes(alpha: complex, n: np.ndarray) -> np.ndarray:
    """<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!) on a 1-D array of Fock
    numbers n >= 0, in log-space so large |alpha| does not overflow (the
    vacuum as a case), with ln n! from ``_add_log_factorial``, not scipy.

    In place: beside n, the real log-modulus and one scratch array are
    alive, then the log-modulus and the complex result.  The log-modulus
    is formed as a^2 - 2n ln a + ln n! and halved: scalings by powers of
    two are exact, so this rounds as folding -(1/2) ln n! in would."""
    a = abs(alpha)
    if a == 0.0:
        return (n == 0).astype(complex)
    mod = np.multiply(n, -2.0 * math.log(a))
    mod += a * a
    _add_log_factorial(mod, n)
    mod *= -0.5
    np.exp(mod, out=mod)
    amps = np.multiply(1j, n)
    amps *= np.angle(alpha)
    np.exp(amps, out=amps)
    return np.multiply(mod, amps, out=amps)

"""Fields and measure-weighted kernel operators on finite lattices.

Conventions.  The inner product on a lattice with spacing ``eta`` is
``<f, g> = eta**d * sum conj(f) g``.  An operator is stored through its kernel
``K(x, x')`` with the pairing ``(A f)(x) = eta_src**d * sum_x' K(x, x') f(x')``,
so the matrix that acts on plain value vectors is ``eta_src**d * K``.  The
kernel of the adjoint is the conjugate transpose of the kernel; measure
factors for mismatched source/target spacings then come out automatically.
Products, applications and inverses act on kernels with one scalar measure
factor each (``eta_mid**d``, ``eta_src**d``, ``eta**(-2d)``), not on value matrices.

Kernel operators are dense, and every dense assembler refuses a lattice
whose dense inverse would pass ``DENSE_BYTE_CAP`` (``check_dense``) before it
allocates; the DCT-II transforms and frequency classes at the end form no
matrix and run at any size.  Kernels are stored in real arithmetic when their
entries are real (Laplacians, averaging, propagators) and complex otherwise;
fields are complex, and mixed products promote to complex.  Inverses go
through one LU factorization with a 1-norm condition check read off the
inverse; self-adjointness is an error when violated beyond tolerance, not a
warning.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .lattice import (GeometryError, LatticeGeometry, _axis_outer, coarse_geometry,
                      scale_geometry)

DENSE_BYTE_CAP = 4 * 2**30   # invert's four n x n float64 arrays: n <= 11,585 sites
SELF_ADJOINT_TOL = 1e-10
CONDITION_LIMIT = 1e13
# nbytes of one block of a batched kernel: a torus node block's complex
# (nodes, S) array (fourier), a chunk of probe draws (Probes) and a slice of
# ct-report's box pairs (decay)
BLOCK_BYTES = 2**20


def _batches(n: int, item_bytes: int, budget: int):
    """Slices of ``range(n)``, each of as many items of ``item_bytes`` as keep
    a batch within ``budget`` bytes, at least one (all ``n`` at zero bytes):
    the package's one byte-budget slicer."""
    step = max(1, budget // item_bytes if item_bytes else n)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


class OperatorError(ValueError):
    pass


class SingularOperatorError(OperatorError):
    def __init__(self, cond):
        super().__init__(f"operator numerically singular (condition estimate {cond:.3e})")
        self.cond = cond


class DenseSizeError(GeometryError):
    """A dense operator was asked for on a lattice whose inverse passes ``DENSE_BYTE_CAP``."""


def check_dense(geom):
    """Refuse dense work on ``n`` sites whose inverse's ``32 n**2`` bytes pass
    ``DENSE_BYTE_CAP``, before it allocates; every dense assembler calls this."""
    n = geom.site_count
    if 32 * n * n > DENSE_BYTE_CAP:
        raise DenseSizeError(
            f"a dense inverse on {n} sites holds {32 * n * n / 2**30:,.1f} GiB (four n x n "
            f"float64 arrays), past DENSE_BYTE_CAP = {DENSE_BYTE_CAP / 2**30:g} GiB. "
            f"rg-verify, positivity, spectrum, fourier-verify and strip-bound run past the cap")


@dataclass(frozen=True, eq=False)
class Field:
    """Complex-valued function on the sites of a lattice (row-major flat storage)."""

    geometry: LatticeGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        object.__setattr__(self, "values", v)
        if v.size != self.geometry.site_count:
            raise OperatorError(
                f"value count {v.size} != site count {self.geometry.site_count}")


class Probes:
    """Seeded probe draws from the standard library's Mersenne Twister.

    ``random.Random(seed)`` (MT19937; Matsumoto and Nishimura 1998) supplies
    64 bits per uniform, so no probe imports ``numpy.random``.  A uniform is
    ``i 2**-53`` for the top 53 bits ``i`` of its 64, in ``[0, 1)``.  Normals
    come in pairs ``r cos(2 pi v), r sin(2 pi v)``, ``r = sqrt(-2 log(1 - u))``
    (Box and Muller 1958), from two uniforms ``u, v``; ``1 - u`` lies in
    ``(0, 1]``, so the log is finite.  A call that leaves the second of a pair
    unused keeps it for the next ``standard_normal``: ``n`` draws followed by
    ``m`` draws equal ``n + m`` draws.  The draws reproduce for a fixed seed
    under one Python version; numpy Generators give other numbers.

    A draw goes in chunks of ``_batches`` within ``BLOCK_BYTES``, each
    written straight into the output: ``getrandbits`` fills its 32-bit words
    least significant first, so consecutive chunks read the bits of one
    large draw, and the chunking changes no bit.  A chunk is counted at 24
    bytes a uniform, its bits as an ``int``, as ``bytes`` and as shifted
    words (two of them at a time, the ``int`` at 8.5 bytes in 30-bit
    digits), beside the output it fills.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)
        self._spare = np.empty(0)

    def _uniforms(self, out: np.ndarray):
        """Fill the flat float array ``out``, one chunk, with uniforms."""
        bits = self._random.getrandbits(64 * out.size).to_bytes(8 * out.size, "little")
        np.multiply(np.frombuffer(bits, dtype="<u8") >> 11, 2.0 ** -53, out=out)

    def _normals(self, out: np.ndarray):
        """Fill the flat float array ``out``, one chunk of even size, with
        pairs of normals: each pair's two uniforms are drawn into its own
        two slots."""
        self._uniforms(out)
        u, v = out.reshape(-1, 2).T
        r = np.sqrt(-2.0 * np.log(1.0 - u))
        angle = 2.0 * np.pi * v
        np.cos(angle, out=u)
        np.sin(angle, out=v)
        out.reshape(-1, 2)[...] *= r[:, None]

    def standard_normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        flat, kept = out.reshape(-1), min(self._spare.size, out.size)
        flat[:kept], self._spare = self._spare[:kept], self._spare[kept:]
        rest = flat[kept:]
        pairs, odd = divmod(rest.size, 2)
        # 48 bytes a pair: its bits (2 x 24), then in their place its radius
        # and angle and their temporaries
        for c in _batches(pairs, 48, BLOCK_BYTES):
            self._normals(rest[2 * c.start:2 * c.stop])
        if odd:     # the last pair's second normal is kept for the next draw
            z = np.empty(2)
            self._normals(z)
            rest[-1], self._spare = z[0], z[1:]
        return out

    def uniform(self, low, high, size) -> np.ndarray:
        out = np.empty(size)
        flat = out.reshape(-1)
        for c in _batches(flat.size, 24, BLOCK_BYTES):
            self._uniforms(flat[c])
        return low + (high - low) * out


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Dense linear map between lattices, stored as the kernel ``K(x_target, x_source)``."""

    source: LatticeGeometry
    target: LatticeGeometry
    kernel: np.ndarray

    def __post_init__(self):
        kk = np.asarray(self.kernel)
        kk = np.asarray(kk, dtype=np.result_type(kk, float))
        object.__setattr__(self, "kernel", kk)
        if kk.shape != (self.target.site_count, self.source.site_count):
            raise OperatorError(
                f"kernel shape {kk.shape} != "
                f"({self.target.site_count}, {self.source.site_count})")

    @property
    def matrix(self) -> np.ndarray:
        """Matrix acting on plain value vectors: ``source.spacing**d * kernel``."""
        return self.kernel * self.source.spacing ** self.source.d

    def __matmul__(self, other):
        return compose(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __rmul__(self, alpha):
        return scale(self, alpha)


def from_matrix(source, target, matrix) -> KernelOperator:
    """Wrap a value-vector matrix as a kernel operator."""
    return KernelOperator(source, target, np.asarray(matrix) / source.spacing ** source.d)


def identity(geom) -> KernelOperator:
    check_dense(geom)
    return from_matrix(geom, geom, np.eye(geom.site_count))


def apply(A: KernelOperator, f: Field) -> Field:
    if f.geometry != A.source:
        raise OperatorError("field geometry does not match operator source")
    return Field(A.target, A.source.spacing ** A.source.d * (A.kernel @ f.values))


def compose(A: KernelOperator, B: KernelOperator) -> KernelOperator:
    """A after B: ``eta_mid**d K_A K_B`` with ``mid = A.source``."""
    if B.target != A.source:
        raise OperatorError("compose: inner geometries do not match")
    K = A.kernel @ B.kernel
    K *= A.source.spacing ** A.source.d
    return KernelOperator(B.source, A.target, K)


def adjoint(A: KernelOperator) -> KernelOperator:
    return KernelOperator(A.target, A.source, A.kernel.conj().T)


def add(A: KernelOperator, B: KernelOperator) -> KernelOperator:
    if A.source != B.source or A.target != B.target:
        raise OperatorError("add: geometries do not match")
    return KernelOperator(A.source, A.target, A.kernel + B.kernel)


def scale(A: KernelOperator, alpha) -> KernelOperator:
    return KernelOperator(A.source, A.target, alpha * A.kernel)


def invert(A: KernelOperator) -> KernelOperator:
    """Dense inverse by one pivoted LU, checked by its 1-norm condition number.

    ``kappa_1 = |K|_1 |K^-1|_1`` of the kernel equals that of the value matrix
    (it is scale-invariant), is exact and costs O(n^2) once the inverse
    exists; an exactly singular pivot counts as ``kappa_1 = inf``.  Beyond
    ``CONDITION_LIMIT`` the operator is numerically singular.  For ``n x n``
    matrices the 2-norm condition number satisfies ``kappa_2 / n <= kappa_1
    <= n kappa_2``, so the limit reads the same in either norm up to ``n``.
    """
    if A.source != A.target:
        raise OperatorError("invert requires a square operator on one lattice")
    try:
        Kinv = np.linalg.inv(A.kernel)
    except np.linalg.LinAlgError:
        raise SingularOperatorError(np.inf) from None
    cond = np.linalg.norm(A.kernel, 1) * np.linalg.norm(Kinv, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularOperatorError(cond)
    Kinv *= A.source.spacing ** (-2 * A.source.d)
    return KernelOperator(A.source, A.source, Kinv)


def _axis_operator(geom, mat1d, axis: int) -> np.ndarray:
    """Place a one-axis value matrix on the given axis of the product lattice."""
    check_dense(geom)
    mats = [np.eye(geom.sites_per_axis)] * geom.d
    mats[axis] = mat1d
    return _axis_outer(np.multiply, mats)


def _neumann_eigenvalues_1d(n: int, eta: float) -> np.ndarray:
    """Eigenvalues ``(4/eta**2) sin(pi p / (2 n))**2`` of ``-Lap`` on one
    Neumann axis of ``n`` sites, in DCT-II frequency order ``p = 0 .. n-1``."""
    return (4.0 / eta**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


def _neumann_lap_1d(N, eta):
    """The 1d stencil ``(f(x - eta) - 2 f(x) + f(x + eta)) / eta**2`` with
    each missing neighbour clamped to ``f(x)``: ``-2`` on the diagonal, ``1``
    beside it, and ``+1`` on each end's diagonal entry (0 at ``N = 1``)."""
    off = np.ones(N - 1)
    T = np.diag(np.full(N, -2.0)) + np.diag(off, 1) + np.diag(off, -1)
    T[0, 0] += 1.0
    T[-1, -1] += 1.0
    return T / eta**2


def neumann_laplacian(geom) -> KernelOperator:
    """Kronecker-sum Laplacian with ghost-value clamping on every face.

    Self-adjoint, annihilates constants; the quadratic form of the negative
    equals the sum of squared bond differences over 1/eta^2.
    """
    N = geom.sites_per_axis
    T = _neumann_lap_1d(N, geom.spacing)
    total = sum(_axis_operator(geom, T, mu) for mu in range(geom.d))
    return from_matrix(geom, geom, total)


def averaging(geom, j: int) -> KernelOperator:
    """Block mean over ``L**j``-sided blocks: ``Q_j : Omega -> Omega_j``.

    ``Q_j Q_j* = 1`` on the coarse lattice and ``Q_j* Q_j`` is the orthogonal
    projection onto block-constant functions.
    """
    Q = _block_means(geom, j, 1)
    return from_matrix(geom, coarse_geometry(geom, j), Q)


def block_projector(geom, j: int) -> KernelOperator:
    """Orthogonal projector ``Q_j* Q_j`` onto block-constant functions."""
    return from_matrix(geom, geom, _block_means(geom, j, geom.L**j))


def _block_means(geom, j: int, rows: int) -> np.ndarray:
    """Block means on ``rows`` rows per block: per axis, the identity on the
    classes times the mean over the ``L**j`` members, Kronecker-multiplied;
    ``coarse_geometry`` refuses a level outside ``0 <= j <= m``."""
    Nc, Lj = coarse_geometry(geom, j).sites_per_axis, geom.L**j
    check_dense(geom)
    per_axis = [np.eye(Nc), np.full((rows, Lj), 1.0 / Lj)]
    return _axis_outer(np.multiply, per_axis * geom.d)


def _nested_axes(geom) -> tuple:
    """The per-axis nested frequency order of ``n = L**m`` sites, and the
    axes that interleave the ``m`` base-``L`` digits of the ``d`` axes.
    Per axis, the nested order of
    ``n`` sites is the level-1 class table of ``n`` sites taken in the
    nested order of ``nc = n / L`` sites: class 0 holds the multiples of
    ``nc``, class ``kappa`` holds ``kappa, 2 nc - kappa, 2 nc + kappa, ...``.
    Across axes the digits interleave level by level, coarsest first, a
    Morton order (G. M. Morton, IBM technical report, 1966), so every
    level's classes are contiguous, led by ``p = kappa``, in the coarse
    lattice's nested order."""
    L, m, d = geom.L, geom.m, geom.d
    t = np.arange(L)
    a, s, order = t + t % 2, 1 - 2 * (t % 2), np.zeros(1, dtype=np.intp)
    for nc in (L**i for i in range(m)):     # class 0 leads, then the classes order[1:]
        order = np.vstack((nc * t, nc * a + s * order[1:, None])).ravel()
    return order, [mu * m + i for i in range(m) for mu in range(d)]


def _nested(geom, *xs, inverse: bool = False):
    """Each of ``xs``, shape ``(site_count, ...)``, from flat frequency order
    (row-major over the per-axis DCT-II frequencies) to the nested frequency
    order (``_nested_axes``), or back, in turn."""
    order, axes = _nested_axes(geom)
    L, m, d = geom.L, geom.m, geom.d
    axes = axes + [m * d]       # the columns stay last
    digits, cube = (L,) * (m * d) + (-1,), (L**m,) * d + (-1,)
    if inverse:
        order, axes = np.argsort(order), np.argsort(axes)
    for x in map(np.asarray, xs):
        y = (x.reshape(digits).transpose(axes).reshape(cube)[np.ix_(*[order] * d)] if inverse
             else x.reshape(cube)[np.ix_(*[order] * d)].reshape(digits).transpose(axes))
        yield y.reshape(x.shape)


def _nested_outer(geom, op, table) -> np.ndarray:
    """``_nested`` of the outer ``op`` over the axes of the 1-d per-frequency
    ``table``, shape ``(site_count,)``: the table taken in the per-axis
    nested order, its ``m`` digits broadcast into their Morton positions
    (``_nested_axes``: digit ``i`` of axis ``mu`` at ``i d + mu``) and
    combined across the axes, so the one ``site_count``-sized array formed
    is the result."""
    t, n, d = table[_nested_axes(geom)[0]], geom.m * geom.d, geom.d
    return functools.reduce(op, (t.reshape([geom.L if i % d == mu else 1 for i in range(n)])
                                 for mu in range(d))).ravel()


def dct_class_eigenvalues(geom, j: int) -> np.ndarray:
    """The ``lam`` of ``dct_frequency_classes(geom, j)`` alone, with no ``u``:
    the 1-d Neumann eigenvalues in the per-axis nested order, summed over
    the axes (``_nested_outer``), one row per coarse class."""
    Nc = coarse_geometry(geom, j).sites_per_axis
    lam1 = _neumann_eigenvalues_1d(geom.sites_per_axis, geom.spacing)
    return _nested_outer(geom, np.add, lam1).reshape(Nc**geom.d, -1)


def dct_frequency_classes(geom, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``-Lap`` and ``Q_j* Q_j`` in the orthonormal DCT-II basis, one row per coarse class.

    Returns ``(lam, u)``, each of shape ``(N_c**d, b**d)`` with ``b = L**j``
    and ``N_c = N / b``: the nested frequency order of ``dct`` cut into rows,
    the coarse frequency classes.  Row ``c`` is coarse frequency ``c`` in the
    nested order of ``coarse_geometry(geom, j)``, and ``L**d`` consecutive
    rows make one of level ``j + 1``.  ``lam`` holds the ``-Lap`` eigenvalue
    ``(4/eta**2) sum_mu sin(pi p_mu / 2N)**2``.  Per axis, fold
    ``p = 2 N_c t +- kappa`` with ``0 <= kappa <= N_c``: the fine mode ``p``
    overlaps only the coarse mode ``kappa``, with weight
    ``+-sin(pi kappa / 2N_c) / (b sin(pi p / 2N))`` (``u = 1`` at ``p = 0``),
    and ``Q_j`` annihilates ``p = N_c (mod 2 N_c)``.  Class ``kappa`` of an
    axis holds its ``b`` frequencies, led by ``p = kappa``; the annihilated
    ones join class 0, at weight 0.  ``u`` is the product of the axis
    weights, so in this basis

        Q_j* Q_j = sum over rows c of  u_c u_c^T,

    the ``(rows, S)`` layout of ``multiscale.RankOneRows``, ``S = b**d``.
    Members with ``u = 0`` (some axis annihilated, or ``p = 0 mod 2 N_c``
    with ``p > 0``) lie in the kernel of ``Q_j``; every row keeps at least
    one member with ``u != 0``.  Both are per-axis tables in the nested
    order, combined across the axes (``_nested_outer``); nothing dense is
    formed, and ``coarse_geometry`` refuses a level outside ``0 <= j <= m``.
    """
    N, Nc = geom.sites_per_axis, coarse_geometry(geom, j).sites_per_axis
    b = N // Nc
    p = np.arange(N)
    r = p % (2 * Nc)
    kappa = np.minimum(r, 2 * Nc - r)
    u1 = np.ones(N)
    u1[1:] = (np.sign(Nc - r[1:]) * np.sin(np.pi * kappa[1:] / (2 * Nc))
              / (b * np.sin(np.pi * p[1:] / (2 * N))))
    return (dct_class_eigenvalues(geom, j),
            _nested_outer(geom, np.multiply, u1).reshape(Nc**geom.d, -1))


def _dct_axis(x, axis: int, inverse: bool) -> np.ndarray:
    """Orthonormal DCT-II of ``x`` along ``axis`` (DCT-III, its inverse, if
    ``inverse``) by one FFT of the even-then-reversed-odd reordering
    (J. Makhoul, IEEE Trans. ASSP 28 (1980))."""
    N = x.shape[axis]
    order = np.concatenate((np.arange(0, N, 2), np.arange(1, N, 2)[::-1]))
    shape = [1] * x.ndim
    shape[axis] = N
    scale = np.full(N, np.sqrt(2.0 / N))
    scale[0] = np.sqrt(1.0 / N)
    twiddle = np.exp(-0.5j * np.pi * np.arange(N) / N).reshape(shape)
    if not inverse:
        return (twiddle * np.fft.fft(x.take(order, axis), axis=axis)).real * scale.reshape(shape)
    # the reordering's spectrum V_p = conj(twiddle_p) (y_p - i y_{N-p}), y = x / scale,
    # y_N = 0; V is Hermitian, so its first half determines it
    y = x / scale.reshape(shape)
    half = N // 2 + 1
    mirror = np.concatenate((np.zeros_like(y.take([0], axis)),
                             y.take(np.arange(N - 1, N - half, -1), axis)), axis=axis)
    V = np.conj(twiddle.take(np.arange(half), axis)) * (y.take(np.arange(half), axis)
                                                         - 1j * mirror)
    out = np.empty(x.shape)
    index = [slice(None)] * x.ndim
    index[axis] = order
    out[tuple(index)] = np.fft.irfft(V, n=N, axis=axis)
    return out


def _dct_lattice(geom, v, inverse: bool) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    x = v.reshape((geom.sites_per_axis,) * geom.d + v.shape[1:])
    for axis in range(geom.d):
        x = _dct_axis(x, axis, inverse)
    return x.reshape(v.shape)


def dct(geom, v) -> np.ndarray:
    """Orthonormal DCT-II on the cube: ``v`` of shape ``(site_count, ...)``, site
    order row-major, to coefficients in the nested frequency order, cut into
    rows by ``dct_frequency_classes`` at every level.  O(n log n) per column."""
    return next(_nested(geom, _dct_lattice(geom, v, inverse=False)))


def idct(geom, V) -> np.ndarray:
    """The inverse of ``dct``, its transpose: nested frequency order to site values."""
    return _dct_lattice(geom, next(_nested(geom, V, inverse=True)), inverse=True)

def scaling_unitary(geom, ell: int) -> KernelOperator:
    """Scaling map ``S : L^2(Omega) -> L^2(L**ell Omega)``, ``(Sf)(x) = lam**(-d/2) f(x/lam)``.

    On index vectors this is ``lam**(-d/2)`` times the identity, since the
    scaled lattice shares the index set.
    """
    check_dense(geom)
    lam = float(geom.L) ** ell
    target = scale_geometry(geom, ell)
    M = lam ** (-geom.d / 2.0) * np.eye(geom.site_count)
    return from_matrix(geom, target, M)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    closed_form: np.ndarray


def laplacian_spectrum_1d(n: int, eta: float) -> SpectrumReport:
    """Dense spectrum of the 1d Neumann Laplacian next to its closed form
    ``-_neumann_eigenvalues_1d(n, eta)``, the eigenvalues that
    ``dct_frequency_classes`` assigns; both lists are sorted ascending.
    """
    if n < 2:
        raise OperatorError("need n >= 2")
    T = _neumann_lap_1d(n, eta)
    ev = np.linalg.eigvalsh(T)
    closed = np.sort(-_neumann_eigenvalues_1d(n, eta))
    return SpectrumReport(eigenvalues=ev, closed_form=closed)


def spectrum_rel_error(report: SpectrumReport) -> float:
    """Max relative deviation from the closed form, zero modes judged against
    the spectral scale (entrywise relative is ill-defined at an exact zero)."""
    closed = report.closed_form
    scale = np.max(np.abs(closed))
    denom = np.where(closed == 0.0, scale, np.abs(closed))
    return float(np.max(np.abs(report.eigenvalues - closed) / denom))


def chebyshev_roots(n: int) -> np.ndarray:
    """Roots of U_n: ``cos(j pi / (n+1))``, j = 1..n, ascending."""
    j = np.arange(1, n + 1)
    return np.sort(np.cos(j * np.pi / (n + 1)))


def self_adjointness_defect(A: KernelOperator) -> float:
    """``|M - M^H|_F / |M|_F`` of the value matrix ``M``, taken on the kernel:
    the ratio does not see ``M``'s scalar measure factor."""
    K = A.kernel
    denom = np.linalg.norm(K)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(K - K.conj().T) / denom)


def min_eigenvalue(A: KernelOperator) -> float:
    """Smallest eigenvalue via dense symmetric eigensolve.

    Inputs failing the self-adjointness tolerance are an error: silent
    symmetrization would mask convention bugs upstream.
    """
    defect = self_adjointness_defect(A)
    if defect > SELF_ADJOINT_TOL:
        raise OperatorError(f"operator not self-adjoint (defect {defect:.3e})")
    return float(np.linalg.eigvalsh(A.matrix)[0])

"""Finite-field building blocks for rotation-like holonomy elements.

Everything is exact integer arithmetic: residues live in [0, q) for an odd
prime q, matrices are small integer arrays reduced mod q, and every order
or eigenvalue claim is certified by brute-force multiplication or by
explicit polynomial factorization rather than by theory.

The headline construction builds, for each of three quadratic-form shapes,
a form-preserving matrix whose eigenvalue multiset is pinned exactly: a
chosen multiplicative generator with multiplicity n, its inverse with
multiplicity n, and (in odd dimension) a single eigenvalue 1 — with the
even-minus shape trading one generator pair for an irreducible rotation
block whose eigenvalues live in the quadratic extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FqElement",
    "QuadExtElement",
    "FqMatrix",
    "FormSpec",
    "EigenvalueCertificate",
    "HYPERBOLIC_PLANE",
    "ANISOTROPIC",
    "ODD_DIM",
    "EVEN_PLUS",
    "EVEN_MINUS",
    "GENERATOR_SEARCH_LIMIT",
    "is_prime",
    "prime_factors",
    "smallest_nonresidue",
    "find_generator",
    "norm_one_generator",
    "quad_ext_generator",
    "quad_ext_order",
    "form_hyperbolic_plane",
    "form_anisotropic",
    "form_odd_dim",
    "form_even_plus",
    "form_even_minus",
    "so_block_element",
    "assemble_holonomy_element",
    "element_order",
    "charpoly_int",
    "charpoly_mod",
    "charpoly_reduction_check",
]

GENERATOR_SEARCH_LIMIT = 10 ** 6

HYPERBOLIC_PLANE = "HyperbolicPlane"
ANISOTROPIC = "Anisotropic"
ODD_DIM = "OddDim"
EVEN_PLUS = "EvenPlus"
EVEN_MINUS = "EvenMinus"


# ---------------------------------------------------------------------------
# primality and residue basics


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors by trial division (inputs stay near 1e6)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _require_odd_prime(q: int) -> None:
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")


def smallest_nonresidue(q: int) -> int:
    """Smallest quadratic non-residue mod an odd prime."""
    _require_odd_prime(q)
    for a in range(2, q):
        if pow(a, (q - 1) // 2, q) == q - 1:
            return a
    raise RuntimeError("unreachable: every odd prime has a non-residue")


def find_generator(q: int) -> int:
    """Smallest generator of the multiplicative group mod q.

    Certified by checking g^((q-1)/f) != 1 for every prime factor f of
    q - 1, which is equivalent to g having order exactly q - 1.
    """
    _require_odd_prime(q)
    if q > GENERATOR_SEARCH_LIMIT:
        raise ValueError(f"modulus above supported bound {GENERATOR_SEARCH_LIMIT}")
    factors = prime_factors(q - 1)
    exponents = [(q - 1) // f for f in factors]
    for g in range(2, q):
        if all(pow(g, e, q) != 1 for e in exponents):
            return g
    raise RuntimeError("unreachable: the group mod a prime is cyclic")


# ---------------------------------------------------------------------------
# residue and quadratic-extension elements


@dataclass(frozen=True)
class FqElement:
    """Residue in [0, q) for an odd prime modulus."""

    value: int
    q: int

    def __post_init__(self):
        _require_odd_prime(self.q)
        if not 0 <= self.value < self.q:
            raise ValueError(f"residue {self.value} outside [0, {self.q})")

    def __add__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return FqElement((self.value + other.value) % self.q, self.q)

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return FqElement(self.value * other.value % self.q, self.q)

    def inverse(self) -> "FqElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no inverse")
        return FqElement(pow(self.value, -1, self.q), self.q)

    def _check(self, other: "FqElement") -> None:
        if self.q != other.q:
            raise ValueError("mixed moduli")


@dataclass(frozen=True)
class QuadExtElement:
    """a + b * sqrt(alpha) in the quadratic extension of the prime field.

    alpha must be a quadratic non-residue mod q, so the extension is a
    field; the norm down to the prime field is a^2 - alpha * b^2.
    """

    a: int
    b: int
    alpha: int
    q: int

    def __post_init__(self):
        q = self.q
        _require_odd_prime(q)
        for name, v in (("a", self.a), ("b", self.b), ("alpha", self.alpha)):
            if not 0 <= v < q:
                raise ValueError(f"{name}={v} outside [0, {q})")
        if pow(self.alpha, (q - 1) // 2, q) != q - 1:
            raise ValueError(f"alpha={self.alpha} is a square mod {q}")

    def _like(self, a: int, b: int) -> "QuadExtElement":
        return QuadExtElement(a % self.q, b % self.q, self.alpha, self.q)

    def __mul__(self, other: "QuadExtElement") -> "QuadExtElement":
        if (self.q, self.alpha) != (other.q, other.alpha):
            raise ValueError("mixed extensions")
        a = self.a * other.a + self.alpha * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return self._like(a, b)

    def __pow__(self, n: int) -> "QuadExtElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = self._like(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def norm(self) -> int:
        return (self.a * self.a - self.alpha * self.b * self.b) % self.q

    def conjugate(self) -> "QuadExtElement":
        return self._like(self.a, -self.b)

    def inverse(self) -> "QuadExtElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        n_inv = pow(n, -1, self.q)
        return self._like(self.a * n_inv, -self.b * n_inv)

    @property
    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0


def quad_ext_order(x: QuadExtElement, bound: int) -> Optional[int]:
    """Least s <= bound with x^s = 1, by repeated multiplication."""
    acc = x
    for s in range(1, bound + 1):
        if acc.is_one:
            return s
        acc = acc * x
    return None


def quad_ext_generator(q: int) -> QuadExtElement:
    """First generator of the multiplicative group of the extension.

    Candidates a + b sqrt(alpha) are scanned by increasing irrational part
    b, then increasing rational part a (elements with b = 0 sit in the
    base field and can never generate); order q^2 - 1 is certified through
    the prime factors of q - 1 and q + 1.
    """
    _require_odd_prime(q)
    alpha = smallest_nonresidue(q)
    factors = sorted(set(prime_factors(q - 1)) | set(prime_factors(q + 1)))
    group = q * q - 1
    exponents = [group // f for f in factors]
    for b in range(1, q):
        for a in range(q):
            cand = QuadExtElement(a, b, alpha, q)
            if all(not (cand ** e).is_one for e in exponents):
                return cand
    raise RuntimeError("unreachable: the extension's group is cyclic")


def norm_one_generator(q: int) -> Tuple[int, QuadExtElement]:
    """Defining non-residue and a norm-1 element of full order q + 1.

    The norm-1 subgroup is the kernel of the norm, of size q + 1; raising
    the smallest generator of the whole extension group to the (q - 1)-th
    power lands exactly on a generator of that kernel.  The result is
    certified: norm 1, and order exactly q + 1 through the prime factors
    of q + 1.
    """
    gen = quad_ext_generator(q)
    lam = gen ** (q - 1)
    if lam.norm() != 1:
        raise RuntimeError("construction failed the norm-1 certificate")
    for f in prime_factors(q + 1):
        if (lam ** ((q + 1) // f)).is_one:
            raise RuntimeError("construction failed the full-order certificate")
    if not (lam ** (q + 1)).is_one:
        raise RuntimeError("construction failed the order-divides certificate")
    return lam.alpha, lam


# ---------------------------------------------------------------------------
# matrices over the prime field


@dataclass(frozen=True)
class FqMatrix:
    """Square integer matrix with entries reduced mod an odd prime."""

    entries: np.ndarray
    q: int

    def __init__(self, entries, q: int):
        _require_odd_prime(q)
        arr = np.asarray(entries, dtype=np.int64) % q
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "q", q)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, m: int, q: int) -> "FqMatrix":
        return cls(np.eye(m, dtype=np.int64), q)

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        if self.q != other.q:
            raise ValueError("mixed moduli")
        return FqMatrix(self.entries @ other.entries, self.q)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FqMatrix) and self.q == other.q
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((self.q, self.entries.tobytes()))

    @property
    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.entries.T, self.q)

    @property
    def is_identity(self) -> bool:
        return np.array_equal(self.entries,
                              np.eye(self.size, dtype=np.int64))

    def charpoly(self) -> List[int]:
        """Little-endian coefficients of det(tI - M) with residues in [0, q)."""
        return charpoly_mod(self.entries, self.q)

    def det(self) -> int:
        c0 = self.charpoly()[0]
        return c0 if self.size % 2 == 0 else (-c0) % self.q


def element_order(m: FqMatrix, bound: Optional[int] = None) -> Optional[int]:
    """Least s <= bound with m^s = identity, by repeated multiplication.

    Default bound q^2 comfortably covers the orders q - 1 and q + 1 the
    constructions here can produce; returns None when no power within the
    bound is the identity.
    """
    if bound is None:
        bound = m.q * m.q
    if m.det() == 0:
        raise ValueError("matrix must be invertible")
    acc = m
    for s in range(1, bound + 1):
        if acc.is_identity:
            return s
        acc = acc @ m
    return None


# ---------------------------------------------------------------------------
# characteristic polynomials: two independent routes


def charpoly_int(matrix) -> List[int]:
    """Little-endian integer coefficients of det(tI - M).

    Uses the trace-based recurrence M_1 = M, c_1 = -tr(M_1),
    M_{k+1} = M (M_k + c_k I), c_{k+1} = -tr(M_{k+1}) / (k+1), whose
    divisions are exact over the integers.
    """
    a = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    coeffs_desc = [1]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("inexact division in the trace recurrence")
        coeffs_desc.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs_desc[::-1]


def charpoly_mod(matrix, q: int) -> List[int]:
    """Little-endian coefficients of det(tI - M) over the field mod q.

    Division-free (Berkowitz-style) expansion over principal submatrices,
    so it works for every prime, including those not exceeding the size.
    """
    a = (np.asarray(matrix, dtype=np.int64) % q).tolist()
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    poly_desc = [1]
    for r in range(n):
        row = a[r][:r]
        col = [a[j][r] for j in range(r)]
        # moments s_k = row . M^k . col for the leading r x r block M
        moments = []
        vec = col[:]
        for k in range(r):
            moments.append(sum(row[j] * vec[j] for j in range(r)) % q)
            if k < r - 1:
                vec = [sum(a[i][j] * vec[j] for j in range(r)) % q
                       for i in range(r)]
        taps = [1, -a[r][r]] + [-s for s in moments]
        new = [0] * (r + 2)
        for i in range(r + 2):
            acc = 0
            for j in range(max(0, i - len(taps) + 1), min(i, len(poly_desc) - 1) + 1):
                acc += taps[i - j] * poly_desc[j]
            new[i] = acc % q
        poly_desc = new
    return poly_desc[::-1]


def charpoly_reduction_check(matrix, p: int
                             ) -> Tuple[bool, List[int], List[int]]:
    """Does reducing the integer characteristic polynomial mod p agree with
    the characteristic polynomial computed over the field mod p?

    The two sides use different algorithms (exact trace recurrence over the
    integers vs. division-free expansion mod p), so agreement genuinely
    cross-checks both.  Returns (equal, integer coefficients, residue
    coefficients), both little-endian.
    """
    if p < 2 or not is_prime(p):
        raise ValueError(f"reduction modulus must be prime, got {p}")
    ints = charpoly_int(matrix)
    reduced = [c % p for c in ints]
    modp = charpoly_mod(matrix, p)
    return reduced == modp, ints, modp


# ---------------------------------------------------------------------------
# quadratic forms and the block constructions


@dataclass(frozen=True)
class FormSpec:
    """A quadratic-form shape together with its Gram matrix mod q."""

    variant: str
    n: int
    gram: FqMatrix
    alpha: Optional[int] = None  # defining non-residue for anisotropic parts


def _hyperbolic_gram(q: int) -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=np.int64) % q


def _anisotropic_gram(q: int, alpha: int) -> np.ndarray:
    # diag(1, c) is anisotropic exactly when -c is a non-square, so
    # c = -alpha qualifies: -c = alpha is the defining non-residue
    return np.diag([1, (-alpha) % q]).astype(np.int64)


def form_hyperbolic_plane(q: int) -> FormSpec:
    return FormSpec(HYPERBOLIC_PLANE, 1, FqMatrix(_hyperbolic_gram(q), q))


def form_anisotropic(q: int) -> FormSpec:
    alpha = smallest_nonresidue(q)
    return FormSpec(ANISOTROPIC, 1, FqMatrix(_anisotropic_gram(q, alpha), q),
                    alpha)


def _block_diag(blocks: Sequence[np.ndarray], q: int) -> FqMatrix:
    m = sum(b.shape[0] for b in blocks)
    out = np.zeros((m, m), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return FqMatrix(out, q)


def form_odd_dim(n: int, q: int) -> FormSpec:
    if n < 1:
        raise ValueError("n must be at least 1")
    blocks = [_hyperbolic_gram(q)] * n + [np.array([[1]], dtype=np.int64)]
    return FormSpec(ODD_DIM, n, _block_diag(blocks, q))


def form_even_plus(n: int, q: int) -> FormSpec:
    if n < 1:
        raise ValueError("n must be at least 1")
    return FormSpec(EVEN_PLUS, n, _block_diag([_hyperbolic_gram(q)] * n, q))


def form_even_minus(n: int, q: int) -> FormSpec:
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha = smallest_nonresidue(q)
    blocks = [_hyperbolic_gram(q)] * (n - 1) + [_anisotropic_gram(q, alpha)]
    return FormSpec(EVEN_MINUS, n, _block_diag(blocks, q), alpha)


def _hyperbolic_block(q: int) -> np.ndarray:
    lam = find_generator(q)
    return np.diag([lam, pow(lam, -1, q)]).astype(np.int64)


def _anisotropic_block(q: int) -> Tuple[np.ndarray, QuadExtElement]:
    alpha, lam = norm_one_generator(q)
    mat = np.array([[lam.a, alpha * lam.b % q], [lam.b, lam.a]],
                   dtype=np.int64)
    return mat, lam


def so_block_element(form: FormSpec, q: int) -> FqMatrix:
    """Generator of the special-orthogonal group of a rank-2 form.

    Hyperbolic plane: diag(g, g^{-1}) for the smallest generator g, of
    order q - 1.  Anisotropic plane: the matrix of multiplication by the
    norm-1 generator on the basis {1, sqrt(alpha)}, of order q + 1.  Both
    preserve the form's Gram matrix exactly and have determinant 1.
    """
    if form.gram.q != q:
        raise ValueError("form and modulus disagree")
    if form.variant == HYPERBOLIC_PLANE:
        mat = FqMatrix(_hyperbolic_block(q), q)
    elif form.variant == ANISOTROPIC:
        mat = FqMatrix(_anisotropic_block(q)[0], q)
    else:
        raise ValueError(f"not a rank-2 form variant: {form.variant}")
    if (mat.transpose @ form.gram @ mat) != form.gram:
        raise RuntimeError("constructed block does not preserve the form")
    return mat


@dataclass(frozen=True)
class EigenvalueCertificate:
    """Factored characteristic polynomial backing an eigenvalue claim.

    linear_roots lists (root, multiplicity) over the prime field; the
    optional quadratic factor is irreducible over the prime field with the
    listed pair of extension-field roots.  verified records that the
    factors multiply back to the characteristic polynomial exactly.
    """

    charpoly: Tuple[int, ...]  # little-endian residues
    linear_roots: Tuple[Tuple[int, int], ...]
    quad_factor: Optional[Tuple[int, int, int]] = None
    quad_roots: Optional[Tuple[QuadExtElement, QuadExtElement]] = None
    verified: bool = False


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return out


def assemble_holonomy_element(variant: str, n: int, q: int
                              ) -> Tuple[FqMatrix, EigenvalueCertificate]:
    """Form-preserving element with the pinned eigenvalue multiset.

    OddDim(n): n generator pairs plus a fixed vector (size 2n + 1).
    EvenPlus(n): n generator pairs (size 2n).
    EvenMinus(n): n - 1 generator pairs plus one anisotropic rotation
    block whose eigenvalue pair lives in the quadratic extension.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_odd_prime(q)
    lam = find_generator(q)
    lam_inv = pow(lam, -1, q)
    hyper = _hyperbolic_block(q)
    quad_roots = None
    quad_factor = None
    if variant == ODD_DIM:
        form = form_odd_dim(n, q)
        blocks = [hyper] * n + [np.array([[1]], dtype=np.int64)]
        linear = [(lam, n), (lam_inv, n), (1, 1)]
    elif variant == EVEN_PLUS:
        form = form_even_plus(n, q)
        blocks = [hyper] * n
        linear = [(lam, n), (lam_inv, n)]
    elif variant == EVEN_MINUS:
        form = form_even_minus(n, q)
        aniso, ext_lam = _anisotropic_block(q)
        blocks = [hyper] * (n - 1) + [aniso]
        linear = [(lam, n - 1), (lam_inv, n - 1)] if n > 1 else []
        # det(tI - aniso) = t^2 - 2 a t + norm = t^2 - 2 a t + 1
        quad_factor = (1, (-2 * ext_lam.a) % q, 1)
        quad_roots = (ext_lam, ext_lam.inverse())
    else:
        raise ValueError(f"unknown assembly variant: {variant}")
    mat = _block_diag(blocks, q)
    if (mat.transpose @ form.gram @ mat) != form.gram:
        raise RuntimeError("assembled element does not preserve the form")

    product = [1]
    for root, mult in linear:
        for _ in range(mult):
            product = _poly_mul(product, [(-root) % q, 1], q)
    if quad_factor is not None:
        product = _poly_mul(product, list(quad_factor), q)
    charpoly = mat.charpoly()
    verified = product == charpoly
    if quad_factor is not None:
        # irreducibility over the prime field: the discriminant of the
        # quadratic factor is a non-square
        disc = (quad_factor[1] * quad_factor[1] - 4) % q
        verified = verified and pow(disc, (q - 1) // 2, q) == q - 1
        verified = verified and quad_roots[0].norm() == 1
        verified = verified and (quad_roots[0] * quad_roots[1]).is_one
    cert = EigenvalueCertificate(tuple(charpoly),
                                 tuple((r % q, m) for r, m in linear),
                                 quad_factor, quad_roots, verified)
    return mat, cert

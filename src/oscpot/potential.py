"""Real trigonometric polynomials on the unit space-time torus.

A potential W(y, tau) is stored as a finite set of Fourier modes

    W(y, tau) = sum_k  c_k * exp(2*pi*i*(m_k . y + n_k * tau)),

with y on the d-torus and tau on the unit circle.  Realness is enforced
through Hermitian symmetry: for every mode (m, n, c) the conjugate mode
(-m, -n, conj(c)) must be present.  All calculus used elsewhere in the
package (averages, antiderivatives in tau, spatial derivatives, products)
acts exactly on the coefficients, so corrector computations downstream
carry no discretization error.

TrigField is the one coefficient type.  A function of y only is a field
whose modes all have n = 0 (tau-averages, spatial correctors); a function
of tau only is a field with d = 0, whose modes have an empty m
(y-averages, iterated correctors).  ScalarSeries is a view of the
second shape that keeps its historical constructor and (n, c) mode
tuples; it adds no algebra of its own.

Fields are immutable; arithmetic returns new objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NonPeriodicAntiderivative

TWO_PI = 2.0 * math.pi

# Evaluation of a Hermitian mode sum is real up to round-off; the residual
# imaginary part is checked against this factor times the coefficient mass.
_IMAG_SLACK = 1e-12


def _as_mode_key(m: Sequence[int], n: int) -> tuple[tuple[int, ...], int]:
    return tuple(int(v) for v in m), int(n)


def _neg(key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    m, n = key
    return tuple(-v for v in m), -n


def _merge(entries: Iterable[tuple[tuple[tuple[int, ...], int], complex]]) -> dict:
    out: dict = {}
    for key, c in entries:
        out[key] = out.get(key, 0.0 + 0.0j) + complex(c)
    return {k: c for k, c in out.items() if c != 0}


def _check_hermitian(modes: Mapping[tuple[tuple[int, ...], int], complex]) -> None:
    scale = max((abs(c) for c in modes.values()), default=0.0)
    tol = 1e-12 * max(1.0, scale)
    for key, c in modes.items():
        partner = modes.get(_neg(key))
        if partner is None or abs(partner - c.conjugate()) > tol:
            raise ValueError(
                f"field is not real: mode m={key[0]}, n={key[1]} lacks a "
                f"matching conjugate partner")


def _fill(field: "TrigField", d: int, entries, check: bool) -> "TrigField":
    """Merge ((m, n), c) entries into `field`, sorted by (m, n)."""
    merged = _merge(entries)
    if check:
        _check_hermitian(merged)
    object.__setattr__(field, "d", int(d))
    object.__setattr__(field, "terms",
                       tuple(sorted((k[0], k[1], c) for k, c in merged.items())))
    return field


def _build(d: int, entries, check: bool = False) -> "TrigField":
    """TrigField from trusted ((m, n), c) entries with integer keys.

    This is how the algebra makes its results, d = 0 included; the public
    constructor parses and validates user input instead.
    """
    return _fill(object.__new__(TrigField), d, entries, check)


@dataclass(frozen=True)
class TrigField:
    """Real trigonometric polynomial in (y, tau); immutable.

    `terms` holds the sorted (m, n, c) triples.  The public constructor
    takes ((m, n), c) pairs and needs d >= 1; fields with d = 0 come from
    mean_y(), from products and primitives of such fields, and from
    ScalarSeries.
    """

    d: int
    terms: tuple[tuple[tuple[int, ...], int, complex], ...]

    def __init__(self, d: int, coeffs: Iterable = ()):
        if d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {d}")
        items = []
        for (m, n), c in coeffs:
            key = _as_mode_key(m, n)
            if len(key[0]) != d:
                raise ValueError(
                    f"mode {key[0]} has dimension {len(key[0])}, expected {d}")
            items.append((key, complex(c)))
        _fill(self, d, items, check=True)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(d: int, value: float) -> "TrigField":
        return TrigField(d, [(((0,) * d, 0), complex(value))])

    @staticmethod
    def from_cos(d: int, m: Sequence[int], n: int, amp: float = 1.0) -> "TrigField":
        """amp * cos(2*pi*(m.y + n*tau))."""
        key = _as_mode_key(m, n)
        half = 0.5 * amp
        return TrigField(d, [(key, complex(half)), (_neg(key), complex(half))])

    @staticmethod
    def from_sin(d: int, m: Sequence[int], n: int, amp: float = 1.0) -> "TrigField":
        """amp * sin(2*pi*(m.y + n*tau))."""
        key = _as_mode_key(m, n)
        half = complex(0.0, -0.5 * amp)
        return TrigField(d, [(key, half), (_neg(key), half.conjugate())])

    def as_field(self, d: int | None = None) -> "TrigField":
        """This function as a plain TrigField on the d-torus (default: its
        own d).  A function of tau alone (d = 0) lifts to any d."""
        d = self.d if d is None else d
        if d != self.d and self.d != 0:
            raise ValueError(f"cannot lift a field of dimension {self.d} to {d}")
        pad = (0,) * (d - self.d)
        return _build(d, [((m + pad, n), c) for m, n, c in self.terms])

    # -- bookkeeping ----------------------------------------------------

    def coeff_map(self) -> dict:
        return {(m, n): c for m, n, c in self.terms}

    def coeff(self, m, n: int = 0) -> complex:
        """Coefficient of mode (m, n); for d = 0 the one argument is n."""
        key = ((), int(m)) if self.d == 0 else _as_mode_key(m, n)
        return self.coeff_map().get(key, 0.0 + 0.0j)

    @property
    def coeff_mass(self) -> float:
        """Sum of coefficient magnitudes; scale for round-off tolerances."""
        return sum(abs(c) for _, _, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "TrigField") -> "TrigField":
        if not isinstance(other, TrigField):
            return NotImplemented
        if other.d != self.d:
            raise ValueError("dimension mismatch in field addition")
        entries = [((m, n), c) for m, n, c in self.terms]
        entries += [((m, n), c) for m, n, c in other.terms]
        return _build(self.d, entries)

    def __sub__(self, other: "TrigField") -> "TrigField":
        return self + (-1.0) * other

    def __neg__(self) -> "TrigField":
        return (-1.0) * self

    def __rmul__(self, scalar: float) -> "TrigField":
        if isinstance(scalar, (int, float)):
            return _build(self.d, [((m, n), scalar * c) for m, n, c in self.terms])
        return NotImplemented

    def __mul__(self, other) -> "TrigField":
        if isinstance(other, (int, float)):
            return self.__rmul__(other)
        if not isinstance(other, TrigField):
            return NotImplemented
        _check_product(self, other)
        # Bit for bit the pair loop of the tests' `_reference_product`:
        # c1 * c2 added per key into a dict from 0j, self's terms outer,
        # then 0.5 (z + conj z_mirror) per key.  Pair coefficients follow
        # CPython's complex product in real arithmetic, np.add.at adds
        # each key's pairs in row-major pair order from +0.0, and 0.5 * z
        # is CPython 3.11's float * complex.  Conjugate modes accumulate
        # in different orders, so one can cancel exactly while its partner
        # keeps a round-off residue; the projection keeps the field real.
        (ka, ar, ai), (kb, br, bi) = _columns(self), _columns(other)
        keys = (ka[:, :, None] + kb[:, None, :]).reshape(self.d + 1, -1)
        re = (np.multiply.outer(ar, br) - np.multiply.outer(ai, bi)).ravel()
        im = (np.multiply.outer(ar, bi) + np.multiply.outer(ai, br)).ravel()
        # lexsort orders key columns as `sorted` orders (m, n) tuples, so
        # the union of the keys and their mirrors comes out in the order
        # of `_fill`; it is closed under negation, so the mirror of union
        # column g is column len - 1 - g.
        both = np.concatenate([keys, -keys], axis=1)
        order = np.lexsort(both[::-1])
        ranked = both[:, order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        union = ranked[:, new]
        sr, si = np.zeros((2, union.shape[1]))
        np.add.at(sr, group[:len(re)], re)
        np.add.at(si, group[:len(im)], im)
        zr, zi = sr + sr[::-1], si - si[::-1]
        # 0.5 * z, then the 0.0 + c of `_merge`, which clears -0.0.
        re = 0.5 * zr - 0.0 * zi + 0.0
        im = 0.5 * zi + 0.0 * zr + 0.0
        keep = (re != 0) | (im != 0)
        # Parts set one by one keep their bits, signed zeros included.
        coeffs = np.empty(np.count_nonzero(keep), dtype=complex)
        coeffs.real, coeffs.imag = re[keep], im[keep]
        field = object.__new__(TrigField)
        object.__setattr__(field, "d", self.d)
        object.__setattr__(field, "terms", tuple(zip(
            map(tuple, union[:-1, keep].T.tolist()), union[-1, keep].tolist(),
            coeffs.tolist())))
        return field

    # -- evaluation -----------------------------------------------------

    def evaluate(self, y, tau=0.0):
        """Evaluate at y (scalar for d=1, length-d sequence, or arrays)
        and tau (scalar or array, default 0, so a function of y alone
        takes y only); for d = 0 the one argument is tau.  Broadcasting
        follows numpy rules."""
        if self.d == 0:
            ys, tau = (), y
        elif self.d == 1 and not (isinstance(y, (list, tuple)) and len(y) == 1):
            ys = (np.asarray(y, dtype=float),)
        else:
            if len(y) != self.d:
                raise ValueError(f"expected {self.d} coordinates, got {len(y)}")
            ys = tuple(np.asarray(v, dtype=float) for v in y)
        tau = np.asarray(tau, dtype=float)
        total = np.zeros(np.broadcast(*ys, tau).shape, dtype=complex)
        for m, n, c in self.terms:
            phase = n * tau
            for mj, yj in zip(m, ys):
                if mj:
                    phase = phase + mj * yj
            total = total + c * np.exp(2j * math.pi * phase)
        _check_imag(total, self.coeff_mass)
        real = np.real(total)
        return float(real) if real.ndim == 0 else real

    def definite_integral(self, a, b):
        """Integral over the real interval [a, b] (not reduced mod 1) of a
        function of tau alone (d = 0); a and b may be arrays of interval
        ends.  A mode n != 0 adds Re(c D / (2 pi i n)),
        D = e^(2 pi i n b) - e^(2 pi i n a), written out as
        (Re c Im D + Im c Re D) * (1 / (2 pi n)): the roundings of numpy's
        complex scalars, which its vector complex product does not keep,
        so each element gets a scalar's bits."""
        if self.d != 0:
            raise ValueError("definite_integral needs a function of tau (d = 0)")
        total = 0.0 * (b - a)
        for _, n, c in self.terms:
            if n == 0:
                total = total + c.real * (b - a)
            else:
                rate = 2.0 * math.pi * n
                rise = np.exp(1j * (rate * b)) - np.exp(1j * (rate * a))
                total = total + ((c.real * rise.imag + c.imag * rise.real)
                                 * (1.0 / rate))
        return total

    # -- averages -------------------------------------------------------

    def mean_full(self) -> float:
        """Average over the full (y, tau) torus."""
        c = self.coeff_map().get(((0,) * self.d, 0), 0.0 + 0.0j)
        return float(c.real)

    def mean_y(self) -> "TrigField":
        """Average over y; a function of tau (d = 0)."""
        zero = (0,) * self.d
        return _build(0, [(((), n), c) for m, n, c in self.terms if m == zero],
                      check=True)

    def mean_tau(self) -> "TrigField":
        """Average over tau; a function of y (every mode has n = 0)."""
        return _build(self.d, [((m, 0), c) for m, n, c in self.terms if n == 0],
                      check=True)

    # -- calculus -------------------------------------------------------

    def grad_y(self) -> tuple["TrigField", ...]:
        out = []
        for axis in range(self.d):
            entries = [((m, n), TWO_PI * 1j * m[axis] * c)
                       for m, n, c in self.terms if m[axis]]
            out.append(_build(self.d, entries))
        return tuple(out)

    def laplacian_y(self) -> "TrigField":
        entries = [((m, n), -TWO_PI ** 2 * sum(v * v for v in m) * c)
                   for m, n, c in self.terms if any(m)]
        return _build(self.d, entries)

    def antiderivative_tau(self) -> "TrigField":
        """Primitive in tau vanishing at tau = 0; periodic only when every
        constant-in-tau mode is absent."""
        for m, n, c in self.terms:
            if n == 0:
                raise NonPeriodicAntiderivative(
                    f"mode m={m}, n=0 has nonzero tau-mean "
                    f"(|c| = {abs(c):.3e}); no periodic antiderivative")
        entries = []
        for m, n, c in self.terms:
            w = c / (TWO_PI * 1j * n)
            entries.append(((m, n), w))
            entries.append(((m, 0), -w))
        return _build(self.d, entries)


def _check_product(a: TrigField, b: TrigField) -> None:
    """Reject a * b, or its average alone: factors of different dimension,
    or coefficient masses whose product leaves the range of doubles."""
    if b.d != a.d:
        raise ValueError("dimension mismatch in field product")
    # Every product coefficient is bounded by the product of masses, and
    # the conjugate projection of __mul__ adds two of them before halving.
    if not math.isfinite(2.0 * a.coeff_mass * b.coeff_mass):
        raise OverflowError("field product overflows double precision")


def _columns(field: TrigField):
    """field's terms as columns: the int64 keys (m..., n), one column per
    term, and the float64 real and imaginary parts."""
    keys = np.array([m + (n,) for m, n, _ in field.terms], dtype=np.int64)
    c = np.array([c for _, _, c in field.terms], dtype=complex)
    return keys.reshape(-1, field.d + 1).T, c.real, c.imag


def _check_imag(total: np.ndarray, mass: float) -> None:
    resid = float(np.max(np.abs(np.imag(total)))) if total.size else 0.0
    if resid > _IMAG_SLACK * max(1.0, mass):
        raise ValueError(
            f"imaginary residue {resid:.3e} in mode sum; field coefficients "
            f"are not Hermitian")


class ScalarSeries(TrigField):
    """A function of tau only (d = 0), built from and read as (n, c) pairs."""

    def __init__(self, coeffs: Mapping | Iterable | None = None):
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ()
        _fill(self, 0, [(((), int(n)), c) for n, c in pairs], check=True)

    @staticmethod
    def constant(value: float) -> "ScalarSeries":
        return ScalarSeries({0: complex(value)})

    @property
    def modes(self) -> tuple[tuple[int, complex], ...]:
        return tuple((n, c) for _, n, c in self.terms)


class GammaMode(Enum):
    """How the singular exponent gamma is tied to the time exponent k."""

    UNIT = "unit"            # gamma = 1
    K_MINUS_1 = "k_minus_1"  # gamma = k - 1


# ---------------------------------------------------------------------------
# Oscillated sampling
# ---------------------------------------------------------------------------

def _frac_div(numer, denom_ld) -> np.ndarray:
    """(numer / denom) mod 1 computed in extended precision.

    The quotient can reach ~1/eps^k; reducing it in double precision
    would leave an absolute phase error near the 1e-10 contract, so the
    division and reduction run in long double.
    """
    q = np.asarray(numer, dtype=np.longdouble) / denom_ld
    return np.remainder(q, np.longdouble(1.0)).astype(float)


def sample_oscillated(W: TrigField, eps: float, k: float, gamma: float, x, t: float):
    """Evaluate eps^(-gamma) * W(x/eps, t/eps^k) at physical coordinates.

    x is a scalar (d=1), a length-d sequence, or arrays per coordinate;
    t is a scalar.  Torus arguments are reduced mod 1 in extended
    precision so that the phase error per call stays below 1e-10.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    eps_ld = np.longdouble(eps)
    if W.d == 1 and not (isinstance(x, (list, tuple)) and len(x) == 1):
        xs = (x,)
    else:
        xs = tuple(x)
    if len(xs) != W.d:
        raise ValueError(f"expected {W.d} coordinates, got {len(xs)}")
    y = [_frac_div(xi, eps_ld) for xi in xs]
    tau = _frac_div(t, eps_ld ** np.longdouble(k))
    amp = float(eps_ld ** np.longdouble(-gamma))
    value = W.evaluate(y if W.d > 1 else y[0], tau)
    return amp * value


# ---------------------------------------------------------------------------
# Descriptor I/O
# ---------------------------------------------------------------------------

#: Largest magnitude of a mode index (see `_entry_number`).
INDEX_LIMIT = 2 ** 26


def _entry_number(v, what: str, integer: bool = False):
    """A JSON number of a mode entry: a finite float, or an int for an
    index; bools, other types and fractional indices are rejected.

    An index must satisfy |v| <= 2^26.  The algebra is exact only while
    the integers it turns into doubles stay within 2^53, the range in
    which a double holds every integer: the indices themselves (2 pi i n,
    2 pi i m_j), the products of two indices (n^2, m_j m_l, m_j n) and
    |m|^2 = sum_j m_j^2 in |2 pi m|^2 = 4 pi^2 |m|^2.  With |v| <= 2^26
    every product of two indices is at most 2^52 in magnitude and |m|^2
    is at most d 2^52 <= 2^53 for d <= 2; a larger index leaves that
    range, as m = 2^60 does at its square 2^120.
    """
    kind = "an integer" if integer else "a number"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be {kind}, got {v!r}")
    if not abs(v) <= sys.float_info.max:
        raise ValueError(f"{what} = {v!r} is not finite")
    if integer and v != int(v):
        raise ValueError(f"{what} must be {kind}, got {v!r}")
    if integer and abs(v) > INDEX_LIMIT:
        raise ValueError(
            f"{what} = {v!r} exceeds 2^26 in magnitude; index products "
            f"would leave 2^53, the range of integers a double holds exactly")
    return int(v) if integer else float(v)


def field_from_descriptor(entries: Sequence[Mapping], d: int | None = None) -> TrigField:
    """Build a TrigField from a list of {"m": [...], "n": int, "re": .., "im": ..}.

    Hermitian partners may be omitted; they are completed automatically.
    Duplicate entries for one mode must agree, and an explicitly given
    partner must be the exact conjugate.  The dimension, given or read
    from the entries, must be 1 or 2 (see `_entry_number`).
    """
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ValueError("potential descriptor must be a list of mode entries")
    seen: dict = {}
    dim = d
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValueError(f"mode entry {i} is not an object")
        extra = set(entry) - {"m", "n", "re", "im"}
        if extra:
            raise ValueError(
                f"mode entry {i} has unknown key '{sorted(extra)[0]}'")
        if "m" not in entry or "n" not in entry:
            raise ValueError(f"mode entry {i} must give 'm' and 'n'")
        m = entry["m"]
        if not isinstance(m, Sequence) or isinstance(m, (str, bytes)):
            raise ValueError(f"mode entry {i}: 'm' must be a list of integers")
        key = (tuple(_entry_number(v, f"mode entry {i}: 'm'", integer=True)
                     for v in m),
               _entry_number(entry["n"], f"mode entry {i}: 'n'", integer=True))
        if dim is None:
            dim = len(key[0])
        elif len(key[0]) != dim:
            raise ValueError(
                f"mode entry {i}: dimension {len(key[0])} conflicts with {dim}")
        c = complex(*(_entry_number(entry.get(part, 0.0),
                                    f"mode entry {i}: '{part}'")
                      for part in ("re", "im")))
        if key in seen:
            if abs(seen[key] - c) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(
                    f"mode entry {i}: duplicate mode m={key[0]}, n={key[1]} "
                    f"with inconsistent coefficient")
            continue
        seen[key] = c
    if dim is None:
        raise ValueError("potential descriptor is empty and no dimension given")
    if dim not in (1, 2):
        raise ValueError(
            f"dimension {dim} is not 1 or 2; the index bound 2^26 keeps "
            f"|m|^2 within 2^53 only for d <= 2")
    completed = dict(seen)
    for key, c in seen.items():
        partner = _neg(key)
        if partner in seen:
            if abs(seen[partner] - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(
                    f"modes m={key[0]}, n={key[1]} and its mirror are not "
                    f"conjugate; field would not be real")
        else:
            completed[partner] = c.conjugate()
    return TrigField(dim, [(key, c) for key, c in completed.items()])


def descriptor_from_field(W: TrigField) -> list[dict]:
    """Inverse of field_from_descriptor (all modes listed explicitly)."""
    return [{"m": list(m), "n": n, "re": c.real, "im": c.imag}
            for m, n, c in W.terms]

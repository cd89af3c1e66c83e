"""Exact GF(2) arithmetic: polynomials, dense bit matrices and quotient rings.

Polynomials over GF(2) are stored as nonnegative integers, bit ``i`` holding
the coefficient of ``x^i`` (lowest degree first).  The zero polynomial has
degree -1 (sentinel).  Quotient rings ``F2[x]/(p)`` embed into GL(n, 2) by
sending the class of x to a representation matrix, the companion matrix of
``p`` by default.  Rings have degree at most `MAX_DEGREE` = 8, and their
elements are residues held as plain ints of one byte at most; a
`QuotientRing` reads every element fact (products, units, inverses, powers
of alpha) from tables, and `ring` is its one, interning constructor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


class NonUnitError(ValueError):
    """Inversion of a ring element that is not a unit (zero divisors exist)."""


class FormatError(ValueError):
    """A text form (polynomial, element, matrix, SLP, ...) failed to parse."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(file line number, line without trailing blanks) of every line that
    is neither blank nor a '#' comment: the input of the block parsers, so
    their errors name file lines."""
    return [(no, ln.rstrip()) for no, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.lstrip().startswith("#")]


def line_after(lines: list[tuple[int, str]]) -> int:
    """File line number just past numbered lines: where input ended early."""
    return lines[-1][0] + 1 if lines else 1


def expect_end(lines: list[tuple[int, str]], pos: int) -> None:
    """Raise a FormatError naming lines[pos] unless a block parser that
    stopped at index pos used up all of its numbered lines."""
    if pos < len(lines):
        no, line = lines[pos]
        raise FormatError(f"unexpected line after the block: {line.strip()!r}", no)


# ---------------------------------------------------------------------------
# polynomial arithmetic on int bit vectors


def poly_deg(a: int) -> int:
    """Degree of a; -1 for the zero polynomial."""
    return a.bit_length() - 1


def poly_text(a: int, var: str = "x") -> str:
    """Render as monomials joined by '+', highest degree first."""
    if a == 0:
        return "0"
    parts = []
    for i in range(poly_deg(a), -1, -1):
        if (a >> i) & 1:
            if i == 0:
                parts.append("1")
            elif i == 1:
                parts.append(var)
            else:
                parts.append(f"{var}^{i}")
    return "+".join(parts)


MAX_DEGREE = 8  # widest ring: its residues are bytes and its tables 2^n x 2^n


def poly_parse(text: str) -> int:
    """Parse the monomial sum form, e.g. "x^8+x^2+1".

    Repeated monomials cancel (coefficients live in GF(2)).  Negative
    exponents are rejected here; ring element parsing handles them.  So are
    exponents above MAX_DEGREE, before any int of that many bits is made.
    """
    a = 0
    for raw in text.split("+"):
        term = raw.strip()
        if term == "0":
            continue
        if term == "1":
            a ^= 1
        elif term == "x":
            a ^= 2
        elif term.startswith("x^"):
            try:
                e = int(term[2:])
            except ValueError:
                raise FormatError(f"bad monomial {term!r}") from None
            if e < 0:
                raise FormatError(f"negative exponent in {term!r}")
            if e > MAX_DEGREE:
                raise FormatError(f"exponent in {term!r} exceeds the degree limit {MAX_DEGREE}")
            a ^= 1 << e
        else:
            raise FormatError(f"bad monomial {term!r}")
    return a


# ---------------------------------------------------------------------------
# dense matrices over GF(2)


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix; row i is an int with bit j = entry (i, j)."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if len(self.rows) < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        mask = (1 << self.cols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row value exceeds column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n)

    def __mul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for r in self.rows:
            acc = 0
            k = 0
            while r:
                if r & 1:
                    acc ^= other.rows[k]
                r >>= 1
                k += 1
            out.append(acc)
        return BitMatrix(tuple(out), other.cols)


def rank(m: BitMatrix) -> int:
    """Rank over GF(2) by elimination on packed rows."""
    rows = [r for r in m.rows if r]
    pivots: list[int] = []
    for r in rows:
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
    return len(pivots)


def is_invertible(m: BitMatrix) -> bool:
    return m.nrows == m.cols and rank(m) == m.nrows


def xor_count(m: BitMatrix) -> int:
    """Naive XOR cost of computing m*v: sum over rows of (weight - 1)."""
    return sum(max(0, r.bit_count() - 1) for r in m.rows)


def companion(p: int) -> BitMatrix:
    """Companion matrix of p: multiplication by x in basis 1, x, ..., x^(n-1).

    Requires constant term 1 so the result is invertible.
    """
    n = poly_deg(p)
    if n < 1:
        raise ValueError("modulus must have degree >= 1")
    if not p & 1:
        raise ValueError("modulus constant term must be 1 (companion would be singular)")
    low = p ^ (1 << n)
    rows = []
    for i in range(n):
        r = 0
        if i >= 1:
            r |= 1 << (i - 1)
        if (low >> i) & 1:
            r |= 1 << (n - 1)
        rows.append(r)
    return BitMatrix(tuple(rows), n)


# ---------------------------------------------------------------------------
# quotient rings F2[x]/(p)


class QuotientRing:
    """The commutative ring F2[x]/(p(x)), p of degree n <= MAX_DEGREE with
    constant term 1.

    Elements are residues (ints of degree < n, so one byte at most), and
    every element question is read from two tables built with the ring: the
    multiplication table (products, units, inverses) and one period of the
    powers of alpha, the residue x (`alpha_pow`, `alpha_order`,
    `power_of_alpha`).  Alpha is a unit since p(0) = 1; a ring of degree 1
    has none.  `rep` optionally replaces the companion matrix as the image
    of x inside GL(n, 2), and must have the modulus as its minimal
    polynomial; the ring structure is identical, but multiplication matrices
    (hence XOR counts of scalars) depend on the representation.

    `scalar_cost_model` selects how scalar multiplications are priced:
    "rowweight" (default) is the naive row-weight XOR count of the
    multiplication matrix; "chained" prices a power alpha^e whose least-|e|
    exponent has |e| <= 16 as |e| in-place applications of the
    representation matrix (|e| * xor_count(rep)), the accounting used for
    the bundled higher-order constructions, falling back to row weight for
    every other element.
    """

    def __init__(self, modulus: int, rep: BitMatrix | None = None,
                 scalar_cost_model: str = "rowweight"):
        n = poly_deg(modulus)
        if n < 1:
            raise ValueError("modulus must have degree >= 1")
        if n > MAX_DEGREE:
            raise ValueError(f"modulus degree {n} exceeds the degree limit {MAX_DEGREE}")
        if not modulus & 1:
            raise ValueError("modulus constant term must be 1")
        self.modulus = modulus
        self.n = n
        comp = companion(modulus)
        if rep is None:
            rep = comp
        elif rep.nrows != n or rep.cols != n:
            raise ValueError("representation matrix has wrong size")
        # I, rep, .., rep^n.  The modulus is rep's minimal polynomial iff it
        # annihilates rep and no polynomial of lower degree does, that is,
        # iff I, rep, .., rep^(n-1) are independent
        self._pow_mats = [BitMatrix.identity(n)]
        for _ in range(n):
            self._pow_mats.append(self._pow_mats[-1] * rep)
        flat = [sum(r << i * n for i, r in enumerate(pm.rows)) for pm in self._pow_mats]
        image = 0
        for i, v in enumerate(flat):
            if modulus >> i & 1:
                image ^= v
        if image or rank(BitMatrix(tuple(flat[:n]), n * n)) < n:
            raise ValueError("representation matrix does not satisfy the modulus")
        self.rep = rep
        if scalar_cost_model not in ("rowweight", "chained"):
            raise ValueError(f"unknown scalar cost model {scalar_cost_model!r}")
        self.scalar_cost_model = scalar_cost_model
        # (modulus, rep rows or None for the companion matrix, cost model)
        self.key = (modulus, None if rep.rows == comp.rows else rep.rows, scalar_cost_model)
        self._build_table()
        # alpha^0, alpha^1, .. up to alpha's order
        self._alpha_period = [1]
        if n > 1:
            times_a, v = self._mul_table[2], 2
            while v != 1:
                self._alpha_period.append(v)
                v = times_a[v]

    # -- identity helpers ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):
        # pickled as its key: unpickling returns the receiving process's
        # shared instance, tables included, instead of a copy of the tables
        return (ring, self.key)

    def __repr__(self):
        extra = "" if self.key[1] is None else ", rep=..."
        return f"QuotientRing({poly_text(self.modulus)}{extra})"

    # -- raw int arithmetic (hot paths) --------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def _build_table(self):
        # a*b is linear in b: row a doubles once per bit i of b, the new half
        # being the old one XORed with a*x^i mod p
        n, m = self.n, self.modulus
        top = 1 << n
        table = []
        for a in range(top):
            row = [0]
            for _ in range(n):
                row += [v ^ a for v in row]
                a <<= 1
                if a & top:
                    a ^= m
            table.append(row)
        self._mul_table = table

    def mul_rows(self) -> list[list[int]]:
        """The multiplication table: mul_rows()[a][b] == mul(a, b)."""
        return self._mul_table

    @functools.cache
    def mul_bytes(self) -> list[bytes]:
        """mul_rows() as one 256-byte table per element, for bytes.translate,
        built once; the bytes past 2^n are 0 and never read."""
        pad = bytes(256 - (1 << self.n))
        return [bytes(row) + pad for row in self._mul_table]

    @functools.cache
    def unit_flags(self) -> list[bool]:
        """The unit truth table, built once: unit_flags()[a] iff a is a unit,
        that is, iff a's table row holds 1."""
        return [1 in row for row in self._mul_table]

    def is_unit(self, a: int) -> bool:
        return self.unit_flags()[a]

    def inv(self, a: int) -> int:
        """The inverse of a: where a's table row holds 1."""
        try:
            return self._mul_table[a].index(1)
        except ValueError:
            raise NonUnitError(f"{self.element_text(a)} is not a unit") from None

    def alpha_order(self) -> int:
        """The least e > 0 with alpha^e == 1."""
        if self.n < 2:
            raise ValueError("no alpha in a ring of degree 1")
        return len(self._alpha_period)

    def alpha_pow(self, e: int) -> int:
        """alpha^e, for any int e."""
        return self._alpha_period[e % self.alpha_order()]

    def power_of_alpha(self, value: int) -> int | None:
        """The least-|e| exponent with alpha^e == value, or None.

        Ties between e and -e resolve to the positive exponent.  1 is
        alpha^0 in every ring, the one of degree 1 included.
        """
        period = self._alpha_period
        if value not in period:
            return None
        e = period.index(value)
        return e if 2 * e <= len(period) else e - len(period)

    @functools.cache
    def element_matrix_int(self, a: int) -> BitMatrix:
        rows = [0] * self.n
        i = 0
        v = a
        while v:
            if v & 1:
                pm = self._pow_mats[i]
                rows = [r ^ p for r, p in zip(rows, pm.rows)]
            v >>= 1
            i += 1
        return BitMatrix(tuple(rows), self.n)

    @functools.cache
    def scalar_xor_count(self, a: int) -> int:
        c = xor_count(self.element_matrix_int(a))
        if self.scalar_cost_model == "chained":
            e = self.power_of_alpha(a)
            if e is not None and abs(e) <= 16:  # the chained model's reach
                c = abs(e) * xor_count(self.rep)
        return c

    # -- element text form ----------------------------------------------------

    def element_text(self, a: int) -> str:
        return poly_text(a, var="a")

    def parse_element(self, text: str) -> int:
        """Parse "a^2+a+1"; also accepts negative powers like "a^-3".

        Alpha, the residue x, is the int 2: a ring of degree 1 (bit-level
        programs over x+1) has none.
        """
        acc = 0
        for raw in text.split("+"):
            term = raw.strip()
            if term == "0":
                continue
            if term == "1":
                acc ^= 1
                continue
            if term == "a" or term.startswith("a^"):
                try:
                    e = 1 if term == "a" else int(term[2:])
                except ValueError:
                    raise FormatError(f"bad element monomial {term!r}") from None
                try:
                    acc ^= self.alpha_pow(e)
                except ValueError as err:  # no alpha
                    raise FormatError(f"{err}: {term!r}") from None
                continue
            raise FormatError(f"bad element monomial {term!r}")
        return acc


_RINGS: dict[tuple, QuotientRing] = {}


def ring(modulus, rep_rows=None, cost: str = "rowweight") -> QuotientRing:
    """The shared instance of F2[x]/(modulus), with its lookup tables.

    `modulus` is a polynomial as text ("x^8+x^2+1") or int; `rep_rows` are
    the rows of the representation matrix of x (None: the companion
    matrix); `cost` is the scalar cost model.  Calls naming the same ring
    return one instance: rings are interned on their normalized `key`.
    """
    key = (modulus, None if rep_rows is None else tuple(rep_rows), cost)
    got = _RINGS.get(key)
    if got is None:
        rep = None if rep_rows is None else BitMatrix(key[1], len(key[1]))
        got = QuotientRing(poly_parse(modulus) if isinstance(modulus, str) else modulus,
                           rep, cost)
        got = _RINGS.setdefault(got.key, got)
        _RINGS[key] = got
    return got

"""k x k matrices with entries in a quotient ring of binary matrices.

Provides the MDS test via minors (cofactor determinants; the rings may have
zero divisors, so no elimination) through `MinorTracker`, the one
incremental all-minors tracker that every search shares, the packed-row
helper the searches scale rows with, a brute-force branch-number oracle for
small total bit widths, PMQ-equivalence canonical forms, the involution test
and row permutation/scaling.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .gf2 import FormatError, NonUnitError, QuotientRing, RingElement, poly_text, ring as _ring


class OracleTooLargeError(ValueError):
    """Brute-force branch number requested beyond the n*k <= 24 budget."""


class BlockMatrix:
    """Square matrix over a QuotientRing; entries stored as raw residues."""

    __slots__ = ("ring", "k", "rows")

    def __init__(self, ring: QuotientRing, rows):
        rows = tuple(
            tuple(e.val if isinstance(e, RingElement) else int(e) for e in row)
            for row in rows
        )
        k = len(rows)
        if k < 1 or any(len(r) != k for r in rows):
            raise ValueError("matrix must be square and nonempty")
        mask = (1 << ring.n) - 1
        if any(e & ~mask for row in rows for e in row):
            raise ValueError("entry exceeds ring residue width")
        self.ring = ring
        self.k = k
        self.rows = rows

    @classmethod
    def identity(cls, ring: QuotientRing, k: int) -> "BlockMatrix":
        return cls(ring, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.rows[i][j])

    def __eq__(self, other):
        return (
            isinstance(other, BlockMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(self.ring.element_text(e) for e in row) for row in self.rows
        )
        return f"BlockMatrix[{body}]"

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.ring != other.ring or self.k != other.k:
            raise ValueError("matrix shape or ring mismatch")
        ring = self.ring
        k = self.k
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = 0
                for t in range(k):
                    acc ^= ring.mul(self.rows[i][t], other.rows[t][j])
                row.append(acc)
            out.append(tuple(row))
        return BlockMatrix(ring, tuple(out))

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix(self.ring, tuple(zip(*self.rows)))


_MINOR_PLANS: dict[tuple[int, int], list] = {}


def _minor_plan(k: int, j: int):
    """Static expansion plan for the minors introduced by row j (0-based).

    Entries are (prev_rowmask, [(colmask, [(c, sub_colmask), ...]), ...]);
    row/column subsets are packed as bitmask ints.
    """
    plan = _MINOR_PLANS.get((k, j))
    if plan is None:
        plan = []
        for r in range(2, j + 2):
            for rsub in combinations(range(j), r - 1):
                prm = 0
                for i in rsub:
                    prm |= 1 << i
                cols = []
                for csub in combinations(range(k), r):
                    cm = 0
                    for c in csub:
                        cm |= 1 << c
                    cols.append((cm, [(c, cm ^ (1 << c)) for c in csub]))
                plan.append((prm, cols))
        _MINOR_PLANS[(k, j)] = plan
    return plan


class MinorTracker:
    """Incremental all-minors-are-units check over ring rows.

    Adding row j validates exactly the minors whose row set contains j, so
    prefix rows of a candidate matrix can prune a search as soon as any
    minor fails to be a unit.  Determinant cache keys pack (row subset,
    column subset) bitmasks into one int.

    `exact`, if given, is consulted for each minor that is not a unit, order
    1 included: `exact(rowmask, colmask)` says whether that minor is truly
    zero.  The row is rejected only if it is; otherwise the value is kept
    and the check goes on.  The symbolic searches track evaluations of
    formal-parameter rows this way, with an exact determinant behind each
    vanishing value (see sympoly).
    """

    __slots__ = ("ring", "k", "nrows", "_dets", "_mul", "_units", "_last_full", "_exact")

    def __init__(self, ring: QuotientRing, k: int, exact=None):
        self.ring = ring
        self.k = k
        self.nrows = 0
        self._dets: dict[int, int] = {}
        self._mul = ring.mul_rows()
        self._units = ring.unit_flags()
        self._last_full = 0
        self._exact = exact

    def clone(self) -> "MinorTracker":
        c = MinorTracker.__new__(MinorTracker)
        c.ring = self.ring
        c.k = self.k
        c.nrows = self.nrows
        c._dets = dict(self._dets)
        c._mul = self._mul
        c._units = self._units
        c._last_full = self._last_full
        c._exact = self._exact
        return c

    def add_row(self, row) -> bool:
        k = self.k
        j = self.nrows
        self.nrows = j + 1
        dets = self._dets
        units = self._units
        mul = self._mul
        exact = self._exact
        jbit = 1 << j
        base = jbit << k
        store = j + 1 < k  # the last row's minors are never expanded against
        for e in row:
            if not units[e]:
                if exact is None or any(exact(jbit, 1 << c)
                                        for c in range(k) if not units[row[c]]):
                    return False
                break
        if store:
            for c in range(k):
                dets[base | (1 << c)] = row[c]
        self._last_full = 0
        for prm, cols in _minor_plan(k, j):
            prev_base = prm << k
            new_base = (prm | jbit) << k
            for cm, items in cols:
                acc = 0
                for c, sub in items:
                    e = row[c]
                    if e:
                        acc ^= mul[e][dets[prev_base | sub]]
                if not units[acc]:
                    if exact is None or exact(prm | jbit, cm):
                        return False
                if store:
                    dets[new_base | cm] = acc
                else:
                    self._last_full = acc
        return True

    def full_det(self) -> int:
        """Determinant of all rows added so far (valid once nrows == k)."""
        if self.nrows != self.k:
            raise ValueError("full determinant needs k rows")
        return self._last_full


def packed_rows(ring: QuotientRing, k: int):
    """(scale, unpack) for rows of k ring entries packed n bits each into
    one int, entry c at bits n*c: scale(v, s) multiplies every entry by s,
    unpack(v) returns the entry tuple."""
    n = ring.n
    if n == 8:
        # one byte per entry: scaling is a byte translation
        tables = ring.mul_bytes()

        def scale(v: int, s: int) -> int:
            return int.from_bytes(v.to_bytes(k, "little").translate(tables[s]), "little")

        def unpack(v: int) -> tuple[int, ...]:
            return tuple(v.to_bytes(k, "little"))

        return scale, unpack
    mask = (1 << n) - 1
    shifts = [n * c for c in range(k)]
    mul = ring.mul_rows()

    def scale(v: int, s: int) -> int:
        t = mul[s]
        out = 0
        for sh in shifts:
            out |= t[(v >> sh) & mask] << sh
        return out

    def unpack(v: int) -> tuple[int, ...]:
        return tuple([(v >> sh) & mask for sh in shifts])

    return scale, unpack


def is_mds(m: BlockMatrix) -> bool:
    """True iff every minor of every order 1..k is a unit."""
    tracker = MinorTracker(m.ring, m.k)
    return all(tracker.add_row(row) for row in m.rows)


def branch_number(m: BlockMatrix, kind: str = "differential") -> int:
    """Brute-force min over nonzero inputs of wt(x) + wt(Mx), words of n bits.

    kind "linear" uses the transpose.  Only for n*k <= 24.
    """
    if kind == "linear":
        m = m.transpose()
    elif kind != "differential":
        raise ValueError("kind must be 'differential' or 'linear'")
    ring = m.ring
    n, k = ring.n, m.k
    width = n * k
    if width > 24:
        raise OracleTooLargeError(f"total width {width} exceeds the 24-bit oracle budget")
    mask = (1 << n) - 1
    # column tables: contribution of word j holding value v to each output word
    col = [[None] * (1 << n) for _ in range(k)]
    for j in range(k):
        for v in range(1 << n):
            col[j][v] = tuple(ring.mul(m.rows[i][j], v) for i in range(k))
    best = 2 * k + 1
    for x in range(1, 1 << width):
        wt_in = 0
        out = [0] * k
        for j in range(k):
            v = (x >> (n * j)) & mask
            if v:
                wt_in += 1
                cj = col[j][v]
                for i in range(k):
                    out[i] ^= cj[i]
        w = wt_in + sum(1 for o in out if o)
        if w < best:
            best = w
            if best == 2:
                break
    return best


def canonical_key(m: BlockMatrix) -> tuple:
    """Lexicographically least row-major entry encoding over all PMQ orbits."""
    k = m.k
    best = None
    cols = list(range(k))
    for cperm in permutations(cols):
        permuted = [tuple(row[c] for c in cperm) for row in m.rows]
        permuted.sort()
        flat = tuple(v for row in permuted for v in row)
        if best is None or flat < best:
            best = flat
    return best


def canonical_form(m: BlockMatrix) -> BlockMatrix:
    """Representative of the PMQ equivalence class of m."""
    key = canonical_key(m)
    k = m.k
    rows = tuple(key[i * k:(i + 1) * k] for i in range(k))
    return BlockMatrix(m.ring, rows)


def is_involutory(m: BlockMatrix) -> bool:
    return (m * m) == BlockMatrix.identity(m.ring, m.k)


def permute_and_scale(m: BlockMatrix, row_perm, row_scalars) -> BlockMatrix:
    """Row i of the result is scalar_i times row perm[i] of m (scalars must be units)."""
    ring = m.ring
    perm = list(row_perm)
    scalars = [s.val if isinstance(s, RingElement) else int(s) for s in row_scalars]
    if sorted(perm) != list(range(m.k)) or len(scalars) != m.k:
        raise ValueError("row_perm must be a permutation and scalars match the size")
    for s in scalars:
        if not ring.is_unit(s):
            raise NonUnitError(f"row scalar {ring.element_text(s)} is not a unit")
    rows = []
    for i in range(m.k):
        src = m.rows[perm[i]]
        s = scalars[i]
        rows.append(tuple(ring.mul(s, e) for e in src) if s != 1 else src)
    return BlockMatrix(ring, tuple(rows))


# ---------------------------------------------------------------------------
# text format


def ring_header_text(ring: QuotientRing) -> str:
    modulus, rep_rows, model = ring.key
    parts = [f"ring {poly_text(modulus)}"]
    if rep_rows is not None:
        parts.append("rep " + ",".join(f"{r:02x}" for r in rep_rows))
    if model != "rowweight":
        parts.append(f"cost {model}")
    return " ".join(parts)


def parse_ring_header(tokens: list[str], line=None) -> QuotientRing:
    """Parse tokens after "ring": modulus [rep r0,..,r_{n-1}] [cost MODEL].

    Equal headers share one ring instance (and its lookup tables), that of
    gf2.ring.
    """
    if not tokens:
        raise FormatError("missing ring modulus", line)
    rep_rows = None
    model = "rowweight"
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok not in ("rep", "cost"):
            raise FormatError(f"unexpected ring token {tok!r}", line)
        if i + 1 == len(tokens):
            raise FormatError(f"missing value after {tok!r}", line)
        value = tokens[i + 1]
        if tok == "rep":
            try:
                rep_rows = tuple(int(v, 16) for v in value.split(","))
            except ValueError:
                raise FormatError(f"bad rep value {value!r}", line) from None
        else:
            model = value
        i += 2
    try:
        return _ring(tokens[0], rep_rows, model)
    except ValueError as e:  # FormatError included: the modulus gets the line
        raise FormatError(str(e), line) from None


def matrix_to_text(m: BlockMatrix) -> str:
    lines = [f"{ring_header_text(m.ring)} k {m.k}"]
    for row in m.rows:
        lines.append(",".join(m.ring.element_text(e) for e in row))
    return "\n".join(lines) + "\n"


def matrix_from_lines(lines: list[str], start: int = 0) -> tuple[BlockMatrix, int]:
    """Parse the matrix block; returns (matrix, next line index)."""
    if start >= len(lines):
        raise FormatError("expected matrix header", start + 1)
    head = lines[start].split()
    if not head or head[0] != "ring" or "k" not in head:
        raise FormatError("matrix header must be 'ring <poly> [rep ..] [cost ..] k <k>'", start + 1)
    ki = head.index("k")
    ring = parse_ring_header(head[1:ki], start + 1)
    try:
        k = int(head[ki + 1])
    except (IndexError, ValueError):
        raise FormatError("bad k in matrix header", start + 1) from None
    rows = []
    for off in range(k):
        lineno = start + 1 + off
        if lineno >= len(lines):
            raise FormatError("matrix ended early", lineno + 1)
        cells = [c.strip() for c in lines[lineno].split(",")]
        if len(cells) != k:
            raise FormatError(f"expected {k} entries", lineno + 1)
        try:
            rows.append(tuple(ring.parse_element(c) for c in cells))
        except FormatError as e:
            raise FormatError(str(e), lineno + 1) from None
    return BlockMatrix(ring, tuple(rows)), start + 1 + k


def matrix_from_text(text: str) -> BlockMatrix:
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    m, _ = matrix_from_lines(lines, 0)
    return m

"""k x k matrices with entries in a quotient ring of binary matrices.

Provides the MDS test via minors (cofactor determinants; the rings may have
zero divisors, so no elimination) through `MinorTracker`, the one
incremental all-minors tracker that every search shares, the packed-row
helper the searches scale rows with, a brute-force branch-number oracle for
small total bit widths, PMQ-equivalence canonical forms and the involution
test on raw rows.  Entries are raw residues (ints), as in `gf2`.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .gf2 import (FormatError, QuotientRing, expect_end, line_after, numbered_lines, poly_text,
                  ring as _ring)


class OracleTooLargeError(ValueError):
    """Brute-force branch number requested beyond the n*k <= 24 budget."""


class BlockMatrix:
    """Square matrix over a QuotientRing; entries stored as raw residues."""

    __slots__ = ("ring", "k", "rows")

    def __init__(self, ring: QuotientRing, rows):
        rows = tuple(tuple(map(int, row)) for row in rows)
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

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix(self.ring, tuple(zip(*self.rows)))


_MINOR_PLANS: dict[tuple[int, int], tuple] = {}


def _minor_plan(k: int, j: int):
    """Static expansion plan for the minors introduced by row j (0-based):
    (entry keys, minors).

    Keys are the store keys rowmask << k | colmask of `MinorTracker.minors`.
    The entry keys are those of row j's k entries, its minors of order 1.
    minors lists one (rowmask, colmask, key, [(c, cofactor key), ...]) per
    minor of order >= 2, row subsets by size and then in lexicographic
    order.  A minor is expanded along row j, so its cofactors are the minors
    on the other rows and colmask less column c, stored before row j comes.
    """
    plan = _MINOR_PLANS.get((k, j))
    if plan is None:
        jbit = 1 << j
        entry_keys = [jbit << k | 1 << c for c in range(k)]
        minors = []
        for r in range(2, j + 2):
            for rsub in combinations(range(j), r - 1):
                prm = sum(1 << i for i in rsub)
                rm = prm | jbit
                for csub in combinations(range(k), r):
                    cm = sum(1 << c for c in csub)
                    minors.append((rm, cm, rm << k | cm,
                                   [(c, prm << k | cm ^ 1 << c) for c in csub]))
        plan = _MINOR_PLANS[(k, j)] = (entry_keys, minors)
    return plan


class MinorTracker:
    """Incremental all-minors-are-units check over ring rows, written in place.

    `add_row(row, j)` writes row j and checks exactly the minors whose
    largest row is j, so prefix rows of a candidate matrix prune a search as
    soon as a minor is not a unit.  Such a minor expands along row j and
    reads only minors of rows below j, so a depth-first search keeps one
    tracker and writes output row j at its depth: the minors of rows above j
    go stale, and each is written again before it is read.  Keys pack (row
    subset, column subset) bitmasks into one int.

    `exact`, if given, is consulted for each minor that is not a unit, order
    1 included: `exact(rowmask, colmask)` says whether that minor is truly
    zero.  The row is rejected only if it is; otherwise the value is kept
    and the check goes on.  The symbolic pre-check tracks evaluations of
    formal-parameter rows this way, with a symbolic determinant behind each
    vanishing value (see sympoly).  The tree search decides its rows by
    zero-minor masks instead (see treesearch), with a hook that never
    rejects: it adds only accepted rows, and reads their stored minors
    through `minors` to build the masks.
    """

    __slots__ = ("ring", "k", "nrows", "_dets", "_mul", "_units", "_exact")

    def __init__(self, ring: QuotientRing, k: int, exact=None):
        self.ring = ring
        self.k = k
        self.nrows = 0
        self._dets: dict[int, int] = {}
        self._mul = ring.mul_rows()
        self._units = ring.unit_flags()
        self._exact = exact

    def clone(self) -> "MinorTracker":
        """A copy with minors of its own; no search needs one."""
        c = MinorTracker.__new__(MinorTracker)
        c.ring = self.ring
        c.k = self.k
        c.nrows = self.nrows
        c._dets = dict(self._dets)
        c._mul = self._mul
        c._units = self._units
        c._exact = self._exact
        return c

    def add_row(self, row, j: int) -> bool:
        """Write row j (0 <= j <= nrows) over the rows below it; whether
        every minor it completes is a unit (or, with exact, not truly
        zero).  Rows j + 1 and above are dropped."""
        k = self.k
        self.nrows = j + 1
        dets = self._dets
        units = self._units
        mul = self._mul
        exact = self._exact
        for e in row:
            if not units[e]:
                if exact is None or any(exact(1 << j, 1 << c)
                                        for c in range(k) if not units[row[c]]):
                    return False
                break
        entry_keys, minors = _minor_plan(k, j)
        dets.update(zip(entry_keys, row))
        for rm, cm, key, items in minors:
            acc = 0
            for c, sub in items:
                e = row[c]
                if e:
                    acc ^= mul[e][dets[sub]]
            if not units[acc]:
                if exact is None or exact(rm, cm):
                    return False
            dets[key] = acc
        return True

    def minors(self) -> dict[int, int]:
        """The stored minors, keyed rowmask << k | colmask; after
        add_row(row, j) accepts, those of rows 0..j are current and any of
        rows above j are stale.  Read only."""
        return self._dets

    def full_det(self) -> int:
        """Determinant of rows 0..k-1, once add_row(row, k - 1) accepts:
        the stored minor on every row and column."""
        if self.nrows != self.k:
            raise ValueError("full determinant needs k rows")
        full = (1 << self.k) - 1
        return self._dets[full << self.k | full]


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
    return all(tracker.add_row(row, j) for j, row in enumerate(m.rows))


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


def squares_to_identity(rows, mul) -> bool:
    """Whether the matrix of k entry tuples `rows` squares to the identity,
    with mul = ring.mul_rows(); (M^2)[i][l] is checked one entry at a time,
    stopping at the first wrong one."""
    k = len(rows)
    for i in range(k):
        ri = rows[i]
        for l in range(k):
            acc = 0
            for j in range(k):
                e = ri[j]
                if e:
                    acc ^= mul[e][rows[j][l]]
            if acc != (1 if i == l else 0):
                return False
    return True


def is_involutory(m: BlockMatrix) -> bool:
    return squares_to_identity(m.rows, m.ring.mul_rows())


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


def block_header(lines: list[tuple[int, str]], start: int, what: str,
                 word: str) -> tuple[QuotientRing, int]:
    """(ring, count) of the `what` block header at lines[start], which reads
    'ring <poly> [rep ..] [cost ..] <word> <count>' with a count of at least 1."""
    if start >= len(lines):
        raise FormatError(f"expected {what} header", line_after(lines))
    head_no, head = lines[start][0], lines[start][1].split()
    if not head or head[0] != "ring" or word not in head:
        raise FormatError(f"{what} header must be 'ring <poly> [rep ..] [cost ..] {word} <k>'",
                          head_no)
    wi = head.index(word)
    ring = parse_ring_header(head[1:wi], head_no)
    try:
        count, = map(int, head[wi + 1:])
    except ValueError:
        raise FormatError(f"bad {word} value in {what} header", head_no) from None
    if count < 1:
        raise FormatError(f"{word} must be at least 1, got {count}", head_no)
    return ring, count


def matrix_to_text(m: BlockMatrix) -> str:
    lines = [f"{ring_header_text(m.ring)} k {m.k}"]
    for row in m.rows:
        lines.append(",".join(m.ring.element_text(e) for e in row))
    return "\n".join(lines) + "\n"


def matrix_from_lines(lines: list[tuple[int, str]], start: int = 0) -> tuple[BlockMatrix, int]:
    """Parse the matrix block from (file line number, line) pairs; returns
    (matrix, next index)."""
    ring, k = block_header(lines, start, "matrix", "k")
    if ring.n < 2:  # entries are written in alpha, which needs degree 2
        raise FormatError("a matrix ring needs a modulus of degree >= 2", lines[start][0])
    rows = []
    for pos in range(start + 1, start + 1 + k):
        if pos >= len(lines):
            raise FormatError("matrix ended early", line_after(lines))
        lineno, line = lines[pos]
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != k:
            raise FormatError(f"expected {k} entries", lineno)
        try:
            rows.append(tuple(ring.parse_element(c) for c in cells))
        except FormatError as e:
            raise FormatError(str(e), lineno) from None
    return BlockMatrix(ring, tuple(rows)), start + 1 + k


def matrix_from_text(text: str) -> BlockMatrix:
    lines = numbered_lines(text)
    m, nxt = matrix_from_lines(lines, 0)
    expect_end(lines, nxt)
    return m

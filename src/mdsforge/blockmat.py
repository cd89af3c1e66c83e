"""k x k matrices with entries in a quotient ring of binary matrices.

Provides the MDS test via minors (cofactor determinants; the rings may have
zero divisors, so no elimination) through `MinorTracker`, the one
incremental all-minors tracker that every search shares, the packed-row
helper the searches scale rows with, a brute-force branch-number oracle for
small total bit widths, PMQ-equivalence canonical forms and the involution
test on raw rows.  Entries are raw residues (ints), as in `gf2`, or the
truth tables of a `Cube`, on which the tracker decides exactly which minors
of multilinear GF(2) polynomials are zero.

The tracker checks a row with straight-line code generated from the minor
plan and compiled once per process, (k, row) and ring kind: two lines per
minor, at most 64 minors per function, and a source made of plan ints only.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations
from operator import itemgetter

from .gf2 import (FormatError, QuotientRing, expect_end, line_after,
                  numbered_lines, poly_text, ring as _ring)


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


@functools.cache
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
    return entry_keys, minors


_PIECE = 64  # minors per generated function: one huge function costs compile memory

# a kernel kind: what a piece binds per entry c, the product of entry c and
# minor d[{key}], and the test that rejects value {0} on rows {1}, columns {2}
_RING = ("m{c} = mul[e{c}]", "m{c}[d[{key}]]", "not units[{0}] and (bad is None or bad({1}, {2}))")
_CUBE = (None, "e{c} & d[{key}]", "not {0}")


@functools.cache
def _row_kernel(k: int, j: int, kind: tuple = _RING):
    """bind(units, mul, bad) -> check(row, dets): `MinorTracker.add_row` for
    row j as straight-line code, generated from `_minor_plan(k, j)` in the
    arithmetic of kind and compiled once per process.

    check unpacks the row, screens its entries, writes their keys, and then
    per minor, in plan order, one line stores its cofactor expansion and one
    rejects it if it is zero: on a ring (`_RING`), if it is not a unit and
    either there is no hook (bad is None) or bad(rowmask, colmask) says it
    is zero, so one kernel serves trackers with and without a hook; on a
    `Cube` (`_CUBE`, AND for product), if it is 0.  The store d is the
    tracker's list, indexed by the plan's keys.  The source holds only names
    and ints of the plan.  Each piece of at most _PIECE minors is compiled
    on its own, so neither a function nor a compile grows large; every piece
    is called as piece(row, d) and unpacks the row and binds its entries
    itself, and check calls them in a loop, not a call chain, which would
    outgrow the recursion limit at k = 10.
    """
    hoist, product, zero = kind
    entry_keys, minors = _minor_plan(k, j)
    unpack = ", ".join(f"e{c}" for c in range(k)) + ", = row"
    screen = ["if " + " or ".join(zero.format(f"e{c}", 1 << j, 1 << c) for c in range(k))
              + ": return False"]
    screen += [f"d[{key}] = e{c}" for c, key in enumerate(entry_keys)]
    pieces = [minors[i:i + _PIECE] for i in range(0, len(minors), _PIECE)] or [[]]
    binds = []
    for i, piece in enumerate(pieces):
        body = [unpack] + (screen if i == 0 else [])
        if piece and hoist:
            body += [hoist.format(c=c) for c in range(k)]
        for rm, cm, key, items in piece:
            body.append(f"d[{key}] = x = " + " ^ ".join(product.format(c=c, key=sub)
                                                        for c, sub in items))
            body.append("if " + zero.format("x", rm, cm) + ": return False")
        src = ["def bind(units, mul, bad):", " def p(row, d):"]
        src += ["  " + line for line in body] + ["  return True", " return p"]
        scope: dict = {}
        exec(compile("\n".join(src), f"<row kernel k={k} j={j} piece {i}>", "exec"), scope)
        binds.append(scope["bind"])

    def bind(units, mul, bad):
        checks = [piece_bind(units, mul, bad) for piece_bind in binds]
        if len(checks) == 1:
            return checks[0]
        return lambda row, dets: all(check(row, dets) for check in checks)

    return bind


class Cube:
    """The ring of truth tables on the Boolean cube {0,1}^most: an element is
    an int of 2^most bits, bit b its value where coordinate i is bit i of b;
    a product is AND, a sum XOR.  A multilinear GF(2) polynomial is zero iff
    its table is 0.  Each step in most doubles every element's width.  A
    row of k entries packs into one int with entry c at bits [c*w, (c+1)*w),
    w = 2^most, so a coordinate spread over the entries scales it by one
    AND."""

    __slots__ = ("most",)

    def __init__(self, most: int):
        self.most = most

    def coordinates(self, k: int) -> list[int]:
        """The tables of x_0..x_{most-1}, each spread over the k entries of a
        packed row."""
        w = 1 << self.most
        spread = sum(1 << c * w for c in range(k))
        return [sum(1 << b for b in range(w) if b >> i & 1) * spread for i in range(self.most)]


class MinorTracker:
    """Incremental all-minors-are-units check over ring rows, written in place.

    `add_row(row, j)` writes row j and checks exactly the minors whose
    largest row is j, so prefix rows of a candidate matrix prune a search as
    soon as a minor is not a unit.  Such a minor expands along row j and
    reads only minors of rows below j, so a depth-first search keeps one
    tracker and writes output row j at its depth: the minors of rows above j
    go stale, and each is written again before it is read.  The minors live
    in a flat list of 1 << 2k slots, indexed by the key that packs (row
    subset, column subset) bitmasks into one int.  Row j is checked by its
    kernel, straight-line code generated from `_minor_plan(k, j)` (see
    `_row_kernel`): no loop over the plan at run time, at most 64 minors per
    generated function, and a source holding only the plan's ints.

    `exact`, if given, is consulted for each minor that is not a unit, order
    1 included: `exact(rowmask, colmask)` says whether that minor is truly
    zero.  The row is rejected only if it is; otherwise the value is kept
    and the check goes on.  Without it the kernels reject every non-unit
    minor at once, with no call.  The tree search decides its rows by
    zero-minor masks (see treesearch), with a hook that never rejects: it
    adds only accepted rows, and reads their stored minors through `minors`
    to build the masks.  On a `Cube` a minor is rejected iff its table is
    0, which needs no hook: the support walk in instantiate runs there.
    """

    __slots__ = ("ring", "k", "nrows", "_dets", "_rows")

    def __init__(self, ring: QuotientRing | Cube, k: int, exact=None):
        self.ring = ring
        self.k = k
        self.nrows = 0
        self._dets = [0] * (1 << 2 * k)
        cube = isinstance(ring, Cube)
        kernel = functools.partial(_row_kernel, kind=_CUBE) if cube else _row_kernel
        units, mul = (None, None) if cube else (ring.unit_flags(), ring.mul_rows())

        def on_first_call(j: int):
            def first_call(row, dets):
                rows[j] = kernel(k, j)(units, mul, exact)
                return rows[j](row, dets)
            return first_call

        # a kernel is bound (and compiled) when its row is first written, so
        # a check that stops at a low row never builds the rows above it
        rows = self._rows = [on_first_call(j) for j in range(k)]

    def clone(self) -> "MinorTracker":
        """A copy with minors of its own; no search needs one."""
        c = MinorTracker.__new__(MinorTracker)
        c.ring = self.ring
        c.k = self.k
        c.nrows = self.nrows
        c._dets = self._dets[:]
        c._rows = self._rows
        return c

    def add_row(self, row, j: int) -> bool:
        """Write row j (0 <= j <= nrows) over the rows below it; whether
        every minor it completes is a unit (or, with exact, not truly
        zero).  Rows j + 1 and above are dropped.  One call of row j's
        generated kernel, which checks the entries first and then the
        minors in plan order, so the exact hook sees them in that order."""
        self.nrows = j + 1
        return self._rows[j](row, self._dets)

    def minors(self) -> list[int]:
        """The stored minors, indexed by key rowmask << k | colmask; after
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


def row_checks(ring: QuotientRing | Cube, k: int) -> list:
    """check(row, dets) for rows 0..k-1: `MinorTracker.add_row` for row j
    without the tracker, its row kernel bound to ring with no hook (on a
    `Cube`, the cube kernel), for a scan that keeps its own dets list of
    1 << 2k slots."""
    if isinstance(ring, Cube):
        return [_row_kernel(k, j, _CUBE)(None, None, None) for j in range(k)]
    return [_row_kernel(k, j)(ring.unit_flags(), ring.mul_rows(), None) for j in range(k)]


def packed_rows(ring: QuotientRing, k: int):
    """(scale, unpack, units) for rows of k ring entries packed into one
    int: scale(v, s) multiplies every entry by s, unpack(v) returns the
    entries as a sequence (entry c is unpack(v)[c]; `MinorTracker.add_row`
    takes them as they are), and units[c] is input c's row, entry c at 1.

    This is the one place the layout is spelled out: entry c is byte c (a
    residue has at most 8 bits), unpack gives `bytes`, and scaling is one
    byte translation.  (A `Cube` packs its own way.)
    """
    tables = ring.mul_bytes()

    def scale(v: int, s: int) -> int:
        return int.from_bytes(v.to_bytes(k, "little").translate(tables[s]), "little")

    def unpack(v: int) -> bytes:
        return v.to_bytes(k, "little")

    return scale, unpack, [1 << (8 * c) for c in range(k)]


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


@functools.cache
def _column_orders(k: int) -> list:
    """One `itemgetter` per column order of k columns."""
    return [itemgetter(*c) for c in permutations(range(k))]


def canonical_key(m: BlockMatrix) -> tuple:
    """Lexicographically least row-major entry encoding over all PMQ orbits.

    Each column order is applied to the rows by one `itemgetter`, built
    once per process and k; the orbit's least encoding under that order is
    its rows sorted."""
    rows, k = m.rows, m.k
    if k == 1:  # a one-column getter returns the bare entry
        return rows[0]
    # rows of equal length compare as their row-major flattening does
    best = min(sorted(map(g, rows)) for g in _column_orders(k))
    return tuple(v for row in best for v in row)


def canonical_form(m: BlockMatrix) -> BlockMatrix:
    """Representative of the PMQ equivalence class of m."""
    key = canonical_key(m)
    k = m.k
    rows = tuple(key[i * k:(i + 1) * k] for i in range(k))
    return BlockMatrix(m.ring, rows)


def squares_to_identity(rows, mul) -> bool:
    """Whether the matrix of k rows `rows` (entry tuples, or the bytes of
    `packed_rows`' unpack) squares to the identity, with mul =
    ring.mul_rows(); (M^2)[i][l] is checked one entry at a time, stopping at
    the first wrong one."""
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


# k of a matrix, square program or tree read from text: an all-minors check
# covers C(2k, k) - 1 minors, and time and memory grow 3-5 fold per step in k
MAX_K = 8


def check_k(k: int, line: int) -> None:
    """Raise a FormatError naming file line `line` (the block's header)
    unless k is at most MAX_K."""
    if k > MAX_K:
        raise FormatError(f"k {k} is above the limit {MAX_K} of the all-minors check", line)


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
    check_k(k, lines[start][0])
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

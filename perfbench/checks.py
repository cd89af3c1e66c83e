"""Independent correctness checks for the benchmark's workloads.

Nothing here imports mdsforge: ring arithmetic, the MDS and involution
tests, the PMQ class key and the text parsers are re-implemented from their
definitions, so a fault in the library cannot hide behind the same fault in
its checker.  The one exception is the relabeling check, whose subject is
the library's canonicalizer; it receives that function as an argument.

Every check returns a list of problem strings; an empty list is a pass.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on int bit vectors


def pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def pmod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def pinv(a: int, m: int) -> int:
    """Inverse of a modulo m by the extended Euclidean algorithm."""
    r0, r1, s0, s1 = m, pmod(a, m), 0, 1
    while r1:
        q = 0
        r = r0
        while r.bit_length() >= r1.bit_length():
            shift = r.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r ^= r1 << shift
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ pmul(q, s1)
    if r0 != 1:
        raise ValueError(f"{a:#x} is not a unit modulo {m:#x}")
    return pmod(s0, m)


def parse_poly(text: str, var: str = "x") -> int:
    """'x^8+x^2+1' -> 0x105; the exponents must be non-negative."""
    acc = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            acc ^= 1
        elif term == var:
            acc ^= 2
        elif term.startswith(var + "^"):
            acc ^= 1 << int(term[len(var) + 1:])
        elif term != "0":
            raise ValueError(f"bad monomial {term!r}")
    return acc


class Ring:
    """F2[x]/(p) with a multiplication table built from pmul/pmod."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.n = modulus.bit_length() - 1
        size = 1 << self.n
        self.table = [[pmod(pmul(a, b), modulus) for b in range(size)]
                      for a in range(size)]
        self.unit = [a != 0 and pgcd(modulus, a) == 1 for a in range(size)]

    def parse_element(self, text: str) -> int:
        """'a^7+a+1', also negative powers 'a^-3' (alpha = x must be a unit)."""
        acc = 0
        for term in text.replace(" ", "").split("+"):
            if term == "1":
                acc ^= 1
            elif term == "a":
                acc ^= 2
            elif term.startswith("a^"):
                e = int(term[2:])
                base = 2 if e >= 0 else pinv(2, self.modulus)
                v = 1
                for _ in range(abs(e)):
                    v = self.table[v][base]
                acc ^= v
            elif term != "0":
                raise ValueError(f"bad element {term!r}")
        return acc


# ---------------------------------------------------------------------------
# matrices over a ring (rows are tuples of residues)


def _det(ring: Ring, rows, ridx: tuple, cidx: tuple, memo: dict) -> int:
    if len(ridx) == 1:
        return rows[ridx[0]][cidx[0]]
    key = (ridx, cidx)
    got = memo.get(key)
    if got is None:
        got = 0
        for pos, c in enumerate(cidx):
            e = rows[ridx[0]][c]
            if e:
                got ^= ring.table[e][_det(ring, rows, ridx[1:], cidx[:pos] + cidx[pos + 1:], memo)]
        memo[key] = got
    return got


def mds_problems(ring: Ring, rows) -> list[str]:
    """Every square minor must be a unit (gcd with the modulus is 1)."""
    k = len(rows)
    memo: dict = {}
    for r in range(1, k + 1):
        for ridx in combinations(range(k), r):
            for cidx in combinations(range(k), r):
                d = _det(ring, rows, ridx, cidx, memo)
                if not ring.unit[d]:
                    return [f"minor rows {ridx} cols {cidx} is {d:#x}, not a unit"]
    return []


def involution_problems(ring: Ring, rows) -> list[str]:
    k = len(rows)
    for i in range(k):
        for j in range(k):
            acc = 0
            for t in range(k):
                acc ^= ring.table[rows[i][t]][rows[t][j]]
            if acc != (1 if i == j else 0):
                return [f"(M*M)[{i}][{j}] is {acc:#x}"]
    return []


def class_key(rows) -> tuple:
    """PMQ class key: least row-major flattening over column permutations,
    rows sorted (row order is free within the class)."""
    k = len(rows)
    best = None
    for cperm in permutations(range(k)):
        flat = tuple(v for row in sorted(tuple(r[c] for c in cperm) for r in rows)
                     for v in row)
        if best is None or flat < best:
            best = flat
    return best


# ---------------------------------------------------------------------------
# catalog text (matrix blocks only; the program blocks are not needed)


def parse_catalog(text: str, rings: dict) -> list[dict]:
    """Entries of a catalog text: header fields plus 'rows' and 'modulus'.

    `rings` caches Ring objects by modulus and is filled on demand.
    """
    entries = []
    block: list[str] = []
    for raw in text.splitlines() + [""]:
        s = raw.strip()
        if s.startswith("#"):
            continue
        if s:
            block.append(s)
            continue
        if not block:
            continue
        head = block[0].split()
        if head[0] != "cost":
            raise ValueError(f"catalog entry starts with {block[0]!r}")
        fields = {head[i]: int(head[i + 1]) for i in range(0, len(head), 2)}
        mhead = block[1].split()
        if mhead[0] != "ring" or "k" not in mhead:
            raise ValueError(f"expected a matrix header, got {block[1]!r}")
        modulus = parse_poly(mhead[1])
        if len(mhead) != 4:
            raise ValueError(f"unsupported matrix header {block[1]!r}")
        ring = rings.get(modulus)
        if ring is None:
            ring = rings[modulus] = Ring(modulus)
        k = int(mhead[3])
        fields["rows"] = tuple(tuple(ring.parse_element(c) for c in line.split(","))
                               for line in block[2:2 + k])
        fields["modulus"] = modulus
        entries.append(fields)
        block = []
    return entries


# ---------------------------------------------------------------------------
# implementation trees: nodes ((m, n), ...) with inputs 0..-(k-1), outs


def parse_trees(text: str) -> list[tuple[int, tuple, tuple]]:
    """(k, nodes, outs) for every 'type (...)' block of a tree listing."""
    trees = []
    cur = None
    for raw in text.splitlines():
        s = raw.strip()
        if s.startswith("type ("):
            cur = [len(s[6:-1].split(",")), [], []]
            trees.append(cur)
        elif cur is None or not s:
            continue
        elif s.startswith("out "):
            cur[2].append(int(s.split("=")[1].strip()[1:]))
        else:
            lhs, rhs = s.split("=")
            m, n = (int(t.strip()[1:]) for t in rhs.split("+"))
            if lhs.strip() != f"T{len(cur[1]) + 1}":
                raise ValueError(f"out-of-order node line {s!r}")
            cur[1].append((m, n))
    return [(k, tuple(nodes), tuple(outs)) for k, nodes, outs in trees]


def type_vector(outs) -> tuple:
    prev, out = 0, []
    for o in outs:
        out.append(o - prev)
        prev = o
    return tuple(out)


def tree_key(nodes, outs) -> tuple:
    """Encoding of a tree read as its own serialization: (type, tokens).

    A class representative printed by the search is its canonical encoding,
    so this equals the key the canonicalizer must return for the class.
    """
    out_set = set(outs)
    return (type_vector(outs),
            tuple((m, n, int(p in out_set)) for p, (m, n) in enumerate(nodes, 1)))


FEASIBILITY_POINTS = 32


@lru_cache(maxsize=None)
def eval_field() -> Ring:
    """GF(2^8) as x^8+x^4+x^3+x+1: a field, so "nonzero" and "unit" coincide."""
    return Ring(0x11B)


def tree_rows_at(k: int, nodes, outs, values) -> list[tuple]:
    """Output rows of the tree with scalar position i set to values[i]."""
    mul = eval_field().table
    vec = {-j: tuple(1 if c == j else 0 for c in range(k)) for j in range(k)}
    for p, (m, n) in enumerate(nodes, start=1):
        a, b = values[2 * (p - 1)], values[2 * (p - 1) + 1]
        vec[p] = tuple(mul[a][x] ^ mul[b][y] for x, y in zip(vec[m], vec[n]))
    return [vec[o] for o in outs]


def feasibility_problems(k: int, nodes, outs, rng) -> list[str]:
    """Accept once every minor has been nonzero at some random point.

    Evaluation is a ring homomorphism, so a nonzero value proves the
    symbolic minor (one fresh parameter per scalar position) nonzero.
    """
    pending = [(ridx, cidx) for r in range(1, k + 1)
               for ridx in combinations(range(k), r)
               for cidx in combinations(range(k), r)]
    field = eval_field()
    for _ in range(FEASIBILITY_POINTS):
        values = [rng.randrange(1, 256) for _ in range(2 * len(nodes))]
        rows = tree_rows_at(k, nodes, outs, values)
        memo: dict = {}
        pending = [(ri, ci) for ri, ci in pending
                   if not _det(field, rows, ri, ci, memo)]
        if not pending:
            return []
    return [f"minor {pending[0]} vanished at {FEASIBILITY_POINTS} random points"]


def relabel(k: int, nodes, sigma) -> tuple:
    """Nodes after input term -j becomes -sigma[j]; operand pairs re-sorted."""
    def term(t):
        return -sigma[-t] if t <= 0 else t
    return tuple(tuple(sorted((term(m), term(n)))) for m, n in nodes)


def tree_class_problems(trees, rng, canonical) -> list[str]:
    """Distinct keys, feasibility, and relabeling invariance of each class.

    `canonical(k, nodes, outs)` is the canonicalizer under test.
    """
    problems = []
    keys = [tree_key(nodes, outs) for _, nodes, outs in trees]
    if len(set(keys)) != len(keys):
        problems.append(f"{len(keys) - len(set(keys))} duplicate class keys")
    for i, ((k, nodes, outs), key) in enumerate(zip(trees, keys), start=1):
        for p in feasibility_problems(k, nodes, outs, rng):
            problems.append(f"class {i}: {p}")
        sigma = list(range(k))
        rng.shuffle(sigma)
        got = canonical(k, relabel(k, nodes, sigma), outs)
        if got != key:
            problems.append(f"class {i}: relabeling {sigma} canonicalizes to another key")
    return problems

"""Word-level linear straight-line programs.

A program over ring R with k inputs is an ordered list of steps
``t_p = a*t_m (+) b*t_n`` (word XOR of two scalar multiples of earlier
terms) plus an assignment of output labels y_1..y_q to terms.  Term indices
follow the convention x_1 = t_0, x_2 = t_-1, ..., x_k = t_-(k-1); steps are
t_1..t_s.  Outputs may alias inputs (pass-through wires).

Cost is n*s + t: one word XOR (n gates) per step plus the XOR count of each
distinct scalar product, where a product is the pair (scalar, operand term)
and repeated products are computed once.  Depth counts XOR levels from any
input to any output; a non-identity scalar on an operand adds one level.

A program is normal when every step between two consecutive outputs is
read, directly or not, by the later one, and no step follows the last
output.  `ancestor_masks` gives that relation as one bitmask per step, and
`unread_step` finds the first step that breaks the rule; `is_normal`,
`normalize`, the tree file reader and the canonical tree encoding
(`treesearch.canonical_tree`) read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf2 import FormatError, QuotientRing, expect_end, numbered_lines
from .blockmat import BlockMatrix, block_header, packed_rows, ring_header_text


class NotSquareError(FormatError):
    """Matrix extraction requires as many outputs as inputs."""


class DeadTermError(ValueError):
    """A non-output term precedes no output (removing it changes nothing)."""


class Step(NamedTuple):
    m: int
    n: int
    a: int  # scalar on t_m, raw residue, nonzero
    b: int  # scalar on t_n


@dataclass(frozen=True)
class Slp:
    ring: QuotientRing
    k_in: int
    steps: tuple[Step, ...]
    outputs: tuple[int, ...]  # term index of y_1..y_q

    def __post_init__(self):
        if self.k_in < 1:
            raise ValueError("need at least one input")
        lo = -(self.k_in - 1)
        for p, st in enumerate(self.steps, start=1):
            if not (lo <= st.m < p and lo <= st.n < p):
                raise ValueError(f"step {p} references an unavailable term")
            if st.a == 0 or st.b == 0:
                raise ValueError(f"step {p} has a zero scalar")
        s = len(self.steps)
        for o in self.outputs:
            if not (lo <= o <= s):
                raise ValueError(f"output references unknown term {o}")

    # -- helpers -------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def products(self) -> set[tuple[int, int]]:
        """Distinct non-trivial scalar products as (operand term, scalar) pairs."""
        out = set()
        for st in self.steps:
            if st.a != 1:
                out.add((st.m, st.a))
            if st.b != 1:
                out.add((st.n, st.b))
        return out


def check_square(p: Slp, line=None) -> None:
    """Raise NotSquareError, naming file line `line` (the program's header),
    unless p has as many outputs as inputs."""
    if len(p.outputs) != p.k_in:
        raise NotSquareError(
            f"{len(p.outputs)} outputs for {p.k_in} inputs; only square layers extract", line)


def extract_matrix(p: Slp) -> BlockMatrix:
    """The matrix whose row i is the expansion of y_i over the inputs."""
    check_square(p)
    k = p.k_in
    scale, unpack, units = packed_rows(p.ring, k)
    # coefficient row of every term over the inputs, by forward accumulation
    vec = {-j: u for j, u in enumerate(units)}
    for t, st in enumerate(p.steps, start=1):
        vm, vn = vec[st.m], vec[st.n]
        vec[t] = (vm if st.a == 1 else scale(vm, st.a)) ^ (vn if st.b == 1 else scale(vn, st.b))
    return BlockMatrix(p.ring, tuple(unpack(vec[o]) for o in p.outputs))


def cost(p: Slp) -> int:
    t = sum(p.ring.scalar_xor_count(c) for (_, c) in p.products())
    return p.ring.n * p.n_steps + t


def depth(p: Slp) -> int:
    """Max XOR levels to any output; non-identity scalars add one level each."""
    d: dict[int, int] = {}  # inputs, absent, are at level 0
    for idx, st in enumerate(p.steps, start=1):
        dm = d.get(st.m, 0) + (1 if st.a != 1 else 0)
        dn = d.get(st.n, 0) + (1 if st.b != 1 else 0)
        d[idx] = 1 + max(dm, dn)
    return max((d.get(o, 0) for o in p.outputs), default=0)


def ancestor_masks(steps) -> list[int]:
    """anc[p]: the steps that step p reads, directly or not, as a bitmask
    with bit q for step q >= 1 (inputs left out); anc[0] = 0.  steps[p-1]
    starts with the operands (m, n) of step p: a Step or a tree node."""
    anc = [0]
    for st in steps:
        m, n = st[0], st[1]
        anc.append((anc[m] | 1 << m if m > 0 else 0) | (anc[n] | 1 << n if n > 0 else 0))
    return anc


def unread_step(steps, outs) -> int | None:
    """The first step that the output closing its segment does not read,
    directly or not, or that follows the last output; None when every step
    is read so.  outs are the output steps, increasing."""
    anc = ancestor_masks(steps)
    prev = 0
    for o in outs:
        for t in range(prev + 1, o):
            if not anc[o] >> t & 1:
                return t
        prev = o
    return prev + 1 if prev < len(steps) else None


def is_normal(p: Slp) -> bool:
    """Output steps increase, and every other step is read by the output
    that closes its segment."""
    out_steps = [o for o in p.outputs if o >= 1]
    return out_steps == sorted(set(out_steps)) and unread_step(p.steps, out_steps) is None


def normalize(p: Slp) -> Slp:
    """Normal form by the bubble procedure: every step in an output's segment
    is an ancestor of that output.  Extracted matrix, cost and depth are
    preserved (only the order of steps changes).
    """
    anc = ancestor_masks(p.steps)
    out_set = {o for o in p.outputs if o >= 1}
    order: list[int] = []
    placed: set[int] = set()
    for o in p.outputs:
        if o < 1:
            continue
        if o in placed:
            raise ValueError("duplicate output term")
        for t in range(1, o):
            if t not in placed and anc[o] >> t & 1:
                if t in out_set:
                    raise ValueError(
                        f"output term {t} precedes an earlier-labelled output; "
                        "no normal form exists in label order")
                order.append(t)
                placed.add(t)
        order.append(o)
        placed.add(o)
    leftovers = [t for t in range(1, p.n_steps + 1) if t not in placed]
    if leftovers:
        raise DeadTermError(f"terms {leftovers} precede no output")
    remap = {t: i + 1 for i, t in enumerate(order)}
    for j in range(p.k_in):
        remap[-j] = -j
    steps = tuple(
        Step(remap[p.steps[t - 1].m], remap[p.steps[t - 1].n], p.steps[t - 1].a, p.steps[t - 1].b)
        for t in order
    )
    outputs = tuple(remap[o] if o >= 1 else o for o in p.outputs)
    return Slp(p.ring, p.k_in, steps, outputs)


# ---------------------------------------------------------------------------
# text format (bit-exact round trip)


def _term_text(idx: int) -> str:
    return f"x{1 - idx}" if idx <= 0 else f"t{idx}"


def _parse_term(tok: str, k: int, s_limit: int, line: int) -> int:
    if tok.startswith("x"):
        try:
            j = int(tok[1:])
        except ValueError:
            raise FormatError(f"bad term {tok!r}", line) from None
        if not 1 <= j <= k:
            raise FormatError(f"input {tok} out of range", line)
        return 1 - j
    if tok.startswith("t"):
        try:
            idx = int(tok[1:])
        except ValueError:
            raise FormatError(f"bad term {tok!r}", line) from None
        if not 1 <= idx <= s_limit:
            raise FormatError(f"term {tok} not yet defined", line)
        return idx
    raise FormatError(f"bad term {tok!r}", line)


def slp_to_text(p: Slp) -> str:
    lines = [f"{ring_header_text(p.ring)} inputs {p.k_in}"]
    for i, st in enumerate(p.steps, start=1):
        left = _term_text(st.m)
        if st.a != 1:
            left = f"{p.ring.element_text(st.a)}*{left}"
        right = _term_text(st.n)
        if st.b != 1:
            right = f"{p.ring.element_text(st.b)}*{right}"
        lines.append(f"t{i} = {left} + {right}")
    for i, o in enumerate(p.outputs, start=1):
        lines.append(f"out y{i} = {_term_text(o)}")
    return "\n".join(lines) + "\n"


def slp_from_lines(lines: list[tuple[int, str]], start: int = 0) -> tuple[Slp, int]:
    """Parse the program block from (file line number, line) pairs; returns
    (program, next index)."""
    ring, k = block_header(lines, start, "SLP", "inputs")

    steps: list[Step] = []
    outputs: list[tuple[int, int]] = []
    pos = start + 1
    while pos < len(lines):
        lineno, line = lines[pos]
        if line.startswith("out "):
            label, rhs = output_line(line, lineno)
            outputs.append((label, _parse_term(rhs, k, len(steps), lineno)))
            pos += 1
            continue
        if line.startswith("t"):
            lhs, _, rhs = line.partition("=")
            lhs = lhs.strip()
            expected = f"t{len(steps) + 1}"
            if lhs != expected:
                raise FormatError(f"expected step {expected}, found {lhs!r}", lineno)
            parts = rhs.strip().split(" + ")
            if len(parts) != 2:
                raise FormatError("step must have exactly two operands", lineno)
            ops = []
            for part in parts:
                scalar = 1
                term = part.strip()
                if "*" in term:
                    stxt, _, term = term.partition("*")
                    try:
                        scalar = ring.parse_element(stxt.strip())
                    except FormatError as e:
                        raise FormatError(str(e), lineno) from None
                    if scalar == 0:
                        raise FormatError(f"zero scalar in {part.strip()!r}", lineno)
                ops.append((_parse_term(term.strip(), k, len(steps), lineno), scalar))
            (m, a), (n, b) = ops
            steps.append(Step(m, n, a, b))
            pos += 1
            continue
        break
    last = lines[pos - 1][0]  # the block's last line
    if not outputs:
        raise FormatError("SLP has no outputs", last)
    return Slp(ring, k, tuple(steps), labelled_terms(outputs, last)), pos


def output_line(line: str, lineno: int) -> tuple[int, str]:
    """(i, term text) of the output line 'out y<i> = <term>' at file line lineno."""
    lhs, _, rhs = line[4:].partition("=")
    lhs = lhs.strip()
    if not lhs.startswith("y"):
        raise FormatError("output line must read 'out y<i> = <term>'", lineno)
    try:
        return int(lhs[1:]), rhs.strip()
    except ValueError:
        raise FormatError(f"bad output label {lhs!r}", lineno) from None


def labelled_terms(outputs: list[tuple[int, int]], line: int) -> tuple[int, ...]:
    """The terms of (label i, term) pairs in label order.  The labels must be
    y1..yq, each exactly once; otherwise a FormatError names `line`."""
    if sorted(i for i, _ in outputs) != list(range(1, len(outputs) + 1)):
        raise FormatError("output labels must be y1..yq, each exactly once", line)
    return tuple(t for _, t in sorted(outputs))


def slp_from_text(text: str) -> Slp:
    lines = numbered_lines(text)
    p, nxt = slp_from_lines(lines, 0)
    expect_end(lines, nxt)
    return p

"""The checkers must reject corrupted results.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402

DATA = os.path.join(os.path.dirname(HERE), "src", "mdsforge", "data")


def bundled(name: str, rings: dict) -> list[dict]:
    with open(os.path.join(DATA, "catalogs", name + ".catalog")) as f:
        return checks.parse_catalog(f.read(), rings)


def with_entry(rows, i, j, value):
    return tuple(tuple(value if (r, c) == (i, j) else v for c, v in enumerate(row))
                 for r, row in enumerate(rows))


class ArithmeticTest(unittest.TestCase):
    def test_zero_divisors_are_not_units(self):
        ring = checks.Ring(checks.parse_poly("x^8+x^2+1"))  # (x^4+x+1)^2
        self.assertEqual(ring.table[0x13][0x13], 0)
        self.assertFalse(ring.unit[0x13])
        self.assertTrue(ring.unit[2])
        self.assertEqual(ring.table[2][checks.pinv(2, ring.modulus)], 1)

    def test_negative_powers(self):
        ring = checks.Ring(checks.parse_poly("x^4+x+1"))
        self.assertEqual(ring.table[ring.parse_element("a^-3")][ring.parse_element("a^3")], 1)


class MatrixCheckTest(unittest.TestCase):
    rings: dict = {}

    def test_bundled_entries_pass(self):
        for name in ("cost67_4x4", "involutory_4x4"):
            for e in bundled(name, self.rings):
                ring = self.rings[e["modulus"]]
                self.assertEqual(checks.mds_problems(ring, e["rows"]), [])
                if e["involutory"]:
                    self.assertEqual(checks.involution_problems(ring, e["rows"]), [])

    def test_flipped_entry_is_not_mds(self):
        e = bundled("cost67_4x4", self.rings)[0]
        ring = self.rings[e["modulus"]]
        rows = e["rows"]
        # one flipped bit turns the entry 1 into 0
        self.assertEqual(rows[0][3], 1)
        self.assertTrue(checks.mds_problems(ring, with_entry(rows, 0, 3, rows[0][3] ^ 1)))
        # a zero divisor: nonzero, yet not a unit of x^8+x^2+1
        self.assertTrue(checks.mds_problems(ring, with_entry(rows, 1, 2, 0x13)))
        # an entry chosen so that the leading 2x2 minor vanishes
        a, b, c = rows[0][0], rows[0][1], rows[1][0]
        target = ring.table[ring.table[b][c]][checks.pinv(a, ring.modulus)]
        self.assertNotEqual(target, rows[1][1])
        self.assertTrue(checks.mds_problems(ring, with_entry(rows, 1, 1, target)))

    def test_non_involution_is_rejected(self):
        e = bundled("involutory_4x4", self.rings)[0]
        ring = self.rings[e["modulus"]]
        flipped = with_entry(e["rows"], 2, 3, e["rows"][2][3] ^ 1)
        self.assertTrue(checks.involution_problems(ring, flipped))

    def test_class_key_is_permutation_invariant(self):
        rows = bundled("cost67_4x4", self.rings)[0]["rows"]
        moved = tuple(tuple(row[c] for c in (2, 0, 3, 1)) for row in reversed(rows))
        self.assertEqual(checks.class_key(moved), checks.class_key(rows))
        self.assertNotEqual(checks.class_key(with_entry(rows, 0, 0, rows[0][0] ^ 1)),
                            checks.class_key(rows))


class TreeCheckTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(DATA, "trees", "4x4_tree3.txt")) as f:
            self.tree = checks.parse_trees(f.read())[0]

    def test_bundled_tree_is_feasible(self):
        k, nodes, outs = self.tree
        self.assertEqual(checks.feasibility_problems(k, nodes, outs, random.Random(1)), [])

    def test_tree_with_a_zero_minor_is_rejected(self):
        k, nodes, outs = self.tree
        # T4 = x3 + y1 puts y2 in the span of y1 and x3, so every 2x2
        # minor of rows y1, y2 avoiding column x3 vanishes identically
        broken = nodes[:3] + ((-2, 3),) + nodes[4:]
        self.assertTrue(checks.feasibility_problems(k, broken, outs, random.Random(1)))

    def test_wrong_key_is_rejected(self):
        k, nodes, outs = self.tree
        key = checks.tree_key(nodes, outs)
        good = checks.tree_class_problems([self.tree], random.Random(1),
                                          lambda k, n, o: key)
        self.assertEqual(good, [])
        wrong = (key[0], key[1][:-1] + ((0, 1, 1),))
        bad = checks.tree_class_problems([self.tree], random.Random(1),
                                         lambda k, n, o: wrong)
        self.assertTrue(any("relabeling" in p for p in bad))

    def test_duplicate_classes_are_rejected(self):
        bad = checks.tree_class_problems([self.tree, self.tree], random.Random(1),
                                         lambda k, n, o: checks.tree_key(n, o))
        self.assertTrue(any("duplicate" in p for p in bad))

    def test_relabeling_keeps_operands_ordered(self):
        k, nodes, _ = self.tree
        for m, n in checks.relabel(k, nodes, (3, 1, 0, 2)):
            self.assertLess(m, n)


if __name__ == "__main__":
    unittest.main()

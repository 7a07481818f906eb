"""Root systems of types A, D, E and the extended E8 diagram.

Simple roots use the standard coordinate models (A_n in the sum-zero
hyperplane of R^(n+1), D_n and E8 in R^n with the even / half-integer
model).  The nine rank-8 sublattices of E8 obtained by deleting one node
of the extended diagram are built here, together with their glue vectors.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, sub

from .codes import data_cached
from .lattice import EvenLattice, coords_of_norm
from .linalg import det, vec_mat


class UnsupportedType(ValueError):
    pass


class NotRootGenerated(ValueError):
    pass


COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
           "E": {6: 12, 7: 18, 8: 30}.get}


def coxeter_number(letter: str, rank: int) -> int:
    h = COXETER[letter](rank)
    if h is None:
        raise UnsupportedType(f"{letter}{rank}")
    return h


def _simple_roots_model(letter: str, rank: int):
    F = Fraction
    if letter == "A" and rank >= 1:
        dim = rank + 1
        return [tuple(F(int(j == i)) - F(int(j == i + 1)) for j in range(dim))
                for i in range(rank)]
    if letter == "D" and rank >= 3:
        dim = rank
        rows = [tuple(F(int(j == i)) - F(int(j == i + 1)) for j in range(dim))
                for i in range(rank - 1)]
        rows.append(tuple(F(int(j == rank - 2)) + F(int(j == rank - 1))
                          for j in range(dim)))
        return rows
    if letter == "E" and rank in (6, 7, 8):
        half = F(1, 2)
        a1 = (half, -half, -half, -half, -half, -half, -half, half)
        a2 = tuple(F(x) for x in (1, 1, 0, 0, 0, 0, 0, 0))
        rest = []
        for k in range(3, 9):
            v = [F(0)] * 8
            v[k - 3] = F(-1)
            v[k - 2] = F(1)
            rest.append(tuple(v))
        all_eight = [a1, a2] + rest
        return all_eight[:rank]
    raise UnsupportedType(f"{letter}{rank}")


def _lex_positive(v) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


class RootSystem:
    """An ADE root system with explicit coordinates, roots of norm 2."""

    def __init__(self, letter: str, rank: int):
        self.simple_roots = _simple_roots_model(letter, rank)
        self.lattice = EvenLattice(self.simple_roots)
        self.root_coords = coords_of_norm(self.lattice, 2)
        self.roots = sorted(self.lattice.ambient(c) for c in self.root_coords)
        self.coxeter_number = coxeter_number(letter, rank)


@data_cached()
def build_root_system(letter: str, rank: int) -> RootSystem:
    rs = RootSystem(letter, rank)
    expected = rank * rs.coxeter_number
    if len(rs.roots) != expected:
        raise AssertionError(f"{letter}{rank}: {len(rs.roots)} roots, "
                             f"expected {expected}")
    return rs


def _component_graph(adj):
    """Connected components of the diagram with adjacency lists adj."""
    n = len(adj)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _diagram_type(nodes, adj):
    rank = len(nodes)
    degs = {v: len([w for w in adj[v] if w in nodes]) for v in nodes}
    edge_count = sum(degs.values()) // 2
    if edge_count != rank - 1:
        raise NotRootGenerated("component diagram is not a tree")
    branch = [v for v in nodes if degs[v] >= 3]
    if not branch:
        return ("A", rank)
    if len(branch) > 1 or degs[branch[0]] > 3:
        raise NotRootGenerated("diagram is not of type A, D, or E")
    b = branch[0]
    arms = []
    for start in adj[b]:
        if start not in nodes:
            continue
        length = 1
        prev, cur = b, start
        while True:
            nxt = [w for w in adj[cur] if w in nodes and w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", rank)
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return ("E", rank)
    raise NotRootGenerated("diagram is not of type A, D, or E")


def simple_system(roots):
    """The lex-positive roots that are not a difference of two of them."""
    pos = [r for r in roots if _lex_positive(r)]
    posset = set(pos)
    return [p for p in pos
            if not any(tuple(map(sub, p, q)) in posset for q in pos if q != p)]


class RootComponent:
    def __init__(self, letter, rank, simple_coords, root_coords):
        self.letter = letter
        self.rank = rank
        self.simple_coords = simple_coords
        self.root_coords = root_coords
        self.h = coxeter_number(letter, rank)


def root_components(roots, lattice: EvenLattice):
    """Split a root system into its ADE components.

    ``roots`` lists the coefficient tuples over the basis of ``lattice``
    of all the roots (both signs), each of norm 2.  The lex-positive order
    of coefficient tuples is additive, so its indecomposable positive
    roots (``simple_system``) are a base.
    """
    simple = simple_system(roots)
    # per root, the simple roots it pairs with nontrivially: a nonzero dot
    # product with the int column G s
    columns = [lattice.gram_times(s)[0] for s in simple]
    touched = [[v for v, col in enumerate(columns) if sum(map(mul, r, col))]
               for r in roots]
    adj = [[v for v in touched[roots.index(s)] if v != k] for k, s in enumerate(simple)]
    comps = _component_graph(adj)
    out = []
    for nodes in comps:
        letter, rank = _diagram_type(nodes, adj)
        comp_simple = [simple[v] for v in nodes]
        comp_roots = []
        for r, touches in zip(roots, touched):
            hits = [v for v in touches if v in nodes]
            others = [v for v in touches if v not in nodes]
            if hits and others:
                raise NotRootGenerated("root meets two components")
            if hits:
                comp_roots.append(r)
        comp = RootComponent(letter, rank, comp_simple, comp_roots)
        if len(comp_roots) != rank * comp.h:
            raise NotRootGenerated(
                f"component {letter}{rank} has {len(comp_roots)} roots")
        out.append(comp)
    out.sort(key=lambda c: (c.rank, c.letter, c.simple_coords))
    return out


EXTENDED_COEFFS = (1, 2, 3, 4, 5, 6, 4, 2, 3)

NODE_LABELS = ("1A", "2A", "3A", "4A", "5A", "6A", "4B", "2B", "3C")


@data_cached()
def e8_paper_data():
    """The E8 lattice on the paper basis, its root coordinates and the highest root.

    The paper basis is the simple roots of E8 reordered to the
    extended-diagram labelling: the chain runs alpha_0 .. alpha_7 with
    alpha_8 hanging off alpha_5.
    """
    std = _simple_roots_model("E", 8)
    # std indices (1-based): 8,7,6,5,4,3,1,2 become paper alpha_1..alpha_8
    basis = [std[k - 1] for k in (8, 7, 6, 5, 4, 3, 1, 2)]
    lat = EvenLattice(basis)
    coords = coords_of_norm(lat, 2)
    return {
        "basis": basis,
        "lattice": lat,
        "root_coords": coords,
        "highest_coords": max(coords, key=sum),
    }


def _glue_coeffs(i: int):
    """Glue vector as coefficients over alpha_0 .. alpha_8."""
    F = Fraction
    c = [F(0)] * 9
    if i == 0:
        c[1] = F(1)
    elif 1 <= i <= 5:
        for m in range(i):
            c[m] = F(-(m + 1), i + 1)
    elif i == 6:
        for m in range(6):
            c[m] = F(-(m + 1), 8)
        c[8] = F(-7, 8)
    elif i == 7:
        c[6] = F(1, 2)
        c[8] = F(1, 2)
    elif i == 8:
        for m in range(8):
            c[m] = F(-(m + 1), 9)
    else:
        raise ValueError("node index must be 0..8")
    return c


class ExtendedE8Node:
    """Data attached to removing node i from the extended E8 diagram, in
    coefficient coordinates over the paper basis of E8.  The roots of L(i)
    are the class-0 E8 roots (see ``coset_classes``)."""

    def __init__(self, i: int):
        if not 0 <= i <= 8:
            raise ValueError("node index must be 0..8")
        data = e8_paper_data()
        self.i = i
        self.label = NODE_LABELS[i]
        highest = data["highest_coords"]
        # alpha_0 is minus the highest root; coordinates over alpha_1..alpha_8
        alpha0_coords = tuple(-x for x in highest)
        self.alpha_coords = [alpha0_coords] + [
            tuple(int(j == k) for j in range(8)) for k in range(8)]
        e8 = data["lattice"]
        if any(vec_mat(EXTENDED_COEFFS, self.alpha_coords)):
            raise AssertionError("extended diagram relation fails")
        self.n = EXTENDED_COEFFS[i]

        self.l_rows_coords = [list(self.alpha_coords[j]) for j in range(9) if j != i]
        if abs(det(self.l_rows_coords)) != self.n:
            raise AssertionError("index of L(i) in E8 does not match the label")
        self.e8_root_coords = data["root_coords"]

        self.glue_coords = tuple(vec_mat(_glue_coeffs(i), self.alpha_coords))
        # <glue, v> = sum(v_k * w_k) / den for E8 coordinates v
        self._glue_pairing = e8.gram_times(self.glue_coords)
        self._check_glue()
        w, den = self._glue_pairing
        self._classes = {}
        for r in self.e8_root_coords:
            q, rem = divmod(self.n * sum(map(mul, r, w)), den)
            if rem:
                raise AssertionError("root falls outside every coset")
            self._classes[r] = -q % self.n

        roots = [r for r, j in self._classes.items() if j == 0]
        self.components = root_components(roots, e8)
        self.component_types = sorted((c.letter, c.rank) for c in self.components)

    def _check_glue(self):
        w, den = self._glue_pairing
        for j in range(9):
            t = sum(map(mul, self.alpha_coords[j], w))
            if j == self.i:
                if (self.n * t + den) % (self.n * den):
                    raise AssertionError("glue pairing with removed node is wrong")
            elif t % den:
                raise AssertionError("glue vector does not pair integrally")

    def coset_classes(self):
        """Map root coords -> j with root in j*alpha_i + L(i), read off the
        glue pairing in ``__init__`` as j = -n<glue, root> mod n.

        The map is exact: L(i) is generated by the alpha_j with j != i, on
        which the glue pairs integrally, and <glue, alpha_i> = -1/n mod 1
        (both in ``_check_glue``).  So v -> -n<glue, v> mod n maps E8 onto
        Z/n, alpha_i to 1, with L(i) inside the kernel; L(i) has index n in
        E8 (checked before the map is built), so the kernel is exactly L(i).
        """
        return self._classes

    def h_counts(self):
        classes = self.coset_classes()
        counts = [0] * self.n
        for j in classes.values():
            counts[j] += 1
        return counts[1:]

    def phi_count(self):
        classes = self.coset_classes()
        return sum(1 for j in classes.values() if j == 0)


@data_cached()
def extended_e8_node(i: int) -> ExtendedE8Node:
    return ExtendedE8Node(i)

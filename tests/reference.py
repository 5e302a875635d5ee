"""Slow, independent reference implementation used as a test oracle.

Everything here is deliberately written from scratch with dictionaries
and breadth-first search, sharing no code or representation choices with
the package: the quotient is built from explicit point identification
maps, components come from BFS, and orientability comes from a spanning
tree with an explicit cycle-sign check instead of union-find.
"""

from __future__ import annotations

from collections import defaultdict, deque


def _vkey(i, j):
    return ("v", i, j)


def _hkey(i, j):
    return ("h", i, j)  # edge (i,j)-(i+1,j)


def _ukey(i, j):
    return ("u", i, j)  # edge (i,j)-(i,j+1)


def _raw_ends(raw):
    kind, i, j = raw
    if kind == "h":
        return (_vkey(i, j), _vkey(i + 1, j))
    return (_vkey(i, j), _vkey(i, j + 1))


class RefSurface:
    """Quotient grid built from explicit identification of raw cells."""

    def __init__(self, W, H, x_gluing, y_gluing):
        self.W, self.H = W, H
        ident = {}

        def unite(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                ident[rb] = ra

        def find(k):
            while k in ident:
                k = ident[k]
            return k

        if x_gluing == "periodic":
            for j in range(H + 1):
                unite(_vkey(0, j), _vkey(W, j))
            for j in range(H):
                unite(_ukey(0, j), _ukey(W, j))
        elif x_gluing == "reversed":
            for j in range(H + 1):
                unite(_vkey(0, H - j), _vkey(W, j))
            for j in range(H):
                unite(_ukey(0, H - 1 - j), _ukey(W, j))
        if y_gluing == "periodic":
            for i in range(W + 1):
                unite(_vkey(i, 0), _vkey(i, H))
            for i in range(W):
                unite(_hkey(i, 0), _hkey(i, H))
        elif y_gluing == "reversed":
            for i in range(W + 1):
                unite(_vkey(W - i, 0), _vkey(i, H))
            for i in range(W):
                unite(_hkey(W - 1 - i, 0), _hkey(i, H))

        self.find = find
        self.x_gluing, self.y_gluing = x_gluing, y_gluing

        # canonical edge -> list of (face, raw edge key) incidences
        self.edge_faces = defaultdict(list)
        for j in range(H):
            for i in range(W):
                f = (i, j)
                for raw in (_hkey(i, j), _hkey(i, j + 1), _ukey(i, j), _ukey(i + 1, j)):
                    self.edge_faces[find(raw)].append((f, raw))

        # adjacency with orientation signs: crossing a reversed seam is -1
        self.adjacency = []
        for e, inc in self.edge_faces.items():
            if len(inc) == 2:
                (f1, r1), (f2, r2) = inc
                sign = -1 if (r1 != r2 and self._reversed_pair(r1, r2)) else 1
                self.adjacency.append((f1, f2, sign, e))

        self.boundary_edges = {e for e, inc in self.edge_faces.items() if len(inc) == 1}
        self.boundary_vertices = set()
        for e in self.boundary_edges:
            for v in self.edge_endpoints(e):
                self.boundary_vertices.add(v)

    def _reversed_pair(self, r1, r2):
        kinds = {r1[0], r2[0]}
        if kinds == {"h"}:
            return self.y_gluing == "reversed"
        if kinds == {"u"}:
            return self.x_gluing == "reversed"
        return False

    def edge_endpoints(self, e):
        return tuple(self.find(v) for v in _raw_ends(e))

    def euler_characteristic(self):
        verts = set()
        for j in range(self.H + 1):
            for i in range(self.W + 1):
                verts.add(self.find(_vkey(i, j)))
        return len(verts) - len(self.edge_faces) + self.W * self.H


def ref_domains(surface: RefSurface, labels):
    """(face -> domain, per-domain orientable list) by BFS and cycle signs.

    Faces are ``(i, j)`` pairs; domains are numbered in row-major order of
    their first face.
    """
    W, H = surface.W, surface.H

    def lab(f):
        return labels[f[1] * W + f[0]]

    # domains: BFS over same-label adjacency
    neigh = defaultdict(list)
    for f1, f2, sign, _e in surface.adjacency:
        if lab(f1) == lab(f2):
            neigh[f1].append((f2, sign))
            neigh[f2].append((f1, sign))
    domain = {}
    orientable = []
    for j in range(H):
        for i in range(W):
            f = (i, j)
            if f in domain:
                continue
            d = len(orientable)
            # BFS assigning a sign to every face relative to the root
            sgn = {f: 1}
            domain[f] = d
            ok = True
            queue = deque([f])
            while queue:
                g = queue.popleft()
                for h, s in neigh[g]:
                    want = sgn[g] * s
                    if h not in sgn:
                        sgn[h] = want
                        domain[h] = d
                        queue.append(h)
                    elif sgn[h] != want:
                        ok = False
            orientable.append(ok)
    return domain, orientable


def ref_invariants(surface: RefSurface, labels):
    """(kappa, beta, sigma, omega) computed with BFS and cycle signs."""
    domain, orientable = ref_domains(surface, labels)
    kappa = len(orientable)
    omega = 0 if all(orientable) else 1

    # boundary set
    bset = [e for f1, f2, _s, e in surface.adjacency if domain[f1] != domain[f2]]

    # sigma via the vertex census
    count = defaultdict(int)
    for e in bset:
        for v in surface.edge_endpoints(e):
            count[v] += 1
    total = 0
    for v, n in count.items():
        if v in surface.boundary_vertices:
            total += n
        elif n >= 3:
            total += n - 2
    assert total % 2 == 0
    sigma = total // 2

    # beta via BFS component counts of edge subgraphs
    def n_components(edges):
        adj = defaultdict(list)
        for e in edges:
            a, b = surface.edge_endpoints(e)
            adj[a].append(b)
            adj[b].append(a)
        seen = set()
        comps = 0
        for v in adj:
            if v in seen:
                continue
            comps += 1
            queue = deque([v])
            seen.add(v)
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return comps

    beta = n_components(list(surface.boundary_edges) + bset) - n_components(
        list(surface.boundary_edges)
    )
    return kappa, beta, sigma, omega


def _bfs_components(nodes, neigh):
    """Node -> component number, numbered in order of first appearance."""
    comp = {}
    k = -1
    for s in nodes:
        if s in comp:
            continue
        k += 1
        comp[s] = k
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in neigh[u]:
                if w not in comp:
                    comp[w] = k
                    queue.append(w)
    return comp


def ref_closure(surface: RefSurface, labels):
    """Per-domain (chi, boundary circles) of the abstract domain closures.

    Corner slots are (face, raw corner) pairs.  Gluing two faces of one
    domain along a shared edge identifies the slots at matching endpoints;
    the slot orbits (by BFS) are the closure's vertices, so
    chi = V - (4f - g) + f with g glued edges.  Boundary circles come from
    walking the unglued sides from orbit to orbit.
    """
    W, H = surface.W, surface.H
    faces = [(i, j) for j in range(H) for i in range(W)]

    def lab(f):
        return labels[f[1] * W + f[0]]

    same = defaultdict(list)
    for f1, f2, _s, _e in surface.adjacency:
        if lab(f1) == lab(f2):
            same[f1].append(f2)
            same[f2].append(f1)
    domain = _bfs_components(faces, same)

    slots = []
    for i, j in faces:
        for corner in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            slots.append(((i, j), _vkey(*corner)))
    link = defaultdict(list)
    glued = defaultdict(int)
    unglued = []  # (face, raw edge) sides left open in the closure
    for e, inc in surface.edge_faces.items():
        if len(inc) == 2 and domain[inc[0][0]] == domain[inc[1][0]]:
            (f1, r1), (f2, r2) = inc
            glued[domain[f1]] += 1
            ends2 = _raw_ends(r2)
            for p in _raw_ends(r1):
                (q,) = [q for q in ends2 if surface.find(q) == surface.find(p)]
                link[(f1, p)].append((f2, q))
                link[(f2, q)].append((f1, p))
        else:
            unglued.extend(inc)
    orbit = _bfs_components(slots, link)

    walk = defaultdict(list)
    for f, raw in unglued:
        a, b = (orbit[(f, p)] for p in _raw_ends(raw))
        walk[a].append(b)
        walk[b].append(a)
    cycle = _bfs_components(list(walk), walk)

    n_domains = len(set(domain.values()))
    out = []
    for d in range(n_domains):
        f = sum(1 for g in faces if domain[g] == d)
        v = len({orbit[s] for s in slots if domain[s[0]] == d})
        q = len({cycle[orbit[(g, p)]] for g, raw in unglued if domain[g] == d
                 for p in _raw_ends(raw)})
        out.append((v - (4 * f - glued[d]) + f, q))
    return out

"""The benchmark's own graph specs, input moves and correctness oracles.

Nothing here calls into ghom: graphs are plain (name, vertices, edges)
specs, and every check recomputes what it needs from the spec, so an
answer from the library is never trusted to check itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """A graph as the benchmark knows it: declaration order and edge list."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def adjacency(self) -> dict[str, set[str]]:
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def looped(self) -> frozenset[str]:
        return frozenset(u for u, v in self.edges if u == v)


def spec(name, vertices, edges, loops=False) -> Spec:
    vs = tuple(vertices)
    es = list(edges)
    if loops:
        es.extend((v, v) for v in vs)
    return Spec(name, vs, tuple(es))


def cycle(n, loops=False, prefix="") -> Spec:
    vs = [f"{prefix}{i}" for i in range(n)]
    return spec(f"{'looped ' if loops else ''}C{n}", vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)], loops)


def path(n, loops=False) -> Spec:
    vs = [str(i) for i in range(n + 1)]
    return spec(f"{'looped ' if loops else ''}P{n}", vs, [(vs[i], vs[i + 1]) for i in range(n)], loops)


def complete(n, loops=False) -> Spec:
    vs = [str(i) for i in range(n)]
    return spec(f"{'looped ' if loops else ''}K{n}", vs,
                [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)], loops)


def wheel(n) -> Spec:
    """Rim C_n plus hub h."""
    rim = [f"r{i}" for i in range(n)]
    es = [(rim[i], rim[(i + 1) % n]) for i in range(n)] + [("h", r) for r in rim]
    return spec(f"W{n}", ["h"] + rim, es)


def king(m, n, loops=False) -> Spec:
    """m x n king-move grid."""
    vs = [f"k{i}_{j}" for i in range(m) for j in range(n)]
    es = []
    for i in range(m):
        for j in range(n):
            for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
                a, b = i + di, j + dj
                if 0 <= a < m and 0 <= b < n:
                    es.append((f"k{i}_{j}", f"k{a}_{b}"))
    return spec(f"{'looped ' if loops else ''}king{m}x{n}", vs, es, loops)


def product(g: Spec, h: Spec) -> Spec:
    """Categorical product with '_'-joined tokens."""
    vs = [f"{v}_{w}" for v in g.vertices for w in h.vertices]
    es = set()
    for v1, v2 in g.edges:
        for w1, w2 in h.edges:
            es.add((f"{v1}_{w1}", f"{v2}_{w2}"))
            es.add((f"{v1}_{w2}", f"{v2}_{w1}"))
    canon = {tuple(sorted(e)) for e in es}
    return spec(f"{g.name}x{h.name}", vs, sorted(canon))


def torus(m, n) -> Spec:
    t = product(cycle(m, prefix="a"), cycle(n, prefix="b"))
    return Spec(f"C{m}xC{n}", t.vertices, t.edges)


def pendant_square() -> Spec:
    """4-cycle d-a-c-e with the pendant edge c-b."""
    return spec("pendant square", "abcde", [("d", "a"), ("a", "c"), ("c", "e"), ("e", "d"), ("c", "b")])


def figure_eight() -> Spec:
    """Two 5-cycles sharing vertex 0."""
    vs = [str(i) for i in range(9)]
    lobe = lambda a, b, c, d: [("0", a), (a, b), (b, c), (c, d), (d, "0")]
    return spec("figure-eight", vs, lobe("1", "2", "3", "4") + lobe("5", "6", "7", "8"))


def gnp(rng, n, p, name) -> Spec:
    """Connected G(n, p): a random spanning path keeps every draw connected."""
    vs = [f"g{i}" for i in range(n)]
    es = {(vs[i], vs[i + 1]) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < p:
                es.add((vs[i], vs[j]))
    return spec(name, vs, sorted(es))


# -- walks and moves ----------------------------------------------------------


def random_walk(rng, adj, start, length, allowed=None):
    seq = [start]
    for _ in range(length):
        nbrs = sorted(w for w in adj[seq[-1]] if allowed is None or w in allowed)
        seq.append(rng.choice(nbrs))
    return tuple(seq)


def _moves(adj, looped, seq, looped_mode, max_len):
    """Every legal homotopy move on seq as (kind, position, vertex)."""
    n = len(seq) - 1
    out = [("prune", i, None) for i in range(n - 1) if seq[i] == seq[i + 2]]
    if looped_mode:
        out += [("lprune", i, None) for i in range(n) if seq[i] == seq[i + 1]]
    for i in range(1, n):
        for x in sorted(adj[seq[i - 1]] & adj[seq[i + 1]]):
            if x != seq[i] and (not looped_mode or (x in looped and x in adj[seq[i]])):
                out.append(("spider", i, x))
    if n + 2 <= max_len:
        out += [("unprune", i, x) for i in range(n + 1) for x in sorted(adj[seq[i]])
                if not looped_mode or x in looped]
    if looped_mode and n + 1 <= max_len:
        out += [("lunprune", i, None) for i in range(n + 1)]
    return out


def _apply(seq, kind, i, x):
    if kind == "prune":
        return seq[:i] + seq[i + 2:]
    if kind == "lprune":
        return seq[:i] + seq[i + 1:]
    if kind == "spider":
        return seq[:i] + (x,) + seq[i + 1:]
    if kind == "unprune":
        return seq[:i] + (seq[i], x) + seq[i:]
    return seq[:i] + (seq[i],) + seq[i:]


def scramble(rng, adj, looped, seq, moves, looped_mode, max_len):
    """Apply `moves` random homotopy moves: the result is homotopic to seq
    by construction."""
    for _ in range(moves):
        kind, i, x = rng.choice(_moves(adj, looped, seq, looped_mode, max_len))
        seq = _apply(seq, kind, i, x)
    return seq


def replay_walk(adj, looped, a, b, steps, looped_mode) -> bool:
    """Check an Equal certificate move by move against the spec."""
    seq = tuple(a)
    for st in steps:
        kind = type(st).__name__
        i = st.position
        n = len(seq) - 1
        if kind == "SpiderStep":
            ok = (0 < i < n and seq[i] == st.old and st.new != st.old
                  and st.new in adj[seq[i - 1]] and st.new in adj[seq[i + 1]]
                  and (not looped_mode or (st.new in looped and st.new in adj[st.old])))
            seq = seq[:i] + (st.new,) + seq[i + 1:] if ok else seq
        elif kind == "PruneStep":
            ok = 0 <= i <= n - 2 and seq[i] == seq[i + 2]
            seq = seq[:i] + seq[i + 2:] if ok else seq
        elif kind == "UnpruneStep":
            ok = 0 <= i <= n and st.via in adj[seq[i]] and (not looped_mode or st.via in looped)
            seq = seq[:i] + (seq[i], st.via) + seq[i:] if ok else seq
        elif kind == "LPruneStep":
            ok = looped_mode and 0 <= i < n and seq[i] == seq[i + 1]
            seq = seq[:i] + seq[i + 1:] if ok else seq
        elif kind == "LUnpruneStep":
            ok = looped_mode and 0 <= i <= n
            seq = seq[:i] + (seq[i],) + seq[i:] if ok else seq
        else:
            ok = False
        if not ok or any(v not in adj[u] for u, v in zip(seq, seq[1:])):
            return False
    return seq == tuple(b)


# -- morphisms ------------------------------------------------------------------


def is_morphism(src: Spec, tgt_adj, image: dict) -> bool:
    return all(image[v] in tgt_adj[image[u]] for u, v in src.edges)


def scramble_morphism(rng, src: Spec, tgt_adj, image: dict, moves) -> dict:
    """Random spider moves (change one vertex's image, stay a morphism,
    looped source vertices move only between adjacent images)."""
    looped = src.looped()
    image = dict(image)
    for _ in range(moves):
        options = []
        for x in src.vertices:
            for y in sorted(tgt_adj):
                if y == image[x] or (x in looped and y not in tgt_adj[image[x]]):
                    continue
                trial = dict(image, **{x: y})
                if is_morphism(src, tgt_adj, trial):
                    options.append((x, y))
        if not options:
            break
        x, y = rng.choice(options)
        image[x] = y
    return image


def replay_morphism(src: Spec, tgt_adj, f: dict, g: dict, steps) -> bool:
    looped = src.looped()
    cur = dict(f)
    for st in steps:
        if cur.get(st.vertex) != st.old or (st.vertex in looped and st.new not in tgt_adj[st.old]):
            return False
        cur[st.vertex] = st.new
        if not is_morphism(src, tgt_adj, cur):
            return False
    return cur == g


# -- algebra and folds --------------------------------------------------------------


def exponent_rows(relators, width):
    rows = []
    for w in relators:
        row = [0] * width
        for g, e in w.letters:
            row[g] += e
        rows.append(row)
    return rows


def sympy_invariants(rows, width):
    """(rank, torsion) of Z^width / rowspan(rows) from sympy's Smith form."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not rows or width == 0:
        return width, ()
    s = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(s[i, i])) for i in range(min(s.shape))]
    nonzero = [d for d in diag if d]
    return width - len(nonzero), tuple(d for d in nonzero if d > 1)


def is_stiff(vertices, adj) -> bool:
    return not any(u != x and adj[x] <= adj[u] for x in vertices for u in vertices)

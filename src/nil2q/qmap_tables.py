"""Value tables of enumerated q-maps (loaded by `qmaps._enumerate` only):
one packed-integer call per batch of maps of one fab, none per point."""

from __future__ import annotations

import functools
import itertools
import struct
from math import prod
from operator import mul

from . import abelian as ab
from .qmaps import _Memo

_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.lru_cache(maxsize=64)
def _packer(count, k, stride=1):
    """Pack `count` values below 256**k little-endian, each first of `stride` fields."""
    if k > 8:
        pad = bytes((stride - 1) * k)
        return lambda *values: b"".join([v.to_bytes(k, "little") + pad for v in values])
    unit = f"{_FORMATS[k]}{(stride - 1) * k}x"
    return struct.Struct(f"<{count}{_FORMATS[k]}" if stride == 1 else "<" + unit * count).pack


@functools.lru_cache(maxsize=64)
def _batch(m, n, k, steps, count):
    """For m maps over n points: ONES, the B-steps with masks times ONES, the
    packer of `count` columns (m values n fields apart), their shifts per
    B-coordinate, and the bytes, unpacker and map slices."""
    w, t = 8 * n * k, len(steps)
    ones = ((1 << w * m) - 1) // ((1 << w) - 1)
    unpack = (struct.Struct(f"<{m * n}{_FORMATS[k]}").unpack if k <= 8 else
              lambda raw: [int.from_bytes(raw[i:i + k], "little") for i in range(0, len(raw), k)])
    return (ones, tuple([s[:4] + (s[4] * ones,) for s in steps]), _packer(count * m, k, n),
            tuple([range(w * m * i, w * m * count, w * m * t) for i in range(t)]), n * k * m,
            unpack, tuple([slice(i, i + n) for i in range(0, m * n, n)]))


class _Kernel(dict):
    """H-index (position in `H.elements()`) -> element of H, built on first
    lookup: one memo per enumeration G -> H, so equal values of its maps are
    one object.  `fill` builds, on the first tabulation, G's n points (x,
    u), ordered by u then x (`index`: (u, x) -> position), and packs the
    monomials of `QMap.eval` over them, k bytes per field (`_packer`):
    `monos`, x_j, then quad_m(x), then u - kappa(x) mod G's B orders (which
    fcomm kills), kappa(x) being G's lift rows times quad(x) (x_j < D_j
    carries nothing).

    Field bounds, for D_j, d_i the A orders of G and H, e the largest B
    order e_t of H, X = sum_j (D_j - 1) and Q the sum of the quads' maxima:
    s_i = sum_j fab_ij x_j <= (d_i - 1) max(X, 1), fab reduced mod d_i; the
    unreduced base_t = sum_m rows_tm quad_m + sum_i floor(s_i/d_i) carry_it
    <= (e - 1) (Q + sum_i floor((d_i - 1) X / d_i)), rows reduced mod e_t;
    V_t = (base_t mod e_t) + fcomm.us + delta.quad + gamma.x <= (e - 1) (1 +
    Q + X + the sum of the us' maxima).  Every term is non-negative and b
    (`bits`) is the bit length of the largest bound, so every field is below
    2^b, and b >= bitlen(d - 1) for every order d of H.  A step (d, place,
    c, s, mask), d some d_i or e_t with its place value in H-indices, has s
    = b + bitlen(d - 1) <= 2b and c = ceil(2^s / d), so floor(v c / 2^s) =
    floor(v / d) for v < 2^b (c d = 2^s + r, 0 <= r < d: the error v r / (d
    2^s) < 2^(b-s) <= 1/d).  As c <= 2^(b+1), v c < 2^(2b+1) <= 2^(8k): no
    field of a product, quotient (its low 8k - s bits after the shift, kept
    by `mask`), remainder or H-index carries into the next.  `asteps` reduce
    s_i, `steps` base_t and V_t.

    A batch of M maps (`_batch`) puts field p of map m at m n + p: a column
    holds map m's coefficient in field m n and a monomial spans n fields,
    so no two products meet in one field, and ONES = sum_m 2^(8k n m) copies
    base_t and (fab(x), 0) to every map.  Each field holds the one-map sum;
    the steps, masks times ONES, reduce all M n fields with the same b, k."""

    __slots__ = ("source", "target", "index", "orders", "place", "k", "size", "bits",
                 "asteps", "steps", "monos", "batches")

    def __init__(self, source, target):
        self.source, self.target, self.index = source, target, None

    def fill(self):
        G, H = self.source, self.target
        apts = list(itertools.product(*map(range, G._orders)))
        bpts = list(itertools.product(*map(range, G._borders)))
        self.index = dict(zip(itertools.product(bpts, apts), itertools.count()))
        self.orders, n, r = H._orders + H._borders, len(self.index), G.rank
        self.place = [prod(self.orders[i + 1:]) for i in range(len(self.orders))]
        xs = list(zip(*apts))
        quads = [list(map(mul, xs[p], xs[i])) if p < i else [v * (v - 1) // 2 for v in xs[i]]
                 for i in range(r) for p in range(i + 1)]        # `nil2._quadratic`
        kappas = [[sum(map(mul, row, q)) for q in zip(*quads)]
                  for row in (G._lift_rows(ab._identity(r)) if G._borders else ())]
        us = [[(u - v) % e for u in bcol for v in kap]
              for bcol, kap, e in zip(zip(*bpts), kappas, G._borders)]
        x, q, m = sum(G._orders) - r, sum(map(max, quads)), max(H._borders, default=1) - 1
        self.bits = b = max([(d - 1) * max(x, 1) for d in H._orders] + [
            m * (q + sum([(d - 1) * x // d for d in H._orders])),
            m * (1 + q + x + sum(map(max, us)))]).bit_length()
        w = max(2 * b + 1, (prod(self.orders) - 1).bit_length())
        self.k = k = 1 << max(0, (w - 1).bit_length() - 3)     # bytes: a power of two
        self.size, ones = n * k, ((1 << 8 * k * n) - 1) // ((1 << 8 * k) - 1)
        cols, span = [c * len(bpts) for c in xs + quads] + us, 8 * k * n
        v = int.from_bytes(_packer(n * len(cols), k)(*itertools.chain(*cols)), "little")
        self.monos = [v >> i & (1 << span) - 1 for i in range(0, span * len(cols), span)]
        steps = [(d, place, -(-(1 << s) // d), s, ((1 << 8 * k - s) - 1) * ones)
                 for d, place in zip(self.orders, self.place) for s in (b + (d - 1).bit_length(),)]
        self.asteps, self.steps = tuple(steps[:len(H._orders)]), tuple(steps[len(H._orders):])
        self.batches = _Memo(functools.partial(_batch, n=n, k=k, steps=self.steps,
                                               count=len(cols) * len(self.steps)))

    def __missing__(self, i):
        H, coords = self.target, tuple([i // s % d for s, d in zip(self.place, self.orders)])
        self[i] = z = H.element_class(H, ab.AbElement(H.A, coords[:len(H._orders)]),
                                      ab.AbElement(H.B, coords[len(H._orders):]))
        return z


class _TablePlan:
    """The plan of an enumeration's maps with one fab.  `pack` computes
    over all of G at once, by the kernel's steps: s_i = sum_j fab_ij x_j,
    `apos`, the H-indices of (fab(x), 0) = (s_i mod d_i) by mixed radix,
    and `bases`, base_fab(x) mod e_t per B_H-coordinate t (`_Kernel`).
    `pending`: the fab's maps built but not yet yielded (`qmaps._enumerate`)."""

    __slots__ = ("kernel", "fab", "apos", "bases", "index", "pending")

    def __init__(self, kernel, fab):
        self.kernel, self.fab, self.bases, self.pending = kernel, fab, None, []

    def pack(self):
        kernel, H, fab = self.kernel, self.kernel.target, self.fab
        if kernel.index is None:
            kernel.fill()
        self.index, self.apos, sums = kernel.index, 0, []
        for row, (d, place, c, s, mask) in zip(fab.matrix, kernel.asteps):
            v = sum(map(mul, row, kernel.monos))        # x_j: the row has rank_G entries
            sums.append(d * ((v * c >> s) & mask))      # s_i - (s_i mod d_i), fieldwise
            self.apos += (v - sums[-1]) * place
        # nil2's closed form on packed values: its floor(s_i / d_i) divides
        # a multiple of d_i, so it is exact on every field at once
        rows = [[y % e for y in row] for row, e in zip(
            H._lift_rows(list(zip(*fab.matrix))), H._borders)]
        self.bases = [v - e * ((v * c >> s) & mask) for v, (e, _, c, s, mask) in zip(
            H._lift_sum(rows, kernel.monos[fab.source.rank:], sums), kernel.steps)]

    def tabulate(self, q):
        """Tabulate q and `pending`: base_fab(x) ONES + columns times monomials."""
        if self.bases is None:
            self.pack()
        kernel, maps, self.pending = self.kernel, [q, *self.pending], []
        ones, steps, pack, shifts, size, unpack, cuts = kernel.batches[len(maps),]
        idx = self.apos * ones
        if steps:       # the coefficients, j-major, then t, over the maps
            key, fcomm, flats = None, None, []
            for p in maps:
                if p.delta is not key or p.fcomm is not fcomm:
                    key, fcomm = p.delta, p.fcomm
                    shared = [c for i, col in enumerate(zip(*key)) for e in col[:i + 1]
                              for c in e.coords]
                    shared += itertools.chain.from_iterable(zip(*fcomm.matrix))
                flats.append([c for e in p.gamma for c in e.coords] + shared)
            cols, low = int.from_bytes(pack(*itertools.chain.from_iterable(zip(*flats))),
                                       "little"), (1 << 8 * size) - 1
            for v, (e, place, c, s, mask), offs in zip(self.bases, steps, shifts):
                v = sum(map(mul, kernel.monos, [cols >> o & low for o in offs]), v * ones)
                idx += (v - e * ((v * c >> s) & mask)) * place
        vals = list(map(kernel.__getitem__, unpack(idx.to_bytes(size, "little"))))
        for p, cut in zip(maps, cuts):
            p._table = vals[cut]

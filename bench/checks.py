"""Checks of each workload's outputs against computations made apart
from the program.

Each sweep kind has a checker built from one config.  `gather()` asks
the program, through its public API, for the outputs that records.csv
summarizes but does not hold (histograms, witnesses, nets); it runs once
per benchmark run.  `check(records, aux)` compares the records and those
outputs with the checker's own computations and returns one list of
errors per operation (one sweep instance or cell); an empty list means
the operation passed.  The own computations use no `distgraphs` code:
field arithmetic is done on coefficient vectors modulo the field's
modulus polynomial, graphs are plain edge lists, and distances are
recomputed with numpy.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

GUARD = 2.0**-40  # the program's documented relative guard band for epsilon radii


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def instance_seed(master: int, index: int) -> int:
    """The documented per-instance seed: SeedSequence(master, spawn_key=(index,))."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def resolve_size(spec, q: int, d: int) -> int:
    """Named size schedule entries in exact integer arithmetic."""
    if isinstance(spec, int):
        return spec
    if spec == "q":
        return q
    if spec == "q^{(d+1)/2}":
        x = q ** (d + 1)
        r = math.isqrt(x)
        return r if r * r == x else r + 1
    if spec == "q^d/2":
        return q**d // 2
    if spec == "q^d":
        return q**d
    raise ValueError(f"size spec {spec!r} not used by the benchmark")


def _bool(cell: str):
    return {"true": True, "false": False}.get(cell)


# -- own field arithmetic ---------------------------------------------------


class OwnField:
    """F_{p^k} as coefficient vectors over F_p modulo a monic modulus
    (low degree first).  Codes pack coefficients as sum(c_i p^i)."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = [int(c) for c in modulus]
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        self.powers = np.array([p**i for i in range(k)], dtype=np.int64)
        squares = self.codes(self.square(self.digits(np.arange(self.q))))
        self.nonzero_squares = set(int(c) for c in squares) - {0}

    def digits(self, codes) -> np.ndarray:
        """(..., k) coefficient vectors of packed codes."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes[..., None] // self.powers) % self.p

    def codes(self, coeffs: np.ndarray) -> np.ndarray:
        return (coeffs * self.powers).sum(axis=-1)

    def square(self, a: np.ndarray) -> np.ndarray:
        """Square of each (..., k) coefficient vector, reduced."""
        k, p = self.k, self.p
        prod = np.zeros(a.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                prod[..., i + j] += a[..., i] * a[..., j]
        for deg in range(2 * k - 2, k - 1, -1):
            top = prod[..., deg] % p
            for i in range(k):
                prod[..., deg - k + i] -= top * self.modulus[i]
        return prod[..., :k] % p

    def norm_codes(self, diff: np.ndarray) -> np.ndarray:
        """Codes of x_1^2 + ... + x_d^2 for (..., d, k) coefficient vectors."""
        return self.codes(self.square(diff).sum(axis=-2) % self.p)

    def eta(self, code: int) -> int:
        """Quadratic character."""
        return 0 if code == 0 else (1 if code in self.nonzero_squares else -1)

    def neg(self, code: int) -> int:
        return int(self.codes((-self.digits(code)) % self.p))


def own_histogram(field: OwnField, codes: np.ndarray) -> np.ndarray:
    """Ordered-pair norm counts over E x E, diagonal included.  For a
    prime field this is the plain sum of (x_i - y_i)^2 mod p; otherwise
    differences are taken coefficient-wise and squared through the
    field's own square of each element."""
    p, k, q = field.p, field.k, field.q
    digits = field.digits(codes).astype(np.int32)  # (n, d, k)
    square_digits = field.square(field.digits(np.arange(q))).astype(np.int32)  # (q, k)
    n, d = codes.shape
    counts = np.zeros(q, dtype=np.int64)
    step = max(1, (1 << 20) // max(n, 1))
    for lo in range(0, n, step):
        rows = digits[lo : lo + step]
        acc = 0
        for j in range(d):
            if k == 1:
                diff = (rows[:, None, j, 0] - digits[None, :, j, 0]) % p
                acc = acc + diff * diff
            else:
                diff = 0
                for i in range(k):
                    diff = diff + ((rows[:, None, j, i] - digits[None, :, j, i]) % p) * p**i
                acc = acc + square_digits[diff]
        norms = acc % p if k == 1 else field.codes(acc % p)
        counts += np.bincount(norms.ravel(), minlength=q)
    return counts


def sphere_histogram(field: OwnField, d: int) -> list[int]:
    """nu(t) for E = F_q^d: q^d times the size of the sphere of norm t,
    from the closed forms for the quadratic form x_1^2 + ... + x_d^2."""
    q = field.q
    minus_one = field.neg(1)
    if d % 2 == 0:
        eps = field.eta(minus_one) if (d // 2) % 2 else 1
        sizes = [q ** (d - 1) + eps * (q - 1) * q ** ((d - 2) // 2)]
        sizes += [q ** (d - 1) - eps * q ** ((d - 2) // 2)] * (q - 1)
    else:
        sign = (lambda t: field.neg(t)) if ((d - 1) // 2) % 2 else (lambda t: t)
        sizes = [q ** (d - 1)]
        sizes += [q ** (d - 1) + field.eta(sign(t)) * q ** ((d - 1) // 2) for t in range(1, q)]
    return [q**d * s for s in sizes]


# -- own graphs -------------------------------------------------------------


def pattern_edges(name: str) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, edges) of the catalog patterns the workloads use, in
    the catalog's labeling: C<n> i ~ i+1 mod n, P<n> i ~ i+1, K<n> all
    pairs, Q<k> bitstrings one flip apart."""
    kind, num = name[0], int(name[1:])
    if kind == "C":
        return num, [(i, (i + 1) % num) for i in range(num)]
    if kind == "P":
        return num, [(i, i + 1) for i in range(num - 1)]
    if kind == "K":
        return num, [(i, j) for i in range(num) for j in range(i + 1, num)]
    if kind == "Q":
        return 1 << num, [(v, v ^ (1 << b)) for v in range(1 << num) for b in range(num) if v < v ^ (1 << b)]
    raise ValueError(f"pattern {name!r} not used by the benchmark")


def brute_contains(n: int, edges: set, pattern: str) -> bool:
    """Whether the graph contains the pattern, over every injective map."""
    m, pedges = pattern_edges(pattern)
    for image in permutations(range(n), m):
        if all(frozenset((image[u], image[v])) in edges for u, v in pedges):
            return True
    return False


# ex(n, C4), OEIS A006855, n = 1..10
EX_C4 = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 10: 16}


def known_ex(pattern: str, n: int) -> int:
    """Mantel for K3, Faudree-Schelp for P4, the A006855 table for C4."""
    if pattern == "K3":
        return n * n // 4
    if pattern == "P4":
        a, r = divmod(n, 3)
        return 3 * a + r * (r - 1) // 2
    if pattern == "C4":
        return EX_C4[n]
    raise ValueError(f"no known ex(n, {pattern}) in the benchmark")


# -- ir-sweep ---------------------------------------------------------------


class IRCheck:
    def __init__(self, config: dict):
        p = config["params"]
        self.instances = []
        index = 0
        for pk in p["fields"]:
            for d in p["dims"]:
                for size_spec in p["sizes"]:
                    q = pk[0] ** pk[1]
                    for trial in range(p["trials"]):
                        self.instances.append({
                            "p": pk[0], "k": pk[1], "q": q, "d": d,
                            "size_spec": str(size_spec), "size": resolve_size(size_spec, q, d),
                            "trial": trial, "seed": instance_seed(config["seed"], index),
                        })
                        index += 1
        self._own = {}

    @property
    def operations(self) -> int:
        return len(self.instances)

    def gather(self) -> list[dict]:
        from distgraphs import ffgeom
        from distgraphs.field import make_field

        aux = []
        for inst in self.instances:
            spec = make_field(inst["p"], inst["k"])
            E = ffgeom.random_subset(spec, inst["d"], inst["size"], seed=inst["seed"])
            aux.append({
                "modulus": list(spec.modulus),
                "codes": np.array(E.codes),
                "counts": np.array(ffgeom.distance_histogram(E).counts),
            })
        return aux

    def _reference(self, i: int, inst: dict, aux: dict) -> dict:
        """Own histogram and verdict, computed once per instance (a
        checker's aux outputs are gathered once and then fixed)."""
        if i not in self._own:
            field = OwnField(inst["p"], inst["k"], aux["modulus"])
            counts = own_histogram(field, aux["codes"])
            q, d, n = inst["q"], inst["d"], inst["size"]
            rhs = 4 * q ** (d + 1) * n * n
            bound = 2.0 * math.sqrt(float(q ** (d - 1))) * n
            scaled = [q * int(counts[t]) - n * n for t in range(1, q)]
            self._own[i] = {
                "counts": counts,
                "sphere": sphere_histogram(field, d) if n == q**d else None,
                "pass": all(s * s <= rhs for s in scaled),
                "worst_slack": min(bound - abs(float(Fraction(s, q))) for s in scaled),
            }
        return self._own[i]

    def check(self, records: list[dict], aux: list[dict]) -> list[list[str]]:
        out = []
        for i, inst in enumerate(self.instances):
            errors = []
            rec = records[i] if i < len(records) else None
            if rec is None:
                out.append(["record missing"])
                continue
            for key, want in inst.items():
                if rec[key] != str(want):
                    errors.append(f"{key} = {rec[key]}, expected {want}")
            a = aux[i]
            codes = a["codes"]
            if codes.shape != (inst["size"], inst["d"]) or len(np.unique(codes, axis=0)) != len(codes):
                errors.append("sampled set has the wrong shape or repeated points")
            own = self._reference(i, inst, a)
            counts = np.asarray(a["counts"])
            if int(own["counts"].sum()) != inst["size"] ** 2:
                errors.append("own counts do not sum to |E|^2")
            if int(counts.sum()) != inst["size"] ** 2:
                errors.append("histogram counts do not sum to |E|^2")
            if not np.array_equal(counts, own["counts"]):
                bad = np.flatnonzero(counts != own["counts"]).tolist()
                errors.append(f"histogram differs from the recomputation at t codes {bad}")
            if own["sphere"] is not None and own["counts"].tolist() != own["sphere"]:
                errors.append("full-space histogram differs from the sphere sizes")
            if _bool(rec["pass"]) != own["pass"]:
                errors.append(f"pass = {rec['pass']}, recomputed {own['pass']}")
            if _bool(rec["sum_ok"]) is not True:
                errors.append("sum_ok is not true")
            slack = float(rec["worst_slack"])
            if abs(slack - own["worst_slack"]) > 1e-9 * max(1.0, abs(own["worst_slack"])):
                errors.append(f"worst_slack = {slack}, recomputed {own['worst_slack']}")
            out.append(errors)
        return out


# -- threshold ----------------------------------------------------------------


class ThresholdCheck:
    def __init__(self, config: dict):
        p = config["params"]
        self.pk = tuple(p["field"])
        self.d = p["d"]
        self.q = self.pk[0] ** self.pk[1]
        self.graph = p["graph"]
        sizes = sorted({resolve_size(s, self.q, self.d) for s in p["sizes"]})
        self.instances = []
        index = 0
        for size in sizes:
            for trial in range(p["trials"]):
                self.instances.append({
                    "q": self.q, "d": self.d, "graph": self.graph, "size": size,
                    "trial": trial, "seed": instance_seed(config["seed"], index),
                })
                index += 1

    @property
    def operations(self) -> int:
        return len(self.instances)

    def gather(self) -> list[dict]:
        from distgraphs import ffgeom
        from distgraphs.field import make_field
        from distgraphs.graphs import graph_from_name

        spec = make_field(*self.pk)
        pattern = graph_from_name(self.graph)
        aux = []
        for inst in self.instances:
            E = ffgeom.random_subset(spec, self.d, inst["size"], seed=inst["seed"])
            ds = ffgeom.graph_distance_set(E, pattern)
            aux.append({
                "modulus": list(spec.modulus),
                "codes": np.array(E.codes),
                "contained": sorted(ds.contained),
                "indeterminate": sorted(ds.indeterminate),
                "witnesses": {t: list(w.mapping) for t, w in ds.witnesses.items()},
            })
        return aux

    def check(self, records: list[dict], aux: list[dict]) -> list[list[str]]:
        m, pedges = pattern_edges(self.graph)
        field = None
        out = []
        for i, inst in enumerate(self.instances):
            rec = records[i] if i < len(records) else None
            if rec is None:
                out.append(["record missing"])
                continue
            errors = [
                f"{key} = {rec[key]}, expected {want}"
                for key, want in inst.items()
                if rec[key] != str(want)
            ]
            a = aux[i]
            field = field or OwnField(self.pk[0], self.pk[1], a["modulus"])
            digits = field.digits(a["codes"])
            n = len(digits)
            if a["indeterminate"] or _bool(rec["indeterminate"]) or rec["n_indeterminate"] != "0":
                errors.append("indeterminate without a search budget")
            if rec["n_contained"] != str(len(a["contained"])):
                errors.append(f"n_contained = {rec['n_contained']}, distance set has {len(a['contained'])}")
            for t in a["contained"]:
                mapping = a["witnesses"].get(t)
                if mapping is None:
                    errors.append(f"t = {t} contained without a witness")
                    continue
                if len(mapping) != m or len(set(mapping)) != m or not all(0 <= v < n for v in mapping):
                    errors.append(f"t = {t}: witness is not an injective map into E")
                    continue
                us = [mapping[u] for u, _ in pedges]
                vs = [mapping[v] for _, v in pedges]
                norms = field.norm_codes((digits[us] - digits[vs]) % field.p)
                if not np.all(norms == t):
                    errors.append(f"t = {t}: a witness edge is not a norm-{t} difference")
            covers = all(t in a["contained"] for t in range(1, self.q))
            if _bool(rec["success"]) != covers:
                errors.append(f"success = {rec['success']}, distance set covers all nonzero t: {covers}")
            if inst["size"] == self.q**self.d and _bool(rec["success"]) is not True:
                errors.append("the full space does not succeed")
            out.append(errors)
        return out


# -- extremal-table -------------------------------------------------------------


class ExtremalCheck:
    def __init__(self, config: dict):
        p = config["params"]
        self.exhaustive_max = p.get("exhaustive_max", 7)
        self.cells = sorted((g, n) for g in p["graphs"] for n in p["n_values"])

    @property
    def operations(self) -> int:
        return len(self.cells)

    def gather(self) -> list:
        return []

    def check(self, records: list[dict], aux: list) -> list[list[str]]:
        by_cell = {(r["graph"], int(r["n"])): r for r in records}
        out = []
        for graph, n in self.cells:
            rec = by_cell.get((graph, n))
            if rec is None:
                out.append(["record missing"])
                continue
            errors = []
            want = known_ex(graph, n)
            if rec["ex"] != str(want):
                errors.append(f"ex({n}, {graph}) = {rec['ex']}, known value {want}")
            method = "exhaustive" if n <= self.exhaustive_max else "branch-bound"
            if rec["method"] != method:
                errors.append(f"method = {rec['method']}, expected {method}")
            if _bool(rec["cached"]) is not False or _bool(rec["verified"]) is not True:
                errors.append("cell is cached or not verified")
            edges = set()
            for cell in filter(None, rec["witness_edges"].split(";")):
                u, v = (int(x) for x in cell.split("-"))
                if not 0 <= u < v < n or frozenset((u, v)) in edges:
                    errors.append(f"witness edge {cell} is not a new edge of K_{n}")
                edges.add(frozenset((u, v)))
            if len(edges) != int(rec["ex"] or -1):
                errors.append(f"witness has {len(edges)} edges, ex = {rec['ex']}")
            if brute_contains(n, edges, graph):
                errors.append(f"witness contains {graph}")
            out.append(errors)
        return out


# -- adreg-scan ---------------------------------------------------------------


def own_cloud(d: int, contraction: float, depth: int) -> np.ndarray:
    """Depth-n cell centers of the d-fold central Cantor product, first
    axis slowest, from the binary digits of each cell's address."""
    idx = np.arange(1 << depth)
    axis = np.full(len(idx), contraction**depth / 2.0)
    for j in range(depth):
        bit = (idx >> (depth - 1 - j)) & 1
        axis += bit * (1.0 - contraction) * contraction**j
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _nearest_d2(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest center."""
    out = np.empty(len(points))
    step = max(1, (1 << 21) // max(len(centers), 1))
    for lo in range(0, len(points), step):
        diff = points[lo : lo + step, None, :] - centers[None, :, :]
        out[lo : lo + step] = (diff * diff).sum(axis=2).min(axis=1)
    return out


def _pair_dist(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


class AdregCheck:
    def __init__(self, config: dict):
        p = config["params"]
        self.specs = [(s["d"], s["contraction"], s["depth"]) for s in p["specs"]]
        self.eps = sorted(float(e) for e in p["eps"])
        self.approx_eps = [float(e) for e in p["approx_eps"]]
        self.t_grid = [float(t) for t in p["t_grid"]]
        self.band = tuple(p.get("band", (0.125, 8.0)))
        self.graph = p.get("graph", "C6")
        self._own = {}

    @property
    def operations(self) -> int:
        return len(self.specs)

    def gather(self) -> list[dict]:
        from distgraphs import adreg

        aux = []
        for d, lam, depth in self.specs:
            cloud = adreg.cantor_product(adreg.FractalSpec(d, lam, depth))
            aux.append({
                "cloud": np.array(cloud.points),
                "nets": {e: np.array(adreg.greedy_net(cloud, e).center_indices) for e in self.eps},
            })
        return aux

    def _net_errors(self, cloud: np.ndarray, idx: np.ndarray, e: float) -> list[str]:
        centers = cloud[idx]
        errors = []
        dist = _pair_dist(centers)
        np.fill_diagonal(dist, np.inf)
        if dist.size and dist.min() <= 3.0 * e * (1.0 - GUARD):
            errors.append(f"eps {e}: net centers closer than 3 eps")
        if _nearest_d2(cloud, centers).max() > (3.0 * e * (1.0 + GUARD)) ** 2:
            errors.append(f"eps {e}: a cloud point is not within 3 eps of a center")
        return errors

    def _reference(self, i: int, a: dict) -> dict:
        """Own cloud and net checks, computed once per spec."""
        if i not in self._own:
            d, lam, depth = self.specs[i]
            cloud = own_cloud(d, lam, depth)
            errors = []
            if cloud.shape != a["cloud"].shape or np.abs(cloud - a["cloud"]).max() > 1e-12:
                errors.append("cloud differs from the Cantor-product construction")
            else:
                for e in self.eps:
                    errors += self._net_errors(cloud, a["nets"][e], e)
            self._own[i] = {"cloud": cloud, "errors": errors}
        return self._own[i]

    def check(self, records: list[dict], aux: list[dict]) -> list[list[str]]:
        out = []
        for i, (d, lam, depth) in enumerate(self.specs):
            a = aux[i]
            own = self._reference(i, a)
            errors = list(own["errors"])
            cloud = own["cloud"]
            s = d * math.log(2.0) / math.log(1.0 / lam)
            rows = [r for r in records if (int(r["d"]), float(r["contraction"]), int(r["depth"])) == (d, lam, depth)]
            kinds = {k: [r for r in rows if r["record"] == k] for k in ("net", "annulus", "scaling", "approx", "summary")}
            if [float(r["eps"]) for r in kinds["net"]] != self.eps or len(kinds["summary"]) != 1:
                out.append(errors + ["net or summary rows missing"])
                continue
            for r in kinds["net"]:
                e = float(r["eps"])
                size = len(a["nets"][e])
                if int(r["net_size"]) != size or _bool(r["net_valid"]) is not True:
                    errors.append(f"eps {e}: net row {r['net_size']}/{r['net_valid']}, net has {size} centers")
                if abs(float(r["n_eps_s"]) - size * e**s) > 1e-9 * size * e**s:
                    errors.append(f"eps {e}: n_eps_s is not net_size * eps^s")
            summary = kinds["summary"][0]
            best_t = float(summary["t"])
            eps_mid = self.eps[len(self.eps) // 2]
            scan = [(float(r["t"]), float(r["band_fraction"])) for r in kinds["annulus"]]
            if [t for t, _ in scan] != self.t_grid or any(float(r["eps"]) != eps_mid for r in kinds["annulus"]):
                errors.append("annulus rows do not scan the t grid at the middle scale")
            elif best_t != max(scan, key=lambda tf: tf[1])[0]:
                errors.append(f"best-band t {best_t} is not the first t of largest band fraction")
            else:
                centers = cloud[a["nets"][eps_mid]]
                counts = np.array([
                    np.count_nonzero((dist > best_t) & (dist <= best_t + eps_mid))
                    for dist in (np.sqrt(((cloud - c) ** 2).sum(axis=1)) for c in centers)
                ])
                masses = counts / float(1 << (depth * d))
                inside = (masses >= self.band[0] * eps_mid) & (masses <= self.band[1] * eps_mid)
                frac = dict(scan)[best_t]
                if abs(float(inside.mean()) - frac) > 1e-12:
                    errors.append(f"band fraction at t {best_t} is {frac}, recomputed {inside.mean()}")
            edges = {}
            for e in self.eps:
                dist = _pair_dist(cloud[a["nets"][e]])
                edges[e] = int(np.count_nonzero(np.triu(np.abs(dist - best_t) < 10.0 * e, 1)))
            scaling = {float(r["eps"]): r for r in kinds["scaling"]}
            for e in self.eps:
                r = scaling.get(e)
                if r is None or float(r["t"]) != best_t:
                    errors.append(f"eps {e}: scaling row missing or at another t")
                elif int(r["edges"]) != edges[e] or int(r["net_size"]) != len(a["nets"][e]):
                    errors.append(f"eps {e}: {r['edges']} edges reported, {edges[e]} recounted")
            xs = np.log(1.0 / np.array(self.eps))
            ys = np.log(np.array([edges[e] for e in self.eps], dtype=float))
            slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum())
            reported = float(summary["n_eps_s"] or "nan")
            if not abs(reported - slope) <= 1e-9 * abs(slope):
                errors.append(f"slope {reported}, refitted {slope}")
            if not abs(reported - (2.0 * s - 1.0)) <= 0.3:
                errors.append(f"slope {reported} is not within 0.3 of 2s - 1 = {2.0 * s - 1.0}")
            m, pedges = pattern_edges(self.graph)
            approx = {float(r["eps"]): r for r in kinds["approx"]}
            for e in self.approx_eps:
                r = approx.get(e)
                if r is None or _bool(r["found"]) is not True or _bool(r["witness_valid"]) is not True:
                    errors.append(f"eps {e}: no validated approximation witness")
                    continue
                idx = [int(x) for x in r["witness_indices"].split(";")]
                if len(idx) != m or not set(idx) <= set(a["nets"][e].tolist()):
                    errors.append(f"eps {e}: witness is not {m} net centers")
                    continue
                dist = _pair_dist(cloud[idx])
                far = all(dist[u, v] > 3.0 * e * (1.0 - GUARD) for u in range(m) for v in range(u + 1, m))
                near = all(abs(dist[u, v] - best_t) < 10.0 * e * (1.0 + GUARD) for u, v in pedges)
                if not (far and near):
                    errors.append(f"eps {e}: witness fails separation or the 10 eps tolerance")
            out.append(errors)
        return out


CHECKERS = {
    "ir-sweep": IRCheck,
    "threshold": ThresholdCheck,
    "extremal-table": ExtremalCheck,
    "adreg-scan": AdregCheck,
}


def checker(config: dict):
    return CHECKERS[config["kind"]](config)
